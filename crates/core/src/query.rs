//! The unified query surface: one builder over every algorithm and
//! predicate.
//!
//! The paper's central claim is *unification* — one algorithm serving indexed
//! and non-indexed inputs alike. This module lifts that unification to the
//! API: instead of choosing between `SssjJoin`/`PbsmJoin`/`PqJoin`/`StJoin`,
//! by hand, callers describe the query
//! once and let the builder lower it:
//!
//! ```text
//! SpatialQuery::new(left, right)      -- what to join
//!     .algorithm(Algo::Auto)          -- how (or let the §6.3 cost model pick)
//!     .predicate(Predicate::WithinDistance(eps))
//!     .plan(&mut env)?                -- inspectable QueryPlan, or
//!     .execute(&mut env, &mut sink)?  -- stream pairs into any PairSink
//! ```
//!
//! Every combination of algorithm × predicate is reachable, and
//! the output streams through a [`PairSink`] — counting, collecting,
//! sampling and LIMIT-style early termination all compose with every plan.
//!
//! This module is also the crate's **single algorithm-dispatch site**
//! ([`JoinAlgorithm::run`] and the experiment harness route through it), so
//! adding an algorithm means touching exactly one `match`.

use std::fmt;

use usj_geom::{Rect, ITEM_BYTES};
use usj_io::stream::DEFAULT_PAGES_PER_BLOCK;
use usj_io::{extsort, Result, SimEnv, PAGE_SIZE};

use crate::cost::{self, CostEstimate, JoinPlan};
use crate::input::JoinInput;
use crate::pbsm::{PbsmJoin, ENVELOPE, MAX_SPLIT_DEPTH, SPLIT_PARTITIONS};
use crate::pq::PqJoin;
use crate::predicate::Predicate;
use crate::result::JoinResult;
use crate::sink::{CollectSink, CountSink, LimitSink, PairSink};
use crate::sssj::SssjJoin;
use crate::st::StJoin;
use crate::{JoinAlgorithm, JoinOperator};

/// The algorithm selection of a [`SpatialQuery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algo {
    /// Let the Section 6.3 cost model decide between the indexed (pruned PQ)
    /// and non-indexed (SSSJ) strategies: [`cost::estimate`] predicts the
    /// I/O and CPU each plan's passes will charge under the environment's
    /// machine and memory limit, and prices both as the charge is priced.
    /// An input with tiers, which the model does not price, runs SSSJ.
    #[default]
    Auto,
    /// Scalable Sweeping-based Spatial Join (sort + sweep, ignores indexes).
    Sssj,
    /// Partition-Based Spatial Merge join (tile-hash partitioning).
    Pbsm,
    /// Priority-Queue-Driven Traversal (the paper's unified algorithm).
    Pq,
    /// Synchronized R-tree Traversal (builds indexes on non-indexed inputs).
    St,
}

impl From<JoinAlgorithm> for Algo {
    fn from(alg: JoinAlgorithm) -> Self {
        match alg {
            JoinAlgorithm::Sssj => Algo::Sssj,
            JoinAlgorithm::Pbsm => Algo::Pbsm,
            JoinAlgorithm::Pq => Algo::Pq,
            JoinAlgorithm::St => Algo::St,
        }
    }
}

/// The lowered, inspectable form of a [`SpatialQuery`]: which algorithm will
/// run, why, and what it is expected to do under the memory limit.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// The concrete algorithm the query lowers to ([`Algo::Auto`] resolved).
    pub algorithm: JoinAlgorithm,
    /// The pair-selection predicate.
    pub predicate: Predicate,
    /// The §6.3 cost estimate, present when [`Algo::Auto`] consulted it.
    pub cost: Option<CostEstimate>,
    /// The strategy the estimate picked, present when [`Algo::Auto`]
    /// consulted it.
    pub chosen: Option<JoinPlan>,
    /// How the plan expects to behave under the environment's internal
    /// memory limit (repartitioning depth, spill volume).
    pub memory: MemoryPlan,
}

/// The memory-adaptivity part of a [`QueryPlan`]: what the memory governor
/// is expected to make the chosen algorithm do under the environment's
/// limit. Both figures are *planning heuristics* — uniform-distribution
/// upper bounds, not measurements; the measured counterpart arrives in
/// `JoinResult` (`memory.peak_bytes`, `sweep.spilled_items`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryPlan {
    /// The internal-memory limit (bytes) the plan was made against.
    pub memory_limit: usize,
    /// Expected PBSM repartitioning depth: `0` when every level-1 partition
    /// is expected to fit, `n` when `n` recursive splitting levels are
    /// expected. Always `0` for the non-partitioning algorithms.
    pub partition_depth: u32,
    /// Expected bytes the sweep driver will spill to the simulated device —
    /// the amount by which the worst-case sweep working set exceeds its
    /// budget. `0` when everything is expected to fit.
    pub spill_estimate_bytes: u64,
}

impl MemoryPlan {
    /// Computes the heuristic for `algorithm` over `left` and `right` with
    /// the runtime sizing rules: PBSM's own partition count
    /// (`PbsmJoin::partition_count`), a partition admitted when its
    /// [`ENVELOPE`]× in-memory envelope fits the full memory, and — uniform
    /// data shrinks at every split, so the non-shrinking rule never cuts
    /// the recursion short — one [`SPLIT_PARTITIONS`]-way split per level
    /// up to [`MAX_SPLIT_DEPTH`]; for SSSJ/PQ the [`SweepPlan`]'s worst
    /// case.
    fn estimate(
        algorithm: JoinAlgorithm,
        memory_limit: usize,
        left: &JoinInput<'_>,
        right: &JoinInput<'_>,
    ) -> MemoryPlan {
        let mut plan = MemoryPlan {
            memory_limit,
            partition_depth: 0,
            spill_estimate_bytes: 0,
        };
        match algorithm {
            JoinAlgorithm::Pbsm => {
                let total_bytes = (left.len() + right.len()) * ITEM_BYTES as u64;
                let partitions = PbsmJoin::default().partition_count(memory_limit, total_bytes);
                let mut need = ENVELOPE as u64 * total_bytes / partitions as u64;
                let budget = memory_limit.max(1) as u64;
                while need > budget && (plan.partition_depth as usize) < MAX_SPLIT_DEPTH {
                    plan.partition_depth += 1;
                    need /= SPLIT_PARTITIONS as u64;
                }
            }
            JoinAlgorithm::Sssj | JoinAlgorithm::Pq => {
                plan.spill_estimate_bytes =
                    SweepPlan::new(algorithm, memory_limit, [left, right]).spill_estimate_bytes();
            }
            JoinAlgorithm::St => {}
        }
        plan
    }
}

/// How SSSJ or PQ feeds its sweep under a memory limit, fixed before
/// anything runs: which sides' sorts leave their last merge to the sweep
/// instead of writing it and reading it back.
///
/// The plan's worst case is the whole smaller side alive at one sweep
/// position, against a sweep budget of half of what the sides' reader
/// blocks leave free. A side whose sort ends in more than one run streams
/// them when, with one reader block charged per streamed run, the streamed
/// runs' blocks of both sides still fit the half of memory the sort's
/// merge fan-in is sized by and the worst case still fits; otherwise its
/// sort writes its last merge. Left is decided first. A sweep that spills
/// costs more than the saved pass, so where the sweep is expected to
/// spill, every last merge is written.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SweepPlan {
    memory_limit: usize,
    sides: [SweepSide; 2],
    /// Per side, whether its sort stops at its last level and the sweep
    /// reads that level's merge.
    pub(crate) streamed: [bool; 2],
}

/// One input of the sweep as the plan sees it.
#[derive(Debug, Clone, Copy)]
struct SweepSide {
    items: u64,
    /// Block size, in pages, of the runs of the side's sort; `None` when
    /// the side reaches the sweep unsorted by the join.
    sort_block: Option<u64>,
}

impl SweepSide {
    fn bytes(&self) -> u64 {
        self.items * ITEM_BYTES as u64
    }

    /// Runs of the side's sort's last merge under `memory_limit` (one for
    /// a side the join does not sort).
    fn last_level_runs(&self, memory_limit: usize) -> u64 {
        self.sort_block.map_or(1, |pages| {
            extsort::last_level_runs(self.items, memory_limit, pages)
        })
    }

    /// Bytes of the side's reader blocks: one block of its sort's runs per
    /// run the sweep merges when `streamed`, otherwise one block (of the
    /// default size for a side the join does not sort).
    fn reader_bytes(&self, memory_limit: usize, streamed: bool) -> u64 {
        let pages = self.sort_block.unwrap_or(DEFAULT_PAGES_PER_BLOCK);
        let blocks = if streamed {
            self.last_level_runs(memory_limit)
        } else {
            1
        };
        self.bytes().min(blocks * pages * PAGE_SIZE as u64)
    }
}

impl SweepPlan {
    /// The plan of `algorithm` (SSSJ or PQ) over `inputs` under
    /// `memory_limit`. SSSJ sorts streams and dumped trees, PQ streams
    /// only; a sorted stream or a cataloged relation is read as it is.
    pub(crate) fn new(
        algorithm: JoinAlgorithm,
        memory_limit: usize,
        inputs: [&JoinInput<'_>; 2],
    ) -> SweepPlan {
        let sides = inputs.map(|input| SweepSide {
            items: input.len(),
            sort_block: match input {
                JoinInput::Stream(s) => Some(s.pages_per_block()),
                JoinInput::Indexed(_) if algorithm == JoinAlgorithm::Sssj => {
                    Some(DEFAULT_PAGES_PER_BLOCK)
                }
                _ => None,
            },
        });
        let mut plan = SweepPlan {
            memory_limit,
            sides,
            streamed: [false; 2],
        };
        for (side, s) in sides.iter().enumerate() {
            if s.last_level_runs(memory_limit) < 2 {
                continue;
            }
            let mut trial = plan;
            trial.streamed[side] = true;
            if trial.reader_bytes(true) <= (memory_limit / 2) as u64
                && trial.spill_estimate_bytes() == 0
            {
                plan = trial;
            }
        }
        plan
    }

    /// Bytes of the reader blocks of the sides that stream their last
    /// merge when `streamed_only`, else of both sides'.
    fn reader_bytes(&self, streamed_only: bool) -> u64 {
        (0..2)
            .filter(|&s| self.streamed[s] || !streamed_only)
            .map(|s| self.sides[s].reader_bytes(self.memory_limit, self.streamed[s]))
            .sum()
    }

    /// The worst case's spill: the bytes by which the smaller side exceeds
    /// half of what the reader blocks leave free.
    fn spill_estimate_bytes(&self) -> u64 {
        let budget = (self.memory_limit as u64).saturating_sub(self.reader_bytes(false)) / 2;
        let smaller = self.sides[0].bytes().min(self.sides[1].bytes());
        smaller.saturating_sub(budget)
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} join, {} predicate",
            self.algorithm.name(),
            self.predicate.name()
        )?;
        if let (Some(cost), Some(chosen)) = (&self.cost, &self.chosen) {
            write!(
                f,
                ", auto-selected {:?} (indexed {:.2}s vs sorted {:.2}s, touches {:.0}% of the index)",
                chosen,
                cost.indexed.total_secs(),
                cost.non_indexed.total_secs(),
                cost.touched_fraction * 100.0
            )?;
        }
        if self.memory.partition_depth > 0 {
            write!(
                f,
                ", ~{}-level repartitioning expected",
                self.memory.partition_depth
            )?;
        }
        if self.memory.spill_estimate_bytes > 0 {
            write!(
                f,
                ", ~{:.1} MB sweep spill expected",
                self.memory.spill_estimate_bytes as f64 / (1024.0 * 1024.0)
            )?;
        }
        let limit = self.memory.memory_limit;
        if limit < 1 << 20 {
            write!(f, " ({} KB memory limit)", limit >> 10)
        } else {
            write!(f, " ({} MB memory limit)", limit >> 20)
        }
    }
}

/// A fluent builder describing a two-way spatial join: inputs, algorithm and
/// predicate.
///
/// The builder lowers to an inspectable [`QueryPlan`] ([`SpatialQuery::plan`])
/// and executes through any [`PairSink`] ([`SpatialQuery::execute`]), with
/// [`run`](SpatialQuery::run) / [`count`](SpatialQuery::count) /
/// [`collect`](SpatialQuery::collect) / [`first`](SpatialQuery::first)
/// convenience wrappers for the common sinks.
///
/// # Example
///
/// ```
/// use usj_core::{Algo, JoinInput, Predicate, SpatialQuery};
/// use usj_geom::{Item, Rect};
/// use usj_io::{ItemStream, MachineConfig, SimEnv};
///
/// let mut env = SimEnv::new(MachineConfig::machine3());
/// let rows: Vec<Item> = (0..10)
///     .map(|i| Item::new(Rect::from_coords(0.0, i as f32, 10.0, i as f32 + 0.4), i))
///     .collect();
/// let cols: Vec<Item> = (0..10)
///     .map(|i| Item::new(Rect::from_coords(i as f32, 0.0, i as f32 + 0.4, 10.0), 100 + i))
///     .collect();
/// let l = ItemStream::from_items(&mut env, &rows).unwrap();
/// let r = ItemStream::from_items(&mut env, &cols).unwrap();
///
/// // Intersection join, algorithm picked by the cost model.
/// let n = SpatialQuery::new(JoinInput::Stream(&l), JoinInput::Stream(&r))
///     .algorithm(Algo::Auto)
///     .count(&mut env)
///     .unwrap();
/// assert_eq!(n, 100);
///
/// // The same query as an ε-distance join, stopping after 5 pairs.
/// let (_, pairs) = SpatialQuery::new(JoinInput::Stream(&l), JoinInput::Stream(&r))
///     .algorithm(Algo::Pq)
///     .predicate(Predicate::WithinDistance(0.5))
///     .first(&mut env, 5)
///     .unwrap();
/// assert_eq!(pairs.len(), 5);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SpatialQuery<'a> {
    left: JoinInput<'a>,
    right: JoinInput<'a>,
    algo: Algo,
    predicate: Predicate,
    region_hint: Option<Rect>,
}

impl<'a> SpatialQuery<'a> {
    /// Starts a query joining `left` against `right`.
    pub fn new(left: JoinInput<'a>, right: JoinInput<'a>) -> Self {
        SpatialQuery {
            left,
            right,
            algo: Algo::default(),
            predicate: Predicate::default(),
            region_hint: None,
        }
    }

    /// Selects the join algorithm (default: [`Algo::Auto`]).
    pub fn algorithm(mut self, algo: Algo) -> Self {
        self.algo = algo;
        self
    }

    /// Selects the pair predicate (default: [`Predicate::Intersects`]).
    pub fn predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = predicate;
        self
    }

    /// Provides the data-space bounding box, sparing the algorithms their
    /// region-discovery scans.
    pub fn region_hint(mut self, region: Rect) -> Self {
        self.region_hint = Some(region);
        self
    }

    /// Resolves [`Algo::Auto`] through the cost model. Returns the concrete
    /// algorithm, the estimate (when consulted) and whether PQ should prune
    /// (the auto-selected indexed strategy prunes). An input with tiers
    /// resolves to SSSJ without an estimate: the §6.3 model does not price
    /// tiers, and SSSJ merges the runs as they are.
    fn resolve(
        &self,
        env: &mut SimEnv,
    ) -> Result<(JoinAlgorithm, Option<CostEstimate>, Option<JoinPlan>, bool)> {
        Ok(match self.algo {
            Algo::Sssj => (JoinAlgorithm::Sssj, None, None, false),
            Algo::Pbsm => (JoinAlgorithm::Pbsm, None, None, false),
            Algo::Pq => (JoinAlgorithm::Pq, None, None, false),
            Algo::St => (JoinAlgorithm::St, None, None, false),
            Algo::Auto if self.left.has_tiers() || self.right.has_tiers() => {
                (JoinAlgorithm::Sssj, None, None, false)
            }
            Algo::Auto => {
                let est = cost::estimate(env, &self.left, &self.right)?;
                let chosen = est.plan();
                let alg = match chosen {
                    JoinPlan::Indexed => JoinAlgorithm::Pq,
                    JoinPlan::NonIndexed => JoinAlgorithm::Sssj,
                };
                (alg, Some(est), Some(chosen), chosen == JoinPlan::Indexed)
            }
        })
    }

    /// The crate's single algorithm-dispatch site: constructs the operator
    /// for a resolved algorithm.
    fn operator_for(&self, algorithm: JoinAlgorithm, pruning: bool) -> Box<dyn JoinOperator> {
        match algorithm {
            JoinAlgorithm::Sssj => Box::new(SssjJoin {
                region_hint: self.region_hint,
                predicate: self.predicate,
            }),
            JoinAlgorithm::Pbsm => Box::new(
                PbsmJoin::default()
                    .with_predicate(self.predicate)
                    .with_region_opt(self.region_hint),
            ),
            JoinAlgorithm::Pq => Box::new(PqJoin {
                prune_to_other: pruning,
                region_hint: self.region_hint,
                predicate: self.predicate,
            }),
            JoinAlgorithm::St => Box::new(StJoin::default().with_predicate(self.predicate)),
        }
    }

    /// Lowers the query to an inspectable [`QueryPlan`] without executing it.
    ///
    /// Resolving [`Algo::Auto`] prices both strategies (reading the index
    /// directories); that cost is charged to `env` like any other accounted
    /// work.
    pub fn plan(&self, env: &mut SimEnv) -> Result<QueryPlan> {
        let (algorithm, cost, chosen, _) = self.resolve(env)?;
        let memory = MemoryPlan::estimate(algorithm, env.memory_limit, &self.left, &self.right);
        Ok(QueryPlan {
            algorithm,
            predicate: self.predicate,
            cost,
            chosen,
            memory,
        })
    }

    /// Executes the query, streaming every accepted pair into `sink`.
    pub fn execute(&self, env: &mut SimEnv, sink: &mut dyn PairSink) -> Result<JoinResult> {
        let (algorithm, _, _, pruning) = self.resolve(env)?;
        self.operator_for(algorithm, pruning)
            .run_with(env, self.left, self.right, sink)
    }

    /// Executes a previously computed [`QueryPlan`] (from
    /// [`plan`](SpatialQuery::plan) on this same query), streaming pairs
    /// into `sink`.
    ///
    /// This skips the resolution work `execute` would repeat: the
    /// [`Algo::Auto`] cost estimate is not re-priced.
    pub fn execute_planned(
        &self,
        env: &mut SimEnv,
        plan: &QueryPlan,
        sink: &mut dyn PairSink,
    ) -> Result<JoinResult> {
        let pruning = plan.chosen == Some(JoinPlan::Indexed);
        self.operator_for(plan.algorithm, pruning)
            .run_with(env, self.left, self.right, sink)
    }

    /// Executes a previously computed [`QueryPlan`], discarding the pairs.
    pub fn run_planned(&self, env: &mut SimEnv, plan: &QueryPlan) -> Result<JoinResult> {
        self.execute_planned(env, plan, &mut CountSink::default())
    }

    /// Executes the query, discarding the pairs (the paper's measurement
    /// mode) and returning the accounting summary.
    pub fn run(&self, env: &mut SimEnv) -> Result<JoinResult> {
        self.execute(env, &mut CountSink::default())
    }

    /// Executes the query and returns only the number of accepted pairs.
    pub fn count(&self, env: &mut SimEnv) -> Result<u64> {
        Ok(self.run(env)?.pairs)
    }

    /// Executes the query, collecting every pair in memory.
    pub fn collect(&self, env: &mut SimEnv) -> Result<(JoinResult, Vec<(u32, u32)>)> {
        let mut sink = CollectSink::default();
        let res = self.execute(env, &mut sink)?;
        Ok((res, sink.pairs))
    }

    /// Executes the query with a `LIMIT`: collects at most `limit` pairs,
    /// stopping the join — and its I/O — as soon as they are found.
    pub fn first(&self, env: &mut SimEnv, limit: u64) -> Result<(JoinResult, Vec<(u32, u32)>)> {
        let mut sink = LimitSink::new(CollectSink::default(), limit);
        let res = self.execute(env, &mut sink)?;
        Ok((res, sink.into_inner().pairs))
    }
}

impl PbsmJoin {
    /// `with_region` that accepts an optional rectangle (builder plumbing for
    /// the query lowering).
    fn with_region_opt(self, region: Option<Rect>) -> Self {
        match region {
            Some(r) => self.with_region(r),
            None => self,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_geom::Item;
    use usj_io::{ItemStream, MachineConfig};
    use usj_rtree::RTree;

    fn env() -> SimEnv {
        SimEnv::new(MachineConfig::machine3())
    }

    fn grid(n: u32, cell: f32, offset: f32, id_base: u32) -> Vec<Item> {
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let x = offset + i as f32 * cell;
                let y = offset + j as f32 * cell;
                out.push(Item::new(
                    Rect::from_coords(x, y, x + cell * 0.7, y + cell * 0.7),
                    id_base + i * n + j,
                ));
            }
        }
        out
    }

    #[test]
    fn every_algorithm_is_reachable_and_agrees() {
        let mut e = env();
        let a = grid(15, 4.0, 0.0, 0);
        let b = grid(15, 4.0, 1.5, 100_000);
        let sa = ItemStream::from_items(&mut e, &a).unwrap();
        let sb = ItemStream::from_items(&mut e, &b).unwrap();
        let expected: u64 = a
            .iter()
            .map(|x| b.iter().filter(|y| x.rect.intersects(&y.rect)).count() as u64)
            .sum();
        for algo in [Algo::Auto, Algo::Sssj, Algo::Pbsm, Algo::Pq, Algo::St] {
            let n = SpatialQuery::new(JoinInput::Stream(&sa), JoinInput::Stream(&sb))
                .algorithm(algo)
                .count(&mut e)
                .unwrap();
            assert_eq!(n, expected, "{algo:?}");
        }
    }

    #[test]
    fn auto_resolution_mirrors_the_cost_based_join() {
        let mut e = env();
        // Localized right side: the indexed plan wins (cf. cost.rs tests).
        let a = grid(80, 3.0, 0.0, 0);
        let b = grid(8, 3.0, 0.0, 100_000);
        let ta = RTree::bulk_load(&mut e, &a).unwrap();
        let tb = RTree::bulk_load(&mut e, &b).unwrap();
        let q = SpatialQuery::new(JoinInput::Indexed(&ta), JoinInput::Indexed(&tb));
        let plan = q.plan(&mut e).unwrap();
        let est =
            cost::estimate(&mut e, &JoinInput::Indexed(&ta), &JoinInput::Indexed(&tb)).unwrap();
        assert_eq!(plan.chosen, Some(est.plan()));
        assert_eq!(plan.chosen, Some(JoinPlan::Indexed));
        assert_eq!(plan.cost.unwrap(), est);
        assert_eq!(plan.algorithm, JoinAlgorithm::Pq);
        let res = q.run(&mut e).unwrap();
        let pq = PqJoin::default()
            .with_pruning()
            .run(&mut e, JoinInput::Indexed(&ta), JoinInput::Indexed(&tb))
            .unwrap();
        assert_eq!(res, pq, "auto execution must be the pruned PQ join");
    }

    #[test]
    fn contains_predicate_reports_only_contained_pairs() {
        let mut e = env();
        // Big boxes on the left, small boxes on the right: half the small
        // boxes sit inside a big one, half straddle the border.
        let big: Vec<Item> = (0..5)
            .map(|i| {
                Item::new(
                    Rect::from_coords(i as f32 * 10.0, 0.0, i as f32 * 10.0 + 8.0, 8.0),
                    i,
                )
            })
            .collect();
        let small: Vec<Item> = (0..10)
            .map(|i| {
                let x = i as f32 * 5.0;
                Item::new(Rect::from_coords(x, 1.0, x + 2.0, 3.0), 100 + i)
            })
            .collect();
        let sb = ItemStream::from_items(&mut e, &big).unwrap();
        let ss = ItemStream::from_items(&mut e, &small).unwrap();
        let expected: Vec<(u32, u32)> = {
            let mut v: Vec<(u32, u32)> = big
                .iter()
                .flat_map(|x| {
                    small
                        .iter()
                        .filter(|y| x.rect.contains(&y.rect))
                        .map(|y| (x.id, y.id))
                        .collect::<Vec<_>>()
                })
                .collect();
            v.sort_unstable();
            v
        };
        assert!(!expected.is_empty());
        for algo in [Algo::Sssj, Algo::Pbsm, Algo::Pq, Algo::St] {
            let (_, mut pairs) = SpatialQuery::new(JoinInput::Stream(&sb), JoinInput::Stream(&ss))
                .algorithm(algo)
                .predicate(Predicate::Contains)
                .collect(&mut e)
                .unwrap();
            pairs.sort_unstable();
            assert_eq!(pairs, expected, "{algo:?}");
        }
    }

    #[test]
    fn a_last_merge_streams_only_while_the_sweep_is_expected_to_fit() {
        // At 4 MB a sort forms runs of 65 536 records and merges up to four
        // runs of 64-page blocks at once.
        let limit = 4 << 20;
        let mut e = env().with_memory_limit(limit);
        let rows = |n: u32| grid(n, 1.0, 0.0, 0);
        let [three_runs, small, large] = [390, 140, 245].map(|n| {
            let items = rows(n);
            ItemStream::from_items(&mut e, &items).unwrap()
        });
        let plan = |l: &ItemStream, r: &ItemStream| {
            SweepPlan::new(
                JoinAlgorithm::Sssj,
                limit,
                [&JoinInput::Stream(l), &JoinInput::Stream(r)],
            )
        };
        // Three runs' blocks and the small side's block leave room for the
        // small side to be all resident: the three runs stream.
        let fits = plan(&three_runs, &small);
        assert_eq!(fits.streamed, [true, false]);
        assert_eq!(fits.spill_estimate_bytes(), 0);
        // With the large side, two more blocks would not leave it room, so
        // the last merge is written and the worst case still fits.
        let written = plan(&three_runs, &large);
        assert_eq!(written.streamed, [false, false]);
        assert_eq!(written.spill_estimate_bytes(), 0);
        // PQ sorts a stream as SSSJ does, but never an indexed side.
        let tree = RTree::bulk_load(&mut e, &rows(140)).unwrap();
        let mixed = [&JoinInput::Stream(&three_runs), &JoinInput::Indexed(&tree)];
        assert_eq!(
            SweepPlan::new(JoinAlgorithm::Pq, limit, mixed).streamed,
            [true, false]
        );
        assert_eq!(
            SweepPlan::new(JoinAlgorithm::Sssj, limit, mixed).streamed,
            [true, false]
        );
        let trees = [&JoinInput::Indexed(&tree), &JoinInput::Indexed(&tree)];
        assert_eq!(
            SweepPlan::new(JoinAlgorithm::Pq, limit, trees).streamed,
            [false, false]
        );
        // The query plan reports the same worst case.
        let q = SpatialQuery::new(JoinInput::Stream(&three_runs), JoinInput::Stream(&large));
        let memory = q.algorithm(Algo::Sssj).plan(&mut e).unwrap().memory;
        assert_eq!(memory.spill_estimate_bytes, written.spill_estimate_bytes());
    }

    #[test]
    fn limit_zero_delivers_and_counts_nothing() {
        let mut e = env();
        let a = grid(10, 4.0, 0.0, 0);
        let sa = ItemStream::from_items(&mut e, &a).unwrap();
        let (res, pairs) = SpatialQuery::new(JoinInput::Stream(&sa), JoinInput::Stream(&sa))
            .algorithm(Algo::Pq)
            .first(&mut e, 0)
            .unwrap();
        assert!(pairs.is_empty());
        assert_eq!(res.pairs, 0, "LIMIT 0 must count zero pairs");
    }

    #[test]
    fn execute_planned_reuses_the_plan_without_re_estimating() {
        let mut e = env();
        let a = grid(80, 3.0, 0.0, 0);
        let b = grid(8, 3.0, 0.0, 100_000);
        let ta = RTree::bulk_load(&mut e, &a).unwrap();
        let tb = RTree::bulk_load(&mut e, &b).unwrap();
        let q = SpatialQuery::new(JoinInput::Indexed(&ta), JoinInput::Indexed(&tb));
        let plan = q.plan(&mut e).unwrap();
        assert_eq!(plan.algorithm, JoinAlgorithm::Pq);

        // Executing the plan performs no estimation I/O beyond the join's
        // own: it matches a one-shot run() (whose returned accounting also
        // excludes the estimate) pair for pair.
        let planned = q.run_planned(&mut e, &plan).unwrap();
        let oneshot = q.run(&mut e).unwrap();
        assert_eq!(planned, oneshot);

        // And the device-level delta of the planned execution is smaller
        // than resolve+run, because the directory probe is skipped.
        let m = e.begin();
        let _ = q.run_planned(&mut e, &plan).unwrap();
        let (planned_io, _) = e.since(&m);
        let m = e.begin();
        let _ = q.run(&mut e).unwrap();
        let (resolved_io, _) = e.since(&m);
        assert!(
            planned_io.pages_read < resolved_io.pages_read,
            "planned {} vs resolved {}",
            planned_io.pages_read,
            resolved_io.pages_read
        );
    }

    #[test]
    fn first_stops_early_and_returns_exactly_the_limit() {
        let mut e = env();
        let a = grid(70, 4.0, 0.0, 0);
        let b = grid(70, 4.0, 1.5, 100_000);
        let ta = RTree::bulk_load(&mut e, &a).unwrap();
        let tb = RTree::bulk_load(&mut e, &b).unwrap();
        assert!(ta.nodes() + tb.nodes() > 10, "trees must span many pages");
        let q =
            SpatialQuery::new(JoinInput::Indexed(&ta), JoinInput::Indexed(&tb)).algorithm(Algo::Pq);
        let full = q.run(&mut e).unwrap();
        assert!(full.pairs > 10);
        let (limited, pairs) = q.first(&mut e, 7).unwrap();
        assert_eq!(pairs.len(), 7);
        assert_eq!(limited.pairs, 7);
        assert!(
            limited.index_page_requests < full.index_page_requests,
            "LIMIT must stop the index traversal early ({} vs {})",
            limited.index_page_requests,
            full.index_page_requests
        );
    }
}
