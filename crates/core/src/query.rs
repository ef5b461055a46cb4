//! The unified query surface: one builder over every algorithm and
//! predicate.
//!
//! The paper's central claim is *unification* — one algorithm serving indexed
//! and non-indexed inputs alike. This module lifts that unification to the
//! API: instead of choosing between `SssjJoin`/`PbsmJoin`/`PqJoin`/`StJoin`,
//! and `CostBasedJoin` by hand, callers describe the query
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

use usj_geom::Rect;
use usj_io::{Result, SimEnv};

use crate::cost::{CostBasedJoin, CostEstimate, JoinPlan};
use crate::input::JoinInput;
use crate::pbsm::{PbsmJoin, MAX_SPLIT_DEPTH, SPLIT_PARTITIONS};
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
    /// and non-indexed (SSSJ) strategies, exactly as [`CostBasedJoin`] does.
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
    /// Computes the heuristic for `algorithm` over inputs of the given total
    /// and smaller-side byte sizes, mirroring the runtime sizing rules:
    /// PBSM partitions of a quarter of memory with the fan-out capped by the
    /// distribution writers (one page each in a quarter of memory) and by
    /// the tile columns a one-axis grid has to deal, a partition admitted
    /// when its 3× in-memory envelope fits the full memory, and — uniform
    /// data shrinks at every split, so the non-shrinking rule never cuts
    /// the recursion short — one [`SPLIT_PARTITIONS`]-way split per level
    /// up to [`MAX_SPLIT_DEPTH`]; for SSSJ/PQ a sweep budget of half the
    /// memory left once both input readers hold their block buffers.
    fn estimate(
        algorithm: JoinAlgorithm,
        memory_limit: usize,
        total_bytes: u64,
        smaller_bytes: u64,
    ) -> MemoryPlan {
        let mut plan = MemoryPlan {
            memory_limit,
            partition_depth: 0,
            spill_estimate_bytes: 0,
        };
        match algorithm {
            JoinAlgorithm::Pbsm => {
                let quarter = (memory_limit / 4).max(1) as u64;
                let max_fanout = ((memory_limit / 4) / usj_io::PAGE_SIZE).max(1) as u64;
                let columns = PbsmJoin::default().tiles_per_side as u64;
                let partitions = total_bytes
                    .div_ceil(quarter)
                    .max(1)
                    .min(max_fanout)
                    .min(columns);
                let mut need = 3 * total_bytes / partitions;
                let budget = memory_limit.max(1) as u64;
                while need > budget && (plan.partition_depth as usize) < MAX_SPLIT_DEPTH {
                    plan.partition_depth += 1;
                    need /= SPLIT_PARTITIONS as u64;
                }
            }
            JoinAlgorithm::Sssj | JoinAlgorithm::Pq => {
                // Worst case the whole smaller side is alive at one sweep
                // position; the driver's budget is half of what the two
                // input readers' block buffers leave free.
                let block = usj_io::stream::DEFAULT_PAGES_PER_BLOCK * usj_io::PAGE_SIZE as u64;
                let readers = smaller_bytes.min(block) + (total_bytes - smaller_bytes).min(block);
                let budget = (memory_limit as u64).saturating_sub(readers) / 2;
                plan.spill_estimate_bytes = smaller_bytes.saturating_sub(budget);
            }
            JoinAlgorithm::St => {}
        }
        plan
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} join, {} predicate", self.algorithm.name(), self.predicate.name())?;
        if let (Some(cost), Some(chosen)) = (&self.cost, &self.chosen) {
            write!(
                f,
                ", auto-selected {:?} (indexed {:.2}s vs sorted {:.2}s, touches {:.0}% of the index)",
                chosen,
                cost.indexed_secs,
                cost.non_indexed_secs,
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
        write!(
            f,
            " ({} MB memory limit)",
            self.memory.memory_limit / (1024 * 1024)
        )
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
    /// (the auto-selected indexed strategy prunes, mirroring
    /// [`CostBasedJoin`]).
    fn resolve(
        &self,
        env: &mut SimEnv,
    ) -> Result<(JoinAlgorithm, Option<CostEstimate>, Option<JoinPlan>, bool)> {
        Ok(match self.algo {
            Algo::Sssj => (JoinAlgorithm::Sssj, None, None, false),
            Algo::Pbsm => (JoinAlgorithm::Pbsm, None, None, false),
            Algo::Pq => (JoinAlgorithm::Pq, None, None, false),
            Algo::St => (JoinAlgorithm::St, None, None, false),
            Algo::Auto => {
                let est = CostBasedJoin::default().estimate(env, &self.left, &self.right)?;
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
        let left_bytes = self.left.len() * usj_geom::ITEM_BYTES as u64;
        let right_bytes = self.right.len() * usj_geom::ITEM_BYTES as u64;
        let memory = MemoryPlan::estimate(
            algorithm,
            env.memory_limit,
            left_bytes + right_bytes,
            left_bytes.min(right_bytes),
        );
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
    pub fn first(
        &self,
        env: &mut SimEnv,
        limit: u64,
    ) -> Result<(JoinResult, Vec<(u32, u32)>)> {
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
        let (legacy_plan, legacy_est, legacy_res) = CostBasedJoin::default()
            .run(&mut e, JoinInput::Indexed(&ta), JoinInput::Indexed(&tb))
            .unwrap();
        assert_eq!(plan.chosen, Some(legacy_plan));
        assert_eq!(plan.cost.unwrap(), legacy_est);
        assert_eq!(plan.algorithm, JoinAlgorithm::Pq);
        let res = q.run(&mut e).unwrap();
        assert_eq!(res, legacy_res, "auto execution must match CostBasedJoin");
    }

    #[test]
    fn contains_predicate_reports_only_contained_pairs() {
        let mut e = env();
        // Big boxes on the left, small boxes on the right: half the small
        // boxes sit inside a big one, half straddle the border.
        let big: Vec<Item> = (0..5)
            .map(|i| Item::new(Rect::from_coords(i as f32 * 10.0, 0.0, i as f32 * 10.0 + 8.0, 8.0), i))
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
        let q = SpatialQuery::new(JoinInput::Indexed(&ta), JoinInput::Indexed(&tb))
            .algorithm(Algo::Pq);
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
