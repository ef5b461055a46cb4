//! The parallel partitioned join executor.
//!
//! All four joins of the paper run single-threaded over one simulated disk.
//! This executor cuts both inputs into `K` *strips* with PBSM's own
//! partition phase (§3.2): one extents pass, a tile grid with one tile per
//! shard along the axis the data is relatively narrower on — where PBSM's
//! round-robin deal is the identity, so shard `p` is the `p`-th strip — and
//! one scatter of each input into partition streams on the coordinator's
//! device. A pool of `std::thread` workers then runs an ordinary serial
//! [`JoinOperator`] (PQ, PBSM, SSSJ or ST) per shard, each on a fork of the
//! coordinator's environment layered over a snapshot of its device
//! ([`SimEnv::fork_with_base`]): a worker reads its partition streams where
//! the coordinator wrote them, copy-free, with the reads charged to its own
//! counters.
//!
//! Three pieces make the result exactly equal to a serial execution:
//!
//! 1. **Replication.** Every rectangle is written to each strip it overlaps,
//!    left rectangles grown by the predicate's ε, so every pair the
//!    predicate accepts meets in at least one shard.
//! 2. **Reference-point deduplication, without geometry.** A pair belongs to
//!    the strip holding its reference point, whose coordinate along the
//!    strip axis is `max(a.lo, b.lo)` (with `a` ε-expanded). The strip index
//!    is monotone in that coordinate, so the owner is the later of the two
//!    strips the rectangles start in, and both overlap every strip where the
//!    pair meets: a shard reports a pair unless *both* of its rectangles
//!    entered the shard from an earlier strip. A worker therefore keeps only
//!    the ids of the items it carries over from earlier strips.
//! 3. **Accounting roll-up.** Every worker's I/O and CPU deltas are merged
//!    into one [`JoinResult`] with [`JoinResult::merge`], so the aggregate
//!    accounting equals the sum of its parts; [`ParallelJoin::run_detailed`]
//!    additionally exposes the per-shard breakdown.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use usj_geom::{Extents, Rect};
use usj_io::{CpuOp, ItemStream, MemoryReservation, Result, SimEnv};
use usj_rtree::RTree;

use crate::input::JoinInput;
use crate::partition::{input_extents, region_of, writer_pages_per_block, Scatter, TileGrid};
use crate::predicate::Predicate;
use crate::result::JoinResult;
use crate::sink::PairSink;
use crate::JoinOperator;

/// Outcome of one [`ParallelJoin::run_detailed`] execution.
#[derive(Debug, Clone)]
pub struct ParallelRun {
    /// The merged, externally visible result — what
    /// [`JoinOperator::run_with`] returns.
    pub total: JoinResult,
    /// The coordinator's own share: reading the inputs and scattering them
    /// into the strips' partition streams (its `pairs` is always zero).
    pub coordinator: JoinResult,
    /// One result per shard, in shard order, measured on that shard's forked
    /// environment. `total` equals `coordinator` merged with every entry.
    pub shards: Vec<JoinResult>,
}

/// A partition-parallel executor wrapping any serial [`JoinOperator`].
///
/// See the [module documentation](self) for the partitioning and
/// deduplication scheme. The executor is itself a [`JoinOperator`], so it
/// composes with everything that accepts one (the experiment harness, the
/// cost-based selector's plan runners, the query builder, …). The inner
/// operator's [`predicate`](JoinOperator::predicate) is honoured: its
/// ε-expansion is applied to the replication geometry, so distance joins
/// shard exactly like intersection joins.
///
/// The executor reports exactly the serial algorithms' *pair set*, in an
/// order that is deterministic (shards are drained in shard order) but
/// generally different from a serial sweep's emission order.
///
/// **Precondition:** object identifiers must be unique *within each input*
/// (as in all the paper's data files, where the id is the record's key).
/// The deduplication recognises carried-over rectangles by id, so two
/// distinct rectangles sharing an id within one input may lose or repeat
/// their pairs.
///
/// # Example
///
/// ```
/// use usj_core::parallel::ParallelJoin;
/// use usj_core::{JoinInput, JoinOperator, PqJoin};
/// use usj_geom::{Item, Rect};
/// use usj_io::{ItemStream, MachineConfig, SimEnv};
///
/// let mut env = SimEnv::new(MachineConfig::machine3());
/// // A 10x10 grid of unit squares against four long horizontal slabs.
/// let grid: Vec<Item> = (0..100)
///     .map(|i| {
///         let (x, y) = ((i % 10) as f32, (i / 10) as f32);
///         Item::new(Rect::from_coords(x, y, x + 0.8, y + 0.8), i)
///     })
///     .collect();
/// let slabs: Vec<Item> = (0..4)
///     .map(|i| Item::new(Rect::from_coords(0.0, 2.5 * i as f32, 10.0, 2.5 * i as f32 + 0.5), 1000 + i))
///     .collect();
/// let left = ItemStream::from_items(&mut env, &grid).unwrap();
/// let right = ItemStream::from_items(&mut env, &slabs).unwrap();
///
/// let parallel = ParallelJoin::new(PqJoin::default())
///     .with_threads(4)
///     .with_shards(4);
/// let result = parallel
///     .run(&mut env, JoinInput::Stream(&left), JoinInput::Stream(&right))
///     .unwrap();
///
/// // The parallel pair count equals the serial one.
/// let serial = PqJoin::default()
///     .run(&mut env, JoinInput::Stream(&left), JoinInput::Stream(&right))
///     .unwrap();
/// assert_eq!(result.pairs, serial.pairs);
/// ```
#[derive(Debug, Clone)]
pub struct ParallelJoin<J> {
    inner: J,
    threads: usize,
    shards: usize,
    region_hint: Option<Rect>,
    /// The inputs' extents when a query plan already measured them.
    planned: Option<Extents>,
    index_shards: bool,
}

impl<J: JoinOperator + Sync> ParallelJoin<J> {
    /// Wraps `inner`, defaulting to one shard and one worker thread per
    /// available CPU (at most 8 by default — raise it explicitly for wider
    /// machines).
    pub fn new(inner: J) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        ParallelJoin {
            inner,
            threads,
            shards: threads,
            region_hint: None,
            planned: None,
            index_shards: false,
        }
    }

    /// Sets the worker-thread count (builder style). The thread count never
    /// affects the reported pairs or their order — only wall-clock time.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the shard count independently of the thread count (builder
    /// style). More shards than threads gives the work queue slack to
    /// balance skewed data.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Provides the data-space bounding box, skipping the discovery scan
    /// (builder style).
    pub fn with_region(mut self, region: Rect) -> Self {
        self.region_hint = Some(region);
        self
    }

    /// Reuses the extents a query plan measured, skipping the extents pass.
    pub(crate) fn with_planned_extents(mut self, data: Extents) -> Self {
        self.planned = Some(data);
        self
    }

    /// Makes every worker bulk-load packed R-trees over its shard and hand
    /// the inner join indexed inputs (builder style). Required for inner
    /// joins that are only meaningful on indexes (ST); index construction is
    /// unaccounted, mirroring how the serial experiments prepare indexes.
    pub fn with_indexed_shards(mut self) -> Self {
        self.index_shards = true;
        self
    }

    /// Configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Runs the join and returns the per-shard accounting breakdown along
    /// with the merged total. [`JoinOperator::run_with`] is a thin wrapper
    /// over this method.
    pub fn run_detailed(
        &self,
        env: &mut SimEnv,
        left: JoinInput<'_>,
        right: JoinInput<'_>,
        sink: &mut dyn PairSink,
    ) -> Result<ParallelRun> {
        let measurement = env.begin();
        env.memory.begin_phase();
        let eps = self.inner.predicate().epsilon();
        let shards = self.shards;

        let partition_phase = env.obs_phase("parallel.partition");
        let left_stream = left.to_stream(env)?;
        let right_stream = right.to_stream(env)?;
        let mut left_reader = left_stream.reader();
        let (data, left_first) = match self.planned {
            Some(data) => (data, None),
            None => input_extents(
                env,
                self.region_hint,
                (&left, &left_stream),
                (&right, &right_stream),
                &mut left_reader,
            )?,
        };
        let grid = strips(&data, eps, shards);
        // Left rectangles are targeted with their ε-expansion, so near-miss
        // partners of a distance join meet in a shard, but stored
        // unexpanded: the inner operator applies its own predicate.
        let writer_ppb = writer_pages_per_block(env.memory_limit, shards);
        let mut scatter = Scatter::new(env, &grid, writer_ppb, eps);
        if let Some(view) = left_first {
            scatter.extend(env, view.iter())?;
        }
        scatter.drain(env, &mut left_reader)?;
        let left_parts = scatter.finish(env)?;
        let mut scatter = Scatter::new(env, &grid, writer_ppb, 0.0);
        scatter.drain(env, &mut right_stream.reader())?;
        let right_parts = scatter.finish(env)?;
        env.obs_close(partition_phase);

        // Coordinator accounting closes here: reading the inputs and
        // writing the partition streams.
        let (io, cpu) = env.since(&measurement);
        let mut coordinator = JoinResult {
            io,
            cpu,
            ..JoinResult::default()
        };
        coordinator.memory.peak_bytes = env.memory.peak();

        // Fan the shards out over the worker pool. Each worker pulls shard
        // indices from a shared queue and joins every shard on a fresh fork
        // layered over the device the partition streams are on.
        let join_phase = env.obs_phase("parallel.join");
        let job = ShardJob {
            inner: &self.inner,
            grid: &grid,
            eps,
            index_shards: self.index_shards,
        };
        let queue = AtomicUsize::new(0);
        let slots: Vec<ShardSlot> = (0..shards).map(|_| Mutex::new(None)).collect();
        let base = env.device.snapshot();
        let env_ref: &SimEnv = env;
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(shards) {
                scope.spawn(|| loop {
                    let i = queue.fetch_add(1, Ordering::Relaxed);
                    if i >= shards {
                        break;
                    }
                    let wenv = env_ref.fork_with_base(Arc::clone(&base));
                    let outcome = job.run(wenv, i, &left_parts[i].0, &right_parts[i].0);
                    *slots[i].lock().expect("no worker panics holding a slot") = Some(outcome);
                });
            }
        });

        // Merge in shard order, so the report — and the order pairs reach
        // the sink — is deterministic regardless of the thread count. When
        // the sink stops the drain early, the shard work is already done (the
        // accounting still rolls up completely) but only the delivered pairs
        // are counted.
        let mut total = coordinator.clone();
        let mut shard_results = Vec::with_capacity(shards);
        let mut delivered = 0u64;
        let mut done = false;
        for slot in slots {
            let (result, pairs) = slot
                .into_inner()
                .expect("worker poisoned a result slot")
                .expect("worker exited without reporting its shard")?;
            for &(a, b) in &pairs {
                if done {
                    break;
                }
                if sink.emit(a, b).is_break() {
                    done = true;
                } else {
                    delivered += 1;
                }
            }
            total.merge(&result);
            shard_results.push(result);
        }
        env.obs_close(join_phase);
        total.pairs = delivered;
        total.sweep.pairs = delivered;
        Ok(ParallelRun {
            total,
            coordinator,
            shards: shard_results,
        })
    }
}

/// The strips of a parallel execution over inputs `data` describes: a grid
/// with one tile per shard along PBSM's axis.
pub(crate) fn strips(data: &Extents, eps: f32, shards: usize) -> TileGrid {
    TileGrid::new(region_of(data, eps), data, shards, shards)
}

/// One shard's outcome slot, filled by whichever worker claims the shard.
type ShardSlot = Mutex<Option<Result<(JoinResult, Vec<(u32, u32)>)>>>;

/// What every worker shares: the inner join and the strips it joins.
struct ShardJob<'a, J> {
    inner: &'a J,
    grid: &'a TileGrid,
    eps: f32,
    index_shards: bool,
}

impl<J: JoinOperator> ShardJob<'_, J> {
    /// Joins strip `shard` on its own forked environment, returning the
    /// shard's accounting and the pairs it owns.
    fn run(
        &self,
        mut wenv: SimEnv,
        shard: usize,
        left: &ItemStream,
        right: &ItemStream,
    ) -> Result<(JoinResult, Vec<(u32, u32)>)> {
        let mut pairs = Vec::new();
        if left.is_empty() || right.is_empty() {
            return Ok((JoinResult::default(), pairs));
        }
        let measurement = wenv.begin();
        let mut claim = wenv.memory.reserve_empty();
        let carried_left = self.carried(&mut wenv, &mut claim, left, shard, self.eps)?;
        let carried_right = self.carried(&mut wenv, &mut claim, right, shard, 0.0)?;
        let mut dedup_sink = |a: u32, b: u32| {
            if carried_left.binary_search(&a).is_err() || carried_right.binary_search(&b).is_err() {
                pairs.push((a, b));
            }
        };

        // Index construction is preprocessing, unaccounted like the serial
        // experiments' index builds.
        let trees = if self.index_shards {
            Some(wenv.unaccounted(|e| -> Result<_> {
                Ok((RTree::bulk_load_stream(e, left)?, RTree::bulk_load_stream(e, right)?))
            })?)
        } else {
            None
        };
        let (l, r) = match &trees {
            Some((lt, rt)) => (JoinInput::Indexed(lt), JoinInput::Indexed(rt)),
            None => (JoinInput::Stream(left), JoinInput::Stream(right)),
        };
        let peak = wenv.memory.peak();
        let mut result = self.inner.run_with(&mut wenv, l, r, &mut dedup_sink)?;

        // The shard's accounting covers everything that happened on the
        // forked environment (the carried-id pass + the inner join), and its
        // pair count is the deduplicated one.
        let (io, cpu) = wenv.since(&measurement);
        result.io = io;
        result.cpu = cpu;
        result.pairs = pairs.len() as u64;
        result.sweep.pairs = result.pairs;
        // The inner join measures its peak from its own start; the worker's
        // covers the carried ids and the pass that collected them too.
        result.memory.peak_bytes = result.memory.peak_bytes.max(peak).max(wenv.memory.peak());
        Ok((result, pairs))
    }

    /// The sorted ids of the items of `stream` that entered strip `shard`
    /// from an earlier one — targeted grown by `margin`, as the scatter did.
    /// One pass over the partition stream, the ids claimed from the worker's
    /// gauge; the first strip carries nothing over.
    fn carried(
        &self,
        env: &mut SimEnv,
        claim: &mut MemoryReservation,
        stream: &ItemStream,
        shard: usize,
        margin: f32,
    ) -> Result<Vec<u32>> {
        let mut ids = Vec::new();
        if shard == 0 {
            return Ok(ids);
        }
        let mut reader = stream.reader();
        while let Some(view) = reader.next_view(env)? {
            env.charge(CpuOp::RectTest, view.len() as u64);
            for it in view.iter() {
                let lo = it.rect.expanded(margin).lo;
                if self.grid.partition_at(lo.x, lo.y) < shard {
                    claim.try_grow(std::mem::size_of::<u32>())?;
                    ids.push(it.id);
                }
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }
}

impl<J: JoinOperator + Sync> JoinOperator for ParallelJoin<J> {
    fn name(&self) -> &'static str {
        "Parallel"
    }

    fn predicate(&self) -> Predicate {
        self.inner.predicate()
    }

    fn run_with(
        &self,
        env: &mut SimEnv,
        left: JoinInput<'_>,
        right: JoinInput<'_>,
        sink: &mut dyn PairSink,
    ) -> Result<JoinResult> {
        Ok(self.run_detailed(env, left, right, sink)?.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PbsmJoin, PqJoin, SssjJoin, StJoin};
    use usj_geom::Item;
    use usj_io::MachineConfig;

    fn env() -> SimEnv {
        SimEnv::new(MachineConfig::machine3())
    }

    /// Long horizontal and vertical crossers: one side is replicated into
    /// every strip, stressing the deduplication.
    fn crossers(n: u32) -> (Vec<Item>, Vec<Item>) {
        let horiz = (0..n)
            .map(|i| Item::new(Rect::from_coords(0.0, i as f32, n as f32, i as f32 + 0.1), i))
            .collect();
        let vert = (0..n)
            .map(|i| {
                Item::new(
                    Rect::from_coords(i as f32, 0.0, i as f32 + 0.1, n as f32),
                    1000 + i,
                )
            })
            .collect();
        (horiz, vert)
    }

    fn sorted(mut v: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        v.sort_unstable();
        v
    }

    #[test]
    fn parallel_matches_serial_on_crossers() {
        let (h, v) = crossers(30);
        let mut e = env();
        let sh = ItemStream::from_items(&mut e, &h).unwrap();
        let sv = ItemStream::from_items(&mut e, &v).unwrap();
        let (serial, serial_pairs) = PqJoin::default()
            .run_collect(&mut e, JoinInput::Stream(&sh), JoinInput::Stream(&sv))
            .unwrap();
        assert_eq!(serial.pairs, 900);

        for shards in [1usize, 3, 8] {
            let pq = ParallelJoin::new(PqJoin::default())
                .with_threads(4)
                .with_shards(shards);
            let (res, pairs) = pq
                .run_collect(&mut e, JoinInput::Stream(&sh), JoinInput::Stream(&sv))
                .unwrap();
            assert_eq!(res.pairs, serial.pairs, "PQ, {shards} shards");
            assert_eq!(sorted(pairs), sorted(serial_pairs.clone()));

            let sssj = ParallelJoin::new(SssjJoin::default())
                .with_threads(3)
                .with_shards(shards);
            let (res, pairs) = sssj
                .run_collect(&mut e, JoinInput::Stream(&sh), JoinInput::Stream(&sv))
                .unwrap();
            assert_eq!(res.pairs, serial.pairs, "SSSJ, {shards} shards");
            assert_eq!(sorted(pairs), sorted(serial_pairs.clone()));
        }
    }

    #[test]
    fn pair_order_is_independent_of_the_thread_count() {
        let (h, v) = crossers(20);
        let mut e = env();
        let sh = ItemStream::from_items(&mut e, &h).unwrap();
        let sv = ItemStream::from_items(&mut e, &v).unwrap();
        let run = |threads: usize, e: &mut SimEnv| {
            ParallelJoin::new(PbsmJoin::default())
                .with_threads(threads)
                .with_shards(6)
                .run_collect(e, JoinInput::Stream(&sh), JoinInput::Stream(&sv))
                .unwrap()
                .1
        };
        let one = run(1, &mut e);
        let four = run(4, &mut e);
        assert_eq!(one, four, "pair order must be deterministic");
    }

    #[test]
    fn merged_stats_equal_the_sum_of_the_parts() {
        let (h, v) = crossers(25);
        let mut e = env();
        let sh = ItemStream::from_items(&mut e, &h).unwrap();
        let sv = ItemStream::from_items(&mut e, &v).unwrap();
        let run = ParallelJoin::new(PqJoin::default())
            .with_threads(4)
            .with_shards(5)
            .run_detailed(
                &mut e,
                JoinInput::Stream(&sh),
                JoinInput::Stream(&sv),
                &mut |_, _| {},
            )
            .unwrap();
        assert_eq!(run.shards.len(), 5);

        // The acceptance property: the total I/O statistics are exactly the
        // coordinator's plus every worker's.
        let mut expected_io = run.coordinator.io;
        let mut expected_cpu = run.coordinator.cpu;
        let mut expected_pairs = 0;
        for s in &run.shards {
            expected_io.merge(&s.io);
            expected_cpu.merge(&s.cpu);
            expected_pairs += s.pairs;
        }
        assert_eq!(run.total.io, expected_io);
        assert_eq!(run.total.cpu, expected_cpu);
        assert_eq!(run.total.pairs, expected_pairs);
        // The coordinator wrote the strips; the workers read them back on
        // their own accounting.
        assert!(run.coordinator.io.pages_written > 0);
        assert!(run.shards.iter().all(|s| s.io.pages_read > 0));
        assert!(run.coordinator.io.pages_read > 0);
    }

    #[test]
    fn indexed_shards_support_the_st_join() {
        let (h, v) = crossers(20);
        let mut e = env();
        let sh = ItemStream::from_items(&mut e, &h).unwrap();
        let sv = ItemStream::from_items(&mut e, &v).unwrap();
        let serial = PqJoin::default()
            .run(&mut e, JoinInput::Stream(&sh), JoinInput::Stream(&sv))
            .unwrap();
        let res = ParallelJoin::new(StJoin::default())
            .with_threads(4)
            .with_shards(4)
            .with_indexed_shards()
            .run(&mut e, JoinInput::Stream(&sh), JoinInput::Stream(&sv))
            .unwrap();
        assert_eq!(res.pairs, serial.pairs);
        assert!(res.index_page_requests > 0, "ST read its shard indexes");
    }

    #[test]
    fn empty_inputs_are_handled() {
        let mut e = env();
        let empty = ItemStream::from_items(&mut e, &[]).unwrap();
        let (h, _) = crossers(5);
        let sh = ItemStream::from_items(&mut e, &h).unwrap();
        let res = ParallelJoin::new(PbsmJoin::default())
            .with_shards(4)
            .run(&mut e, JoinInput::Stream(&empty), JoinInput::Stream(&sh))
            .unwrap();
        assert_eq!(res.pairs, 0);
    }

    #[test]
    fn region_hint_skips_the_discovery_scan() {
        let (h, v) = crossers(10);
        let mut e = env();
        let sh = ItemStream::from_items(&mut e, &h).unwrap();
        let sv = ItemStream::from_items(&mut e, &v).unwrap();
        let hinted = ParallelJoin::new(SssjJoin::default())
            .with_shards(2)
            .with_region(Rect::from_coords(0.0, 0.0, 10.0, 10.0));
        let unhinted = ParallelJoin::new(SssjJoin::default()).with_shards(2);
        let a = hinted
            .run_detailed(
                &mut e,
                JoinInput::Stream(&sh),
                JoinInput::Stream(&sv),
                &mut |_, _| {},
            )
            .unwrap();
        let b = unhinted
            .run_detailed(
                &mut e,
                JoinInput::Stream(&sh),
                JoinInput::Stream(&sv),
                &mut |_, _| {},
            )
            .unwrap();
        assert_eq!(a.total.pairs, b.total.pairs);
        assert!(a.coordinator.io.pages_read < b.coordinator.io.pages_read);
    }
}
