//! The streaming spatial join over two live snapshots.
//!
//! Offline SSSJ is *blocking*: nothing is reported until both inputs have
//! been fully externally sorted. [`StreamingJoin`] removes the block. Each
//! side of a [`LiveSnapshot`] is already a union of sweep-key-sorted runs,
//! so its [`SnapshotCursor`](crate::SnapshotCursor) delivers items in
//! global lower-y order *incrementally* — pages are read on demand as the
//! merge advances. The join pulls the two cursors through
//! [`usj_sweep::merge_sweep`] — the spilling sweep SSSJ and PQ run — which
//! inserts every arriving item into its side's resident interval structure
//! and probes the opposite side, emitting pairs **while the scan is
//! running**: the first pair surfaces after a handful of page reads instead
//! of after two full sort passes.
//!
//! Under memory pressure residents spill to the device and their missed
//! pairs are recovered by log-suffix fix-up joins; the reported pair *set*
//! is identical to offline SSSJ on the same snapshot (the property-based
//! differential suite proves this across flush points and memory limits).

use std::ops::ControlFlow;

use usj_core::{JoinResult, MemoryStats, PairSink, Predicate};
use usj_geom::{Item, Rect};
use usj_io::{CpuOp, SimEnv};
use usj_sweep::merge_sweep;

use crate::catalog::LiveSnapshot;
use crate::Result;

/// Configuration of the streaming snapshot join.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamingJoin {
    /// Optional bounding box of the data, used to size the striped sweep
    /// structures. When absent the union of the snapshot boxes is used.
    pub region_hint: Option<Rect>,
    /// The pair-selection predicate (default: MBR intersection).
    pub predicate: Predicate,
}

impl StreamingJoin {
    /// Sets the region hint (builder style).
    pub fn with_region(mut self, region: Rect) -> Self {
        self.region_hint = Some(region);
        self
    }

    /// Sets the join predicate (builder style).
    pub fn with_predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = predicate;
        self
    }

    /// Runs the join over two snapshots, reporting pairs through `sink` as
    /// they are discovered. The pair *set* equals offline SSSJ over the two
    /// materialised snapshots; a registered dataset takes part as a snapshot
    /// without tiers ([`LiveSnapshot::untiered`]).
    ///
    /// A `ControlFlow::Break` from the sink (LIMIT reached, cancellation)
    /// terminates the join early, skipping any outstanding fix-up I/O —
    /// exactly the early-termination contract of the offline operators.
    pub fn run(
        &self,
        env: &mut SimEnv,
        left: &LiveSnapshot,
        right: &LiveSnapshot,
        sink: &mut dyn PairSink,
    ) -> Result<JoinResult> {
        let measurement = env.begin();
        env.memory.begin_phase();
        let predicate = self.predicate;
        let eps = predicate.epsilon();
        let region = self
            .region_hint
            .unwrap_or_else(|| left.bbox().union(&right.bbox()))
            .expanded(eps);

        let probe_phase = env.obs_phase("stream.probe");
        let mut lcur = left.cursor();
        let mut rcur = right.cursor();
        let (mut pairs, mut stopped) = (0u64, false);
        let mut emit = |a: &Item, b: &Item| {
            if !stopped && predicate.accepts(&a.rect, &b.rect) {
                stopped = sink.emit(a.id, b.id).is_break();
                pairs += u64::from(!stopped);
            }
            if stopped {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        };
        let (driver, flow) = merge_sweep(
            env,
            |env| Ok(lcur.next(env)?.map(|it| predicate.expand_left(it))),
            |env| rcur.next(env),
            (region.lo.x, region.hi.x),
            &mut emit,
        )?;
        env.obs_close(probe_phase);
        // Any spill epoch still open fixes up here — unless the sink stopped
        // the join, which skips that I/O.
        let fixup_phase = env.obs_phase("stream.fixup");
        let mut sweep = match flow {
            ControlFlow::Break(()) => driver.discard(),
            ControlFlow::Continue(()) => driver.finish(env, |a, b| {
                let _ = emit(a, b);
            })?,
        };
        env.obs_close(fixup_phase);
        sweep.pairs = pairs;
        env.charge(CpuOp::RectTest, sweep.rect_tests);
        env.charge(CpuOp::OutputPair, pairs);

        let (io, cpu) = env.since(&measurement);
        Ok(JoinResult {
            pairs,
            io,
            cpu,
            index_page_requests: 0,
            sweep,
            memory: MemoryStats {
                priority_queue_bytes: 0,
                sweep_structure_bytes: sweep.max_structure_bytes,
                other_bytes: 0,
                peak_bytes: env.memory.peak(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{LiveConfig, LiveDataset};
    use usj_core::{CollectSink, JoinInput, JoinOperator, LimitSink, SssjJoin};
    use usj_io::{ItemStream, MachineConfig};

    fn env() -> SimEnv {
        SimEnv::new(MachineConfig::machine3())
    }

    fn batch(n: u32, id_base: u32, seed: u32) -> Vec<Item> {
        (0..n)
            .map(|i| {
                let h = (i.wrapping_mul(2_654_435_761).wrapping_add(seed)) % 10_000;
                let x = (h % 97) as f32;
                let y = (h % 89) as f32;
                Item::new(Rect::from_coords(x, y, x + 3.0, y + 3.0), id_base + i)
            })
            .collect()
    }

    fn tiny_config() -> LiveConfig {
        LiveConfig {
            flush_threshold_bytes: 64 * usj_geom::ITEM_BYTES,
            compact_after_deltas: 3,
        }
    }

    /// Builds a live dataset mid-ingestion: base + delta runs + memtable.
    fn live_pair(env: &mut SimEnv) -> (LiveDataset, LiveDataset) {
        let mut l = LiveDataset::create(env, "l", &batch(300, 0, 1), tiny_config()).unwrap();
        l.append(env, &batch(250, 10_000, 2)).unwrap();
        let mut r = LiveDataset::create(env, "r", &batch(300, 500_000, 3), tiny_config()).unwrap();
        r.append(env, &batch(250, 600_000, 4)).unwrap();
        (l, r)
    }

    fn sorted(mut pairs: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn streaming_join_matches_offline_sssj_on_the_same_snapshot() {
        let mut env = env();
        let (l, r) = live_pair(&mut env);
        let (snap_l, snap_r) = (l.snapshot(), r.snapshot());

        let mut live_sink = CollectSink::default();
        let live = StreamingJoin::default()
            .run(&mut env, &snap_l, &snap_r, &mut live_sink)
            .unwrap();

        let sl = snap_l.to_stream(&mut env).unwrap();
        let sr = snap_r.to_stream(&mut env).unwrap();
        let (offline, offline_pairs) = SssjJoin::default()
            .run_collect(&mut env, JoinInput::Stream(&sl), JoinInput::Stream(&sr))
            .unwrap();

        assert!(live.pairs > 0, "the workload must actually join");
        assert_eq!(live.pairs, offline.pairs);
        let live_sorted = sorted(live_sink.pairs);
        assert_eq!(live_sorted, sorted(offline_pairs));
        // Exactly-once: no duplicates in the streaming output.
        assert!(live_sorted.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn distance_predicate_matches_offline() {
        let mut env = env();
        let (l, r) = live_pair(&mut env);
        let (snap_l, snap_r) = (l.snapshot(), r.snapshot());
        let predicate = Predicate::WithinDistance(1.5);

        let mut live_sink = CollectSink::default();
        StreamingJoin::default()
            .with_predicate(predicate)
            .run(&mut env, &snap_l, &snap_r, &mut live_sink)
            .unwrap();

        let sl = snap_l.to_stream(&mut env).unwrap();
        let sr = snap_r.to_stream(&mut env).unwrap();
        let (_, offline_pairs) = SssjJoin::default()
            .with_predicate(predicate)
            .run_collect(&mut env, JoinInput::Stream(&sl), JoinInput::Stream(&sr))
            .unwrap();

        assert!(!offline_pairs.is_empty());
        assert_eq!(sorted(live_sink.pairs), sorted(offline_pairs));
    }

    #[test]
    fn limit_sink_terminates_the_join_early() {
        let mut env = env();
        let (l, r) = live_pair(&mut env);
        let (snap_l, snap_r) = (l.snapshot(), r.snapshot());
        let mut sink = LimitSink::new(CollectSink::default(), 7);
        let result = StreamingJoin::default()
            .run(&mut env, &snap_l, &snap_r, &mut sink)
            .unwrap();
        assert_eq!(result.pairs, 7);
        assert_eq!(sink.into_inner().pairs.len(), 7);
    }

    /// A registered dataset as the service hands it to the join: its
    /// y-sorted persisted run and R-tree, as a snapshot without tiers.
    fn cataloged(env: &mut SimEnv, items: &[Item]) -> LiveSnapshot {
        let stream = ItemStream::from_items_with_block(env, items, 2).unwrap();
        let (sorted, stats) = usj_io::extsort::external_sort_by_key(
            env,
            &stream,
            Item::sweep_key,
            Item::cmp_by_lower_y,
        )
        .unwrap();
        let tree = usj_rtree::RTree::bulk_load_stream(env, &sorted).unwrap();
        LiveSnapshot::untiered(sorted, tree, stats.bbox)
    }

    #[test]
    fn mixed_live_cataloged_join_matches_offline_sssj() {
        let mut env = env();
        let (l, _) = live_pair(&mut env);
        let snap = l.snapshot();
        let cat = cataloged(&mut env, &batch(400, 800_000, 9));

        let mut mixed_sink = CollectSink::default();
        let mixed = StreamingJoin::default()
            .run(&mut env, &snap, &cat, &mut mixed_sink)
            .unwrap();

        let sl = snap.to_stream(&mut env).unwrap();
        let (offline, offline_pairs) = SssjJoin::default()
            .run_collect(
                &mut env,
                JoinInput::Stream(&sl),
                JoinInput::Stream(cat.runs()[0].stream()),
            )
            .unwrap();

        assert!(mixed.pairs > 0, "the workload must actually join");
        assert_eq!(mixed.pairs, offline.pairs);
        let mixed_sorted = sorted(mixed_sink.pairs);
        assert_eq!(mixed_sorted, sorted(offline_pairs));
        assert!(mixed_sorted.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn mixed_join_sides_commute_as_pair_sets() {
        // Cataloged × live delivers the same pair set as live × cataloged
        // with the ids swapped — no hidden left/right asymmetry.
        let mut env = env();
        let (l, _) = live_pair(&mut env);
        let snap = l.snapshot();
        let cat = cataloged(&mut env, &batch(300, 700_000, 5));

        let mut ab = CollectSink::default();
        StreamingJoin::default()
            .run(&mut env, &snap, &cat, &mut ab)
            .unwrap();
        let mut ba = CollectSink::default();
        StreamingJoin::default()
            .run(&mut env, &cat, &snap, &mut ba)
            .unwrap();
        let flipped: Vec<(u32, u32)> = ba.pairs.into_iter().map(|(a, b)| (b, a)).collect();
        assert_eq!(sorted(ab.pairs), sorted(flipped));
    }

    #[test]
    fn mixed_join_respects_limit_sinks() {
        let mut env = env();
        let (l, _) = live_pair(&mut env);
        let snap = l.snapshot();
        let cat = cataloged(&mut env, &batch(400, 800_000, 9));
        let mut sink = LimitSink::new(CollectSink::default(), 5);
        let result = StreamingJoin::default()
            .run(&mut env, &snap, &cat, &mut sink)
            .unwrap();
        assert_eq!(result.pairs, 5);
        assert_eq!(sink.into_inner().pairs.len(), 5);
    }

    #[test]
    fn mixed_join_spills_under_a_4mb_budget_and_matches_offline() {
        // Tall rectangles never expire, so the resident sets grow to the
        // whole input. The worker runs at the 4 MB service-style limit with
        // a standing reservation emulating co-resident query working sets
        // (the admission-control situation that actually squeezes a join),
        // so the driver's headroom-derived budget forces spilling — and the
        // fix-up joins must still recover every pair, byte for byte.
        let mut env = env();
        let tall = |n: u32, id_base: u32, shift: f32| -> Vec<Item> {
            (0..n)
                .map(|i| {
                    let x = ((i % 250) as f32) * 4.0 + shift;
                    Item::new(Rect::from_coords(x, 0.0, x + 1.0, 1_000.0), id_base + i)
                })
                .collect()
        };
        let l = LiveDataset::create(&mut env, "l", &tall(4_000, 0, 0.0), tiny_config()).unwrap();
        let snap = l.snapshot();
        let cat = cataloged(&mut env, &tall(4_000, 1_000_000, 0.5));

        let base = env.device.snapshot();
        let mut worker = env.fork_with_base(base);
        worker.set_memory_limit(4 * 1024 * 1024);
        let _standing = worker.memory.try_reserve(3_800_000).unwrap();
        let mut mixed_sink = CollectSink::default();
        let mixed = StreamingJoin::default()
            .run(&mut worker, &snap, &cat, &mut mixed_sink)
            .unwrap();
        assert!(
            mixed.sweep.spill_runs > 0,
            "the squeezed 4 MB budget must force spilling: {:?}",
            mixed.sweep
        );
        assert!(mixed.memory.peak_bytes <= 4 * 1024 * 1024);

        let sl = snap.to_stream(&mut env).unwrap();
        let (_, offline_pairs) = SssjJoin::default()
            .run_collect(
                &mut env,
                JoinInput::Stream(&sl),
                JoinInput::Stream(cat.runs()[0].stream()),
            )
            .unwrap();
        assert!(!offline_pairs.is_empty());
        assert_eq!(sorted(mixed_sink.pairs), sorted(offline_pairs));
    }

    #[test]
    fn spilling_under_a_small_memory_limit_matches_offline() {
        // Tall rectangles never expire, so the resident sets grow to the
        // whole input and blow through the governed budget: the driver must
        // spill and recover every pair via fix-up joins. The join runs on a
        // memory-limited worker fork over a device snapshot — the service
        // execution model — while dataset preparation stays unconstrained.
        let mut env = env();
        let tall = |n: u32, id_base: u32, shift: f32| -> Vec<Item> {
            (0..n)
                .map(|i| {
                    let x = ((i % 250) as f32) * 4.0 + shift;
                    Item::new(Rect::from_coords(x, 0.0, x + 1.0, 1_000.0), id_base + i)
                })
                .collect()
        };
        let l = LiveDataset::create(&mut env, "l", &tall(4_000, 0, 0.0), tiny_config()).unwrap();
        let r =
            LiveDataset::create(&mut env, "r", &tall(4_000, 100_000, 0.5), tiny_config()).unwrap();
        let (snap_l, snap_r) = (l.snapshot(), r.snapshot());

        let base = env.device.snapshot();
        let mut worker = env.fork_with_base(base);
        worker.set_memory_limit(128 * 1024);
        let mut live_sink = CollectSink::default();
        let live = StreamingJoin::default()
            .run(&mut worker, &snap_l, &snap_r, &mut live_sink)
            .unwrap();
        assert!(
            live.sweep.spill_runs > 0,
            "the budget must force spilling: {:?}",
            live.sweep
        );
        assert!(live.memory.peak_bytes <= 128 * 1024);

        let sl = snap_l.to_stream(&mut env).unwrap();
        let sr = snap_r.to_stream(&mut env).unwrap();
        let (_, offline_pairs) = SssjJoin::default()
            .run_collect(&mut env, JoinInput::Stream(&sl), JoinInput::Stream(&sr))
            .unwrap();
        assert!(!offline_pairs.is_empty());
        assert_eq!(sorted(live_sink.pairs), sorted(offline_pairs));
    }
}
