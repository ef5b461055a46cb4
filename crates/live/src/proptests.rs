//! Property-based differential suite on the in-tree `usj_proptest` harness.
//!
//! A live snapshot joins as a cataloged input with tiers, and its contract
//! is *set equality*: over any ingestion history (random base/append
//! splits, flush points and compaction cadences), a tiered input joins like
//! the same dataset quiesced, under every algorithm and predicate; and at
//! any memory limit (including ones that force the sweep to spill) SSSJ
//! over the merged runs reports exactly the pair set it reports on the
//! materialised snapshot.

use usj_core::{
    Algo, CollectSink, JoinInput, JoinOperator, LimitSink, PairSink, Predicate, SpatialQuery,
    SssjJoin,
};
use usj_geom::{sort_by_lower_y, Item, Rect};
use usj_io::merge::{Merge, Run};
use usj_io::{extsort, ItemStream, MachineConfig, SimEnv};
use usj_proptest::{forall, Gen};

use crate::catalog::{LiveConfig, LiveDataset, LiveSnapshot, LIVE_PAGES_PER_BLOCK};

fn env() -> SimEnv {
    SimEnv::new(MachineConfig::machine3())
}

fn arb_items(g: &mut Gen, max_len: usize, id_base: u32) -> Vec<Item> {
    let mut next = 0u32;
    g.vec(0, max_len, |g| {
        let x = g.f32_in(-100.0, 100.0);
        let y = g.f32_in(-100.0, 100.0);
        let w = g.f32_in(0.0, 25.0);
        // Occasional tall rectangles keep residents alive across many
        // arrivals — the regime that exercises eviction and fix-up.
        let h = if g.bool_with(0.15) {
            g.f32_in(50.0, 200.0)
        } else {
            g.f32_in(0.0, 20.0)
        };
        let id = id_base + next;
        next += 1;
        Item::new(Rect::from_coords(x, y, x + w, y + h), id)
    })
}

fn arb_config(g: &mut Gen) -> LiveConfig {
    LiveConfig {
        // 4..96 buffered items per flush: every draw lands the flush points
        // somewhere else in the ingestion history.
        flush_threshold_bytes: g.usize_in(4, 96) * usj_geom::ITEM_BYTES,
        // 0 disables auto-compaction entirely, so snapshots with many delta
        // runs are drawn as often as freshly-compacted single-run ones.
        compact_after_deltas: g.usize_in(0, 4),
    }
}

/// Builds a live dataset through a randomised ingestion history: a random
/// base/append split, random append chunking, random flush/compaction
/// cadence, and sometimes an explicit flush or compaction at the end.
fn arb_dataset(g: &mut Gen, env: &mut SimEnv, name: &str, id_base: u32) -> LiveDataset {
    let items = arb_items(g, 140, id_base);
    let split = g.usize_in(0, items.len() + 1);
    let mut ds = LiveDataset::create(env, name, &items[..split], arb_config(g)).unwrap();
    let mut rest = &items[split..];
    while !rest.is_empty() {
        let chunk = g.usize_in(1, rest.len() + 1);
        ds.append(env, &rest[..chunk]).unwrap();
        rest = &rest[chunk..];
    }
    if g.bool_with(0.3) {
        ds.flush(env).unwrap();
    }
    if g.bool_with(0.2) {
        ds.compact(env).unwrap();
    }
    ds
}

fn sorted(mut pairs: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    pairs.sort_unstable();
    pairs
}

fn brute(left: &[Item], right: &[Item]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for a in left {
        for b in right {
            if a.rect.intersects(&b.rect) {
                out.push((a.id, b.id));
            }
        }
    }
    out.sort_unstable();
    out
}

fn input(snap: &LiveSnapshot) -> JoinInput<'_> {
    JoinInput::Cataloged(snap.cataloged())
}

/// SSSJ over two snapshots' merged runs, as the service runs a tiered join.
fn streaming(
    env: &mut SimEnv,
    l: &LiveSnapshot,
    r: &LiveSnapshot,
    sink: &mut dyn PairSink,
) -> usj_core::JoinResult {
    SssjJoin::default()
        .run_with(env, input(l), input(r), sink)
        .unwrap()
}

/// Offline reference: SSSJ over the materialised snapshot streams.
fn offline_pairs(env: &mut SimEnv, l: &LiveSnapshot, r: &LiveSnapshot) -> Vec<(u32, u32)> {
    let (sl, _) = input(l).to_sorted_stream(env, None).unwrap();
    let (sr, _) = input(r).to_sorted_stream(env, None).unwrap();
    let (_, pairs) = SssjJoin::default()
        .run_collect(env, JoinInput::Stream(&sl), JoinInput::Stream(&sr))
        .unwrap();
    sorted(pairs)
}

#[test]
fn a_tiered_join_answers_like_the_quiesced_datasets_under_every_algorithm() {
    forall!(24, |g| {
        let mut env = env();
        let mut l = arb_dataset(g, &mut env, "l", 0);
        let mut r = arb_dataset(g, &mut env, "r", 1_000_000);
        let (tiered_l, tiered_r) = (l.snapshot(), r.snapshot());
        l.quiesce(&mut env).unwrap();
        r.quiesce(&mut env).unwrap();
        let (quiet_l, quiet_r) = (l.snapshot(), r.snapshot());
        assert!(!quiet_l.has_tiers() && !quiet_r.has_tiers());

        let eps = g.f32_in(0.0, 5.0);
        for predicate in [Predicate::Intersects, Predicate::WithinDistance(eps)] {
            for algo in [Algo::Auto, Algo::Sssj, Algo::Pbsm, Algo::Pq, Algo::St] {
                let mut join = |l, r| {
                    let (res, pairs) = SpatialQuery::new(l, r)
                        .algorithm(algo)
                        .predicate(predicate)
                        .collect(&mut env)
                        .unwrap();
                    assert_eq!(res.pairs as usize, pairs.len());
                    sorted(pairs)
                };
                let tiered = join(input(&tiered_l), input(&tiered_r));
                let quiesced = join(input(&quiet_l), input(&quiet_r));
                assert!(tiered.windows(2).all(|w| w[0] != w[1]), "duplicate pair");
                assert_eq!(tiered, quiesced, "{algo:?} / {predicate:?}");
            }
        }
    });
}

#[test]
fn merge_of_k_sorted_runs_equals_the_sort_of_their_concatenation() {
    // What lets compaction merge its tiers instead of sorting them, and a
    // join read a live dataset's device and memory runs without a sort: zero
    // to seven runs (empty ones included), corners snapped to a coarse grid
    // so equal sweep keys meet within and across runs, and budgets on both
    // sides of the merge fan-in.
    forall!(48, |g| {
        let limit = [64 * 1024, 4 * 1024 * 1024][g.usize_in(0, 2)];
        let mut env = env().with_memory_limit(limit);
        let items: Vec<Vec<Item>> = (0..g.usize_in(0, 8))
            .map(|k| {
                let mut run = arb_items(g, 300, k as u32 * 10_000);
                for it in &mut run {
                    let (lo, hi) = (it.rect.lo, it.rect.hi);
                    it.rect =
                        Rect::from_coords(lo.x.floor(), (lo.y / 8.0).floor() * 8.0, hi.x, hi.y);
                }
                sort_by_lower_y(&mut run);
                run
            })
            .collect();
        let all = items.concat();
        let runs: Vec<ItemStream> = items
            .iter()
            .map(|run| {
                ItemStream::from_items_with_block(&mut env, run, LIVE_PAGES_PER_BLOCK).unwrap()
            })
            .collect();
        // The same runs, each read from the device or from memory at random.
        let mixed = items
            .iter()
            .zip(&runs)
            .map(|(run, s)| {
                if g.bool_with(0.5) {
                    Run::memory(run)
                } else {
                    Run::device(s)
                }
            })
            .collect();
        let mut mixed = Merge::new(mixed, Item::sweep_key, Item::cmp_by_lower_y);
        let mixed: Vec<Item> = std::iter::from_fn(|| mixed.next(&mut env).unwrap()).collect();
        let k = runs.len();
        let (merged, passes) = extsort::merge_sorted_runs(
            &mut env,
            runs,
            Item::sweep_key,
            Item::cmp_by_lower_y,
            LIVE_PAGES_PER_BLOCK,
        )
        .unwrap();

        let concat =
            ItemStream::from_items_with_block(&mut env, &all, LIVE_PAGES_PER_BLOCK).unwrap();
        let (sorted, _) =
            extsort::external_sort_by_key(&mut env, &concat, Item::sweep_key, Item::cmp_by_lower_y)
                .unwrap();
        let sorted = sorted.read_all(&mut env).unwrap();
        assert_eq!(merged.read_all(&mut env).unwrap(), sorted);
        assert_eq!(mixed, sorted);
        // Fan-in 2 at 64 KB (two 16 KB blocks in half the budget), ample at 4 MB.
        let fan_in = if limit == 64 * 1024 { 2 } else { 128 };
        let mut levels = 0;
        let mut left = k;
        while left > 1 {
            left = left.div_ceil(fan_in);
            levels += 1;
        }
        assert_eq!(passes, levels, "{k} runs at {limit} B");
    });
}

#[test]
fn streaming_join_matches_offline_under_random_memory_limits() {
    // The worker-fork execution model of the service: datasets are built in
    // an unconstrained environment, the join runs on a forked worker whose
    // gauge is limited — sometimes low enough to force the sweep to spill.
    // The pair set must be identical either way, and the gauge must be
    // respected.
    forall!(24, |g| {
        let mut env = env();
        let l = arb_dataset(g, &mut env, "l", 0);
        let r = arb_dataset(g, &mut env, "r", 1_000_000);
        let (snap_l, snap_r) = (l.snapshot(), r.snapshot());
        let reference = offline_pairs(&mut env, &snap_l, &snap_r);

        let limit = [96 * 1024, 192 * 1024, 4 * 1024 * 1024][g.usize_in(0, 3)];
        let base = env.device.snapshot();
        let mut worker = env.fork_with_base(base);
        worker.set_memory_limit(limit);

        let mut sink = CollectSink::default();
        let live = streaming(&mut worker, &snap_l, &snap_r, &mut sink);
        assert_eq!(sorted(sink.pairs), reference);
        assert!(
            live.memory.peak_bytes <= limit,
            "gauge peak {} over limit {limit}",
            live.memory.peak_bytes
        );
    });
}

#[test]
fn recovery_restores_the_last_manifested_generation_at_any_crash_point() {
    // Durable-state contract: whatever a random ingestion history does —
    // appends with config-driven auto-flush/compaction, explicit flushes
    // and compactions, manifest commits at random points — a crash landing
    // wherever the history stops must recover *exactly* the record set of
    // the last committed manifest, and the recovered snapshot must join
    // (streaming and offline) identically to brute force over that set.
    use std::collections::BTreeSet;
    forall!(20, |g| {
        let mut env = env();
        let items = arb_items(g, 140, 0);
        let split = g.usize_in(0, items.len() + 1);
        let config = arb_config(g);
        let (mut ds, root) =
            LiveDataset::create_durable(&mut env, "d", &items[..split], config).unwrap();
        let mut durable: Vec<Item> = ds.published_items(&mut env).unwrap();
        let mut rest = &items[split..];
        while !rest.is_empty() {
            match g.usize_in(0, 7) {
                0..=3 => {
                    let chunk = g.usize_in(1, rest.len() + 1);
                    ds.append(&mut env, &rest[..chunk]).unwrap();
                    rest = &rest[chunk..];
                }
                4 => ds.flush(&mut env).unwrap(),
                5 => ds.compact(&mut env).unwrap(),
                _ => {
                    ds.write_manifest(&mut env).unwrap();
                    durable = ds.published_items(&mut env).unwrap();
                }
            }
        }
        if g.bool_with(0.5) {
            ds.flush(&mut env).unwrap();
        }
        if g.bool_with(0.5) {
            ds.write_manifest(&mut env).unwrap();
            durable = ds.published_items(&mut env).unwrap();
        }

        // Crash: every in-memory structure is gone; restart from the
        // device image (old pages readable, immutable).
        let mut after = env.fork_with_base(env.device.snapshot());
        let (rec, report) = LiveDataset::recover(&mut after, "d", root, config).unwrap();
        assert_eq!(
            report.dropped_deltas, 0,
            "clean crash must not drop verified deltas"
        );

        let expect: BTreeSet<u32> = durable.iter().map(|i| i.id).collect();
        let got: BTreeSet<u32> = rec
            .published_items(&mut after)
            .unwrap()
            .iter()
            .map(|i| i.id)
            .collect();
        assert_eq!(
            got, expect,
            "recovery lost or fabricated manifested records"
        );

        // Pair-set equality against an independent probe dataset.
        let probe_items = arb_items(g, 60, 1_000_000);
        let probe =
            LiveDataset::create(&mut after, "probe", &probe_items, LiveConfig::default()).unwrap();
        let (sl, sr) = (rec.snapshot(), probe.snapshot());
        let mut sink = CollectSink::default();
        streaming(&mut after, &sl, &sr, &mut sink);
        let streamed = sorted(sink.pairs);
        assert_eq!(streamed, brute(&durable, &probe_items));
        assert_eq!(streamed, offline_pairs(&mut after, &sl, &sr));
    });
}

#[test]
fn mid_stream_cancellation_emits_an_exact_prefix_of_the_pair_set() {
    // A sink that breaks (LIMIT, cancellation) must stop the join with
    // exactly min(k, total) pairs emitted, every one of them a true result
    // pair, and no duplicates — the service's cancellation contract.
    forall!(24, |g| {
        let mut env = env();
        let l = arb_dataset(g, &mut env, "l", 0);
        let r = arb_dataset(g, &mut env, "r", 1_000_000);
        let (snap_l, snap_r) = (l.snapshot(), r.snapshot());
        let reference = offline_pairs(&mut env, &snap_l, &snap_r);

        let k = g.usize_in(0, 20);
        let mut sink = LimitSink::new(CollectSink::default(), k as u64);
        streaming(&mut env, &snap_l, &snap_r, &mut sink);
        let emitted = sorted(sink.into_inner().pairs);
        assert_eq!(emitted.len(), k.min(reference.len()));
        assert!(emitted.windows(2).all(|w| w[0] != w[1]), "duplicate pair");
        for p in &emitted {
            assert!(
                reference.binary_search(p).is_ok(),
                "{p:?} not a result pair"
            );
        }
    });
}

/// Two trees are the same when they hold the same entries in the same
/// leaves under the same levels and box.
fn assert_same_tree(env: &mut SimEnv, got: &usj_rtree::RTree, want: &usj_rtree::RTree) {
    assert_eq!(got.bbox(), want.bbox());
    assert_eq!(got.num_items(), want.num_items());
    assert_eq!(got.level_counts(), want.level_counts());
    let all = |env: &mut SimEnv, t: &usj_rtree::RTree| t.window_query(env, &t.bbox()).unwrap();
    assert_eq!(all(env, got), all(env, want));
}

#[test]
fn every_compaction_builds_the_full_sorts_tree_and_recovery_rebuilds_it() {
    // Random histories of appends, flushes and compactions. Most bases carry
    // a record spanning the whole draw range, so their deltas never grow the
    // box and compactions merge the old leaves; the rest re-sort. Either way
    // the tree after every compaction is the one a scanning bulk load of
    // the new base builds, and recovery from a manifest rebuilds it.
    forall!(32, |g| {
        let mut env = env();
        let mut items = arb_items(g, 300, 0);
        let anchored = g.bool_with(0.7);
        if anchored {
            let everything = Rect::from_coords(-100.0, -100.0, 125.0, 300.0);
            items.insert(0, Item::new(everything, 900_000));
        }
        let split = g.usize_in(usize::from(anchored), items.len() + 1);
        let config = LiveConfig {
            flush_threshold_bytes: g.usize_in(4, 96) * usj_geom::ITEM_BYTES,
            compact_after_deltas: 0,
        };
        let (mut ds, root) =
            LiveDataset::create_durable(&mut env, "d", &items[..split], config).unwrap();
        let mut rest = &items[split..];
        while !rest.is_empty() {
            let chunk = g.usize_in(1, rest.len() + 1);
            ds.append(&mut env, &rest[..chunk]).unwrap();
            rest = &rest[chunk..];
            if g.bool_with(0.5) {
                ds.flush(&mut env).unwrap();
            }
            if g.bool_with(0.3) {
                ds.compact(&mut env).unwrap();
                let base = ds.snapshot().runs()[0].stream().clone();
                let want = usj_rtree::RTree::bulk_load_stream(&mut env, &base).unwrap();
                assert_same_tree(&mut env, ds.tree(), &want);
            }
        }
        ds.quiesce(&mut env).unwrap();
        let base = ds.snapshot().runs()[0].stream().clone();
        let want = usj_rtree::RTree::bulk_load_stream(&mut env, &base).unwrap();
        assert_same_tree(&mut env, ds.tree(), &want);

        ds.write_manifest(&mut env).unwrap();
        let mut after = env.fork_with_base(env.device.snapshot());
        let (rec, _) = LiveDataset::recover(&mut after, "d", root, config).unwrap();
        assert_same_tree(&mut after, rec.tree(), ds.tree());
    });
}
