//! Compaction is a merge: what it produces, and what it reads and writes.
//!
//! The oracle is what compaction used to be — the external sort of the
//! tiers' concatenation, then the scanning bulk load over the result. The
//! merged base and its R-tree must equal the oracle's item for item and
//! field for field, and one compaction's charged I/O is pinned.
//!
//! The tree is rebuilt from a merge of the old tree's leaves with the
//! sorted delta records while the tiers' box is the old tree's (the steady
//! state); otherwise the whole base is re-sorted and the compaction says so
//! with a `live.compaction.resort` mark. Every case states which path it
//! takes, and both must build the oracle's tree.

use std::sync::Arc;

use usj_geom::{Item, Rect};
use usj_io::{
    extsort, FaultConfig, FaultPlan, IoSimError, ItemStream, ItemStreamWriter, MachineConfig,
    SimEnv,
};
use usj_live::catalog::LIVE_PAGES_PER_BLOCK;
use usj_live::{LiveConfig, LiveDataset, LiveError};
use usj_obs::{QueryTrace, Recorder, RingCollector, VirtualClock};
use usj_rtree::bulk::bounding_box;
use usj_rtree::RTree;

fn env_with_memory(bytes: usize) -> SimEnv {
    SimEnv::new(MachineConfig::machine3()).with_memory_limit(bytes)
}

/// Never flushes or compacts on its own: the tests place every run.
fn manual() -> LiveConfig {
    LiveConfig {
        flush_threshold_bytes: usize::MAX,
        compact_after_deltas: 0,
    }
}

/// Deterministic scattered rectangles, unsorted, few coordinate collisions.
fn scattered(n: u32, id_base: u32, seed: u32) -> Vec<Item> {
    (0..n)
        .map(|i| {
            let h = i.wrapping_add(seed).wrapping_mul(2_654_435_761);
            let (x, y) = (
                (h % 100_003) as f32 / 100.0,
                (h / 7 % 100_019) as f32 / 100.0,
            );
            let (w, h) = ((h % 13) as f32 * 0.25, (h % 11) as f32 * 0.25);
            Item::new(Rect::from_coords(x, y, x + w, y + h), id_base + i)
        })
        .collect()
}

/// A dataset of one base run and one delta run per entry of `deltas`.
fn dataset(env: &mut SimEnv, base: &[Item], deltas: &[Vec<Item>]) -> LiveDataset {
    let mut ds = LiveDataset::create(env, "live", base, manual()).unwrap();
    for delta in deltas {
        ds.append(env, delta).unwrap();
        ds.flush(env).unwrap();
    }
    assert_eq!(ds.delta_runs().len(), deltas.len());
    ds
}

/// The oracle: sort of the concatenated runs, bulk load with its own scan.
fn sort_of_concatenation(env: &mut SimEnv, ds: &LiveDataset) -> (Vec<Item>, RTree, Rect) {
    let mut concat = ItemStreamWriter::new(env, LIVE_PAGES_PER_BLOCK);
    for run in ds.snapshot().runs() {
        for item in run.stream().read_all(env).unwrap() {
            concat.push(env, item).unwrap();
        }
    }
    let concat = concat.finish(env).unwrap();
    let (sorted, stats) =
        extsort::external_sort_by_key(env, &concat, Item::sweep_key, Item::cmp_by_lower_y).unwrap();
    let tree = RTree::bulk_load_stream(env, &sorted).unwrap();
    (sorted.read_all(env).unwrap(), tree, stats.bbox)
}

/// Every record of `tree` in traversal order: equal sequences mean equal
/// leaves, in the same order, holding the same entries.
fn tree_items(env: &mut SimEnv, tree: &RTree) -> Vec<Item> {
    tree.window_query(env, &tree.bbox()).unwrap()
}

fn base_run(ds: &LiveDataset) -> ItemStream {
    ds.snapshot().runs()[0].stream().clone()
}

/// `items` with every rectangle clamped into `bbox`: as many records, none
/// of them growing the box.
fn inside(bbox: Rect, items: Vec<Item>) -> Vec<Item> {
    let (lo, hi) = (bbox.lo, bbox.hi);
    items
        .into_iter()
        .map(|it| {
            let (a, b) = (it.rect.lo, it.rect.hi);
            let rect = Rect::from_coords(
                a.x.clamp(lo.x, hi.x),
                a.y.clamp(lo.y, hi.y),
                b.x.clamp(lo.x, hi.x),
                b.y.clamp(lo.y, hi.y),
            );
            Item::new(rect, it.id)
        })
        .collect()
}

/// [`dataset`] in the steady state: every delta record lies inside the
/// base's box, so compaction keeps the old tree's order.
fn steady(env: &mut SimEnv, base: &[Item], deltas: Vec<Vec<Item>>) -> LiveDataset {
    let bbox = bounding_box(base.iter().map(|it| it.rect));
    let deltas: Vec<Vec<Item>> = deltas.into_iter().map(|d| inside(bbox, d)).collect();
    dataset(env, base, &deltas)
}

/// Runs `f` under a recording collector and returns its result and trace.
fn traced<T>(f: impl FnOnce() -> T) -> (T, QueryTrace) {
    let ring = Arc::new(RingCollector::new(1 << 12));
    let guard = usj_obs::install(
        Arc::clone(&ring) as Arc<dyn Recorder>,
        Arc::new(VirtualClock::new()),
    );
    let out = f();
    drop(guard);
    let (events, dropped) = ring.drain();
    (out, QueryTrace::from_events(&events, dropped))
}

/// Compacts `ds` and checks the result against the oracle taken before.
/// Returns whether the compaction re-sorted the whole base.
fn assert_compaction_equals_the_sort(env: &mut SimEnv, mut ds: LiveDataset) -> bool {
    let (want_items, want_tree, want_bbox) = sort_of_concatenation(env, &ds);
    let records = ds.len();
    let ((), trace) = traced(|| ds.compact(env).unwrap());
    let compaction = trace.find("live.compaction").expect("a compaction span");
    let phases: Vec<&str> = compaction
        .children
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(phases, ["live.compaction.merge", "live.compaction.index"]);
    let resorts = trace.mark_values("live.compaction.resort");
    assert!(resorts.len() <= 1, "{resorts:?}");
    assert!(
        resorts.iter().all(|&n| n == records),
        "the mark carries the records sorted"
    );
    assert!(ds.delta_runs().is_empty());
    assert_eq!(ds.stats().compacted_items, records);

    assert_eq!(base_run(&ds).read_all(env).unwrap(), want_items);
    assert_eq!(ds.bbox(), want_bbox);
    let tree = ds.tree().clone();
    assert_eq!(tree.bbox(), want_tree.bbox());
    assert_eq!(tree.num_items(), want_tree.num_items());
    assert_eq!(tree.height(), want_tree.height());
    assert_eq!(tree.level_counts(), want_tree.level_counts());
    assert_eq!(tree_items(env, &tree), tree_items(env, &want_tree));
    !resorts.is_empty()
}

fn three_deltas() -> Vec<Vec<Item>> {
    (0..3)
        .map(|k| scattered(700, 100_000 * (k + 1), 17 * k))
        .collect()
}

#[test]
fn merged_base_and_tree_equal_the_sort_of_the_concatenation() {
    // These deltas reach past the base's box: the whole base is re-sorted.
    let mut env = env_with_memory(4 * 1024 * 1024);
    let ds = dataset(&mut env, &scattered(5_000, 0, 99), &three_deltas());
    assert!(assert_compaction_equals_the_sort(&mut env, ds));
}

#[test]
fn a_steady_state_compaction_merges_the_old_leaves_into_the_sorts_tree() {
    let mut env = env_with_memory(4 * 1024 * 1024);
    let ds = steady(&mut env, &scattered(5_000, 0, 99), three_deltas());
    assert!(!assert_compaction_equals_the_sort(&mut env, ds));
}

#[test]
fn equal_hilbert_keys_across_the_old_leaves_and_the_deltas_merge_in_comparator_order() {
    // Every tier holds squares of four sizes around the same fifteen
    // centres — fifteen Hilbert keys in all — under different ids, and
    // every tier spans the same box: only the comparator orders a key's
    // records, within a tier and across the old leaves and the deltas.
    let tier = |id_base: u32| -> Vec<Item> {
        (0..600u32)
            .map(|i| {
                let (cx, cy) = ((i % 5) as f32 * 10.0, (i % 3) as f32 * 10.0);
                let s = 1.0 + ((i + id_base) % 4) as f32;
                Item::new(
                    Rect::from_coords(cx - s, cy - s, cx + s, cy + s),
                    id_base + i,
                )
            })
            .collect()
    };
    let mut env = env_with_memory(4 * 1024 * 1024);
    let ds = dataset(&mut env, &tier(0), &[tier(1_001), tier(2_002), tier(3_003)]);
    assert!(!assert_compaction_equals_the_sort(&mut env, ds));
}

#[test]
fn one_delta_record_past_the_box_re_sorts_the_whole_base() {
    let mut env = env_with_memory(4 * 1024 * 1024);
    let base = scattered(5_000, 0, 99);
    let bbox = bounding_box(base.iter().map(|it| it.rect));
    let mut deltas: Vec<Vec<Item>> = three_deltas()
        .into_iter()
        .map(|d| inside(bbox, d))
        .collect();
    let hi = bbox.hi;
    deltas[1].push(Item::new(
        Rect::from_coords(hi.x, hi.y, hi.x + 0.5, hi.y + 0.5),
        999_999,
    ));
    let ds = dataset(&mut env, &base, &deltas);
    assert!(assert_compaction_equals_the_sort(&mut env, ds));
}

#[test]
fn a_budget_too_small_for_the_delta_sort_buffer_re_sorts_the_whole_base() {
    // 2 400 delta records need 76 800 bytes of keyed buffer: more than the
    // whole 64 KB budget, which the external sort's 32 KB runs still fit.
    let mut env = env_with_memory(64 * 1024);
    let deltas: Vec<Vec<Item>> = (0..4)
        .map(|k| scattered(600, 100_000 * (k + 1), 31 * k))
        .collect();
    let ds = steady(&mut env, &scattered(3_000, 0, 5), deltas);
    assert!(assert_compaction_equals_the_sort(&mut env, ds));
}

#[test]
fn a_transient_fault_on_an_old_leaf_fails_the_compaction_and_its_rerun_builds_the_sorts_tree() {
    let mut env = env_with_memory(4 * 1024 * 1024);
    let mut ds = steady(&mut env, &scattered(5_000, 0, 99), three_deltas());
    let runs: Vec<ItemStream> = ds
        .snapshot()
        .runs()
        .iter()
        .map(|r| r.stream().clone())
        .collect();
    // Pages read before the first old leaf: the merge's inputs, then the
    // delta runs once more for their sort; then the old leaves, then nothing.
    let before_leaves: u64 = runs.iter().map(ItemStream::pages).sum::<u64>()
        + runs[1..].iter().map(ItemStream::pages).sum::<u64>();
    let leaves = ds.tree().num_leaves();

    // A fault schedule whose one read fault lands on an old leaf, found by
    // rehearsing the compaction on forks of the device (a faulted read is
    // not counted, so the pages read before it place it).
    let plan = ds.begin_compaction().unwrap();
    let faults = (0..1_000)
        .map(|seed| FaultConfig {
            read_fault: 0.1,
            max_faults: 1,
            ..FaultConfig::quiet(seed)
        })
        .find(|&faults| {
            let mut fork = env.fork_with_base(env.device.snapshot());
            fork.install_faults(FaultPlan::new(faults));
            let failed = LiveDataset::run_compaction(&mut fork, &plan).is_err();
            let read = fork.device.stats().pages_read;
            failed && (before_leaves..before_leaves + leaves).contains(&read)
        })
        .expect("some seed faults an old leaf");
    ds.abort_compaction();

    env.install_faults(FaultPlan::new(faults));
    let err = ds.compact(&mut env).unwrap_err();
    env.device.clear_faults();
    assert_eq!(
        err,
        LiveError::Io(IoSimError::DeviceFault { transient: true })
    );
    assert_eq!(
        (ds.stats().compactions, ds.delta_runs().len()),
        (0, 3),
        "nothing published"
    );
    assert!(!ds.is_compacting());
    assert!(!assert_compaction_equals_the_sort(&mut env, ds));
}

#[test]
fn equal_sweep_keys_across_base_and_deltas_merge_in_comparator_order() {
    // Every tier holds records on the same few lower-left corners: the same
    // sweep key with different upper corners, and the same rectangle under
    // different ids — only the comparator's later fields order them. Every
    // tier spans the same box, so the old leaves are merged, not re-sorted.
    let tier = |id_base: u32| -> Vec<Item> {
        (0..600u32)
            .map(|i| {
                let (x, y) = ((i % 5) as f32, (i % 3) as f32);
                let grow = ((i + id_base) % 4) as f32;
                Item::new(
                    Rect::from_coords(x, y, x + 1.0 + grow, y + 1.0),
                    id_base + i,
                )
            })
            .collect()
    };
    let mut env = env_with_memory(4 * 1024 * 1024);
    let ds = dataset(&mut env, &tier(0), &[tier(1_001), tier(2_002), tier(3_003)]);
    assert!(!assert_compaction_equals_the_sort(&mut env, ds));
}

#[test]
fn an_empty_base_contributes_neither_records_nor_its_placeholder_box() {
    let mut env = env_with_memory(4 * 1024 * 1024);
    // Far from the unit square an empty base is registered with.
    let far = |id_base: u32, seed: u32| -> Vec<Item> {
        scattered(400, id_base, seed)
            .into_iter()
            .map(|it| {
                let (lo, hi) = (it.rect.lo, it.rect.hi);
                let moved = Rect::from_coords(lo.x + 5e3, lo.y + 7e3, hi.x + 5e3, hi.y + 7e3);
                Item::new(moved, it.id)
            })
            .collect()
    };
    let ds = dataset(&mut env, &[], &[far(0, 1), far(10_000, 2)]);
    assert!(assert_compaction_equals_the_sort(&mut env, ds));
}

#[test]
fn more_deltas_than_the_merge_fan_in_merge_level_by_level() {
    // 64 KB buys two 16 KB blocks of fan-in: five runs take three levels.
    let mut env = env_with_memory(64 * 1024);
    let deltas: Vec<Vec<Item>> = (0..4)
        .map(|k| scattered(500, 100_000 * (k + 1), 31 * k))
        .collect();
    let ds = dataset(&mut env, &scattered(3_000, 0, 5), &deltas);
    let runs: Vec<ItemStream> = ds
        .snapshot()
        .runs()
        .iter()
        .map(|r| r.stream().clone())
        .collect();
    let (_, passes) = extsort::merge_sorted_runs(
        &mut env,
        runs,
        Item::sweep_key,
        Item::cmp_by_lower_y,
        LIVE_PAGES_PER_BLOCK,
    )
    .unwrap();
    assert_eq!(passes, 3);
    assert!(assert_compaction_equals_the_sort(&mut env, ds));
}

#[test]
fn one_compaction_reads_and_writes_what_a_merge_and_a_bulk_load_must() {
    // The shape of the repo benchmark's steady state: a 75 000-record base,
    // four deltas of one 64 KB memtable each, the default 4 MB budget.
    let mut env = env_with_memory(4 * 1024 * 1024);
    let deltas: Vec<Vec<Item>> = (0..4)
        .map(|k| scattered(3_277, 1_000_000 * (k + 1), 7 * k))
        .collect();
    let mut ds = dataset(&mut env, &scattered(75_000, 0, 3), &deltas);
    let input_pages: u64 = ds
        .snapshot()
        .runs()
        .iter()
        .map(|r| r.stream().pages())
        .sum();

    let m = env.begin();
    ds.compact(&mut env).unwrap();
    let (io, _) = env.since(&m);
    let data_pages = base_run(&ds).pages();
    let nodes = ds.tree().nodes();
    assert_eq!((input_pages, data_pages), (220, 216));

    // Read: the merge's inputs (220 pages: every tier ends in a part-filled
    // one), then the loader's sort (run formation and its merge) and packing
    // pass over the new base — no concatenation pass, no bounding-box scan.
    // Written: the new base, the loader's runs and their merge, the nodes.
    // (The sort-the-concatenation compaction read 7 × and wrote 5 × the
    // data: 1 518 and 1 304 pages on this input.)
    assert!(io.pages_read <= 4 * input_pages, "{io:?}");
    assert!(io.pages_written <= 3 * input_pages + nodes, "{io:?}");
    assert_eq!(
        (io.pages_read, io.pages_written, nodes),
        (869, 871, 222),
        "{io:?}"
    );
}

#[test]
fn a_steady_state_compaction_reads_the_old_leaves_instead_of_sorting_the_base() {
    // The same shape as above, every delta record inside the base's box.
    let mut env = env_with_memory(4 * 1024 * 1024);
    let deltas: Vec<Vec<Item>> = (0..4)
        .map(|k| scattered(3_277, 1_000_000 * (k + 1), 7 * k))
        .collect();
    let mut ds = steady(&mut env, &scattered(75_000, 0, 3), deltas);
    let runs: Vec<ItemStream> = ds
        .snapshot()
        .runs()
        .iter()
        .map(|r| r.stream().clone())
        .collect();
    let input_pages: u64 = runs.iter().map(ItemStream::pages).sum();
    let delta_pages: u64 = runs[1..].iter().map(ItemStream::pages).sum();
    let old_leaves = ds.tree().num_leaves();

    let m = env.begin();
    let ((), trace) = traced(|| ds.compact(&mut env).unwrap());
    let (io, _) = env.since(&m);
    assert!(trace.mark_values("live.compaction.resort").is_empty());
    let data_pages = base_run(&ds).pages();
    let nodes = ds.tree().nodes();
    assert_eq!((input_pages, data_pages), (220, 216));

    // Read: the merge's inputs, the delta runs again for their in-memory
    // sort, the old tree's leaves — not the new base, no sort runs.
    // Written: the new base and the nodes.
    assert_eq!(
        io.pages_read,
        input_pages + delta_pages + old_leaves,
        "{io:?}"
    );
    assert_eq!(io.pages_written, data_pages + nodes, "{io:?}");
    assert_eq!(
        (io.pages_read, io.pages_written, nodes),
        (444, 438, 222),
        "{io:?}"
    );
}
