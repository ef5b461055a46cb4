//! Hilbert bulk loading under the two packing policies, the two phases of
//! a live compaction (the k-way merge of its sorted runs and the merged
//! rebuild of its tree), and the Hilbert key on its own.

use std::hint::black_box;
use usj_bench::QuickBench;
use usj_datagen::{Preset, WorkloadSpec};
use usj_geom::{hilbert, Item, Rect};
use usj_io::{extsort, ItemStream, MachineConfig, SimEnv};
use usj_rtree::bulk::{bounding_box, bulk_load, bulk_load_merged, MergedLoad};
use usj_rtree::BulkLoadConfig;

/// `n` scattered rectangles, unsorted, few coordinate collisions.
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

fn main() {
    let workload = WorkloadSpec::preset(Preset::NJ)
        .with_scale(400)
        .generate(42);
    println!("rtree_bulk_load ({} MBRs)", workload.roads.len());
    let harness = QuickBench::new();
    for (name, cfg) in [
        ("packed_75_plus_20", BulkLoadConfig::default()),
        ("fully_packed", BulkLoadConfig::fully_packed()),
    ] {
        harness.bench(name, || {
            let mut env = SimEnv::new(MachineConfig::machine3());
            let tree = bulk_load(&mut env, black_box(&workload.roads), cfg).unwrap();
            black_box(tree.nodes())
        });
    }

    // One steady-state compaction of the repo benchmark's live tier: the
    // old tree over a 75 000-record base, four 3 277-record deltas inside
    // its box, rebuilt from the old leaves merged with the sorted deltas.
    // Every sample runs on a fresh fork of the same device.
    let cfg = BulkLoadConfig::default();
    let base = scattered(75_000, 0, 3);
    let bbox = bounding_box(base.iter().map(|it| it.rect));
    let inside = |it: &Item| {
        let (a, b) = (it.rect.lo, it.rect.hi);
        let (x, y) = (
            |v: f32| v.clamp(bbox.lo.x, bbox.hi.x),
            |v: f32| v.clamp(bbox.lo.y, bbox.hi.y),
        );
        Item::new(Rect::from_coords(x(a.x), y(a.y), x(b.x), y(b.y)), it.id)
    };
    let deltas: Vec<Vec<Item>> = (0..4)
        .map(|k| {
            scattered(3_277, 1_000_000 * (k + 1), 7 * k)
                .iter()
                .map(inside)
                .collect()
        })
        .collect();
    let mut env = SimEnv::new(MachineConfig::machine3()).with_memory_limit(4 * 1024 * 1024);
    let old = bulk_load(&mut env, &base, cfg).unwrap();
    let all: Vec<Item> = base
        .iter()
        .chain(deltas.iter().flatten())
        .copied()
        .collect();
    let merged_base = ItemStream::from_items(&mut env, &all).unwrap();
    let runs: Vec<ItemStream> = deltas
        .iter()
        .map(|d| ItemStream::from_items(&mut env, d).unwrap())
        .collect();
    // The same compaction's merge phase: the base and the deltas as runs
    // sorted by the sweep key, in 2-page blocks, merged into the new base.
    let sorted_run = |env: &mut SimEnv, items: &[Item]| {
        let mut items = items.to_vec();
        items.sort_unstable_by(|a, b| a.sweep_key().cmp(&b.sweep_key()).then(a.cmp_by_lower_y(b)));
        ItemStream::from_items_with_block(env, &items, 2).unwrap()
    };
    let sweep_runs: Vec<ItemStream> = std::iter::once(&base)
        .chain(&deltas)
        .map(|items| sorted_run(&mut env, items))
        .collect();
    let device = env.device.snapshot();
    harness.bench("merge_sorted_runs_75000_plus_4x3277", || {
        let mut fork = env.fork_with_base(device.clone());
        let (merged, _) = extsort::merge_sorted_runs(
            &mut fork,
            sweep_runs.clone(),
            Item::sweep_key,
            Item::cmp_by_lower_y,
            2,
        )
        .unwrap();
        black_box(merged.len())
    });
    harness.bench("merged_compaction_75000_plus_4x3277", || {
        let mut fork = env.fork_with_base(device.clone());
        let (tree, how) =
            bulk_load_merged(&mut fork, &old, &merged_base, &runs, bbox, cfg).unwrap();
        assert_eq!(how, MergedLoad::Merged);
        black_box(tree.nodes())
    });

    // The loaders' sort key alone: a million centres in the box.
    let centres: Vec<(f32, f32)> = (0..1_000_000u32)
        .map(|i| {
            let h = i.wrapping_mul(2_654_435_761);
            (
                (h % 100_003) as f32 / 100.0,
                (h / 7 % 100_019) as f32 / 100.0,
            )
        })
        .collect();
    let space = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    harness.bench("hilbert_value_1m_keys", || {
        black_box(&centres).iter().fold(0u64, |acc, &(x, y)| {
            acc ^ hilbert::hilbert_value(x, y, &space)
        })
    });
}
