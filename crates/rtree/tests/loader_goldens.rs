//! Golden pages and counters of the three Hilbert bulk loaders.
//!
//! The loaders' host-side work — the Hilbert key, the packer, the leaf
//! reader — may be rebuilt for speed as often as anyone likes, as long as
//! nothing the paper's cost model or a later reader can see moves.
//! `ledgers/loader_goldens.ledger` pins, per loader and input: an FNV-1a
//! digest of every node page's bytes in page order, the tree's height and
//! nodes per level, and the charged page I/O and CPU counters of the load.
//! The inputs have the shape of one live compaction in the repo benchmark's
//! steady state (a 75 000-record base and four 3 277-record deltas); the
//! merged loader runs once with every delta inside the base's box (it
//! merges) and once with the box grown (it re-sorts the whole base).

use usj_geom::{Item, Rect};
use usj_io::ledger::{self, Fnv1a, Row};
use usj_io::{ItemStream, MachineConfig, Result, SimEnv};
use usj_rtree::bulk::{
    bounding_box, bulk_load, bulk_load_merged, bulk_load_stream, BulkLoadConfig, MergedLoad,
};
use usj_rtree::RTree;

/// Deterministic scattered rectangles, unsorted, few coordinate collisions
/// (the generator of `crates/live/tests/compaction.rs`).
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

/// The compaction shape: a 75 000-record base and four 3 277-record deltas.
fn base_and_deltas() -> (Vec<Item>, Vec<Vec<Item>>) {
    let deltas = (0..4)
        .map(|k| scattered(3_277, 1_000_000 * (k + 1), 7 * k))
        .collect();
    (scattered(75_000, 0, 3), deltas)
}

/// `items` with every rectangle clamped into `bbox`.
fn inside(bbox: Rect, items: &[Item]) -> Vec<Item> {
    let (lo, hi) = (bbox.lo, bbox.hi);
    items
        .iter()
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

/// Runs `load` on `env` and records what it built and charged.
fn observe(name: &str, env: &mut SimEnv, load: impl FnOnce(&mut SimEnv) -> Result<RTree>) -> Row {
    let m = env.begin();
    let tree = load(env).unwrap();
    let (io, cpu) = env.since(&m);
    // The loader allocates its nodes consecutively, root last.
    let first = tree.root() + 1 - tree.nodes();
    let mut pages = Fnv1a::default();
    env.unaccounted(|env| {
        for page in first..=tree.root() {
            pages.write(&env.device.read_page(page).unwrap());
        }
    });
    let mut row = Row::new(name)
        .with("pages", pages.finish())
        .with("height", u64::from(tree.height()));
    for (level, &nodes) in tree.level_counts().iter().enumerate() {
        row = row.with(format!("level.{level}"), nodes);
    }
    row.io(&io).cpu(&cpu)
}

/// Every pinned load, by name, in table order.
fn observed() -> Vec<Row> {
    let cfg = BulkLoadConfig::default();
    let (base, deltas) = base_and_deltas();
    let all: Vec<Item> = base
        .iter()
        .chain(deltas.iter().flatten())
        .copied()
        .collect();
    let mut out = Vec::new();

    let mut env = SimEnv::new(MachineConfig::machine3());
    out.push(observe("bulk_load", &mut env, |env| {
        bulk_load(env, &all, cfg)
    }));
    let packed = BulkLoadConfig::fully_packed();
    out.push(observe("bulk_load_fully_packed", &mut env, |env| {
        bulk_load(env, &all, packed)
    }));
    let stream = env.unaccounted(|env| ItemStream::from_items(env, &all).unwrap());
    out.push(observe("bulk_load_stream", &mut env, |env| {
        bulk_load_stream(env, &stream, cfg)
    }));

    // The merged loader: an old tree over the base, delta runs, and the
    // concatenation they compact into.
    for (name, deltas, want) in [
        (
            "bulk_load_merged",
            steady(&base, &deltas),
            MergedLoad::Merged,
        ),
        (
            "bulk_load_merged_box_grows",
            deltas.clone(),
            MergedLoad::Resorted,
        ),
    ] {
        let mut env = SimEnv::new(MachineConfig::machine3()).with_memory_limit(4 * 1024 * 1024);
        let all: Vec<Item> = base
            .iter()
            .chain(deltas.iter().flatten())
            .copied()
            .collect();
        let bbox = bounding_box(all.iter().map(|it| it.rect));
        let (old, stream, runs) = env.unaccounted(|env| {
            let old = bulk_load(env, &base, cfg).unwrap();
            let stream = ItemStream::from_items(env, &all).unwrap();
            let runs: Vec<ItemStream> = deltas
                .iter()
                .map(|d| ItemStream::from_items(env, d).unwrap())
                .collect();
            (old, stream, runs)
        });
        out.push(observe(name, &mut env, |env| {
            let (tree, how) = bulk_load_merged(env, &old, &stream, &runs, bbox, cfg)?;
            assert_eq!(how, want, "{name}");
            Ok(tree)
        }));
    }
    out
}

/// The deltas clamped into the base's box: the merged loader keeps the old
/// tree's order.
fn steady(base: &[Item], deltas: &[Vec<Item>]) -> Vec<Vec<Item>> {
    let bbox = bounding_box(base.iter().map(|it| it.rect));
    deltas.iter().map(|d| inside(bbox, d)).collect()
}

#[test]
fn pages_shape_and_charged_counters_of_every_loader_are_pinned() {
    ledger::check(include_str!("ledgers/loader_goldens.ledger"), &observed());
}
