//! Golden pages and counters of the three Hilbert bulk loaders.
//!
//! The loaders' host-side work — the Hilbert key, the packer, the leaf
//! reader — may be rebuilt for speed as often as anyone likes, as long as
//! nothing the paper's cost model or a later reader can see moves. This
//! suite pins, per loader and input: an FNV-1a digest of every node page's
//! bytes in page order, the tree's height and nodes per level, and the
//! charged page I/O and CPU counters of the load. The inputs have the shape
//! of one live compaction in the repo benchmark's steady state (a
//! 75 000-record base and four 3 277-record deltas); the merged loader runs
//! once with every delta inside the base's box (it merges) and once with
//! the box grown (it re-sorts the whole base).
//!
//! The numbers were recorded against the loaders as they stood before the
//! table-driven Hilbert key and the streaming packer replaced their hot
//! paths. On a mismatch the failure message prints the observed table in
//! the literal syntax below, so an *intended* change is a copy-paste plus
//! an explanation.

use usj_geom::{Item, Rect};
use usj_io::{CpuOp, ItemStream, MachineConfig, Result, SimEnv};
use usj_rtree::bulk::{
    bounding_box, bulk_load, bulk_load_merged, bulk_load_stream, BulkLoadConfig, MergedLoad,
};
use usj_rtree::RTree;

/// What one load is pinned to.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Golden {
    /// FNV-1a over the bytes of every node page, root last.
    pages: u64,
    height: u32,
    level_counts: Vec<u64>,
    /// Pages read, pages written, then sequential and random read
    /// operations, sequential and random write operations.
    io: [u64; 6],
    /// `Compare`, `HeapOp`, `RectTest`, `ItemMove`, `OutputPair` as charged.
    cpu: [u64; 5],
}

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

fn fnv(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Runs `load` on `env` and records what it built and charged.
fn observe(env: &mut SimEnv, load: impl FnOnce(&mut SimEnv) -> Result<RTree>) -> Golden {
    let m = env.begin();
    let tree = load(env).unwrap();
    let (io, cpu) = env.since(&m);
    // The loader allocates its nodes consecutively, root last.
    let first = tree.root() + 1 - tree.nodes();
    let mut pages = 0xcbf2_9ce4_8422_2325;
    env.unaccounted(|env| {
        for page in first..=tree.root() {
            fnv(&mut pages, &env.device.read_page(page).unwrap());
        }
    });
    Golden {
        pages,
        height: tree.height(),
        level_counts: tree.level_counts().to_vec(),
        io: [
            io.pages_read,
            io.pages_written,
            io.seq_read_ops,
            io.rand_read_ops,
            io.seq_write_ops,
            io.rand_write_ops,
        ],
        cpu: CpuOp::all().map(|op| cpu.get(op)),
    }
}

/// Every pinned load, by name, in table order.
fn observed() -> Vec<(&'static str, Golden)> {
    let cfg = BulkLoadConfig::default();
    let (base, deltas) = base_and_deltas();
    let all: Vec<Item> = base
        .iter()
        .chain(deltas.iter().flatten())
        .copied()
        .collect();
    let mut out = Vec::new();

    let mut env = SimEnv::new(MachineConfig::machine3());
    out.push((
        "bulk_load",
        observe(&mut env, |env| bulk_load(env, &all, cfg)),
    ));
    let packed = BulkLoadConfig::fully_packed();
    out.push((
        "bulk_load_fully_packed",
        observe(&mut env, |env| bulk_load(env, &all, packed)),
    ));
    let stream = env.unaccounted(|env| ItemStream::from_items(env, &all).unwrap());
    out.push((
        "bulk_load_stream",
        observe(&mut env, |env| bulk_load_stream(env, &stream, cfg)),
    ));

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
        let golden = observe(&mut env, |env| {
            let (tree, how) = bulk_load_merged(env, &old, &stream, &runs, bbox, cfg)?;
            assert_eq!(how, want, "{name}");
            Ok(tree)
        });
        out.push((name, golden));
    }
    out
}

/// The deltas clamped into the base's box: the merged loader keeps the old
/// tree's order.
fn steady(base: &[Item], deltas: &[Vec<Item>]) -> Vec<Vec<Item>> {
    let bbox = bounding_box(base.iter().map(|it| it.rect));
    deltas.iter().map(|d| inside(bbox, d)).collect()
}

fn golden(pages: u64, height: u32, level_counts: &[u64], io: [u64; 6], cpu: [u64; 5]) -> Golden {
    Golden {
        pages,
        height,
        level_counts: level_counts.to_vec(),
        io,
        cpu,
    }
}

#[test]
fn pages_shape_and_charged_counters_of_every_loader_are_pinned() {
    #[rustfmt::skip]
    let want: [(&str, Golden); 5] = [
        ("bulk_load", golden(18341594473270189446, 2, &[221, 1], [0, 222, 0, 0, 221, 1], [1497836, 0, 22000, 176437, 0])),
        ("bulk_load_fully_packed", golden(8599884569048114119, 2, &[221, 1], [0, 222, 0, 0, 222, 0], [1497836, 0, 0, 176437, 0])),
        ("bulk_load_stream", golden(14138249295995257822, 2, &[221, 1], [648, 438, 10, 2, 226, 0], [1497836, 0, 110108, 528869, 0])),
        ("bulk_load_merged", golden(9687794891583190568, 2, &[221, 1], [224, 222, 190, 2, 221, 1], [271616, 0, 22000, 189545, 0])),
        ("bulk_load_merged_box_grows", golden(10405383986590636308, 2, &[221, 1], [649, 655, 5, 7, 226, 4], [1540796, 176216, 22000, 616977, 0])),
    ];
    let got = observed();
    let table: String = got
        .iter()
        .map(|(name, g)| {
            format!(
                "        (\"{name}\", golden({}, {}, &{:?}, {:?}, {:?})),\n",
                g.pages, g.height, g.level_counts, g.io, g.cpu
            )
        })
        .collect();
    let names: Vec<&str> = got.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want.iter().map(|(n, _)| *n).collect::<Vec<_>>());
    let mismatches: Vec<&str> = got
        .iter()
        .zip(&want)
        .filter(|((_, g), (_, w))| g != w)
        .map(|((n, _), _)| *n)
        .collect();
    assert!(
        mismatches.is_empty(),
        "loader golden mismatch for {mismatches:?}; observed table:\n{table}"
    );
}
