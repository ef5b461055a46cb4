//! The adversarial-family differential suite.
//!
//! The benchmark's `join_spill` workload found two quadratic cliffs on one
//! family (tall rectangles); this suite keeps a small, seeded instance of
//! that family and of its relatives beside the friendly cases, the way a
//! shortest-path crate keeps its `spfa_killer` inputs:
//!
//! * **tall** — thin, long along the sweep axis: a large share of each
//!   relation is resident at every sweep position;
//! * **wide-flat** — its mirror image: long *across* the sweep axis;
//! * **crossing** — tall × wide-flat: one side is long on each axis;
//! * **identical** — one rectangle, many times: no grid separates it;
//! * **one-tile skew** — everything in one PBSM tile of a far larger extent;
//! * **diagonal chain** — each rectangle overlaps only its neighbours.
//!
//! Every family × {SSSJ, PBSM, PQ, ST, Auto} × {ample, tight memory} must
//! report the brute-force oracle's pair set within the memory limit. On top, deterministic guards in the repo's simulated
//! currency pin what "no quadratic work under memory pressure" means.

use unified_spatial_join::prelude::*;
use usj_datagen::rng::SmallRng;
use usj_geom::Item;
use usj_io::ledger::{self, Row};
use usj_io::{CpuOp, ItemStream};

const KB: usize = 1024;
const AMPLE: usize = 16 * 1024 * KB;
/// Below the tall family's resident set and below one PBSM partition pair.
const TIGHT: usize = 192 * KB;
const SIDE: f32 = 1000.0;
const RIGHT_IDS: u32 = 0x4000_0000;

struct Family {
    name: &'static str,
    left: Vec<Item>,
    right: Vec<Item>,
}

/// `n` rectangles 0.01–0.1 thin and `long.0`–`long.1` long, placed
/// uniformly in the square; long along y when `tall`, along x otherwise.
/// (With 90–900, the benchmark's tall family at its reduced size.)
fn long_thin(
    rng: &mut SmallRng,
    n: usize,
    first_id: u32,
    tall: bool,
    long: (f32, f32),
) -> Vec<Item> {
    (0..n)
        .map(|i| {
            let thin = rng.gen_range_f32(0.01, 0.1);
            let long = rng.gen_range_f32(long.0, long.1);
            let (w, h) = if tall { (thin, long) } else { (long, thin) };
            let x = rng.gen_f32() * (SIDE - w);
            let y = rng.gen_f32() * (SIDE - h);
            Item::new(Rect::from_coords(x, y, x + w, y + h), first_id + i as u32)
        })
        .collect()
}

fn families(seed: u64) -> Vec<Family> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (n, m) = (3_000, 800);
    let mut out = Vec::new();
    // Crossing pairs are a product of the lengths: shorter ones keep the
    // pair list (sorted once per run) small.
    for (name, left_tall, right_tall, long) in [
        ("tall", true, true, (90.0, 900.0)),
        ("wide-flat", false, false, (90.0, 900.0)),
        ("crossing", true, false, (30.0, 300.0)),
    ] {
        out.push(Family {
            name,
            left: long_thin(&mut rng, n, 0, left_tall, long),
            right: long_thin(&mut rng, m, RIGHT_IDS, right_tall, long),
        });
    }

    let same = Rect::from_coords(410.0, 230.0, 412.5, 231.0);
    out.push(Family {
        name: "identical",
        left: (0..400).map(|i| Item::new(same, i)).collect(),
        right: (0..150).map(|i| Item::new(same, RIGHT_IDS + i)).collect(),
    });

    // A 4 × 4 cluster — half a tile of the 128-grid — and two far corners
    // that stretch the extent to the whole square.
    let mut skew = |n: usize, first_id: u32| -> Vec<Item> {
        let mut v: Vec<Item> = (0..n)
            .map(|i| {
                let x = 100.0 + rng.gen_f32() * 4.0;
                let y = 100.0 + rng.gen_f32() * 4.0;
                let (w, h) = (rng.gen_range_f32(0.01, 0.2), rng.gen_range_f32(0.01, 0.2));
                Item::new(Rect::from_coords(x, y, x + w, y + h), first_id + i as u32)
            })
            .collect();
        v.push(Item::new(
            Rect::from_coords(0.0, 0.0, 1.0, 1.0),
            first_id + n as u32,
        ));
        v.push(Item::new(
            Rect::from_coords(SIDE - 1.0, SIDE - 1.0, SIDE, SIDE),
            first_id + n as u32 + 1,
        ));
        v
    };
    out.push(Family {
        name: "one-tile skew",
        left: skew(n, 0),
        right: skew(m, RIGHT_IDS),
    });

    let chain = |n: usize, offset: f32, first_id: u32| -> Vec<Item> {
        let step = SIDE / (n as f32 + 2.0);
        (0..n)
            .map(|i| {
                let at = i as f32 * step + offset * step;
                Item::new(
                    Rect::from_coords(at, at, at + 1.5 * step, at + 1.5 * step),
                    first_id + i as u32,
                )
            })
            .collect()
    };
    out.push(Family {
        name: "diagonal chain",
        left: chain(n, 0.0, 0),
        right: chain(m * 3, 0.4, RIGHT_IDS),
    });
    out
}

fn oracle(f: &Family) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for a in &f.left {
        for b in f.right.iter().filter(|b| a.rect.intersects(&b.rect)) {
            out.push((a.id, b.id));
        }
    }
    out.sort_unstable();
    out
}

/// A family's inputs on a device: flat streams and bulk-loaded trees.
struct Prepared {
    env: SimEnv,
    left: ItemStream,
    right: ItemStream,
    left_tree: RTree,
    right_tree: RTree,
}

impl Prepared {
    fn new(f: &Family, limit: usize) -> Self {
        let mut env = SimEnv::new(MachineConfig::machine3());
        let left = ItemStream::from_items(&mut env, &f.left).unwrap();
        let right = ItemStream::from_items(&mut env, &f.right).unwrap();
        let left_tree = RTree::bulk_load(&mut env, &f.left).unwrap();
        let right_tree = RTree::bulk_load(&mut env, &f.right).unwrap();
        env.set_memory_limit(limit);
        Prepared {
            env,
            left,
            right,
            left_tree,
            right_tree,
        }
    }

    /// Runs `algo` on its natural inputs — SSSJ and PBSM on the flat
    /// streams, PQ, ST and Auto on the trees — and returns the result with
    /// the sorted pair list.
    fn join(&mut self, algo: Algo) -> (JoinResult, Vec<(u32, u32)>) {
        let (l, r) = match algo {
            Algo::Sssj | Algo::Pbsm => (
                JoinInput::Stream(&self.left),
                JoinInput::Stream(&self.right),
            ),
            _ => (
                JoinInput::Indexed(&self.left_tree),
                JoinInput::Indexed(&self.right_tree),
            ),
        };
        let (res, mut pairs) = SpatialQuery::new(l, r)
            .algorithm(algo)
            .collect(&mut self.env)
            .unwrap_or_else(|e| panic!("{algo:?} failed: {e}"));
        pairs.sort_unstable();
        (res, pairs)
    }

    fn input_pages(&self) -> u64 {
        self.left.pages() + self.right.pages()
    }
}

const ALGOS: [Algo; 5] = [Algo::Sssj, Algo::Pbsm, Algo::Pq, Algo::St, Algo::Auto];

#[test]
fn every_family_algorithm_execution_and_limit_matches_the_oracle() {
    for f in families(0xADFA) {
        let want = oracle(&f);
        assert!(!want.is_empty(), "{}: the family must join", f.name);
        for limit in [AMPLE, TIGHT] {
            let mut p = Prepared::new(&f, limit);
            for algo in ALGOS {
                let (res, pairs) = p.join(algo);
                let what = format!("{} / {algo:?} @ {} KB", f.name, limit / KB);
                assert!(
                    pairs == want,
                    "{what}: {} pairs, oracle {}",
                    pairs.len(),
                    want.len()
                );
                assert_eq!(res.pairs, want.len() as u64, "{what}");
                assert!(
                    res.memory.peak_bytes <= limit,
                    "{what}: peak {} exceeds the limit",
                    res.memory.peak_bytes
                );
            }
        }
    }
}

/// No quadratic work under memory pressure, in the simulated currency: on
/// the families that are long on one axis PBSM writes its input about once
/// (it used to write it 20× on the tall family and 1 758× on the wide-flat
/// one), and the sweeps' fix-ups test a bounded number of rectangles per
/// item (they used to test every spilled item against every later arrival,
/// 1 766 tests per item on the benchmark's tall family). ST's node pairs
/// sweep along whichever axis their entries are narrower on, so the family
/// and its mirror image cost it about the same (along y only, the tall one
/// cost it 28× the tests of the other operators on the benchmark).
#[test]
fn long_on_one_axis_stays_linear_under_tight_memory() {
    let mut st_tests = Vec::new();
    for f in families(0xADFA).into_iter().take(2) {
        let mut p = Prepared::new(&f, TIGHT);
        let items = (f.left.len() + f.right.len()) as u64;

        let (pbsm, _) = p.join(Algo::Pbsm);
        assert!(
            pbsm.io.pages_written <= 3 * p.input_pages(),
            "{}: PBSM wrote {} pages for {} input pages",
            f.name,
            pbsm.io.pages_written,
            p.input_pages()
        );

        for algo in [Algo::Sssj, Algo::Pq] {
            let (res, _) = p.join(algo);
            let tests = res.cpu.get(CpuOp::RectTest);
            assert!(
                tests <= 64 * items,
                "{}: {algo:?} made {tests} rectangle tests for {items} items",
                f.name
            );
            if f.name == "tall" {
                assert!(
                    res.sweep.spill_runs > 0,
                    "{algo:?} must spill: {:?}",
                    res.sweep
                );
            }
        }

        let (st, _) = p.join(Algo::St);
        let tests = st.cpu.get(CpuOp::RectTest);
        assert!(
            tests <= 64 * items,
            "{}: ST made {tests} rectangle tests for {items} items",
            f.name
        );
        st_tests.push(tests);
    }
    let [tall, wide_flat] = st_tests[..] else {
        panic!("two families: {st_tests:?}")
    };
    assert!(
        tall <= 2 * wide_flat && wide_flat <= 2 * tall,
        "ST must not care which axis is the long one: {tall} tests on tall, {wide_flat} on wide-flat"
    );
}

/// The order audit of the axis change: ST reports a node pair's matches in
/// the order of a sweep along that pair's own axis, so *which* pairs a
/// `LIMIT k` returns moved — that it returns exactly `k` of them, distinct
/// and all the oracle's, whichever axis the family is long on, did not.
#[test]
fn limited_st_returns_k_distinct_oracle_pairs_on_either_long_axis() {
    for f in families(0xADFA).into_iter().take(2) {
        let want = oracle(&f);
        for limit in [AMPLE, TIGHT] {
            let mut p = Prepared::new(&f, limit);
            let (full, _) = p.join(Algo::St);
            for k in [1, 10, 500, want.len() as u64, want.len() as u64 + 7] {
                let query = SpatialQuery::new(
                    JoinInput::Indexed(&p.left_tree),
                    JoinInput::Indexed(&p.right_tree),
                )
                .algorithm(Algo::St);
                let (res, mut pairs) = query.first(&mut p.env, k).unwrap();
                let what = format!("{} / first {k} @ {} KB", f.name, limit / KB);
                let expect = k.min(want.len() as u64);
                assert_eq!((res.pairs, pairs.len() as u64), (expect, expect), "{what}");
                pairs.sort_unstable();
                pairs.dedup();
                assert_eq!(pairs.len() as u64, expect, "{what}: duplicates");
                assert!(
                    pairs.iter().all(|p| want.binary_search(p).is_ok()),
                    "{what}: a pair outside the oracle"
                );
                // Stopping early never reads more than running to the end.
                assert!(res.io.pages_read <= full.io.pages_read, "{what}");
            }
        }
    }
}

/// A split that does not shrink its input is the last one: PBSM goes to the
/// bounded fallback instead of re-replicating the same rectangles level
/// after level. Four in five rectangles here are long on *both* axes, so
/// either axis replicates them into every partition and every child of a
/// split keeps them all; the small fifth keeps the children from ever
/// *equalling* their parent, which is the only stall the old rule saw — it
/// recursed to the depth limit, four-fold per level. Two top-level
/// partitions, one split of each and their replication stay within 16× the
/// input pages.
#[test]
fn pbsm_never_recurses_past_a_split_that_does_not_shrink() {
    let mut rng = SmallRng::seed_from_u64(0xB167);
    let mut both_axes = |n: usize, first_id: u32| -> Vec<Item> {
        (0..n)
            .map(|i| {
                let (lo, hi) = if i % 5 == 0 {
                    (0.5, 5.0)
                } else {
                    (400.0, 900.0)
                };
                let (w, h) = (rng.gen_range_f32(lo, hi), rng.gen_range_f32(lo, hi));
                let x = rng.gen_f32() * (SIDE - w);
                let y = rng.gen_f32() * (SIDE - h);
                Item::new(Rect::from_coords(x, y, x + w, y + h), first_id + i as u32)
            })
            .collect()
    };
    let f = Family {
        name: "long on both axes",
        left: both_axes(1_200, 0),
        right: both_axes(300, RIGHT_IDS),
    };
    let want = oracle(&f).len() as u64;

    // 30 KB of rectangles against 80 KB: two partitions, each nearly the
    // whole input and 3× over what fits.
    let limit = 80 * KB;
    let mut p = Prepared::new(&f, limit);
    let res = SpatialQuery::new(JoinInput::Stream(&p.left), JoinInput::Stream(&p.right))
        .algorithm(Algo::Pbsm)
        .run(&mut p.env)
        .unwrap();
    assert_eq!(res.pairs, want);
    assert!(
        res.memory.peak_bytes <= limit,
        "peak {}",
        res.memory.peak_bytes
    );
    assert!(
        res.io.pages_written > 2 * p.input_pages(),
        "the partitions must overflow and split: {} pages written",
        res.io.pages_written
    );
    assert!(
        res.io.pages_written <= 16 * p.input_pages(),
        "PBSM wrote {} pages for {} input pages",
        res.io.pages_written,
        p.input_pages()
    );
}

/// The sweep driver's budget is sized once both input readers hold their
/// block buffers. Sized before — half the headroom of an *empty* gauge —
/// the budget plus the readers was the whole limit whenever the readers
/// took half of it, and the first spill batch had nowhere to go: SSSJ
/// failed by one record (`need 2097172 bytes, limit 2097152` on the
/// benchmark's tall family at 2 MB). Here the same shape at a scaled-down
/// size: both sorted inputs fit one block each, so the readers hold all of
/// them, and the limit is twice that plus a few records.
#[test]
fn sssj_sizes_its_sweep_budget_after_the_readers_are_primed() {
    let f = &families(0xADFA)[0];
    let want = oracle(f);
    let readers = (f.left.len() + f.right.len()) * usj_geom::ITEM_BYTES;
    let limit = 2 * readers + 4 * KB;
    // Sorted up front: the external sort has a floor of its own, and this
    // is about the sweep.
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut sorted = |items: &[Item]| {
        let mut items = items.to_vec();
        items.sort_unstable_by(Item::cmp_by_lower_y);
        ItemStream::from_items(&mut env, &items).unwrap()
    };
    let (left, right) = (sorted(&f.left), sorted(&f.right));
    env.set_memory_limit(limit);
    let (res, mut pairs) = SssjJoin::default()
        .run_collect(
            &mut env,
            JoinInput::SortedStream(&left),
            JoinInput::SortedStream(&right),
        )
        .unwrap_or_else(|e| panic!("SSSJ failed at {limit} bytes: {e}"));
    pairs.sort_unstable();
    assert!(
        pairs == want,
        "{} pairs, oracle {}",
        pairs.len(),
        want.len()
    );
    assert!(
        res.sweep.spill_runs > 0,
        "the sweep must spill: {:?}",
        res.sweep
    );
    assert!(
        res.memory.peak_bytes <= limit,
        "peak {}",
        res.memory.peak_bytes
    );
}

/// The spilling sweep's cost where it spills: SSSJ's and PQ's spill volume,
/// spill episodes, charged CPU and page I/O on the tall family at
/// [`TIGHT`] and at 256 KB, and on the crossing family at 80 KB, where both
/// spill (at 96 KB neither does), pinned in `ledgers/adversarial_spill.ledger`.
/// SSSJ reads presorted one-page-block streams, so the pin is its sweep's
/// and not its external sort's (which needs more than 80 KB to sort these
/// inputs); PQ reads the trees. A change to how the sweep evicts, or to the
/// blocks its spill batches and shadow logs are written in, moves these
/// numbers.
#[test]
fn spill_volume_and_io_are_pinned_where_the_sweeps_spill() {
    let families = families(0xADFA);
    let mut got = Vec::new();
    for (name, kb, algo) in [
        ("tall", 192, Algo::Sssj),
        ("tall", 192, Algo::Pq),
        ("tall", 256, Algo::Sssj),
        ("tall", 256, Algo::Pq),
        ("crossing", 80, Algo::Sssj),
        ("crossing", 80, Algo::Pq),
    ] {
        let f = families.iter().find(|f| f.name == name).unwrap();
        let want = oracle(f);
        let mut p = Prepared::new(f, AMPLE);
        let presorted = |env: &mut SimEnv, items: &[Item]| {
            let mut items = items.to_vec();
            items.sort_unstable_by(Item::cmp_by_lower_y);
            ItemStream::from_items_with_block(env, &items, 1).unwrap()
        };
        let (left, right) = (
            presorted(&mut p.env, &f.left),
            presorted(&mut p.env, &f.right),
        );
        p.env.set_memory_limit(kb * KB);
        let (l, r) = match algo {
            Algo::Sssj => (
                JoinInput::SortedStream(&left),
                JoinInput::SortedStream(&right),
            ),
            _ => (
                JoinInput::Indexed(&p.left_tree),
                JoinInput::Indexed(&p.right_tree),
            ),
        };
        let (res, mut pairs) = SpatialQuery::new(l, r)
            .algorithm(algo)
            .collect(&mut p.env)
            .unwrap_or_else(|e| panic!("{name} / {algo:?} @ {kb} KB failed: {e}"));
        pairs.sort_unstable();
        assert!(pairs == want, "{name} / {algo:?} @ {kb} KB: wrong pairs");
        assert!(
            res.memory.peak_bytes <= kb * KB,
            "{name} / {algo:?} @ {kb} KB"
        );
        got.push(
            Row::new(format!("{name} {kb} KB {algo:?}"))
                .with("sweep.spilled_items", res.sweep.spilled_items)
                .with("sweep.spill_runs", res.sweep.spill_runs)
                .cpu(&res.cpu)
                .io(&res.io),
        );
    }
    ledger::check(include_str!("ledgers/adversarial_spill.ledger"), &got);
}
