//! Golden counters and emission order of the four join algorithms.
//!
//! The sweep kernels, the PQ adapter and the in-memory sorts may be rebuilt
//! for host speed as often as anyone likes — as long as nothing the paper's
//! cost model can see moves. `ledgers/kernel_goldens.ledger` pins, per data
//! set × memory limit × algorithm at seed 42: the pair count, an
//! *order-sensitive* digest of the emitted `(left, right)` sequence and an
//! order-*insensitive* one (`set`: a change that only reorders emission may
//! move `order`, never `set`), the sweep's rectangle tests, resident
//! high-water mark and spill volume, every charged CPU counter and the page
//! I/O. A kernel change that alters any of them is a behaviour change, not
//! an optimisation: the failure message prints the observed ledger, and
//! CHANGES.md says why a pasted row moved.

use std::sync::Arc;

use unified_spatial_join::io::ledger::{self, Row};
use unified_spatial_join::io::{ItemStream, Page};
use unified_spatial_join::prelude::*;
use usj_datagen::rng::SmallRng;
use usj_geom::Item;

struct Fixture {
    env: SimEnv,
    /// Snapshot of the materialised inputs: every join runs on a fork over
    /// it, so each starts from the same device state.
    base: Arc<Vec<Page>>,
    left_tree: RTree,
    right_tree: RTree,
    left_stream: ItemStream,
    right_stream: ItemStream,
    /// The same items in two-page blocks: what the 256 KB rows read, where
    /// two default 512 KB reader blocks would be the whole limit twice over.
    left_small_blocks: ItemStream,
    right_small_blocks: ItemStream,
}

fn fixture(preset: Preset) -> Fixture {
    let w = WorkloadSpec::preset(preset).with_scale(200).generate(42);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let (left_tree, right_tree) = env.unaccounted(|env| {
        (
            RTree::bulk_load(env, &w.roads).unwrap(),
            RTree::bulk_load(env, &w.hydro).unwrap(),
        )
    });
    let [left_stream, right_stream, left_small_blocks, right_small_blocks] =
        [(&w.roads, 64), (&w.hydro, 64), (&w.roads, 2), (&w.hydro, 2)].map(|(items, ppb)| {
            env.unaccounted(|env| ItemStream::from_items_with_block(env, items, ppb).unwrap())
        });
    let base = env.device.snapshot();
    Fixture {
        env,
        base,
        left_tree,
        right_tree,
        left_stream,
        right_stream,
        left_small_blocks,
        right_small_blocks,
    }
}

impl Fixture {
    /// SSSJ and PBSM on the flat streams, PQ and ST on the R-trees — the
    /// paper's Figure 3 inputs and the repo benchmark's.
    fn inputs(&self, algo: Algo, limit: usize) -> (JoinInput<'_>, JoinInput<'_>) {
        match algo {
            Algo::Sssj | Algo::Pbsm if limit < MB24 => (
                JoinInput::Stream(&self.left_small_blocks),
                JoinInput::Stream(&self.right_small_blocks),
            ),
            Algo::Sssj | Algo::Pbsm => (
                JoinInput::Stream(&self.left_stream),
                JoinInput::Stream(&self.right_stream),
            ),
            _ => (
                JoinInput::Indexed(&self.left_tree),
                JoinInput::Indexed(&self.right_tree),
            ),
        }
    }

    fn run(&self, algo: Algo, limit: usize, sink: &mut dyn PairSink) -> JoinResult {
        let mut env = self.env.fork_with_base(Arc::clone(&self.base));
        env.set_memory_limit(limit);
        let (left, right) = self.inputs(algo, limit);
        SpatialQuery::new(left, right)
            .algorithm(algo)
            .execute(&mut env, sink)
            .unwrap_or_else(|e| panic!("{algo:?} at {limit} B failed: {e}"))
    }

    /// The ledger row of one join.
    fn observe(&self, preset: Preset, algo: Algo, limit: usize) -> Row {
        let mut pairs = Vec::new();
        let res = self.run(algo, limit, &mut |l: u32, r: u32| pairs.push((l, r)));
        observed(
            format!("{preset:?} {} KB {algo:?}", limit / 1024),
            &res,
            &pairs,
        )
    }
}

const MB24: usize = 24 * 1024 * 1024;
const KB256: usize = 256 * 1024;
/// Small enough that SSSJ's and PQ's sweeps spill on DISK1/200.
const KB128: usize = 128 * 1024;

#[test]
fn counters_and_emission_order_are_pinned() {
    let mut got = Vec::new();
    for (preset, limits) in [
        (Preset::NJ, &[MB24, KB256][..]),
        (Preset::Disk1, &[MB24, KB256, KB128]),
    ] {
        let fx = fixture(preset);
        for &limit in limits {
            for algo in [Algo::Sssj, Algo::Pbsm, Algo::Pq, Algo::St] {
                got.push(fx.observe(preset, algo, limit));
            }
        }
    }
    ledger::check(include_str!("ledgers/kernel_goldens.ledger"), &got);
}

/// An early-terminated ST traversal reads exactly the pages it read before:
/// `LimitSink(k)` stops the DFS after the node pair that delivers the k-th
/// pair, so any change to the order in which node pairs or their entries
/// are visited shows up as different page reads.
#[test]
fn limited_st_reads_the_same_pages() {
    let mut got = Vec::new();
    for preset in [Preset::NJ, Preset::Disk1] {
        let fx = fixture(preset);
        for k in [10, 500] {
            let mut pairs = Vec::new();
            let mut sink = LimitSink::new(|l: u32, r: u32| pairs.push((l, r)), k);
            let res = fx.run(Algo::St, MB24, &mut sink);
            let row = Row::new(format!("{preset:?} St limit {k}"));
            got.push(
                row.with("pairs", res.pairs)
                    .digests(&pairs)
                    .cpu(&res.cpu)
                    .io(&res.io),
            );
        }
    }
    ledger::check(include_str!("ledgers/kernel_limited_st.ledger"), &got);
}

/// A tall pair: thin rectangles 20–200 long along the sweep axis in a
/// 1 000-unit square, like the benchmark's `join_spill` family.
fn tall_pair(left: usize, right: usize) -> (Vec<Item>, Vec<Item>) {
    let mut rng = SmallRng::seed_from_u64(42);
    let mut side = |n: usize, first_id: u32| -> Vec<Item> {
        (0..n)
            .map(|i| {
                let w = rng.gen_range_f32(0.01, 0.1);
                let h = rng.gen_range_f32(20.0, 200.0);
                let x = rng.gen_f32() * (1000.0 - w);
                let y = rng.gen_f32() * (1000.0 - h);
                Item::new(Rect::from_coords(x, y, x + w, y + h), first_id + i as u32)
            })
            .collect()
    };
    (side(left, 0), side(right, 0x4000_0000))
}

/// Sorts that end in several runs, feeding the sweep: SSSJ over the
/// streams and over the dumped trees, the same SSSJ stopped by a `LIMIT`,
/// and PQ with the stream side sorted, on DISK1-6/200 at 4 MB, where the
/// roads form three runs; and SSSJ on a tall pair at 3 MB, whose sweep is
/// expected to outgrow its budget. Pinned in `ledgers/sorted_runs.ledger`
/// with the same counters as the kernel rows.
#[test]
fn sorts_that_end_in_several_runs_are_pinned() {
    const MB3: usize = 3 << 20;
    const MB4: usize = 4 << 20;
    let fx = fixture(Preset::Disk1_6);
    let mut got = Vec::new();
    let streams = (
        JoinInput::Stream(&fx.left_stream),
        JoinInput::Stream(&fx.right_stream),
    );
    let trees = (
        JoinInput::Indexed(&fx.left_tree),
        JoinInput::Indexed(&fx.right_tree),
    );
    let mixed = (
        JoinInput::Stream(&fx.left_stream),
        JoinInput::Indexed(&fx.right_tree),
    );
    for (label, algo, (left, right), limit) in [
        ("streams", Algo::Sssj, streams, None),
        ("trees", Algo::Sssj, trees, None),
        ("streams limit 100", Algo::Sssj, streams, Some(100)),
        ("stream x tree", Algo::Pq, mixed, None),
    ] {
        let mut env = fx.env.fork_with_base(Arc::clone(&fx.base));
        env.set_memory_limit(MB4);
        let mut pairs = Vec::new();
        let mut collect = |l: u32, r: u32| pairs.push((l, r));
        let mut limited = LimitSink::new(&mut collect, limit.unwrap_or(u64::MAX));
        let res = SpatialQuery::new(left, right)
            .algorithm(algo)
            .execute(&mut env, &mut limited)
            .unwrap_or_else(|e| panic!("{label} failed: {e}"));
        got.push(observed(
            format!("Disk1_6 4096 KB {algo:?} {label}"),
            &res,
            &pairs,
        ));
    }

    let (left, right) = tall_pair(120_000, 40_000);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let [left, right] = [&left, &right]
        .map(|items| env.unaccounted(|env| ItemStream::from_items(env, items).unwrap()));
    env.set_memory_limit(MB3);
    let mut pairs = Vec::new();
    let res = SpatialQuery::new(JoinInput::Stream(&left), JoinInput::Stream(&right))
        .algorithm(Algo::Sssj)
        .execute(&mut env, &mut |l: u32, r: u32| pairs.push((l, r)))
        .unwrap();
    got.push(observed("tall 3072 KB Sssj streams".into(), &res, &pairs));
    ledger::check(include_str!("ledgers/sorted_runs.ledger"), &got);
}

/// The ledger row of one join that emitted `pairs`.
fn observed(label: String, res: &JoinResult, pairs: &[(u32, u32)]) -> Row {
    Row::new(label)
        .with("pairs", res.pairs)
        .digests(pairs)
        .with("sweep.rect_tests", res.sweep.rect_tests)
        .with("sweep.max_resident", res.sweep.max_resident as u64)
        .with("sweep.spilled_items", res.sweep.spilled_items)
        .cpu(&res.cpu)
        .io(&res.io)
}
