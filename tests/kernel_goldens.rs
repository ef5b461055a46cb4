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
        Row::new(format!("{preset:?} {} KB {algo:?}", limit / 1024))
            .with("pairs", res.pairs)
            .digests(&pairs)
            .with("sweep.rect_tests", res.sweep.rect_tests)
            .with("sweep.max_resident", res.sweep.max_resident as u64)
            .with("sweep.spilled_items", res.sweep.spilled_items)
            .cpu(&res.cpu)
            .io(&res.io)
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
