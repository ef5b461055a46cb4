//! Golden counters and emission order of the four join algorithms.
//!
//! The sweep kernels, the PQ adapter and the in-memory sorts may be rebuilt
//! for host speed as often as anyone likes — as long as nothing the paper's
//! cost model can see moves. This suite pins, per algorithm × data set ×
//! memory limit at seed 42: the pair count, an *order-sensitive* digest of
//! the emitted `(left, right)` sequence, the sweep's rectangle tests and
//! resident high-water mark, the spill volume, every charged CPU counter and
//! the page I/O. The numbers were recorded against the kernels of PR 22 (a
//! 4-ary `f32` expiry heap, a `ForwardSweep` driver per ST node pair, the
//! four-field comparator sort) before PR 23 replaced them; a kernel change
//! that alters any of them is a behaviour change, not an optimisation.
//!
//! PR 24 is such a change, made on purpose: the in-memory batch sweeps (ST's
//! node pairs, PBSM's chunked fallback) run along the axis their batch is
//! narrower on. The order-*insensitive* `set` digest was added and recorded
//! on the parent commit first; with it unchanged in all twenty rows, `order`,
//! `rect_tests`, `max_resident` and `cpu[RectTest]` were re-recorded for the
//! five ST rows (36 771 → 22 738 tests on NJ, 342 799 → 339 341 on DISK1)
//! and — the one row where PBSM reaches its fallback — `order`, `rect_tests`
//! and `cpu[RectTest]` of PBSM on DISK1 at 128 KB (312 795 → 294 366). ST
//! visits the same node pairs in another order, so on DISK1 its page
//! *classification* moved at 24 MB (8 / 85 → 10 / 83 sequential / random
//! operations, 93 pages either way) and the two small pools re-read two
//! pages more (93 → 95, 191 → 193). Every other number is the parent's.
//!
//! PR 25 is another: SSSJ and PQ run on the one spilling driver through the
//! merge loop the streaming join uses, which closes each side when its
//! input ends — the opposite residents drain instead of lingering until the
//! sweep line passes them. At 128 KB on DISK1 those tail residents stop
//! spilling: SSSJ spills 1 866 → 772 items (I/O 368/282/147/193 →
//! 366/277/142/191), PQ 3 761 → 2 992 (164/45/59/150 → 161/41/58/144), and
//! `order` and `cpu[ItemMove]` follow. Pairs, `set`, `rect_tests` and every
//! other row are the parent's.
//!
//! One row moved when the LRU buffer pool stopped orphaning its first page
//! (the page's recency record was deleted on the second miss, so it could
//! never be evicted and the pool served every other page with one slot
//! fewer). Only ST on DISK1 at 128 KB runs its pool small enough to feel
//! it: 193 → 183 pages read (23 / 170 → 20 / 163 sequential / random
//! operations). Its pairs, digests and CPU counters are unchanged.
//!
//! Two more moves came with budget-sized spill blocks and evictions that
//! stop at half the budget. The spill's eviction halves the residents it
//! keeps until they fit, instead of evicting all of them once the median
//! is not enough: PQ on DISK1 at 128 KB spills 2 992 → 2 766 items in
//! more, smaller batches, and each batch is read back in its own blocks
//! (I/O 161/41/58/144 → 167/42/59/150; `order`, `max_resident` and
//! `cpu[ItemMove]` follow). SSSJ's row there spills only once, all of it
//! by the median, so it did not move. No row spills at 256 KB, where the
//! spill blocks would grow to two pages. And PBSM's fitting partitions
//! sweep along their narrower axis, as its fallback's chunk pairs already
//! did: DISK1/200 is narrower along x by a few per cent, so its three
//! PBSM rows sweep transposed. That costs tests (152 346 → 169 555 at
//! 24 MB, 64 624 → 111 452 at 256 KB, 294 366 → 325 453 at 128 KB, with
//! `cpu[RectTest]`, `order` and `max_resident` following), where on the
//! benchmark's tall pair it saves 93 % of them. Pairs, `set` and page I/O
//! are the parent's in every row.
//!
//! The last two moves came with the one-pass fix-up. An epoch streams each
//! shadow log once for all of its batches, and an arrival is logged only
//! where a spilled rectangle of the other side still reaches; the reach
//! summary is charged against the sweep budget, so a spill evicts a little
//! further. SSSJ on DISK1 at 128 KB spills 772 → 971 items, yet logs fewer
//! arrivals and tests fewer rectangles (152 507 → 150 686; I/O
//! 366/277/142/191 → 365/276/140/191). PQ there spills 2 766 → 2 994 items
//! and reads its logs once: 178 746 → 169 268 tests, I/O 167/42/59/150 →
//! 137/42/50/129. `order`, `max_resident` and `cpu[ItemMove]` follow. Pairs
//! and `set` are the parent's in every row.
//!
//! On a mismatch the failure message prints the observed row in the literal
//! syntax of the table, so an *intended* change is a copy-paste plus an
//! explanation in the PR.

use std::sync::Arc;

use unified_spatial_join::io::{CpuOp, ItemStream, Page};
use unified_spatial_join::prelude::*;

/// What one join is pinned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    pairs: u64,
    /// FNV-1a over the emitted `(left, right)` sequence, in emission order.
    order: u64,
    /// Order-*insensitive* digest of the emitted pair multiset: what a change
    /// that only reorders the emission must leave alone.
    set: u64,
    rect_tests: u64,
    max_resident: usize,
    spilled_items: u64,
    /// `Compare`, `HeapOp`, `ItemMove`, `RectTest` as charged.
    cpu: [u64; 4],
    /// Pages read, pages written, sequential ops, random ops.
    io: [u64; 4],
}

/// Order-sensitive FNV-1a digest of a pair sequence.
#[derive(Debug, Clone, Copy)]
struct OrderDigest(u64);

impl OrderDigest {
    fn new() -> Self {
        OrderDigest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, left: u32, right: u32) {
        for byte in left.to_le_bytes().into_iter().chain(right.to_le_bytes()) {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Order-insensitive digest of a pair multiset: the wrapping sum of a
/// 64-bit mix (the SplitMix64 finaliser) of each `(left, right)`.
#[derive(Debug, Clone, Copy, Default)]
struct SetDigest(u64);

impl SetDigest {
    fn add(&mut self, left: u32, right: u32) {
        let mut z = (u64::from(left) << 32 | u64::from(right)).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = self.0.wrapping_add(z ^ (z >> 31));
    }
}

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

    fn observe(&self, algo: Algo, limit: usize) -> Golden {
        let mut order = OrderDigest::new();
        let mut set = SetDigest::default();
        let mut sink = |l: u32, r: u32| {
            order.add(l, r);
            set.add(l, r);
        };
        let res = self.run(algo, limit, &mut sink);
        Golden {
            pairs: res.pairs,
            order: order.0,
            set: set.0,
            rect_tests: res.sweep.rect_tests,
            max_resident: res.sweep.max_resident,
            spilled_items: res.sweep.spilled_items,
            cpu: [
                res.cpu.get(CpuOp::Compare),
                res.cpu.get(CpuOp::HeapOp),
                res.cpu.get(CpuOp::ItemMove),
                res.cpu.get(CpuOp::RectTest),
            ],
            io: [
                res.io.pages_read,
                res.io.pages_written,
                res.io.seq_read_ops + res.io.seq_write_ops,
                res.io.rand_read_ops + res.io.rand_write_ops,
            ],
        }
    }
}

const MB24: usize = 24 * 1024 * 1024;
const KB256: usize = 256 * 1024;
/// Small enough that SSSJ's and PQ's sweeps spill on DISK1/200.
const KB128: usize = 128 * 1024;

const ALGOS: [Algo; 4] = [Algo::Sssj, Algo::Pbsm, Algo::Pq, Algo::St];

#[rustfmt::skip]
const GOLDENS: [(Preset, usize, [Golden; 4]); 5] = [
    (Preset::NJ, MB24, [
        Golden { pairs: 7363, order: 6806589858038869970, set: 13507948818335958150, rect_tests: 10846, max_resident: 692, spilled_items: 0, cpu: [29104, 0, 9304, 10846], io: [14, 7, 1, 5] },
        Golden { pairs: 7363, order: 6806589858038869970, set: 13507948818335958150, rect_tests: 10846, max_resident: 692, spilled_items: 0, cpu: [2326, 0, 11630, 13172], io: [21, 7, 1, 7] },
        Golden { pairs: 7363, order: 4134012195807859266, set: 13507948818335958150, rect_tests: 10846, max_resident: 692, spilled_items: 0, cpu: [24011, 4668, 4658, 10846], io: [8, 0, 3, 5] },
        Golden { pairs: 7363, order: 10110073594764420914, set: 13507948818335958150, rect_tests: 22738, max_resident: 226, spilled_items: 0, cpu: [2796, 0, 3856, 26602], io: [8, 0, 6, 2] },
    ]),
    (Preset::NJ, KB256, [
        Golden { pairs: 7363, order: 6806589858038869970, set: 13507948818335958150, rect_tests: 10846, max_resident: 692, spilled_items: 0, cpu: [29104, 0, 9304, 10846], io: [14, 7, 5, 7] },
        Golden { pairs: 7363, order: 6806589858038869970, set: 13507948818335958150, rect_tests: 10846, max_resident: 692, spilled_items: 0, cpu: [2326, 0, 11630, 13172], io: [21, 7, 5, 7] },
        Golden { pairs: 7363, order: 4134012195807859266, set: 13507948818335958150, rect_tests: 10846, max_resident: 692, spilled_items: 0, cpu: [24011, 4668, 4658, 10846], io: [8, 0, 3, 5] },
        Golden { pairs: 7363, order: 10110073594764420914, set: 13507948818335958150, rect_tests: 22738, max_resident: 226, spilled_items: 0, cpu: [2796, 0, 3856, 26602], io: [8, 0, 6, 2] },
    ]),
    (Preset::Disk1, MB24, [
        Golden { pairs: 33596, order: 2767078577149976781, set: 1771233609919746796, rect_tests: 152346, max_resident: 1907, spilled_items: 0, cpu: [563149, 0, 143852, 152346], io: [178, 89, 2, 7] },
        Golden { pairs: 33596, order: 5630781336481904813, set: 1771233609919746796, rect_tests: 169555, max_resident: 2521, spilled_items: 0, cpu: [35963, 0, 179815, 205518], io: [267, 89, 21, 9] },
        Golden { pairs: 33596, order: 3140964812098539761, set: 1771233609919746796, rect_tests: 152346, max_resident: 1907, spilled_items: 0, cpu: [390377, 72112, 72017, 152346], io: [93, 0, 11, 82] },
        Golden { pairs: 33596, order: 8022890515692473989, set: 1771233609919746796, rect_tests: 339341, max_resident: 367, spilled_items: 0, cpu: [55217, 0, 189945, 529528], io: [93, 0, 10, 83] },
    ]),
    (Preset::Disk1, KB256, [
        Golden { pairs: 33596, order: 2767078577149976781, set: 1771233609919746796, rect_tests: 152346, max_resident: 1907, spilled_items: 0, cpu: [680002, 71926, 215778, 152346], io: [275, 186, 136, 105] },
        Golden { pairs: 33596, order: 2755797818953727441, set: 1771233609919746796, rect_tests: 111452, max_resident: 960, spilled_items: 0, cpu: [66116, 0, 417718, 147415], io: [507, 329, 214, 340] },
        Golden { pairs: 33596, order: 3140964812098539761, set: 1771233609919746796, rect_tests: 152346, max_resident: 1907, spilled_items: 0, cpu: [390377, 72112, 72017, 152346], io: [93, 0, 11, 82] },
        Golden { pairs: 33596, order: 8022890515692473989, set: 1771233609919746796, rect_tests: 339341, max_resident: 367, spilled_items: 0, cpu: [55217, 0, 189945, 529528], io: [95, 0, 10, 85] },
    ]),
    (Preset::Disk1, KB128, [
        Golden { pairs: 33596, order: 6527867932744866577, set: 1771233609919746796, rect_tests: 150686, max_resident: 1293, spilled_items: 971, cpu: [682475, 132234, 278422, 150686], io: [365, 276, 140, 191] },
        Golden { pairs: 33596, order: 6764703687752978229, set: 1771233609919746796, rect_tests: 325453, max_resident: 960, spilled_items: 0, cpu: [133695, 0, 1008806, 361416], io: [1171, 995, 525, 938] },
        Golden { pairs: 33596, order: 6095940802601720917, set: 1771233609919746796, rect_tests: 169268, max_resident: 256, spilled_items: 2994, cpu: [390377, 72112, 82763, 169268], io: [137, 42, 50, 129] },
        Golden { pairs: 33596, order: 8022890515692473989, set: 1771233609919746796, rect_tests: 339341, max_resident: 367, spilled_items: 0, cpu: [55217, 0, 189945, 529528], io: [183, 0, 20, 163] },
    ]),
];

#[test]
fn counters_and_emission_order_are_pinned() {
    let mut observed = String::new();
    let mut mismatches = Vec::new();
    let fixtures = [Preset::NJ, Preset::Disk1].map(|p| (p, fixture(p)));
    for (preset, limit, want) in GOLDENS {
        let fx = &fixtures.iter().find(|(p, _)| *p == preset).unwrap().1;
        observed.push_str(&format!("    ({preset:?}, {limit}, [\n"));
        for (algo, want) in ALGOS.into_iter().zip(want) {
            let got = fx.observe(algo, limit);
            observed.push_str(&format!("        {got:?},\n"));
            if got != want {
                mismatches.push(format!("{algo:?} on {preset:?} at {limit} B"));
            }
        }
        observed.push_str("    ]),\n");
    }
    assert!(
        mismatches.is_empty(),
        "golden mismatch for {mismatches:?}; observed table:\n{observed}"
    );
}

/// An early-terminated ST traversal reads exactly the pages it read before:
/// `LimitSink(k)` stops the DFS after the node pair that delivers the k-th
/// pair, so any change to the order in which node pairs or their entries
/// are visited shows up as different page reads. (PR 24 changed which k
/// pairs come first — the digests — and none of the page counts.)
#[test]
fn limited_st_reads_the_same_pages() {
    const WANT: [(Preset, u64, [u64; 3]); 4] = [
        (Preset::NJ, 10, [10, 3, 16622096854288243728]),
        (Preset::NJ, 500, [500, 5, 6608481116117296247]),
        (Preset::Disk1, 10, [10, 4, 2164135273843405648]),
        (Preset::Disk1, 500, [500, 4, 8657386895516771240]),
    ];
    let mut observed = String::new();
    let mut ok = true;
    for (preset, k, want) in WANT {
        let fx = fixture(preset);
        let mut order = OrderDigest::new();
        let mut sink = LimitSink::new(|l: u32, r: u32| order.add(l, r), k);
        let res = fx.run(Algo::St, MB24, &mut sink);
        let got = [res.pairs, res.io.pages_read, order.0];
        observed.push_str(&format!("        ({preset:?}, {k}, {got:?}),\n"));
        ok &= got == want;
    }
    assert!(
        ok,
        "limited ST moved; observed (pairs, pages read, order):\n{observed}"
    );
}
