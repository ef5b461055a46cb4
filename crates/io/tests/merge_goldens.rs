//! Golden output and counters of the k-way merge.
//!
//! SSSJ's external sort and the live tier's compaction share one merge,
//! [`extsort::merge_sorted_runs`]. Its host-side work — the heap's layout,
//! how it sifts, when it adds up its charges — may be rebuilt for speed as
//! long as nothing the cost model or a later reader can see moves. This
//! suite pins, per case: an FNV-1a digest of the merged records in output
//! order, the number of merge passes, the charged `Compare`, `HeapOp` and
//! `ItemMove` counts, and the page I/O of the merge. A heap that breaks ties
//! differently shows in the digest of the collision cases; one that sifts
//! differently shows in the compare counts.
//!
//! The numbers were recorded against the merge as it stood before its heap
//! was rebuilt around one head record per run. On a mismatch the failure
//! message prints the observed table in the literal syntax below, so an
//! *intended* change is a copy-paste plus an explanation.

use usj_geom::{Item, Rect};
use usj_io::{
    extsort, CpuOp, FaultConfig, FaultPlan, IoSimError, ItemStream, MachineConfig, SimEnv,
};

/// What one merge is pinned to.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Golden {
    /// FNV-1a over every merged record's rectangle bits and id, in order.
    digest: u64,
    records: u64,
    merge_passes: u64,
    /// `Compare`, `HeapOp`, `ItemMove` as charged.
    cpu: [u64; 3],
    /// Pages read, pages written, then sequential and random read
    /// operations, sequential and random write operations.
    io: [u64; 6],
}

/// Deterministic scattered rectangles, unsorted, few coordinate collisions
/// (the generator of the loader goldens and the compaction tests).
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

/// Records sharing a handful of lower corners: within a corner the sweep
/// key collides and only the comparator's later fields and the id decide.
fn colliding(n: u32, id_base: u32, seed: u32) -> Vec<Item> {
    (0..n)
        .map(|i| {
            let h = i.wrapping_add(seed).wrapping_mul(2_654_435_761);
            let (x, y) = ((h % 7) as f32, (h / 7 % 5) as f32);
            // Every third record also shares the upper corner, so the id
            // alone breaks the tie.
            let grow = if i % 3 == 0 { 1.0 } else { (h % 4) as f32 + 1.0 };
            Item::new(Rect::from_coords(x, y, x + grow, y + grow), id_base + i * 3 + seed % 3)
        })
        .collect()
}

/// `items` sorted by the sweep order and written as one run of
/// `pages_per_block`-page blocks, unaccounted.
fn run(env: &mut SimEnv, mut items: Vec<Item>, pages_per_block: u64) -> ItemStream {
    items.sort_unstable_by(|a, b| a.sweep_key().cmp(&b.sweep_key()).then(a.cmp_by_lower_y(b)));
    env.unaccounted(|env| ItemStream::from_items_with_block(env, &items, pages_per_block).unwrap())
}

fn fnv(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(items: &[Item]) -> u64 {
    let mut d = 0xcbf2_9ce4_8422_2325;
    for it in items {
        for f in [it.rect.lo.x, it.rect.lo.y, it.rect.hi.x, it.rect.hi.y] {
            fnv(&mut d, &f.to_bits().to_le_bytes());
        }
        fnv(&mut d, &it.id.to_le_bytes());
    }
    d
}

/// Merges `runs` on `env` by the sweep order and records what came out and
/// what was charged.
fn observe(env: &mut SimEnv, runs: Vec<ItemStream>, pages_per_block: u64) -> Golden {
    let m = env.begin();
    let (merged, merge_passes) = extsort::merge_sorted_runs(
        env,
        runs,
        Item::sweep_key,
        Item::cmp_by_lower_y,
        pages_per_block,
    )
    .unwrap();
    let (io, cpu) = env.since(&m);
    let items = env.unaccounted(|env| merged.read_all(env).unwrap());
    assert!(
        items.windows(2).all(|w| w[0]
            .sweep_key()
            .cmp(&w[1].sweep_key())
            .then(w[0].cmp_by_lower_y(&w[1]))
            .is_le()),
        "merge output out of order"
    );
    Golden {
        digest: digest(&items),
        records: items.len() as u64,
        merge_passes,
        cpu: [CpuOp::Compare, CpuOp::HeapOp, CpuOp::ItemMove].map(|op| cpu.get(op)),
        io: [
            io.pages_read,
            io.pages_written,
            io.seq_read_ops,
            io.rand_read_ops,
            io.seq_write_ops,
            io.rand_write_ops,
        ],
    }
}

/// Every pinned merge, by name, in table order.
fn observed() -> Vec<(&'static str, Golden)> {
    let mut out = Vec::new();

    // One compaction of the repo benchmark's steady state: a dominant base
    // and four small deltas, 2-page blocks, 4 MB.
    let mut env = SimEnv::new(MachineConfig::machine3()).with_memory_limit(4 * 1024 * 1024);
    let mut runs = vec![run(&mut env, scattered(75_000, 0, 3), 2)];
    for k in 0..4 {
        runs.push(run(&mut env, scattered(3_277, 1_000_000 * (k + 1), 7 * k), 2));
    }
    out.push(("dominant_plus_four_deltas", observe(&mut env, runs, 2)));

    // Two runs holding the very same records: every step is a full tie.
    let mut env = SimEnv::new(MachineConfig::machine3());
    let same = scattered(5_000, 0, 11);
    let runs = vec![run(&mut env, same.clone(), 4), run(&mut env, same, 4)];
    out.push(("two_equal_runs", observe(&mut env, runs, 4)));

    // Ten runs under a budget whose fan-in is three: three merge levels,
    // with a run carried up alone at the first two.
    let mut env = SimEnv::new(MachineConfig::machine3()).with_memory_limit(96 * 1024);
    let runs = (0..10)
        .map(|k| run(&mut env, scattered(900 + 97 * k, 10_000 * k, 5 + k), 2))
        .collect();
    out.push(("fan_in_limited_three_levels", observe(&mut env, runs, 2)));

    // Six runs whose records share lower corners: the key collides and the
    // comparator alone orders them.
    let mut env = SimEnv::new(MachineConfig::machine3());
    let runs = (0..6)
        .map(|k| run(&mut env, colliding(1_500, 100_000 * k, k), 1))
        .collect();
    out.push(("key_collisions", observe(&mut env, runs, 1)));
    out
}

fn golden(digest: u64, records: u64, merge_passes: u64, cpu: [u64; 3], io: [u64; 6]) -> Golden {
    Golden {
        digest,
        records,
        merge_passes,
        cpu,
        io,
    }
}

#[test]
fn output_and_charged_counters_of_every_merge_are_pinned() {
    #[rustfmt::skip]
    let want: [(&str, Golden); 4] = [
        ("dominant_plus_four_deltas", golden(6841125833461820879, 88108, 1, [418674, 176216, 176216], [220, 216, 0, 112, 12, 96])),
        ("two_equal_runs", golden(2075213952672238325, 10000, 1, [9999, 20000, 20000], [26, 25, 0, 8, 0, 7])),
        ("fan_in_limited_three_levels", golden(10716270082564548504, 13365, 3, [59714, 73098, 73098], [97, 92, 0, 52, 10, 37])),
        ("key_collisions", golden(11906531270064983334, 9000, 1, [36161, 18000, 18000], [24, 23, 0, 24, 16, 7])),
    ];
    let got = observed();
    let table: String = got
        .iter()
        .map(|(name, g)| {
            format!(
                "        (\"{name}\", golden({}, {}, {}, {:?}, {:?})),\n",
                g.digest, g.records, g.merge_passes, g.cpu, g.io
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
        "merge golden mismatch for {mismatches:?}; observed table:\n{table}"
    );
}

/// A merge that fails on a read part-way through still charges the work it
/// did before the failure, and charges it exactly as pinned.
#[test]
fn a_merge_failing_mid_way_charges_what_it_did() {
    let mut env = SimEnv::new(MachineConfig::machine3());
    let runs: Vec<ItemStream> = (0..5)
        .map(|k| run(&mut env, scattered(2_000, 10_000 * k, 13 + k), 1))
        .collect();
    env.install_faults(FaultPlan::new(FaultConfig {
        read_fault: 0.05,
        max_faults: 1,
        ..FaultConfig::quiet(21)
    }));
    let m = env.begin();
    let err = extsort::merge_sorted_runs(&mut env, runs, Item::sweep_key, Item::cmp_by_lower_y, 1)
        .unwrap_err();
    assert_eq!(err, IoSimError::DeviceFault { transient: true });
    let (io, cpu) = env.since(&m);
    let got = (
        [CpuOp::Compare, CpuOp::HeapOp, CpuOp::ItemMove].map(|op| cpu.get(op)),
        [io.pages_read, io.pages_written],
    );
    assert_eq!(got, ([7487, 4086, 3681], [5, 4]), "observed {got:?}");
}
