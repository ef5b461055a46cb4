//! Golden output and counters of the k-way merge.
//!
//! SSSJ's external sort and the live tier's compaction share one merge,
//! [`extsort::merge_sorted_runs`]. Its host-side work — the heap's layout,
//! how it sifts, when it adds up its charges — may be rebuilt for speed as
//! long as nothing the cost model or a later reader can see moves.
//! `ledgers/merge_goldens.ledger` pins, per case: an FNV-1a digest of the
//! merged records in output order, the number of merge passes, every
//! charged CPU counter and the page I/O of the merge. A heap that breaks
//! ties differently shows in the digest of the collision cases; one that
//! sifts differently shows in the compare counts.

use usj_geom::{Item, Rect, ITEM_BYTES};
use usj_io::ledger::{self, Fnv1a, Row};
use usj_io::{extsort, FaultConfig, FaultPlan, IoSimError, ItemStream, MachineConfig, SimEnv};

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
            let grow = if i % 3 == 0 {
                1.0
            } else {
                (h % 4) as f32 + 1.0
            };
            Item::new(
                Rect::from_coords(x, y, x + grow, y + grow),
                id_base + i * 3 + seed % 3,
            )
        })
        .collect()
}

/// `items` sorted by the sweep order and written as one run of
/// `pages_per_block`-page blocks, unaccounted.
fn run(env: &mut SimEnv, mut items: Vec<Item>, pages_per_block: u64) -> ItemStream {
    items.sort_unstable_by(|a, b| a.sweep_key().cmp(&b.sweep_key()).then(a.cmp_by_lower_y(b)));
    env.unaccounted(|env| ItemStream::from_items_with_block(env, &items, pages_per_block).unwrap())
}

/// Merges `runs` on `env` by the sweep order and records what came out and
/// what was charged.
fn observe(name: &str, env: &mut SimEnv, runs: Vec<ItemStream>, pages_per_block: u64) -> Row {
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
    let mut order = Fnv1a::default();
    let mut buf = [0; ITEM_BYTES];
    for it in &items {
        it.encode(&mut buf);
        order.write(&buf);
    }
    Row::new(name)
        .with("records", items.len() as u64)
        .with("order", order.finish())
        .with("merge_passes", merge_passes)
        .cpu(&cpu)
        .io(&io)
}

#[test]
fn output_and_charged_counters_of_every_merge_are_pinned() {
    let mut got = Vec::new();

    // One compaction of the repo benchmark's steady state: a dominant base
    // and four small deltas, 2-page blocks, 4 MB.
    let mut env = SimEnv::new(MachineConfig::machine3()).with_memory_limit(4 * 1024 * 1024);
    let mut runs = vec![run(&mut env, scattered(75_000, 0, 3), 2)];
    for k in 0..4 {
        runs.push(run(
            &mut env,
            scattered(3_277, 1_000_000 * (k + 1), 7 * k),
            2,
        ));
    }
    got.push(observe("dominant_plus_four_deltas", &mut env, runs, 2));

    // Two runs holding the very same records: every step is a full tie.
    let mut env = SimEnv::new(MachineConfig::machine3());
    let same = scattered(5_000, 0, 11);
    let runs = vec![run(&mut env, same.clone(), 4), run(&mut env, same, 4)];
    got.push(observe("two_equal_runs", &mut env, runs, 4));

    // Ten runs under a budget whose fan-in is three: three merge levels,
    // with a run carried up alone at the first two.
    let mut env = SimEnv::new(MachineConfig::machine3()).with_memory_limit(96 * 1024);
    let runs = (0..10)
        .map(|k| run(&mut env, scattered(900 + 97 * k, 10_000 * k, 5 + k), 2))
        .collect();
    got.push(observe("fan_in_limited_three_levels", &mut env, runs, 2));

    // Six runs whose records share lower corners: the key collides and the
    // comparator alone orders them.
    let mut env = SimEnv::new(MachineConfig::machine3());
    let runs = (0..6)
        .map(|k| run(&mut env, colliding(1_500, 100_000 * k, k), 1))
        .collect();
    got.push(observe("key_collisions", &mut env, runs, 1));
    ledger::check(include_str!("ledgers/merge_goldens.ledger"), &got);
}

/// A merge that fails on a read part-way through still charges the work it
/// did before the failure, and charges it exactly as pinned in
/// `ledgers/merge_failing.ledger`.
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
    let got = Row::new("five_runs_one_read_fault").cpu(&cpu).io(&io);
    ledger::check(include_str!("ledgers/merge_failing.ledger"), &[got]);
}
