//! Differential suite: the optimized struct-of-arrays kernels vs the naive
//! [`ListSweep`] reference on deterministic pseudo-random workloads.
//!
//! Always-on sibling of the feature-gated proptest module — tier-1 `cargo
//! test` exercises these invariants on every run:
//!
//! * identical pair *sequences* (not just sets) between `ListSweep` and the
//!   SoA `ForwardSweep`, identical pair sets for `StripedSweep`;
//! * `SweepStats` bookkeeping: `inserts = expirations + final residents`,
//!   `max_resident`/`max_bytes` monotone with respect to the resident count;
//! * [`batch_join`] — the structure-free window merge ST's node pairs and
//!   PBSM's chunked fallback run — against `SweepDriver<ForwardSweep>`:
//!   identical pair sequence, rectangle tests and resident high-water mark,
//!   on the friendly workloads and on the coordinate-edge and
//!   degenerate-window families of `families/mod.rs` (shared with the
//!   workspace's `tests/st_coordinate_edges.rs`, which runs them through ST);
//! * [`merge_sweep`] — the spilling sweep SSSJ and PQ run — against
//!   `sweep_join::<StripedSweep>` under an ample budget: identical pair
//!   sequence and rectangle tests on the same families.

use std::ops::ControlFlow;

use usj_geom::{sort_by_lower_y, Item};
use usj_io::{MachineConfig, SimEnv};
use usj_sweep::{
    batch_join, merge_sweep, sweep_join, ForwardSweep, ListSweep, Side, StripedSweep, SweepDriver,
    SweepJoinStats, SweepStructure,
};

mod families;
use families::{brute, families, workload, Family};

fn pair_sequence<S: SweepStructure>(left: &[Item], right: &[Item]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    sweep_join::<S, _>(left, right, |a, b| out.push((a.id, b.id)));
    out
}

#[test]
fn soa_forward_kernel_reports_the_exact_list_sweep_sequence() {
    for seed in 0..8u64 {
        let left = workload(seed, 300, 0);
        let right = workload(seed ^ 0xDEAD_BEEF, 300, 100_000);
        let reference = pair_sequence::<ListSweep>(&left, &right);
        let optimized = pair_sequence::<ForwardSweep>(&left, &right);
        // Byte-identical report sequence: lazy expiration and tombstone
        // compaction preserve insertion order, so even the order matches.
        assert_eq!(optimized, reference, "seed {seed}");
    }
}

#[test]
fn soa_striped_kernel_reports_the_exact_list_sweep_pair_set() {
    for seed in 0..8u64 {
        let left = workload(seed.wrapping_mul(77), 400, 0);
        let right = workload(seed.wrapping_mul(77) ^ 0x00C0_FFEE, 400, 100_000);
        let mut reference = pair_sequence::<ListSweep>(&left, &right);
        let mut optimized = pair_sequence::<StripedSweep>(&left, &right);
        let raw_len = optimized.len();
        reference.sort_unstable();
        optimized.sort_unstable();
        optimized.dedup();
        assert_eq!(raw_len, optimized.len(), "seed {seed}: duplicate pairs");
        assert_eq!(optimized, reference, "seed {seed}");
    }
}

/// Drives one structure through a full sweep (inserts + expirations) and
/// checks the `SweepStats` bookkeeping invariants at several checkpoints.
fn check_stats_invariants<S: SweepStructure>(seed: u64) {
    let mut items = workload(seed, 500, 0);
    items.sort_unstable_by(Item::cmp_by_lower_y);
    let mut s = S::with_extent(-100.0, 220.0);
    let mut max_seen_resident = 0usize;
    for (i, it) in items.iter().enumerate() {
        s.expire_before(it.rect.lo.y);
        s.insert(*it);
        max_seen_resident = max_seen_resident.max(s.len());
        if i % 97 == 0 {
            let st = s.stats();
            assert_eq!(
                st.inserts,
                st.expirations + s.len() as u64,
                "{}: inserts must equal expirations + residents",
                S::name()
            );
            // The high-water marks are monotone vs the resident count.
            assert!(st.max_resident >= s.len());
            assert!(st.max_resident >= max_seen_resident);
            assert!(
                st.max_bytes >= s.len() * std::mem::size_of::<Item>(),
                "{}: max_bytes below the live payload",
                S::name()
            );
        }
    }
    // Drain completely: every insert must be matched by an expiration.
    s.expire_before(f32::INFINITY);
    let st = s.stats();
    assert_eq!(st.inserts, items.len() as u64);
    assert_eq!(st.expirations, st.inserts);
    assert_eq!(s.len(), 0);
    assert!(s.is_empty());
    assert!(st.max_resident >= 1);
    assert!(st.max_bytes >= st.max_resident * std::mem::size_of::<Item>());
}

#[test]
fn stats_invariants_hold_for_every_kernel() {
    for seed in [3u64, 17, 4242] {
        check_stats_invariants::<ListSweep>(seed);
        check_stats_invariants::<ForwardSweep>(seed);
        check_stats_invariants::<StripedSweep>(seed);
    }
}

type DriverPush = Box<dyn FnMut(Side, Item, &mut Vec<(u32, u32)>)>;

#[test]
fn drivers_agree_across_kernels_under_interleaved_sides() {
    for seed in 0..4u64 {
        let mut left = workload(seed, 250, 0);
        let mut right = workload(!seed, 250, 100_000);
        left.sort_unstable_by(Item::cmp_by_lower_y);
        right.sort_unstable_by(Item::cmp_by_lower_y);

        let run = |mut push: DriverPush| {
            let mut out = Vec::new();
            let (mut li, mut ri) = (0, 0);
            while li < left.len() || ri < right.len() {
                let take_left = match (left.get(li), right.get(ri)) {
                    (Some(a), Some(b)) => a.cmp_by_lower_y(b) != std::cmp::Ordering::Greater,
                    (Some(_), None) => true,
                    _ => false,
                };
                if take_left {
                    push(Side::Left, left[li], &mut out);
                    li += 1;
                } else {
                    push(Side::Right, right[ri], &mut out);
                    ri += 1;
                }
            }
            out.sort_unstable();
            out
        };

        let mut list: SweepDriver<ListSweep> = SweepDriver::new(-100.0, 220.0);
        let a = run(Box::new(move |side, item, out| {
            list.push(side, item, |x, y| out.push((x.id, y.id)));
        }));
        let mut striped: SweepDriver<StripedSweep> = SweepDriver::new(-100.0, 220.0);
        let b = run(Box::new(move |side, item, out| {
            striped.push(side, item, |x, y| out.push((x.id, y.id)));
        }));
        assert_eq!(a, b, "seed {seed}");
    }
}

/// The forward driver's report sequence and statistics.
fn forward_driver(left: &[Item], right: &[Item]) -> (Vec<(u32, u32)>, SweepJoinStats) {
    let mut seq = Vec::new();
    let stats = sweep_join::<ForwardSweep, _>(left, right, |a, b| seq.push((a.id, b.id)));
    (seq, stats)
}

/// [`batch_join`]'s report sequence, its returned test count and what it
/// accumulated into `total`.
fn batch(left: &[Item], right: &[Item], total: &mut SweepJoinStats) -> (Vec<(u32, u32)>, u64) {
    let (mut l, mut r) = (left.to_vec(), right.to_vec());
    let mut seq = Vec::new();
    let tests = batch_join(&mut l, &mut r, total, |a, b| seq.push((a.id, b.id)));
    // The slices come back permuted, never changed.
    let ids = |v: &[Item]| {
        let mut ids: Vec<u32> = v.iter().map(|it| it.id).collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!((ids(&l), ids(&r)), (ids(left), ids(right)));
    (seq, tests)
}

#[test]
fn batch_join_is_the_forward_driver_on_friendly_and_killer_inputs() {
    for f in &friendly_and_killer_inputs() {
        let (want_seq, want) = forward_driver(&f.left, &f.right);
        let mut total = SweepJoinStats::default();
        let (seq, tests) = batch(&f.left, &f.right, &mut total);
        assert_eq!(seq, want_seq, "{}: pairs or their order", f.name);
        assert_eq!(tests, want.rect_tests, "{}: rectangle tests", f.name);
        assert_eq!(
            (
                total.pairs,
                total.rect_tests,
                total.left_items,
                total.right_items
            ),
            (
                want.pairs,
                want.rect_tests,
                want.left_items,
                want.right_items
            ),
            "{}",
            f.name
        );
        if !f.nan {
            assert_eq!(
                total.max_resident, want.max_resident,
                "{}: residents",
                f.name
            );
        }
        // A second batch accumulates: counters add, the high-water mark
        // holds (this batch cannot raise it, so it is not recounted).
        let (again, _) = batch(&f.left, &f.right, &mut total);
        assert_eq!(again, want_seq, "{}", f.name);
        assert_eq!(total.rect_tests, 2 * want.rect_tests, "{}", f.name);
        if !f.nan {
            assert_eq!(total.max_resident, want.max_resident, "{}", f.name);
        }
    }
}

#[test]
fn every_kernel_matches_brute_force_on_the_killer_families() {
    for f in families() {
        let want = brute(&f.left, &f.right);
        // A sweep never looks at the arriving item's own upper edge — what
        // arrives is alive — so a rectangle whose upper edge is NaN still
        // *finds* partners. The joins refine every candidate with their
        // predicate; so does this, for the one family that needs it.
        let rect = |items: &[Item], id: u32| items.iter().find(|it| it.id == id).unwrap().rect;
        let sorted = |mut seq: Vec<(u32, u32)>| {
            if f.nan {
                seq.retain(|&(a, b)| rect(&f.left, a).intersects(&rect(&f.right, b)));
            }
            seq.sort_unstable();
            seq
        };
        let (forward, _) = forward_driver(&f.left, &f.right);
        assert_eq!(sorted(forward), want, "{}: forward", f.name);
        assert_eq!(
            sorted(pair_sequence::<StripedSweep>(&f.left, &f.right)),
            want,
            "{}: striped",
            f.name
        );
        let (window, _) = batch(&f.left, &f.right, &mut SweepJoinStats::default());
        assert_eq!(sorted(window), want, "{}: batch", f.name);
        assert!(!want.is_empty(), "{}: the family must join", f.name);
    }
}

/// The friendly workloads and the killer families.
fn friendly_and_killer_inputs() -> Vec<Family> {
    let mut inputs: Vec<Family> = (0..6u64)
        .map(|seed| Family {
            name: "workload",
            left: workload(seed, 300, 0),
            right: workload(seed ^ 0xBA7C, 280, 100_000),
            nan: false,
        })
        .collect();
    inputs.extend(families());
    inputs
}

#[test]
fn merge_sweep_under_an_ample_budget_is_the_in_memory_striped_sweep() {
    for f in friendly_and_killer_inputs() {
        let mut want_seq = Vec::new();
        let want =
            sweep_join::<StripedSweep, _>(&f.left, &f.right, |a, b| want_seq.push((a.id, b.id)));
        // The sorted copies and the x-extent `sweep_join` sweeps over.
        let (mut l, mut r) = (f.left.clone(), f.right.clone());
        sort_by_lower_y(&mut l);
        sort_by_lower_y(&mut r);
        let (mut x_lo, mut x_hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for it in l.iter().chain(&r) {
            x_lo = x_lo.min(it.rect.lo.x);
            x_hi = x_hi.max(it.rect.hi.x);
        }
        if !x_lo.is_finite() || !x_hi.is_finite() {
            (x_lo, x_hi) = (0.0, 1.0);
        }

        let mut env = SimEnv::new(MachineConfig::machine3()).with_memory_limit(64 << 20);
        let (mut l, mut r) = (l.into_iter(), r.into_iter());
        let mut seq = Vec::new();
        let mut emit = |a: &Item, b: &Item| {
            seq.push((a.id, b.id));
            ControlFlow::Continue(())
        };
        let (driver, flow) = merge_sweep(
            &mut env,
            |_| Ok(l.next()),
            |_| Ok(r.next()),
            (x_lo, x_hi),
            &mut emit,
        )
        .unwrap();
        assert!(flow.is_continue());
        let stats = driver
            .finish(&mut env, |_, _| panic!("nothing spilled"))
            .unwrap();
        assert_eq!(stats.spill_runs, 0, "{}", f.name);
        assert_eq!(seq, want_seq, "{}: pairs or their order", f.name);
        assert_eq!(
            stats.rect_tests, want.rect_tests,
            "{}: rectangle tests",
            f.name
        );
        assert_eq!(
            (stats.left_items, stats.right_items),
            (want.left_items, want.right_items),
            "{}",
            f.name
        );
    }
}
