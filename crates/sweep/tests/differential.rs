//! Differential suite: the optimized struct-of-arrays kernels vs the naive
//! [`ListSweep`] reference on deterministic pseudo-random workloads.
//!
//! Always-on sibling of the feature-gated proptest module — tier-1 `cargo
//! test` exercises these invariants on every run:
//!
//! * identical pair *sequences* (not just sets) between `ListSweep` and the
//!   SoA `ForwardSweep`, identical pair sets for `StripedSweep`;
//! * `SweepStats` bookkeeping: `inserts = expirations + final residents`,
//!   `max_resident`/`max_bytes` monotone with respect to the resident count.

use usj_geom::{Item, Rect};
use usj_sweep::{
    sweep_join, EagerStripedSweep, ForwardSweep, ListSweep, Side, StripedSweep, SweepDriver,
    SweepStructure,
};

/// SplitMix64 — the same deterministic generator the datagen crate uses.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        let t = (self.next() >> 40) as f32 / (1u64 << 24) as f32;
        lo + t * (hi - lo)
    }
}

/// A mix of short segments (the TIGER-like common case) and a few long-lived
/// wide rectangles (the expiry/tombstone stress case).
fn workload(seed: u64, n: usize, id_base: u32) -> Vec<Item> {
    let mut rng = Rng(seed);
    (0..n as u32)
        .map(|i| {
            let x = rng.f32_in(-100.0, 100.0);
            let y = rng.f32_in(-100.0, 100.0);
            let (w, h) = if i % 13 == 0 {
                (rng.f32_in(20.0, 120.0), rng.f32_in(20.0, 120.0))
            } else {
                (rng.f32_in(0.0, 3.0), rng.f32_in(0.0, 3.0))
            };
            Item::new(Rect::from_coords(x, y, x + w, y + h), id_base + i)
        })
        .collect()
}

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
        let mut pre_pr = pair_sequence::<EagerStripedSweep>(&left, &right);
        let raw_len = optimized.len();
        reference.sort_unstable();
        optimized.sort_unstable();
        optimized.dedup();
        pre_pr.sort_unstable();
        assert_eq!(raw_len, optimized.len(), "seed {seed}: duplicate pairs");
        assert_eq!(optimized, reference, "seed {seed}");
        // The preserved pre-PR striped baseline agrees too.
        assert_eq!(pre_pr, reference, "seed {seed}: pre-PR striped baseline");
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
