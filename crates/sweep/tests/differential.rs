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
//!   degenerate-window families below.

use usj_geom::{Item, Rect};
use usj_sweep::{
    batch_join, sweep_join, EagerStripedSweep, ForwardSweep, ListSweep, Side, StripedSweep,
    SweepDriver, SweepJoinStats, SweepStructure,
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

/// Brute-force pair set.
fn brute(left: &[Item], right: &[Item]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for a in left {
        for b in right.iter().filter(|b| a.rect.intersects(&b.rect)) {
            out.push((a.id, b.id));
        }
    }
    out.sort_unstable();
    out
}

fn item(x0: f32, y0: f32, x1: f32, y1: f32, id: u32) -> Item {
    Item::new(Rect::from_coords(x0, y0, x1, y1), id)
}

/// One input pair that stresses a kernel somewhere other than its common
/// path. `nan` marks the family whose rectangles are not all rectangles.
struct Family {
    name: &'static str,
    left: Vec<Item>,
    right: Vec<Item>,
    nan: bool,
}

/// Coordinate edges (ROADMAP 4(f)) and degenerate windows: the `*_killer`
/// families kept beside the friendly `workload`.
fn families() -> Vec<Family> {
    let mut out = Vec::new();
    let mut family = |name, left, right, nan| {
        out.push(Family {
            name,
            left,
            right,
            nan,
        })
    };
    let mut rng = Rng(0xED6E);

    // Both zeroes on every edge: -0.0 and +0.0 compare equal, key equal and
    // must expire, sort and touch alike.
    let zero = [-0.0f32, 0.0];
    let side = |base: u32| -> Vec<Item> {
        (0..64u32)
            .map(|i| {
                let z = |k: u32| zero[((i >> k) & 1) as usize];
                match i % 4 {
                    0 => item(-1.0, -1.0, z(2), z(3), base + i),
                    1 => item(z(2), z(3), 1.0, 1.0, base + i),
                    2 => item(z(2), -2.0, z(3), z(4), base + i),
                    _ => item(z(2), z(3), z(4), z(5), base + i),
                }
            })
            .collect()
    };
    family("zeroes", side(0), side(1000), false);

    // Points and segments: zero width, zero height, both.
    let mut side = |base: u32| -> Vec<Item> {
        (0..200u32)
            .map(|i| {
                let (x, y) = ((rng.next() % 12) as f32, (rng.next() % 12) as f32);
                let (w, h) = match i % 3 {
                    0 => (0.0, 0.0),
                    1 => ((rng.next() % 4) as f32, 0.0),
                    _ => (0.0, (rng.next() % 4) as f32),
                };
                item(x, y, x + w, y + h, base + i)
            })
            .collect()
    };
    family("zero_area", side(0), side(1000), false);

    // Floods of equal upper edges (and equal lower edges): ties everywhere
    // the expiry queue and the sort look.
    let mut side = |base: u32| -> Vec<Item> {
        (0..300u32)
            .map(|i| {
                let x = (rng.next() % 50) as f32;
                let lo = (rng.next() % 4) as f32;
                let hi = 4.0 + (rng.next() % 3) as f32;
                item(x, lo, x + 2.0, hi, base + i)
            })
            .collect()
    };
    family("equal_hi_flood", side(0), side(1000), false);

    // The extremes of the format, as coordinates and as extents.
    let edge = [
        -f32::MAX,
        -1e30,
        -1.0,
        -1e-40,
        -1e-45,
        0.0,
        1e-45,
        1e-40,
        1.0,
        1e30,
        f32::MAX,
    ];
    let mut side = |base: u32| -> Vec<Item> {
        (0..150u32)
            .map(|i| {
                let mut pick = || edge[(rng.next() % edge.len() as u64) as usize];
                let (a, b, c, d) = (pick(), pick(), pick(), pick());
                item(a.min(b), c.min(d), a.max(b), c.max(d), base + i)
            })
            .collect()
    };
    family("extremes", side(0), side(1000), false);

    // NaN (of either sign) in one coordinate of a fifth of the rectangles
    // — any but the lower y, which is the sweep order itself: the drivers
    // assert it ascends. Such a rectangle intersects nothing; one with a
    // NaN upper edge is a tombstone from birth that never expires.
    let side = |seed: u64, base: u32| -> Vec<Item> {
        let mut items = workload(seed, 200, base);
        for (i, it) in items.iter_mut().enumerate().filter(|(i, _)| i % 5 == 0) {
            let nan = [f32::NAN, f32::from_bits(0xFFC0_0000)][i % 2];
            match (i / 5) % 3 {
                0 => it.rect.lo.x = nan,
                1 => it.rect.hi.x = nan,
                _ => it.rect.hi.y = nan,
            }
        }
        items
    };
    family("nan", side(7, 0), side(8, 1000), true);

    // Every rectangle the same one: nothing ever separates them.
    let same = |base: u32| {
        (0..150)
            .map(|i| item(3.0, 3.0, 5.0, 5.0, base + i))
            .collect()
    };
    family("identical", same(0), same(1000), false);

    // Tall rectangles: everything that has arrived stays alive.
    let mut side = |base: u32| -> Vec<Item> {
        (0..250u32)
            .map(|i| {
                let x = rng.f32_in(0.0, 1000.0);
                let y = rng.f32_in(0.0, 100.0);
                item(
                    x,
                    y,
                    x + rng.f32_in(0.01, 0.1),
                    y + rng.f32_in(200.0, 900.0),
                    base + i,
                )
            })
            .collect()
    };
    family("tall", side(0), side(1000), false);

    // One entry alive from the first arrival to the last pins the window's
    // start while thousands of short ones die inside it: a scan that did
    // not reclaim them would walk them all, for every arrival.
    let mut side = |base: u32| -> Vec<Item> {
        let mut items = vec![item(0.0, -1.0, 1000.0, 1e6, base)];
        items.extend((1..6_000u32).map(|i| {
            let x = rng.f32_in(0.0, 1000.0);
            item(x, i as f32, x + 0.5, i as f32 + 1.5, base + i)
        }));
        items
    };
    family("pinned_window", side(0), side(100_000), false);
    out
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
    let mut inputs: Vec<Family> = (0..6u64)
        .map(|seed| Family {
            name: "workload",
            left: workload(seed, 300, 0),
            right: workload(seed ^ 0xBA7C, 280, 100_000),
            nan: false,
        })
        .collect();
    inputs.extend(families());
    for f in &inputs {
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
