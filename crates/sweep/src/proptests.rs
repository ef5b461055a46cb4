//! Property-based tests on the in-tree `usj_proptest` harness: the interval
//! structures and the spilling driver must agree with a brute-force
//! rectangle join on arbitrary inputs.

use std::ops::ControlFlow;

use usj_geom::{Extents, Item, Rect};
use usj_io::{ItemStream, MachineConfig, SimEnv};
use usj_proptest::{forall, Gen};

use crate::soa::oracle::QuadHeap;
use crate::soa::{ExpiryEntry, ExpiryHeap};
use crate::spill::{join_pieces_against_log, nested_loop_fixup, Piece};
use crate::{
    batch_join, batch_join_oriented, merge_sweep, sweep_join, ForwardSweep, ListSweep, Side,
    StripedSweep, SweepJoinStats, SweepStructure,
};

fn arb_items(g: &mut Gen, max_len: usize, id_base: u32) -> Vec<Item> {
    let mut next = 0u32;
    g.vec(0, max_len, |g| {
        let x = g.f32_in(-100.0, 100.0);
        let y = g.f32_in(-100.0, 100.0);
        let w = g.f32_in(0.0, 30.0);
        let h = g.f32_in(0.0, 30.0);
        let id = id_base + next;
        next += 1;
        Item::new(Rect::from_coords(x, y, x + w, y + h), id)
    })
}

/// Coordinates from the edges of the format — both zeroes, subnormals, the
/// extremes, a handful of values shared by everything (ties) — or, half the
/// time, from the friendly range.
fn arb_edge_coord(g: &mut Gen) -> f32 {
    const EDGES: [f32; 14] = [
        -f32::MAX,
        -1e30,
        -2.0,
        -1e-40,
        -1e-45,
        -0.0,
        0.0,
        1e-45,
        1e-40,
        1.0,
        1.0,
        2.0,
        1e30,
        f32::MAX,
    ];
    if g.bool_with(0.5) {
        EDGES[g.usize_in(0, EDGES.len())]
    } else {
        g.f32_in(-3.0, 3.0)
    }
}

/// Valid rectangles (`lo <= hi`, possibly of zero area) on edge coordinates.
fn arb_edge_items(g: &mut Gen, max_len: usize, id_base: u32) -> Vec<Item> {
    let mut next = 0u32;
    g.vec(0, max_len, |g| {
        let (a, b, c, d) = (
            arb_edge_coord(g),
            arb_edge_coord(g),
            arb_edge_coord(g),
            arb_edge_coord(g),
        );
        let id = id_base + next;
        next += 1;
        Item::new(
            Rect::from_coords(a.min(b), c.min(d), a.max(b), c.max(d)),
            id,
        )
    })
}

fn brute(left: &[Item], right: &[Item]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for a in left {
        for b in right {
            if a.rect.intersects(&b.rect) {
                out.push((a.id, b.id));
            }
        }
    }
    out.sort_unstable();
    out
}

fn run<S: SweepStructure>(left: &[Item], right: &[Item]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    sweep_join::<S, _>(left, right, |a, b| out.push((a.id, b.id)));
    out.sort_unstable();
    out
}

#[test]
fn forward_sweep_matches_brute_force() {
    forall!(64, |g| {
        let left = arb_items(g, 60, 0);
        let right = arb_items(g, 60, 10_000);
        assert_eq!(run::<ForwardSweep>(&left, &right), brute(&left, &right));
    });
}

#[test]
fn striped_sweep_matches_brute_force() {
    forall!(64, |g| {
        let left = arb_items(g, 60, 0);
        let right = arb_items(g, 60, 10_000);
        assert_eq!(run::<StripedSweep>(&left, &right), brute(&left, &right));
    });
}

#[test]
fn both_structures_agree_on_pair_counts() {
    forall!(64, |g| {
        let left = arb_items(g, 80, 0);
        let right = arb_items(g, 80, 10_000);
        let f = sweep_join::<ForwardSweep, _>(&left, &right, |_, _| {});
        let s = sweep_join::<StripedSweep, _>(&left, &right, |_, _| {});
        assert_eq!(f.pairs, s.pairs);
        assert_eq!(f.left_items, s.left_items);
        assert_eq!(f.right_items, s.right_items);
    });
}

#[test]
fn striped_sweep_never_tests_more_than_forward_on_point_like_data() {
    forall!(64, |g| {
        let left = arb_items(g, 50, 0);
        let right = arb_items(g, 50, 10_000);
        // With narrow rectangles the striped structure should do at most the
        // work of the scan-everything structure (up to the duplicate copies
        // of strip-spanning rectangles, which these inputs avoid by keeping
        // widths far below one strip width).
        let narrow = |v: &[Item]| -> Vec<Item> {
            v.iter()
                .map(|it| {
                    Item::new(
                        Rect::from_coords(it.rect.lo.x, it.rect.lo.y, it.rect.lo.x, it.rect.hi.y),
                        it.id,
                    )
                })
                .collect()
        };
        let (l, r) = (narrow(&left), narrow(&right));
        let f = sweep_join::<ForwardSweep, _>(&l, &r, |_, _| {});
        let s = sweep_join::<StripedSweep, _>(&l, &r, |_, _| {});
        assert!(s.rect_tests <= f.rect_tests);
        assert_eq!(f.pairs, s.pairs);
    });
}

#[test]
fn soa_kernels_match_the_naive_list_sweep() {
    // The differential satellite: the optimized SoA kernels must report the
    // exact pair set of the naive eager list sweep on arbitrary workloads,
    // and their stats bookkeeping must balance.
    forall!(64, |g| {
        let left = arb_items(g, 80, 0);
        let right = arb_items(g, 80, 10_000);
        let reference = run::<ListSweep>(&left, &right);
        assert_eq!(run::<ForwardSweep>(&left, &right), reference);
        assert_eq!(run::<StripedSweep>(&left, &right), reference);
    });
}

#[test]
fn soa_kernel_stats_invariants_hold_on_arbitrary_sweeps() {
    forall!(64, |g| {
        let mut items = arb_items(g, 120, 0);
        items.sort_unstable_by(Item::cmp_by_lower_y);
        fn drive<S: SweepStructure>(items: &[Item]) {
            let mut s = S::with_extent(-100.0, 130.0);
            for it in items {
                s.expire_before(it.rect.lo.y);
                s.insert(*it);
                let st = s.stats();
                // inserts = expirations + live residents, at every step.
                assert_eq!(st.inserts, st.expirations + s.len() as u64, "{}", S::name());
                // max_bytes is monotone vs the resident count.
                assert!(st.max_resident >= s.len());
                assert!(st.max_bytes >= s.len() * std::mem::size_of::<Item>());
            }
            s.expire_before(f32::INFINITY);
            let st = s.stats();
            assert_eq!(st.expirations, st.inserts);
            assert!(s.is_empty());
        }
        drive::<ForwardSweep>(&items);
        drive::<StripedSweep>(&items);
        drive::<ListSweep>(&items);
    });
}

#[test]
fn spilling_driver_matches_brute_force_under_a_tiny_budget() {
    forall!(48, |g| {
        // Friendly draws, or edge coordinates — some of the extremes made
        // infinite — under an extent they overrun or an infinite one: the
        // strips and the reach cells clamp what falls outside.
        let (left, right, extent) = match g.bool_with(0.5) {
            false => (
                arb_items(g, 120, 0),
                arb_items(g, 120, 10_000),
                (-100.0, 130.0),
            ),
            true => {
                let inf = g.bool_with(0.5);
                let extent = [(-3.0, 3.0), (f32::NEG_INFINITY, f32::INFINITY)][g.usize_in(0, 2)];
                let (l, r) = (arb_edge_items(g, 120, 0), arb_edge_items(g, 120, 10_000));
                // `f32::MAX * 2.0` is infinite.
                let big = |v: f32| {
                    if inf && v.abs() == f32::MAX {
                        v * 2.0
                    } else {
                        v
                    }
                };
                let widen = |items: Vec<Item>| -> Vec<Item> {
                    items
                        .into_iter()
                        .map(|it| {
                            let (lo, hi) = (it.rect.lo, it.rect.hi);
                            let (x0, y0, x1, y1) = (big(lo.x), big(lo.y), big(hi.x), big(hi.y));
                            Item::new(Rect::from_coords(x0, y0, x1, y1), it.id)
                        })
                        .collect()
                };
                (widen(l), widen(r), extent)
            }
        };
        // A 64 KB environment forces the driver to spill on the denser
        // draws; the pair set must stay exact either way.
        let mut env = SimEnv::new(MachineConfig::machine3()).with_memory_limit(64 * 1024);
        let sorted = |items: &[Item]| {
            let mut v = items.to_vec();
            v.sort_unstable_by(Item::cmp_by_lower_y);
            v.into_iter()
        };
        let (mut l, mut r) = (sorted(&left), sorted(&right));
        let mut out = Vec::new();
        let mut emit = |a: &Item, b: &Item| {
            out.push((a.id, b.id));
            ControlFlow::Continue(())
        };
        let (driver, _) = merge_sweep(
            &mut env,
            |_| Ok(l.next()),
            |_| Ok(r.next()),
            extent,
            &mut emit,
        )
        .unwrap();
        driver
            .finish(&mut env, |a, b| {
                let _ = emit(a, b);
            })
            .unwrap();
        out.sort_unstable();
        assert_eq!(out, brute(&left, &right));
        assert!(
            env.memory.peak() <= env.memory_limit,
            "gauge peak {} over limit",
            env.memory.peak()
        );
    });
}

#[test]
fn sweep_fixup_matches_the_nested_loop_on_random_spill_histories() {
    forall!(48, |g| {
        // Spill epochs as the fix-up sees them, for each side: up to four
        // batch sides in no particular order (eviction is strip by strip),
        // the other side's log in ascending lower-y, and eviction points
        // that never go back. The log from a batch side's eviction point on
        // arrived after it, so it starts at or above its lower edges —
        // anywhere from level with the highest of them to past their tops.
        // Memory held elsewhere leaves budgets from ample down to
        // `MIN_SWEEP_BUDGET`, so pieces take several passes.
        let limit = [64 * 1024, 256 * 1024, 16 * 1024 * 1024][g.usize_in(0, 3)];
        let held = [0, limit / 2, limit - 16 * 1024][g.usize_in(0, 3)];
        let mut env = SimEnv::new(MachineConfig::machine3()).with_memory_limit(limit);
        for side in [Side::Left, Side::Right] {
            let base = side as u32 * 100_000;
            let mut log = arb_items(g, 400, base + 50_000);
            log.sort_unstable_by(Item::cmp_by_lower_y);
            let mut batches = Vec::new();
            let mut start = 0;
            for b in 0..g.usize_in(1, 5) {
                start = g.usize_in(start, log.len() + 2);
                let spilled = arb_items(g, 60, base + b as u32 * 1_000);
                let floor = spilled
                    .iter()
                    .map(|s| s.rect.lo.y)
                    .fold(f32::NEG_INFINITY, f32::max);
                if let Some(first) = log.get(start) {
                    let lift = (floor - first.rect.lo.y).max(0.0);
                    for z in &mut log[start..] {
                        let (lo, hi) = (z.rect.lo, z.rect.hi);
                        z.rect = Rect::from_coords(lo.x, lo.y + lift, hi.x, hi.y + lift);
                    }
                }
                batches.push((spilled, start as u64));
            }
            let l = ItemStream::from_items_with_block(&mut env, &log, 1).unwrap();
            let mut pieces = Vec::new();
            let mut want = Vec::new();
            for (spilled, log_start) in &batches {
                let items = ItemStream::from_items_with_block(&mut env, spilled, 1).unwrap();
                want.extend(nested_loop_fixup(&mut env, &items, &l, *log_start, side));
                pieces.push(Piece {
                    items,
                    log_start: *log_start,
                });
            }
            want.sort_unstable();

            let elsewhere = env.memory.try_reserve(held).unwrap();
            env.memory.begin_phase();
            let mut got = Vec::new();
            let mut report = |a: &Item, b: &Item| got.push((a.id, b.id));
            join_pieces_against_log(&mut env, &pieces, &l, side, (-100.0, 130.0), &mut report)
                .unwrap();
            got.sort_unstable();
            let starts: Vec<u64> = pieces.iter().map(|p| p.log_start).collect();
            assert_eq!(got, want, "{side:?} from {starts:?} of {}", log.len());
            let peak = env.memory.peak();
            assert!(peak <= limit, "gauge peak {peak} over limit {limit}");
            assert_eq!(env.memory.current(), held, "the fix-up leaked its claim");
            drop(elsewhere);
        }
    });
}

#[test]
fn expiry_queue_pops_what_the_quad_heap_popped() {
    // The packed bottom-up heap against the 4-ary `f32` heap it replaced, on
    // monotone sweeps (every pushed expiry is at or above the last cut) over
    // edge values: per cut the same expiry positions in the same order, the
    // same copy sum, the same live count; and the same survivors at the end.
    forall!(96, |g| {
        let (mut new, mut old) = (ExpiryHeap::default(), QuadHeap::default());
        let mut positions: Vec<f32> = (0..g.usize_in(1, 200)).map(|_| arb_edge_coord(g)).collect();
        positions.sort_unstable_by(f32::total_cmp);
        for &cut in &positions {
            let drain = |pop: &mut dyn FnMut() -> Option<ExpiryEntry>| {
                let (mut ys, mut copies) = (Vec::new(), 0u64);
                while let Some(e) = pop() {
                    // -0.0 comes back as +0.0: compare as the queue does.
                    ys.push(e.y + 0.0);
                    copies += u64::from(e.copies);
                }
                (ys, copies)
            };
            let got = drain(&mut || new.pop_if(|y| y < cut));
            let want = drain(&mut || old.pop_if(|y| y < cut));
            assert_eq!(got, want, "cut {cut:e}");
            assert_eq!(new.len(), old.len());
            assert_eq!(new.bytes(), 8 * old.len());
            for _ in 0..g.usize_in(0, 6) {
                // At or above the cut: the cut itself, a tie-prone edge, or
                // anything larger.
                let y = match g.usize_in(0, 3) {
                    0 => cut,
                    1 => arb_edge_coord(g).max(cut),
                    _ => cut.max(0.0) + g.f32_in(0.0, 4.0),
                };
                let copies = g.u32_in(1, 9);
                new.push(y, copies);
                old.push(y, copies);
            }
        }
        let mut left = Vec::new();
        new.expiries_into(&mut left);
        left.sort_unstable_by(f32::total_cmp);
        let mut want = Vec::new();
        while let Some(e) = old.pop_if(|_| true) {
            want.push(e.y + 0.0);
        }
        assert_eq!(left, want);
        // A rebuild holds the same entries as pushing them one by one.
        let mut rebuilt = ExpiryHeap::default();
        rebuilt.rebuild(left.iter().map(|&y| ExpiryEntry { y, copies: 3 }));
        let mut again = Vec::new();
        while let Some(e) = rebuilt.pop_if(|_| true) {
            assert_eq!(e.copies, 3);
            again.push(e.y);
        }
        assert_eq!(again, want);
    });
}

#[test]
fn batch_join_matches_the_forward_driver_and_brute_force_on_edge_coordinates() {
    forall!(96, |g| {
        let (left, right) = match g.bool_with(0.5) {
            true => (arb_edge_items(g, 90, 0), arb_edge_items(g, 90, 10_000)),
            false => (arb_items(g, 90, 0), arb_items(g, 90, 10_000)),
        };
        let mut want = Vec::new();
        let driver = sweep_join::<ForwardSweep, _>(&left, &right, |a, b| want.push((a.id, b.id)));
        let (mut l, mut r) = (left.clone(), right.clone());
        let mut total = SweepJoinStats::default();
        let mut got = Vec::new();
        let tests = batch_join(&mut l, &mut r, &mut total, |a, b| got.push((a.id, b.id)));
        assert_eq!(got, want, "pairs or their order");
        assert_eq!(tests, driver.rect_tests);
        assert_eq!(total.max_resident, driver.max_resident);
        assert_eq!(
            (total.pairs, total.left_items, total.right_items),
            (driver.pairs, driver.left_items, driver.right_items)
        );
        got.sort_unstable();
        assert_eq!(got, brute(&left, &right));
        assert_eq!(run::<StripedSweep>(&left, &right), got);
    });
}

#[test]
fn the_oriented_batch_join_matches_brute_force_whatever_the_extents_say() {
    forall!(96, |g| {
        let (left, right) = match g.bool_with(0.5) {
            true => (arb_edge_items(g, 90, 0), arb_edge_items(g, 90, 10_000)),
            false => (arb_items(g, 90, 0), arb_items(g, 90, 10_000)),
        };
        // The batch's own extents, or any others: the rule picks an axis,
        // never a pair.
        let mut data = Extents::empty();
        match g.usize_in(0, 3) {
            0 => left.iter().chain(&right).for_each(|it| data.add(&it.rect)),
            1 => arb_edge_items(g, 8, 0)
                .iter()
                .for_each(|it| data.add(&it.rect)),
            _ => {}
        }
        let (mut l, mut r) = (left.clone(), right.clone());
        let mut total = SweepJoinStats::default();
        let mut got = Vec::new();
        let tests = batch_join_oriented(&mut l, &mut r, &data, &mut total, |a, b| {
            // The caller's items, not their mirror images.
            assert!(left.contains(a) && right.contains(b));
            got.push((a.id, b.id))
        });
        got.sort_unstable();
        assert_eq!(got, brute(&left, &right));
        assert_eq!((tests, total.pairs), (total.rect_tests, got.len() as u64));
        // Permuted, never changed.
        let key = |it: &Item| it.id;
        l.sort_unstable_by_key(key);
        r.sort_unstable_by_key(key);
        assert_eq!((l, r), (left, right));
    });
}
