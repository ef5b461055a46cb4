//! The structure-free sweep of two small in-memory batches.
//!
//! ST joins the entries of two R-tree nodes per visited node pair — a couple
//! of hundred rectangles, thousands of times — and PBSM's last-resort
//! fallback joins chunk against chunk. A [`SweepDriver`](crate::SweepDriver)
//! over [`ForwardSweep`](crate::ForwardSweep) spends such a batch building
//! what it then barely uses: two resident arrays and two expiry heaps grown
//! from empty, a tombstone policy that never fires. [`batch_join`] runs the
//! same sweep on the two sorted batches themselves.
//!
//! Both batches are sorted into sweep order in place and merged. When the
//! merge reaches an item, the other side's entries it has already passed
//! are exactly what that side's forward list would hold, in the order it
//! would hold them; the ones whose upper edge lies below the sweep line are
//! what the list would have expired. So the item is tested against a
//! **window** over the other side — from the first entry that is still
//! alive to the merge position — skipping the dead entries inside it
//! uncounted, as a scan skips a tombstone. The window's start only ever
//! moves forward (the sweep line does), and nothing is allocated or
//! maintained besides the two cursors: same pairs, same order, same
//! rectangle-test count as the driver, for the price of the tests.
//!
//! ## The sweep axis is the batch's
//!
//! A sweep tests an arrival against everything alive on the other side, so
//! its cost is set by how long a rectangle stays alive — its extent *along*
//! the sweep axis relative to the batch's. Nothing in the paper (or in
//! Brinkhoff et al.) fixes that axis, and a batch is small, in memory and
//! joined on its own, so it can have the one that suits it:
//! [`batch_join_oriented`] takes the batch's [`Extents`], asks the rule
//! PBSM's tile grids ask ([`Extents::cmp_x_to_y`], against the batch's own
//! bounding box) and, when the rectangles are relatively narrower along x,
//! transposes both batches in place, runs [`batch_join`] as it is, and
//! hands `report` the original items. The kernel, the statistics and every
//! caller's predicate and sink know one direction only; on a batch of tall
//! rectangles the sweep makes a few per cent of the tests it made along y.

use std::cmp::Ordering;

use usj_geom::{f32_order_key, sort_by_lower_y, Extents, Item};

use crate::driver::SweepJoinStats;

/// Reclaim a window's dead entries once there are this many of them *and*
/// they outnumber the live ones — the tombstone policy of the structures,
/// for the same reason: an arrival's scan then costs at most twice its
/// tests, however long one old entry pins the window's start.
const RECLAIM_FLOOR: usize = 64;

/// Joins two in-memory batches, reporting intersecting `(left, right)` item
/// pairs to `report` in the order, and with the rectangle-test count, of
/// [`sweep_join`](crate::sweep_join)`::<ForwardSweep, _>` on the same
/// inputs. The slices are permuted (sorted, then possibly regrouped by the
/// window upkeep); nothing is added or lost.
///
/// The batch is accumulated into `total` as [`SweepJoinStats::merge`] would
/// accumulate its statistics — callers run thousands of batches for one
/// join — and its rectangle tests are returned for charging. The resident
/// high-water mark of a batch takes a sort of its own to know, so it is
/// only worked out for a batch whose cheap upper bound on it exceeds
/// `total.max_resident`: no other can raise it, and the accumulated maximum
/// stays exact. `max_structure_bytes` counts the live window at its largest
/// — the `max_resident` items of it — since this sweep keeps no structure
/// beside the batches themselves.
pub fn batch_join<F>(
    left: &mut [Item],
    right: &mut [Item],
    total: &mut SweepJoinStats,
    mut report: F,
) -> u64
where
    F: FnMut(&Item, &Item),
{
    sort_by_lower_y(left);
    sort_by_lower_y(right);
    total.left_items += left.len() as u64;
    total.right_items += right.len() as u64;
    // The sweep line: the largest lower edge reached so far. An entry is
    // alive while its upper edge is not below it.
    let mut cut = f32::NEG_INFINITY;
    let (mut li, mut ri) = (0, 0);
    // First entries of either side that may still be alive.
    let (mut l_alive, mut r_alive) = (0, 0);
    let (mut tests, mut pairs) = (0usize, 0usize);
    // Upper bound on the entries alive at once: see below.
    let mut resident_bound = 0;
    while li < left.len() || ri < right.len() {
        let take_left = match (left.get(li), right.get(ri)) {
            // The sweep order compares lower edges first; ones that do not
            // differ (or do not compare) go through the full comparator.
            (Some(a), Some(b)) => match a.rect.lo.y.partial_cmp(&b.rect.lo.y) {
                Some(Ordering::Less) => true,
                Some(Ordering::Greater) => false,
                _ => a.cmp_by_lower_y(b) != Ordering::Greater,
            },
            (Some(_), None) => true,
            (None, _) => false,
        };
        let z = if take_left { left[li] } else { right[ri] };
        if z.rect.lo.y > cut {
            cut = z.rect.lo.y;
        }
        if take_left {
            let other = probe(&z, &mut right[..ri], &mut r_alive, cut, |o| {
                pairs += 1;
                report(&z, o)
            });
            li += 1;
            tests += other;
            resident_bound = resident_bound.max(other + li - l_alive);
        } else {
            let other = probe(&z, &mut left[..li], &mut l_alive, cut, |o| {
                pairs += 1;
                report(o, &z)
            });
            ri += 1;
            tests += other;
            resident_bound = resident_bound.max(other + ri - r_alive);
        }
    }
    total.pairs += pairs as u64;
    total.rect_tests += tests as u64;
    // After an arrival, the other side's alive entries are the ones just
    // tested; its own are at most its window. Only a batch whose bound beats
    // the running maximum can raise it — the rest skip the exact count.
    if resident_bound > total.max_resident {
        total.max_resident = total.max_resident.max(max_resident(left, right));
        total.max_structure_bytes = total
            .max_structure_bytes
            .max(total.max_resident * std::mem::size_of::<Item>());
    }
    tests as u64
}

/// [`batch_join`] along the axis on which the two batches, whose rectangles
/// `data` describes, are relatively narrower: `Σ width ÷ bounding-box width`
/// against `Σ height ÷ bounding-box height`. Along y — [`batch_join`] itself
/// — unless x is strictly the narrower one: ties and sums that do not
/// compare stay with y.
///
/// Along x the batches are transposed in place for the sweep and transposed
/// back after it, and `report` sees the items as the caller wrote them, bit
/// for bit. The pair *set* is the same on either axis; the order of the
/// reports, the rectangle tests and the resident high-water mark are those
/// of the sweep that ran. What the slices are left as, what is accumulated
/// into `total` and what is returned are as for [`batch_join`].
pub fn batch_join_oriented<F>(
    left: &mut [Item],
    right: &mut [Item],
    data: &Extents,
    total: &mut SweepJoinStats,
    report: F,
) -> u64
where
    F: FnMut(&Item, &Item),
{
    if data.cmp_x_to_y(&data.bbox) == Some(Ordering::Less) {
        batch_join_along_x(left, right, total, report)
    } else {
        batch_join(left, right, total, report)
    }
}

/// [`batch_join`] with the sweep line moving along x.
fn batch_join_along_x<F>(
    left: &mut [Item],
    right: &mut [Item],
    total: &mut SweepJoinStats,
    mut report: F,
) -> u64
where
    F: FnMut(&Item, &Item),
{
    transpose(left);
    transpose(right);
    let tests = batch_join(left, right, total, |a, b| {
        report(&a.transposed(), &b.transposed())
    });
    transpose(left);
    transpose(right);
    tests
}

fn transpose(items: &mut [Item]) {
    for it in items {
        *it = it.transposed();
    }
}

/// Tests `z` against the entries of `passed` — the other side's entries the
/// merge has passed — that are alive at `cut`, reporting those whose
/// x-projection overlaps `z`'s and returning how many were tested.
/// `alive` is the window start: entries before it are dead for good.
///
/// Like the structures' scans, the window is first *counted* — tests and
/// hits as branch-free sums — and walked a second time to report only when
/// something hit, which for most arrivals nothing does. The count also
/// tells how many of the window's entries are dead; past
/// [`RECLAIM_FLOOR`] and half the window, the live ones are regrouped at
/// its end, in order, and the window shrinks to them.
#[inline]
fn probe(
    z: &Item,
    passed: &mut [Item],
    alive: &mut usize,
    cut: f32,
    mut hit: impl FnMut(&Item),
) -> usize {
    // Alive is `hi.y >= cut`, dead its negation — not `hi.y < cut`: a NaN
    // upper edge is a tombstone to the structures' scans too.
    let is_alive = |o: &Item| o.rect.hi.y >= cut;
    while *alive < passed.len() && !is_alive(&passed[*alive]) {
        *alive += 1;
    }
    let (q_lo, q_hi) = (z.rect.lo.x, z.rect.hi.x);
    let overlaps = |o: &Item| is_alive(o) & (o.rect.lo.x <= q_hi) & (q_lo <= o.rect.hi.x);
    let (mut tests, mut hits) = (0usize, 0u32);
    for o in &passed[*alive..] {
        tests += is_alive(o) as usize;
        hits += overlaps(o) as u32;
    }
    let dead = passed.len() - *alive - tests;
    if dead >= RECLAIM_FLOOR && dead > tests {
        // From the end down, each live entry swaps into the last free slot:
        // the live keep their order, the dead end up before them.
        let mut free = passed.len();
        for i in (*alive..passed.len()).rev() {
            if is_alive(&passed[i]) {
                free -= 1;
                passed.swap(i, free);
            }
        }
        *alive = free;
    }
    if hits > 0 {
        passed[*alive..]
            .iter()
            .filter(|o| overlaps(o))
            .for_each(&mut hit);
    }
    tests
}

/// Largest number of entries of the two batches alive at once, counted — as
/// the drivers count it — right after each entry arrives: the arrivals so
/// far minus the entries whose upper edge the sweep line has passed.
///
/// Every entry that has expired by the time the line is at `y` arrived
/// before (`lo.y <= hi.y < y`), so the expired are simply the upper edges
/// below `y`, over both batches, in whatever order the batches are by now:
/// a sort of the lower-edge keys, a sort of the upper-edge keys, one merge.
fn max_resident(l: &[Item], r: &[Item]) -> usize {
    let arrivals = l.len() + r.len();
    let mut keys: Vec<u32> = Vec::with_capacity(2 * arrivals);
    keys.extend(l.iter().chain(r).map(|it| f32_order_key(it.rect.lo.y)));
    keys.extend(l.iter().chain(r).map(|it| f32_order_key(it.rect.hi.y)));
    let (lows, highs) = keys.split_at_mut(arrivals);
    lows.sort_unstable();
    highs.sort_unstable();
    let mut expired = 0;
    let mut most = 0;
    for (arrived, &y) in lows.iter().enumerate() {
        // A NaN line (the maximal key) never advances the cut.
        while y != u32::MAX && expired < arrivals && highs[expired] < y {
            expired += 1;
        }
        most = most.max(arrived + 1 - expired.min(arrived + 1));
    }
    most
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_geom::Rect;

    /// `n` rectangles `w` × `h` (each scaled by up to 2) in a 1 000-square,
    /// from a small LCG.
    fn side(seed: u64, n: u32, (w, h): (f32, f32), first_id: u32) -> Vec<Item> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut unit = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        (0..n)
            .map(|i| {
                let (x, y) = (unit() * 1000.0, unit() * 1000.0);
                let (w, h) = (w * (1.0 + unit()), h * (1.0 + unit()));
                Item::new(Rect::from_coords(x, y, x + w, y + h), first_id + i)
            })
            .collect()
    }

    fn extents(l: &[Item], r: &[Item]) -> Extents {
        let mut data = Extents::empty();
        l.iter().chain(r).for_each(|it| data.add(&it.rect));
        data
    }

    fn brute(l: &[Item], r: &[Item]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for a in l {
            for b in r.iter().filter(|b| a.rect.intersects(&b.rect)) {
                out.push((a.id, b.id));
            }
        }
        out.sort_unstable();
        out
    }

    /// An item down to the bit: `-0.0` is not `0.0` here.
    fn bits(it: &Item) -> [u32; 5] {
        let r = it.rect;
        [
            r.lo.x.to_bits(),
            r.lo.y.to_bits(),
            r.hi.x.to_bits(),
            r.hi.y.to_bits(),
            it.id,
        ]
    }

    const SHAPES: [(f32, f32); 4] = [(0.05, 400.0), (400.0, 0.05), (30.0, 30.0), (5.0, 80.0)];

    #[test]
    fn either_axis_reports_the_brute_force_pair_set() {
        for (seed, shape) in SHAPES.into_iter().enumerate() {
            let (left, right) = (
                side(seed as u64, 300, shape, 0),
                side(
                    seed as u64 + 100,
                    200,
                    (shape.0 * 0.5, shape.1 * 1.5),
                    10_000,
                ),
            );
            let want = brute(&left, &right);
            assert!(!want.is_empty());
            let (mut along_y, mut along_x) = (Vec::new(), Vec::new());
            let (mut l, mut r) = (left.clone(), right.clone());
            let (mut y_stats, mut x_stats) = Default::default();
            let y_tests = batch_join(&mut l, &mut r, &mut y_stats, |a, b| {
                along_y.push((a.id, b.id))
            });
            let x_tests = batch_join_along_x(&mut l, &mut r, &mut x_stats, |a, b| {
                along_x.push((a.id, b.id))
            });
            along_y.sort_unstable();
            along_x.sort_unstable();
            assert_eq!(along_y, want, "{shape:?} along y");
            assert_eq!(along_x, want, "{shape:?} along x");
            assert_eq!(x_stats.rect_tests, x_tests);
            assert_eq!(
                (x_stats.pairs, y_stats.pairs),
                (want.len() as u64, want.len() as u64)
            );
            assert_eq!(
                (x_stats.left_items, x_stats.right_items),
                (y_stats.left_items, y_stats.right_items)
            );

            // The oriented join runs the cheaper of the two, or y on a draw.
            let mut oriented = Vec::new();
            let mut stats = SweepJoinStats::default();
            let data = extents(&left, &right);
            let tests = batch_join_oriented(&mut l, &mut r, &data, &mut stats, |a, b| {
                oriented.push((a.id, b.id))
            });
            oriented.sort_unstable();
            assert_eq!(oriented, want, "{shape:?} oriented");
            assert!(
                tests == x_tests.min(y_tests),
                "{shape:?}: {tests} tests, {x_tests} along x, {y_tests} along y"
            );
        }
        // The long shapes are what the axis is for.
        let (l, r) = (side(1, 300, SHAPES[0], 0), side(2, 300, SHAPES[0], 10_000));
        let count = |along_x: bool| {
            let (mut l, mut r, mut stats) = (l.clone(), r.clone(), SweepJoinStats::default());
            match along_x {
                true => batch_join_along_x(&mut l, &mut r, &mut stats, |_, _| {}),
                false => batch_join(&mut l, &mut r, &mut stats, |_, _| {}),
            }
        };
        assert!(
            20 * count(true) < count(false),
            "{} / {}",
            count(true),
            count(false)
        );
    }

    #[test]
    fn the_sweep_along_x_reports_the_callers_items_bit_for_bit() {
        // Both zeroes and a subnormal: a transposition that went through
        // arithmetic would not give them back.
        let mut left = side(7, 120, (0.05, 300.0), 0);
        let mut right = side(8, 120, (0.05, 300.0), 10_000);
        left.push(Item::new(Rect::from_coords(-0.0, 0.0, 1e-45, 900.0), 500));
        right.push(Item::new(Rect::from_coords(0.0, -0.0, 0.0, 1000.0), 10_500));
        let original = |it: &Item| {
            let from = if it.id < 10_000 { &left } else { &right };
            bits(from.iter().find(|o| o.id == it.id).unwrap())
        };
        let (mut l, mut r) = (left.clone(), right.clone());
        let data = extents(&left, &right);
        assert_eq!(data.cmp_x_to_y(&data.bbox), Some(Ordering::Less));
        let mut reported = 0;
        batch_join_oriented(
            &mut l,
            &mut r,
            &data,
            &mut SweepJoinStats::default(),
            |a, b| {
                assert_eq!((bits(a), bits(b)), (original(a), original(b)));
                reported += 1;
            },
        );
        assert!(reported > 0);
        // The slices come back permuted, never changed.
        let sorted = |v: &[Item]| {
            let mut v: Vec<[u32; 5]> = v.iter().map(bits).collect();
            v.sort_unstable();
            v
        };
        assert_eq!((sorted(&l), sorted(&r)), (sorted(&left), sorted(&right)));
    }

    #[test]
    fn ties_and_sums_that_do_not_compare_sweep_along_y() {
        let sequence = |l: &[Item], r: &[Item], data: Option<&Extents>| {
            let (mut l, mut r, mut stats) = (l.to_vec(), r.to_vec(), SweepJoinStats::default());
            let mut seq = Vec::new();
            let report = |a: &Item, b: &Item| seq.push((a.id, b.id));
            match data {
                Some(data) => batch_join_oriented(&mut l, &mut r, data, &mut stats, report),
                None => batch_join(&mut l, &mut r, &mut stats, report),
            };
            seq
        };
        // Squares in a square: a tie.
        let grid = |first_id: u32, offset: f32| -> Vec<Item> {
            (0..100u32)
                .map(|i| {
                    let (x, y) = (
                        (i % 10) as f32 * 4.0 + offset,
                        (i / 10) as f32 * 4.0 + offset,
                    );
                    Item::new(Rect::from_coords(x, y, x + 3.0, y + 3.0), first_id + i)
                })
                .collect()
        };
        let (l, r) = (grid(0, 0.0), grid(1000, 0.0));
        let data = extents(&l, &r);
        assert_eq!(data.cmp_x_to_y(&data.bbox), Some(Ordering::Equal));
        assert_eq!(sequence(&l, &r, Some(&data)), sequence(&l, &r, None));
        // Segments as long as the format: Σ width is ∞, the box is flat.
        let seg = |id| Item::new(Rect::from_coords(-f32::MAX, 1.0, f32::MAX, 1.0), id);
        let (l, r) = (vec![seg(0), seg(1)], vec![seg(1000)]);
        let data = extents(&l, &r);
        assert_eq!(data.cmp_x_to_y(&data.bbox), None);
        assert_eq!(sequence(&l, &r, Some(&data)), sequence(&l, &r, None));
        assert_eq!(sequence(&l, &r, Some(&data)).len(), 2);
        // No rectangles at all.
        assert!(sequence(&[], &[], Some(&Extents::empty())).is_empty());
    }
}
