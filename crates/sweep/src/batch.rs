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

use std::cmp::Ordering;

use usj_geom::{f32_order_key, sort_by_lower_y, Item};

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
