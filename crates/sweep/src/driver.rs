//! The plane-sweep join driver.
//!
//! The driver consumes two sequences of items sorted by ascending lower
//! y-coordinate and maintains one interval structure per input. For every
//! item reached by the sweep line it
//!
//! 1. removes from *both* structures everything the sweep line has passed,
//! 2. probes the *other* input's structure for x-overlaps (each hit is an
//!    intersecting pair), and
//! 3. inserts the item into its own input's structure.
//!
//! The driver is deliberately push-based: SSSJ feeds it from two sorted
//! streams, PQ feeds it from the priority-queue index adapters, PBSM feeds it
//! per partition, and ST feeds it with the entries of two R-tree nodes — the
//! exact reuse of "a few standard operations" the paper advertises.

use usj_geom::{f32_order_key, sort_by_lower_y, Item};

use crate::structure::{SweepStats, SweepStructure};

/// Which of the two join inputs an item belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The left (first) input; by convention the larger "road" relation.
    Left,
    /// The right (second) input; by convention the "hydrography" relation.
    Right,
}

impl Side {
    /// The opposite side.
    pub fn other(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// Counters describing one complete sweep join.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepJoinStats {
    /// Intersecting pairs reported.
    pub pairs: u64,
    /// Items consumed from the left input.
    pub left_items: u64,
    /// Items consumed from the right input.
    pub right_items: u64,
    /// Rectangle tests performed by the interval structures.
    pub rect_tests: u64,
    /// Maximum combined size of both structures in bytes (Table 3).
    ///
    /// For the spilling driver this is the *in-memory* residency only; the
    /// spilled strips live on the simulated device.
    pub max_structure_bytes: usize,
    /// Maximum combined number of resident items.
    pub max_resident: usize,
    /// Items evicted to the simulated device by the external spilling sweep
    /// (zero when the structures fit in memory).
    pub spilled_items: u64,
    /// Spill episodes of the external spilling sweep.
    pub spill_runs: u64,
}

impl SweepJoinStats {
    /// Accumulates `other` into `self`: counters are summed, peak sizes take
    /// the maximum. Used when one logical join is executed as several sweeps
    /// (PBSM partitions) whose statistics must roll up into one summary.
    pub fn merge(&mut self, other: &SweepJoinStats) {
        self.pairs += other.pairs;
        self.left_items += other.left_items;
        self.right_items += other.right_items;
        self.rect_tests += other.rect_tests;
        self.max_structure_bytes = self.max_structure_bytes.max(other.max_structure_bytes);
        self.max_resident = self.max_resident.max(other.max_resident);
        self.spilled_items += other.spilled_items;
        self.spill_runs += other.spill_runs;
    }
}

/// A streaming plane-sweep join over two y-sorted inputs.
#[derive(Debug)]
pub struct SweepDriver<S: SweepStructure> {
    left: S,
    right: S,
    stats: SweepJoinStats,
    last_y: f32,
}

impl<S: SweepStructure> SweepDriver<S> {
    /// Creates a driver whose structures cover the x-extent `[x_lo, x_hi]`.
    pub fn new(x_lo: f32, x_hi: f32) -> Self {
        SweepDriver {
            left: S::with_extent(x_lo, x_hi),
            right: S::with_extent(x_lo, x_hi),
            stats: SweepJoinStats::default(),
            last_y: f32::NEG_INFINITY,
        }
    }

    /// Advances the sweep line to `item.rect.lo.y` and processes `item` from
    /// input `side`, reporting every join partner to `report` as
    /// `(left_item, right_item)`.
    ///
    /// The full items (not just identifiers) are reported so that callers can
    /// refine the candidate pair with a stricter predicate — containment,
    /// reference-point deduplication, exact distance — without keeping their
    /// own id-to-rectangle side tables.
    ///
    /// Items must be pushed in ascending lower-y order across *both* sides;
    /// this is asserted in debug builds.
    pub fn push<F: FnMut(&Item, &Item)>(&mut self, side: Side, item: Item, mut report: F) {
        let y = item.rect.lo.y;
        // The keyed sort's order: a NaN lower y sorts last.
        debug_assert!(
            f32_order_key(y) >= f32_order_key(self.last_y),
            "sweep inputs must be pushed in ascending lower-y order"
        );
        self.last_y = y;
        self.left.expire_before(y);
        self.right.expire_before(y);
        match side {
            Side::Left => {
                self.right.query(&item, |other| {
                    report(&item, other);
                });
                self.left.insert(item);
                self.stats.left_items += 1;
            }
            Side::Right => {
                self.left.query(&item, |other| {
                    report(other, &item);
                });
                self.right.insert(item);
                self.stats.right_items += 1;
            }
        }
        self.note_sizes();
    }

    fn note_sizes(&mut self) {
        let bytes = self.bytes();
        let resident = self.left.len() + self.right.len();
        self.stats.max_structure_bytes = self.stats.max_structure_bytes.max(bytes);
        self.stats.max_resident = self.stats.max_resident.max(resident);
    }

    /// Current combined size of the two interval structures in bytes (the
    /// instantaneous figure behind `SweepJoinStats::max_structure_bytes`) —
    /// callers that own the driver can register it with a memory gauge.
    pub fn bytes(&self) -> usize {
        self.left.bytes() + self.right.bytes()
    }

    /// Registers `n` reported pairs in the statistics. The driver does not
    /// count them itself because callers may suppress duplicates (PBSM) or
    /// fan the output into further joins (multi-way PQ).
    pub fn add_pairs(&mut self, n: u64) {
        self.stats.pairs += n;
    }

    /// Final statistics (rectangle-test counts are pulled from the
    /// structures).
    pub fn finish(self) -> SweepJoinStats {
        let mut stats = self.stats;
        stats.rect_tests = self.left.stats().rect_tests + self.right.stats().rect_tests;
        stats
    }

    /// Combined statistics of the two interval structures.
    pub fn structure_stats(&self) -> SweepStats {
        self.left.stats().combined(&self.right.stats())
    }
}

/// Joins two in-memory slices, reporting intersecting `(left, right)` item
/// pairs to a callback.
///
/// Inputs that are not sorted are handled by sorting copies first, so the
/// function is safe to call on arbitrary slices (PBSM partitions arrive
/// unsorted, for example). Returns the join statistics.
pub fn sweep_join<S, F>(left: &[Item], right: &[Item], report: F) -> SweepJoinStats
where
    S: SweepStructure,
    F: FnMut(&Item, &Item),
{
    sweep_join_eps::<S, F>(left, right, 0.0, report)
}

/// Reusable sorted-copy buffers for [`sweep_join_eps_with`].
///
/// One in-memory sweep needs a sorted copy of each input. Callers that run
/// many sweeps in a row (PBSM joins one per partition, ST one per node pair)
/// keep a scratch around so the copies stop allocating fresh vectors.
#[derive(Debug, Default)]
pub struct SweepScratch {
    left: Vec<Item>,
    right: Vec<Item>,
}

impl SweepScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        SweepScratch::default()
    }
}

/// [`sweep_join`] with ε-expansion of the left input.
///
/// Every left rectangle is grown by `eps` on all sides before the sweep, so
/// the reported pairs are exactly the pairs whose Chebyshev (L∞) distance is
/// at most `eps` — the within-distance join predicate. The callback receives
/// the *expanded* left item; with `eps == 0.0` this is identical to
/// [`sweep_join`].
///
/// Expanding only one side keeps the test symmetric (`d(a, b) <= eps` is
/// symmetric) while shifting every left sort key by the same constant, which
/// preserves the sorted order the sweep relies on.
pub fn sweep_join_eps<S, F>(left: &[Item], right: &[Item], eps: f32, report: F) -> SweepJoinStats
where
    S: SweepStructure,
    F: FnMut(&Item, &Item),
{
    sweep_join_eps_with::<S, F>(left, right, eps, &mut SweepScratch::new(), report)
}

/// [`sweep_join_eps`] with caller-provided scratch buffers for the sorted
/// input copies (see [`SweepScratch`]).
pub fn sweep_join_eps_with<S, F>(
    left: &[Item],
    right: &[Item],
    eps: f32,
    scratch: &mut SweepScratch,
    mut report: F,
) -> SweepJoinStats
where
    S: SweepStructure,
    F: FnMut(&Item, &Item),
{
    let l = &mut scratch.left;
    let r = &mut scratch.right;
    l.clear();
    l.extend(left.iter().map(|it| Item::new(it.rect.expanded(eps), it.id)));
    r.clear();
    r.extend_from_slice(right);
    sort_by_lower_y(l);
    sort_by_lower_y(r);

    let (mut x_lo, mut x_hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for it in l.iter().chain(r.iter()) {
        x_lo = x_lo.min(it.rect.lo.x);
        x_hi = x_hi.max(it.rect.hi.x);
    }
    if !x_lo.is_finite() || !x_hi.is_finite() {
        x_lo = 0.0;
        x_hi = 1.0;
    }

    let mut driver: SweepDriver<S> = SweepDriver::new(x_lo, x_hi);
    let mut li = 0;
    let mut ri = 0;
    let mut pairs = 0u64;
    while li < l.len() || ri < r.len() {
        let take_left = match (l.get(li), r.get(ri)) {
            (Some(a), Some(b)) => a.cmp_by_lower_y(b) != std::cmp::Ordering::Greater,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_left {
            driver.push(Side::Left, l[li], |a, b| {
                pairs += 1;
                report(a, b);
            });
            li += 1;
        } else {
            driver.push(Side::Right, r[ri], |a, b| {
                pairs += 1;
                report(a, b);
            });
            ri += 1;
        }
    }
    driver.add_pairs(pairs);
    driver.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ForwardSweep, StripedSweep};
    use usj_geom::Rect;

    fn item(x0: f32, y0: f32, x1: f32, y1: f32, id: u32) -> Item {
        Item::new(Rect::from_coords(x0, y0, x1, y1), id)
    }

    /// Brute-force reference join.
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
    fn simple_join_matches_brute_force() {
        let left = vec![
            item(0.0, 0.0, 2.0, 2.0, 1),
            item(5.0, 5.0, 6.0, 6.0, 2),
            item(0.0, 5.0, 10.0, 6.0, 3),
        ];
        let right = vec![
            item(1.0, 1.0, 3.0, 3.0, 10),
            item(5.5, 5.5, 7.0, 7.0, 11),
            item(100.0, 100.0, 101.0, 101.0, 12),
        ];
        let expected = brute(&left, &right);
        assert_eq!(run::<ForwardSweep>(&left, &right), expected);
        assert_eq!(run::<StripedSweep>(&left, &right), expected);
        assert!(!expected.is_empty());
    }

    #[test]
    fn join_with_empty_inputs() {
        let left = vec![item(0.0, 0.0, 1.0, 1.0, 1)];
        assert_eq!(run::<ForwardSweep>(&left, &[]), vec![]);
        assert_eq!(run::<StripedSweep>(&[], &left), vec![]);
        assert_eq!(run::<ForwardSweep>(&[], &[]), vec![]);
    }

    #[test]
    fn identical_inputs_report_full_cross_product_of_overlaps() {
        let a = vec![
            item(0.0, 0.0, 1.0, 1.0, 1),
            item(0.5, 0.5, 1.5, 1.5, 2),
        ];
        let expected = brute(&a, &a);
        assert_eq!(expected.len(), 4);
        assert_eq!(run::<ForwardSweep>(&a, &a), expected);
        assert_eq!(run::<StripedSweep>(&a, &a), expected);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let left = vec![
            item(0.0, 9.0, 1.0, 10.0, 1),
            item(0.0, 0.0, 1.0, 1.0, 2),
            item(0.0, 5.0, 1.0, 6.0, 3),
        ];
        let right = vec![
            item(0.5, 5.5, 0.6, 5.6, 10),
            item(0.5, 0.5, 0.6, 0.6, 11),
        ];
        assert_eq!(run::<StripedSweep>(&left, &right), brute(&left, &right));
    }

    #[test]
    fn stats_count_pairs_and_items() {
        let left = vec![item(0.0, 0.0, 1.0, 1.0, 1), item(2.0, 0.0, 3.0, 1.0, 2)];
        let right = vec![item(0.5, 0.5, 2.5, 0.6, 10)];
        let stats = sweep_join::<ForwardSweep, _>(&left, &right, |_, _| {});
        assert_eq!(stats.pairs, 2);
        assert_eq!(stats.left_items, 2);
        assert_eq!(stats.right_items, 1);
        assert!(stats.rect_tests >= 2);
        assert!(stats.max_resident >= 1);
        assert!(stats.max_structure_bytes > 0);
    }

    #[test]
    fn driver_reports_sides_in_left_right_order() {
        let mut driver: SweepDriver<ForwardSweep> = SweepDriver::new(0.0, 10.0);
        let mut pairs = Vec::new();
        driver.push(Side::Right, item(0.0, 0.0, 5.0, 5.0, 100), |a, b| {
            pairs.push((a.id, b.id))
        });
        driver.push(Side::Left, item(1.0, 1.0, 2.0, 2.0, 7), |a, b| {
            pairs.push((a.id, b.id))
        });
        assert_eq!(pairs, vec![(7, 100)]);
    }

    #[test]
    fn touching_rectangles_are_joined() {
        let left = vec![item(0.0, 0.0, 1.0, 1.0, 1)];
        let right = vec![item(1.0, 1.0, 2.0, 2.0, 2)];
        assert_eq!(run::<ForwardSweep>(&left, &right), vec![(1, 2)]);
        assert_eq!(run::<StripedSweep>(&left, &right), vec![(1, 2)]);
    }

    #[test]
    fn eps_expansion_reports_near_pairs() {
        // Two unit squares a gap of 1.0 apart in x: disjoint under the plain
        // intersect join, within distance under eps >= 1.0.
        let left = vec![item(0.0, 0.0, 1.0, 1.0, 1)];
        let right = vec![item(2.0, 0.0, 3.0, 1.0, 2)];
        assert_eq!(run::<StripedSweep>(&left, &right), vec![]);
        let mut near = Vec::new();
        sweep_join_eps::<StripedSweep, _>(&left, &right, 1.0, |a, b| near.push((a.id, b.id)));
        assert_eq!(near, vec![(1, 2)]);
        // The callback sees the expanded left rectangle.
        sweep_join_eps::<StripedSweep, _>(&left, &right, 1.5, |a, b| {
            assert_eq!(a.rect.lo.x, -1.5);
            assert_eq!(b.rect.lo.x, 2.0);
        });
        // Below the gap, still nothing.
        let mut far = Vec::new();
        sweep_join_eps::<StripedSweep, _>(&left, &right, 0.5, |a, b| far.push((a.id, b.id)));
        assert!(far.is_empty());
    }

    #[test]
    fn side_other_flips() {
        assert_eq!(Side::Left.other(), Side::Right);
        assert_eq!(Side::Right.other(), Side::Left);
    }
}
