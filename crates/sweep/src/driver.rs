//! The plane-sweep join driver: the one sweep loop of the workspace.
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
//! Who drives it:
//!
//! * [`sweep_join_in_place`] sorts two slices and pushes them through it —
//!   PBSM's fitting partitions, on their load buffers; [`sweep_join`] does
//!   the same over copies of two borrowed slices;
//! * the §4 multiway cascade pushes both of its sweeps through it;
//! * the [`SpillingSweepDriver`](crate::SpillingSweepDriver) holds one and
//!   runs its steps with the spill discipline in between — the sweep SSSJ
//!   and PQ reach through [`crate::merge_sweep`].
//!
//! ST joins node pairs with [`crate::batch_join_oriented`] instead, which
//! needs no structure at all.

use std::cmp::Ordering;

use usj_geom::{f32_order_key, sort_by_lower_y, Item};

use crate::structure::SweepStructure;

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

/// A streaming plane-sweep join over two y-sorted inputs: the crate's one
/// probe / insert / expire / statistics loop.
///
/// [`push`](SweepDriver::push) is the whole in-memory sweep. The spilling
/// driver holds a `SweepDriver<StripedSweep>` and drives the same steps one
/// at a time (`advance`, `expire`, `probe_insert`), with its spill
/// discipline between them.
#[derive(Debug)]
pub struct SweepDriver<S: SweepStructure> {
    pub(crate) left: S,
    pub(crate) right: S,
    pub(crate) stats: SweepJoinStats,
    /// The sweep line: the lower y of the last item pushed.
    pub(crate) last_y: f32,
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
    pub fn push<F: FnMut(&Item, &Item)>(&mut self, side: Side, item: Item, report: F) {
        let y = item.rect.lo.y;
        self.advance(y);
        self.expire([y, y]);
        self.probe_insert(side, item, report);
    }

    /// Moves the sweep line to `y`, which must not lie below it (asserted
    /// in debug builds).
    pub(crate) fn advance(&mut self, y: f32) {
        // The keyed sort's order: a NaN lower y sorts last.
        debug_assert!(
            f32_order_key(y) >= f32_order_key(self.last_y),
            "sweep inputs must be pushed in ascending lower-y order"
        );
        self.last_y = y;
    }

    /// Expires each structure before its cut, indexed by [`Side`].
    pub(crate) fn expire(&mut self, [left, right]: [f32; 2]) {
        self.left.expire_before(left);
        self.right.expire_before(right);
    }

    /// Probes the other side's structure with `item`, reporting each
    /// partner, inserts `item` into its own side's and notes the sizes.
    pub(crate) fn probe_insert<F: FnMut(&Item, &Item)>(
        &mut self,
        side: Side,
        item: Item,
        mut report: F,
    ) {
        match side {
            Side::Left => {
                self.right.query(&item, |other| report(&item, other));
                self.left.insert(item);
                self.stats.left_items += 1;
            }
            Side::Right => {
                self.left.query(&item, |other| report(other, &item));
                self.right.insert(item);
                self.stats.right_items += 1;
            }
        }
        let resident = self.left.len() + self.right.len();
        self.stats.max_structure_bytes = self.stats.max_structure_bytes.max(self.bytes());
        self.stats.max_resident = self.stats.max_resident.max(resident);
    }

    /// Current combined size of the two interval structures in bytes (the
    /// instantaneous figure behind `SweepJoinStats::max_structure_bytes`) —
    /// callers that own the driver can register it with a memory gauge.
    pub fn bytes(&self) -> usize {
        self.left.bytes() + self.right.bytes()
    }

    /// Final statistics (rectangle-test counts are pulled from the
    /// structures). The driver does not count pairs: its callers suppress
    /// duplicates (PBSM) or fan the output into further joins (the
    /// multiway cascade).
    pub fn finish(self) -> SweepJoinStats {
        let mut stats = self.stats;
        stats.rect_tests = self.left.stats().rect_tests + self.right.stats().rect_tests;
        stats
    }
}

/// Joins two in-memory slices, reporting intersecting `(left, right)` item
/// pairs to a callback.
///
/// The inputs may be in any order: the sweep runs over sorted copies (see
/// [`sweep_join_in_place`]). Returns the join statistics.
pub fn sweep_join<S, F>(left: &[Item], right: &[Item], report: F) -> SweepJoinStats
where
    S: SweepStructure,
    F: FnMut(&Item, &Item),
{
    sweep_join_in_place::<S, F>(&mut left.to_vec(), &mut right.to_vec(), report)
}

/// Sorts both slices by lower y in place and sweeps them against each
/// other over their joint x-extent, reporting every intersecting
/// `(left, right)` pair. Returns the join statistics, pairs counted.
///
/// PBSM sweeps its partition-load buffers with it, so a partition is
/// sorted where it was loaded instead of being copied first.
pub fn sweep_join_in_place<S, F>(
    left: &mut [Item],
    right: &mut [Item],
    mut report: F,
) -> SweepJoinStats
where
    S: SweepStructure,
    F: FnMut(&Item, &Item),
{
    sort_by_lower_y(left);
    sort_by_lower_y(right);
    let (mut x_lo, mut x_hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for it in left.iter().chain(right.iter()) {
        x_lo = x_lo.min(it.rect.lo.x);
        x_hi = x_hi.max(it.rect.hi.x);
    }
    if !x_lo.is_finite() || !x_hi.is_finite() {
        (x_lo, x_hi) = (0.0, 1.0);
    }

    let mut driver: SweepDriver<S> = SweepDriver::new(x_lo, x_hi);
    let (mut l, mut r) = (left.iter().peekable(), right.iter().peekable());
    let mut pairs = 0u64;
    let mut counted = |a: &Item, b: &Item| {
        pairs += 1;
        report(a, b);
    };
    loop {
        let side = match (l.peek(), r.peek()) {
            (Some(a), Some(b)) if a.cmp_by_lower_y(b) == Ordering::Greater => Side::Right,
            (Some(_), _) => Side::Left,
            (None, Some(_)) => Side::Right,
            (None, None) => break,
        };
        let next = match side {
            Side::Left => l.next(),
            Side::Right => r.next(),
        };
        driver.push(side, *next.expect("peeked above"), &mut counted);
    }
    let mut stats = driver.finish();
    stats.pairs = pairs;
    stats
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
        let a = vec![item(0.0, 0.0, 1.0, 1.0, 1), item(0.5, 0.5, 1.5, 1.5, 2)];
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
        let right = vec![item(0.5, 5.5, 0.6, 5.6, 10), item(0.5, 0.5, 0.6, 0.6, 11)];
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
    fn side_other_flips() {
        assert_eq!(Side::Left.other(), Side::Right);
        assert_eq!(Side::Right.other(), Side::Left);
    }
}
