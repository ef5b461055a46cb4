//! Axis-parallel rectangles (minimal bounding rectangles).

use crate::{Interval, Point};

/// An axis-parallel rectangle, the MBR approximation used by the filter step.
///
/// A rectangle is stored as its lower-left (`lo`) and upper-right (`hi`)
/// corners. Degenerate rectangles (zero width and/or height) are allowed —
/// points and horizontal/vertical segments occur frequently in the TIGER data
/// the paper evaluates on.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rect {
    /// Lower-left corner.
    pub lo: Point,
    /// Upper-right corner.
    pub hi: Point,
}

impl Rect {
    /// Creates a rectangle from its lower-left and upper-right corners.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the corners are not ordered
    /// (`lo.x <= hi.x && lo.y <= hi.y`).
    #[inline]
    pub fn new(lo: Point, hi: Point) -> Self {
        debug_assert!(
            lo.x <= hi.x && lo.y <= hi.y,
            "rectangle corners out of order"
        );
        Rect { lo, hi }
    }

    /// Creates a rectangle from raw coordinates `(x_lo, y_lo, x_hi, y_hi)`.
    #[inline]
    pub fn from_coords(x_lo: f32, y_lo: f32, x_hi: f32, y_hi: f32) -> Self {
        Rect::new(Point::new(x_lo, y_lo), Point::new(x_hi, y_hi))
    }

    /// Creates a rectangle from two arbitrary corner points, ordering them.
    #[inline]
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect::new(a.min(b), a.max(b))
    }

    /// A degenerate rectangle containing a single point.
    #[inline]
    pub fn point(p: Point) -> Self {
        Rect::new(p, p)
    }

    /// An "empty" rectangle that behaves as the identity for [`Rect::union`].
    ///
    /// It intersects nothing and unions to the other operand.
    #[inline]
    pub fn empty() -> Self {
        Rect {
            lo: Point::new(f32::INFINITY, f32::INFINITY),
            hi: Point::new(f32::NEG_INFINITY, f32::NEG_INFINITY),
        }
    }

    /// Returns `true` if this is the [`Rect::empty`] identity rectangle.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo.x > self.hi.x || self.lo.y > self.hi.y
    }

    /// Width of the rectangle along the x-axis.
    #[inline]
    pub fn width(&self) -> f32 {
        (self.hi.x - self.lo.x).max(0.0)
    }

    /// Height of the rectangle along the y-axis.
    #[inline]
    pub fn height(&self) -> f32 {
        (self.hi.y - self.lo.y).max(0.0)
    }

    /// Area of the rectangle (computed in `f64` to limit rounding error).
    #[inline]
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            f64::from(self.width()) * f64::from(self.height())
        }
    }

    /// Centre point of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.lo.x + self.hi.x) * 0.5, (self.lo.y + self.hi.y) * 0.5)
    }

    /// The *intersect* predicate used by the spatial overlay join.
    ///
    /// Rectangles that merely touch (share a boundary point) are considered
    /// intersecting, matching the closed-rectangle semantics of the paper's
    /// filter step.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.lo.x <= other.hi.x
            && other.lo.x <= self.hi.x
            && self.lo.y <= other.hi.y
            && other.lo.y <= self.hi.y
    }

    /// Returns `true` if `other` is fully contained in `self` (closed sense).
    #[inline]
    pub fn contains(&self, other: &Rect) -> bool {
        self.lo.x <= other.lo.x
            && self.lo.y <= other.lo.y
            && self.hi.x >= other.hi.x
            && self.hi.y >= other.hi.y
    }

    /// Returns `true` if the point `p` lies inside the rectangle (closed sense).
    #[inline]
    pub fn contains_point(&self, p: Point) -> bool {
        self.lo.x <= p.x && p.x <= self.hi.x && self.lo.y <= p.y && p.y <= self.hi.y
    }

    /// Smallest rectangle containing both operands.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Intersection of the two rectangles, or `None` if they are disjoint.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        })
    }

    /// The rectangle grown by `eps` on every side (Minkowski sum with a
    /// `2eps × 2eps` square).
    ///
    /// This is the ε-expansion used by the distance join: two rectangles are
    /// within Chebyshev (L∞) distance `eps` of each other exactly when one of
    /// them, expanded by `eps`, intersects the other. Expanding with
    /// `eps == 0.0` returns the rectangle unchanged; empty rectangles stay
    /// empty for small `eps`.
    #[inline]
    pub fn expanded(&self, eps: f32) -> Rect {
        if eps == 0.0 {
            return *self;
        }
        Rect {
            lo: Point::new(self.lo.x - eps, self.lo.y - eps),
            hi: Point::new(self.hi.x + eps, self.hi.y + eps),
        }
    }

    /// The rectangle mirrored at the diagonal: x and y swapped in both
    /// corners. An involution that commutes with every predicate and
    /// operation of this type, which is what lets a y-sweep run along x:
    /// transpose the inputs, sweep, transpose what comes out.
    #[inline]
    pub fn transposed(&self) -> Rect {
        Rect {
            lo: Point::new(self.lo.y, self.lo.x),
            hi: Point::new(self.hi.y, self.hi.x),
        }
    }

    /// Area increase caused by enlarging `self` to also cover `other`.
    ///
    /// Used by the bulk-loading packing heuristic ("include additional
    /// rectangles only if they do not increase the area already covered by
    /// the node by more than 20 %").
    #[inline]
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Projection of the rectangle onto the x-axis.
    #[inline]
    pub fn x_interval(&self) -> Interval {
        Interval::new(self.lo.x, self.hi.x)
    }

    /// Projection of the rectangle onto the y-axis.
    #[inline]
    pub fn y_interval(&self) -> Interval {
        Interval::new(self.lo.y, self.hi.y)
    }

    /// Total-order comparison by lower y-coordinate, breaking ties by lower x
    /// and then by the upper corner.
    ///
    /// This is the ordering of the plane sweep: both SSSJ and PQ consume their
    /// inputs sorted by the lower y-coordinate of each MBR.
    #[inline]
    pub fn cmp_by_lower_y(&self, other: &Rect) -> std::cmp::Ordering {
        ord_f32(self.lo.y, other.lo.y)
            .then_with(|| ord_f32(self.lo.x, other.lo.x))
            .then_with(|| ord_f32(self.hi.y, other.hi.y))
            .then_with(|| ord_f32(self.hi.x, other.hi.x))
    }
}

/// Total order on `f32` values that treats all NaNs as equal and larger than
/// any number. The workloads never produce NaNs, but the sort must still be a
/// total order to satisfy `sort_by`'s contract.
#[inline]
pub fn ord_f32(a: f32, b: f32) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| {
        if a.is_nan() && b.is_nan() {
            std::cmp::Ordering::Equal
        } else if a.is_nan() {
            std::cmp::Ordering::Greater
        } else {
            std::cmp::Ordering::Less
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f32, y0: f32, x1: f32, y1: f32) -> Rect {
        Rect::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn intersects_basic_overlap() {
        assert!(r(0.0, 0.0, 2.0, 2.0).intersects(&r(1.0, 1.0, 3.0, 3.0)));
        assert!(!r(0.0, 0.0, 1.0, 1.0).intersects(&r(2.0, 2.0, 3.0, 3.0)));
    }

    #[test]
    fn intersects_is_symmetric() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(-1.0, 1.0, 0.5, 5.0);
        assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    #[test]
    fn touching_rectangles_intersect() {
        // Shared edge.
        assert!(r(0.0, 0.0, 1.0, 1.0).intersects(&r(1.0, 0.0, 2.0, 1.0)));
        // Shared corner.
        assert!(r(0.0, 0.0, 1.0, 1.0).intersects(&r(1.0, 1.0, 2.0, 2.0)));
    }

    #[test]
    fn containment_implies_intersection() {
        let outer = r(0.0, 0.0, 10.0, 10.0);
        let inner = r(2.0, 2.0, 3.0, 3.0);
        assert!(outer.contains(&inner));
        assert!(outer.intersects(&inner));
        assert!(!inner.contains(&outer));
    }

    #[test]
    fn degenerate_rectangles() {
        let p = Rect::point(Point::new(1.0, 1.0));
        assert_eq!(p.area(), 0.0);
        assert!(p.intersects(&r(0.0, 0.0, 2.0, 2.0)));
        assert!(p.intersects(&p));
        let seg = r(0.0, 1.0, 5.0, 1.0); // horizontal segment
        assert!(seg.intersects(&r(2.0, 0.0, 3.0, 2.0)));
    }

    #[test]
    fn union_covers_both() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains(&a));
        assert!(u.contains(&b));
        assert_eq!(u, r(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(a.union(&Rect::empty()), a);
        assert_eq!(Rect::empty().union(&a), a);
        assert!(Rect::empty().is_empty());
        assert!(!Rect::empty().intersects(&a));
    }

    #[test]
    fn intersection_matches_predicate() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.intersection(&b), Some(r(1.0, 1.0, 2.0, 2.0)));
        assert_eq!(a.intersection(&r(5.0, 5.0, 6.0, 6.0)), None);
    }

    #[test]
    fn area_and_enlargement() {
        let a = r(0.0, 0.0, 2.0, 3.0);
        assert_eq!(a.area(), 6.0);
        let b = r(2.0, 0.0, 4.0, 3.0);
        assert_eq!(a.enlargement(&b), 6.0);
        assert_eq!(a.enlargement(&r(0.5, 0.5, 1.0, 1.0)), 0.0);
    }

    #[test]
    fn center_is_inside() {
        let a = r(-2.0, 1.0, 4.0, 9.0);
        assert!(a.contains_point(a.center()));
        assert_eq!(a.center(), Point::new(1.0, 5.0));
    }

    #[test]
    fn lower_y_ordering() {
        let a = r(0.0, 1.0, 1.0, 2.0);
        let b = r(0.0, 2.0, 1.0, 3.0);
        assert_eq!(a.cmp_by_lower_y(&b), std::cmp::Ordering::Less);
        assert_eq!(b.cmp_by_lower_y(&a), std::cmp::Ordering::Greater);
        assert_eq!(a.cmp_by_lower_y(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn transposed_swaps_the_axes_of_both_corners() {
        let a = r(1.0, 2.0, 3.0, 7.0);
        assert_eq!(a.transposed(), r(2.0, 1.0, 7.0, 3.0));
        assert_eq!(a.transposed().transposed(), a);
        assert_eq!(
            (a.transposed().width(), a.transposed().height()),
            (5.0, 2.0)
        );
        assert!(Rect::empty().transposed().is_empty());
    }

    #[test]
    fn interval_projections() {
        let a = r(1.0, 2.0, 3.0, 4.0);
        assert_eq!(a.x_interval(), Interval::new(1.0, 3.0));
        assert_eq!(a.y_interval(), Interval::new(2.0, 4.0));
    }
}
