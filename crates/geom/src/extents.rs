//! What a set of rectangles measures along each axis.

use std::cmp::Ordering;

use crate::Rect;

/// Bounding box and summed side lengths of a set of rectangles: what is
/// needed to tell on which axis the set is relatively narrower.
///
/// PBSM builds its tile grids from it (a partition boundary should run where
/// the fewest rectangles cross it) and the in-memory batch sweeps take their
/// direction from it (a sweep line should move where the fewest rectangles
/// are alive at once); both ask [`Extents::cmp_x_to_y`].
#[derive(Debug, Clone, Copy)]
pub struct Extents {
    /// Union of the rectangles.
    pub bbox: Rect,
    /// Σ width.
    pub sum_w: f64,
    /// Σ height.
    pub sum_h: f64,
}

impl Extents {
    /// The extents of no rectangle at all.
    pub fn empty() -> Self {
        Extents {
            bbox: Rect::empty(),
            sum_w: 0.0,
            sum_h: 0.0,
        }
    }

    /// Folds in one rectangle.
    #[inline]
    pub fn add(&mut self, r: &Rect) {
        self.bbox = self.bbox.union(r);
        self.sum_w += f64::from(r.width());
        self.sum_h += f64::from(r.height());
    }

    /// The extents of both sets together.
    pub fn merged(mut self, other: &Extents) -> Extents {
        self.bbox = self.bbox.union(&other.bbox);
        self.sum_w += other.sum_w;
        self.sum_h += other.sum_h;
        self
    }

    /// The axis rule: `Σ width ÷ region width` against `Σ height ÷ region
    /// height`, cross-multiplied so nothing divides. `Less` says the
    /// rectangles are relatively narrower along x — cut, or sweep, along x;
    /// `Equal` (squares, a region flat on one axis) and `None` (an infinite
    /// sum against a zero side) are the caller's to break.
    #[inline]
    pub fn cmp_x_to_y(&self, region: &Rect) -> Option<Ordering> {
        let across = self.sum_w * f64::from(region.height());
        let along = self.sum_h * f64::from(region.width());
        across.partial_cmp(&along)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(rects: &[Rect]) -> Extents {
        let mut e = Extents::empty();
        rects.iter().for_each(|r| e.add(r));
        e
    }

    #[test]
    fn the_rule_is_relative_to_the_region() {
        let tall = Rect::from_coords(10.0, 0.0, 11.0, 40.0);
        let e = of(&[tall, tall]);
        assert_eq!(e.bbox, tall);
        assert_eq!((e.sum_w, e.sum_h), (2.0, 80.0));
        let square = Rect::from_coords(0.0, 0.0, 50.0, 50.0);
        assert_eq!(e.cmp_x_to_y(&square), Some(Ordering::Less));
        assert_eq!(
            of(&[tall.transposed()]).cmp_x_to_y(&square),
            Some(Ordering::Greater)
        );
        // 1/1 wide against 40/4000 tall: in this region x is the long side.
        let flat = Rect::from_coords(0.0, 0.0, 1.0, 4000.0);
        assert_eq!(e.cmp_x_to_y(&flat), Some(Ordering::Greater));
    }

    #[test]
    fn ties_and_the_incomparable_are_reported_as_such() {
        let sq = Rect::from_coords(0.0, 0.0, 2.0, 2.0);
        assert_eq!(of(&[sq]).cmp_x_to_y(&sq), Some(Ordering::Equal));
        assert_eq!(Extents::empty().cmp_x_to_y(&sq), Some(Ordering::Equal));
        // A region without extent on one axis ties at zero.
        let line = Rect::from_coords(0.0, 0.0, 5.0, 0.0);
        assert_eq!(of(&[line, line]).cmp_x_to_y(&line), Some(Ordering::Equal));
        // f32::MAX − (−f32::MAX) overflows to ∞, and ∞ × 0 does not compare.
        let huge = Rect::from_coords(-f32::MAX, 0.0, f32::MAX, 0.0);
        assert_eq!(of(&[huge]).cmp_x_to_y(&huge), None);
        // The empty bounding box has zero sides, not negative ones.
        assert_eq!(of(&[sq]).cmp_x_to_y(&Rect::empty()), Some(Ordering::Equal));
    }

    #[test]
    fn merging_is_folding_both() {
        let a = Rect::from_coords(0.0, 0.0, 1.0, 3.0);
        let b = Rect::from_coords(5.0, 5.0, 9.0, 6.0);
        let m = of(&[a]).merged(&of(&[b]));
        let both = of(&[a, b]);
        assert_eq!(
            (m.bbox, m.sum_w, m.sum_h),
            (both.bbox, both.sum_w, both.sum_h)
        );
        let alone = of(&[a]).merged(&Extents::empty());
        assert_eq!((alone.bbox, alone.sum_w), (a, 1.0));
    }
}
