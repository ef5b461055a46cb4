//! Join predicates, pluggable into every algorithm.
//!
//! The paper's filter step joins on MBR *intersection*. Real query engines
//! also ask for distance joins ("every hydrography feature within ε of a
//! road") and containment joins. Both reduce to the same plane-sweep
//! machinery:
//!
//! * [`Predicate::WithinDistance`] is implemented by **ε-expansion**: every
//!   left rectangle is grown by ε on all sides before it enters the sweep (or
//!   the R-tree traversal), so the ordinary intersection test then reports
//!   exactly the pairs whose Chebyshev (L∞) distance is at most ε. The
//!   expansion shifts every left sort key by the same constant, which
//!   preserves the sorted order the sweep relies on — this is why *all four*
//!   algorithms support the predicate without structural changes.
//! * [`Predicate::Contains`] is a **refinement** of intersection: the sweep
//!   reports intersecting candidates and the pair is emitted only when the
//!   left rectangle fully contains the right one. (Containment implies
//!   intersection, so no candidate is missed; the refinement must only be
//!   applied to data rectangles, never to directory rectangles.)

use usj_geom::{Item, Rect};

/// The pair-selection predicate of a spatial join.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Predicate {
    /// MBRs overlap (closed-rectangle semantics, the paper's filter step).
    #[default]
    Intersects,
    /// The Chebyshev (L∞) distance between the MBRs is at most ε — the
    /// rectangle-filter form of an ε-distance join. Negative values are
    /// treated as zero.
    WithinDistance(f32),
    /// The left MBR fully contains the right MBR (closed sense).
    Contains,
}

impl Predicate {
    /// The ε-expansion this predicate applies to the left input
    /// (zero for everything but [`Predicate::WithinDistance`]).
    #[inline]
    pub fn epsilon(&self) -> f32 {
        match self {
            Predicate::WithinDistance(eps) => eps.max(0.0),
            _ => 0.0,
        }
    }

    /// Expands a left-input item by the predicate's ε — a uniform shift of
    /// every left sort key, so a lower-y order survives it.
    #[inline]
    pub fn expand_left(&self, item: Item) -> Item {
        let eps = self.epsilon();
        if eps == 0.0 {
            item
        } else {
            Item::new(item.rect.expanded(eps), item.id)
        }
    }

    /// Expands a rectangle used to *prune against the left input's partners*
    /// (subtree pruning, traversal restriction) by the predicate's ε.
    #[inline]
    pub(crate) fn expand_rect(&self, rect: Rect) -> Rect {
        rect.expanded(self.epsilon())
    }

    /// Refines a candidate pair whose (possibly ε-expanded) left rectangle
    /// intersects the right rectangle. Returns `true` when the pair
    /// satisfies the predicate and must be emitted.
    #[inline]
    pub fn accepts(&self, left: &Rect, right: &Rect) -> bool {
        match self {
            // The sweep/traversal already established (expanded)
            // intersection, which *is* the predicate for these two.
            Predicate::Intersects | Predicate::WithinDistance(_) => true,
            Predicate::Contains => left.contains(right),
        }
    }

    /// Evaluates the predicate from scratch on two unexpanded rectangles
    /// (used by brute-force oracles and tests).
    pub fn matches(&self, left: &Rect, right: &Rect) -> bool {
        match self {
            Predicate::Intersects => left.intersects(right),
            Predicate::WithinDistance(_) => left.expanded(self.epsilon()).intersects(right),
            Predicate::Contains => left.contains(right),
        }
    }

    /// Short display name used in plans and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Predicate::Intersects => "intersects",
            Predicate::WithinDistance(_) => "within-distance",
            Predicate::Contains => "contains",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_is_zero_except_for_distance() {
        assert_eq!(Predicate::Intersects.epsilon(), 0.0);
        assert_eq!(Predicate::Contains.epsilon(), 0.0);
        assert_eq!(Predicate::WithinDistance(2.5).epsilon(), 2.5);
        assert_eq!(Predicate::WithinDistance(-1.0).epsilon(), 0.0);
    }

    #[test]
    fn matches_agrees_with_rectangle_semantics() {
        let a = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let b = Rect::from_coords(2.0, 0.0, 3.0, 1.0);
        let inner = Rect::from_coords(0.25, 0.25, 0.75, 0.75);
        assert!(!Predicate::Intersects.matches(&a, &b));
        assert!(Predicate::WithinDistance(1.0).matches(&a, &b));
        assert!(!Predicate::WithinDistance(0.5).matches(&a, &b));
        assert!(Predicate::Contains.matches(&a, &inner));
        assert!(!Predicate::Contains.matches(&inner, &a));
    }

    #[test]
    fn contains_refinement_only_accepts_contained_pairs() {
        let outer = Rect::from_coords(0.0, 0.0, 4.0, 4.0);
        let inner = Rect::from_coords(1.0, 1.0, 2.0, 2.0);
        let crossing = Rect::from_coords(3.0, 3.0, 5.0, 5.0);
        assert!(Predicate::Contains.accepts(&outer, &inner));
        assert!(!Predicate::Contains.accepts(&outer, &crossing));
        assert!(Predicate::Intersects.accepts(&outer, &crossing));
    }
}
