//! Property-based tests for the geometry primitives, on the in-tree
//! `usj_proptest` harness.

use usj_proptest::{forall, Gen};

use crate::{hilbert, Interval, Item, Point, Rect, ITEM_BYTES};

fn arb_rect(g: &mut Gen) -> Rect {
    let x = g.f32_in(-1000.0, 1000.0);
    let y = g.f32_in(-1000.0, 1000.0);
    let w = g.f32_in(0.0, 100.0);
    let h = g.f32_in(0.0, 100.0);
    Rect::from_coords(x, y, x + w, y + h)
}

fn arb_item(g: &mut Gen) -> Item {
    let r = arb_rect(g);
    Item::new(r, g.u32())
}

#[test]
fn rect_intersection_is_symmetric() {
    forall!(256, |g| {
        let (a, b) = (arb_rect(g), arb_rect(g));
        assert_eq!(a.intersects(&b), b.intersects(&a));
    });
}

#[test]
fn rect_intersects_iff_both_projections_overlap() {
    forall!(256, |g| {
        let (a, b) = (arb_rect(g), arb_rect(g));
        let expected =
            a.x_interval().overlaps(&b.x_interval()) && a.y_interval().overlaps(&b.y_interval());
        assert_eq!(a.intersects(&b), expected);
    });
}

#[test]
fn rect_union_contains_both() {
    forall!(256, |g| {
        let (a, b) = (arb_rect(g), arb_rect(g));
        let u = a.union(&b);
        assert!(u.contains(&a));
        assert!(u.contains(&b));
    });
}

#[test]
fn rect_intersection_contained_in_both() {
    forall!(256, |g| {
        let (a, b) = (arb_rect(g), arb_rect(g));
        if let Some(i) = a.intersection(&b) {
            assert!(a.contains(&i));
            assert!(b.contains(&i));
            assert!(a.intersects(&b));
        } else {
            assert!(!a.intersects(&b));
        }
    });
}

#[test]
fn rect_enlargement_is_nonnegative() {
    forall!(256, |g| {
        let (a, b) = (arb_rect(g), arb_rect(g));
        assert!(a.enlargement(&b) >= -1e-3);
    });
}

#[test]
fn rect_every_rect_intersects_itself() {
    forall!(256, |g| {
        let a = arb_rect(g);
        assert!(a.intersects(&a));
        assert!(a.contains(&a));
        assert!(a.contains_point(a.center()));
    });
}

#[test]
fn transposed_is_an_involution() {
    forall!(256, |g| {
        let it = arb_item(g);
        assert_eq!(it.transposed().transposed(), it);
        assert_eq!(it.transposed().id, it.id);
        let t = it.rect.transposed();
        assert_eq!((t.width(), t.height()), (it.rect.height(), it.rect.width()));
    });
}

#[test]
fn transposed_commutes_with_the_predicates_and_the_expansion() {
    forall!(256, |g| {
        let (a, b) = (arb_rect(g), arb_rect(g));
        let (ta, tb) = (a.transposed(), b.transposed());
        assert_eq!(ta.intersects(&tb), a.intersects(&b));
        assert_eq!(ta.contains(&tb), a.contains(&b));
        // A rectangle inside `a`, so containment is exercised both ways.
        let inner = a.intersection(&b).unwrap_or(a);
        assert!(ta.contains(&inner.transposed()));
        let eps = g.f32_in(0.0, 50.0);
        assert_eq!(a.expanded(eps).transposed(), ta.expanded(eps));
        assert_eq!(
            a.intersection(&b).map(|i| i.transposed()),
            ta.intersection(&tb)
        );
        assert_eq!(a.union(&b).transposed(), ta.union(&tb));
    });
}

#[test]
fn interval_overlap_matches_naive() {
    forall!(256, |g| {
        let a = g.f32_in(-100.0, 100.0);
        let la = g.f32_in(0.0, 50.0);
        let b = g.f32_in(-100.0, 100.0);
        let lb = g.f32_in(0.0, 50.0);
        let i1 = Interval::new(a, a + la);
        let i2 = Interval::new(b, b + lb);
        let naive = !(i1.hi < i2.lo || i2.hi < i1.lo);
        assert_eq!(i1.overlaps(&i2), naive);
    });
}

#[test]
fn item_encode_decode_roundtrip() {
    forall!(256, |g| {
        let it = arb_item(g);
        let mut buf = [0u8; ITEM_BYTES];
        it.encode(&mut buf);
        assert_eq!(Item::decode(&buf), it);
    });
}

#[test]
fn hilbert_roundtrip() {
    forall!(256, |g| {
        let x = g.u32_in(0, hilbert::HILBERT_SIDE);
        let y = g.u32_in(0, hilbert::HILBERT_SIDE);
        let d = hilbert::xy_to_hilbert(x, y);
        assert_eq!(hilbert::hilbert_to_xy(d), (x, y));
    });
}

#[test]
fn hilbert_table_walk_equals_the_bit_loop() {
    forall!(4096, |g| {
        let (x, y) = (
            g.u32() % hilbert::HILBERT_SIDE,
            g.u32() % hilbert::HILBERT_SIDE,
        );
        assert_eq!(
            hilbert::xy_to_hilbert(x, y),
            hilbert::xy_to_hilbert_on_side(hilbert::HILBERT_SIDE, x, y),
            "({x}, {y})"
        );
    });
}

#[test]
fn quantize_agrees_with_rounding_on_any_f32() {
    forall!(4096, |g| {
        let v = f32::from_bits(g.u32());
        let lo = g.f32_in(-1000.0, 1000.0);
        let hi = lo + g.f32_in(0.0, 2000.0);
        assert_eq!(
            hilbert::quantize(v, lo, hi),
            hilbert::quantize_by_round(v, lo, hi),
            "{v} in [{lo}, {hi}]"
        );
    });
}

#[test]
fn hilbert_value_is_deterministic() {
    forall!(256, |g| {
        let x = g.f32_in(-500.0, 500.0);
        let y = g.f32_in(-500.0, 500.0);
        let space = Rect::from_coords(-500.0, -500.0, 500.0, 500.0);
        assert_eq!(
            hilbert::hilbert_value(x, y, &space),
            hilbert::hilbert_value(x, y, &space)
        );
    });
}

#[test]
fn sort_by_lower_y_is_sorted() {
    forall!(128, |g| {
        let mut items = g.vec(0, 200, arb_item);
        crate::item::sort_by_lower_y(&mut items);
        for w in items.windows(2) {
            assert!(w[0].rect.lo.y <= w[1].rect.lo.y);
        }
    });
}

#[test]
fn point_min_max_bound() {
    forall!(256, |g| {
        let pa = Point::new(g.f32_in(-1e6, 1e6), g.f32_in(-1e6, 1e6));
        let pb = Point::new(g.f32_in(-1e6, 1e6), g.f32_in(-1e6, 1e6));
        let lo = pa.min(pb);
        let hi = pa.max(pb);
        assert!(lo.x <= hi.x && lo.y <= hi.y);
    });
}
