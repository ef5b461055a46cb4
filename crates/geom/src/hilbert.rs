//! Hilbert space-filling curve.
//!
//! The R-trees used in the paper's experiments are *packed* trees bulk-loaded
//! with the Hilbert heuristic of Kamel & Faloutsos: rectangles are sorted by
//! the Hilbert value of their centre point and then packed into leaves in that
//! order. The Hilbert curve preserves spatial locality far better than, e.g.,
//! row-major or Z-order sweeps, which is what gives the bulk-loaded tree its
//! good clustering (and, as Section 6.2 of the paper discusses, its largely
//! sequential on-disk layout).

/// Order of the discrete Hilbert curve: coordinates are quantised to
/// `2^HILBERT_ORDER` cells per axis.
pub const HILBERT_ORDER: u32 = 16;

/// Number of cells per axis of the discrete grid.
pub const HILBERT_SIDE: u32 = 1 << HILBERT_ORDER;

/// Maps discrete grid coordinates to their index along the Hilbert curve.
///
/// `x` and `y` must be smaller than [`HILBERT_SIDE`]. The returned value is in
/// `0 .. HILBERT_SIDE^2`.
pub fn xy_to_hilbert(x: u32, y: u32) -> u64 {
    xy_to_hilbert_on_side(HILBERT_SIDE, x, y)
}

/// [`xy_to_hilbert`] on a curve covering a `side` × `side` grid instead of
/// the full [`HILBERT_SIDE`] grid. `side` must be a power of two; `x` and `y`
/// must be smaller than `side`. The returned value is in `0 .. side^2`.
/// Coarse curves keep the tests' exhaustive checks small.
fn xy_to_hilbert_on_side(side: u32, mut x: u32, mut y: u32) -> u64 {
    debug_assert!(side.is_power_of_two());
    debug_assert!(x < side && y < side);
    let mut rx: u32;
    let mut ry: u32;
    let mut d: u64 = 0;
    let mut s: u32 = side / 2;
    while s > 0 {
        rx = u32::from((x & s) > 0);
        ry = u32::from((y & s) > 0);
        d += u64::from(s) * u64::from(s) * u64::from((3 * rx) ^ ry);
        // Rotate the quadrant (the forward transform rotates within the full
        // grid, hence side - 1 rather than s - 1).
        if ry == 0 {
            if rx == 1 {
                x = (side - 1).wrapping_sub(x);
                y = (side - 1).wrapping_sub(y);
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Inverse of [`xy_to_hilbert`]: maps a curve index back to grid coordinates.
pub fn hilbert_to_xy(mut d: u64) -> (u32, u32) {
    let mut x: u32 = 0;
    let mut y: u32 = 0;
    let mut rx: u32;
    let mut ry: u32;
    let mut s: u64 = 1;
    while s < u64::from(HILBERT_SIDE) {
        rx = 1 & (d / 2) as u32;
        ry = 1 & ((d as u32) ^ rx);
        // Rotate the quadrant.
        if ry == 0 {
            if rx == 1 {
                x = (s as u32).wrapping_sub(1).wrapping_sub(x);
                y = (s as u32).wrapping_sub(1).wrapping_sub(y);
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += (s as u32) * rx;
        y += (s as u32) * ry;
        d /= 4;
        s *= 2;
    }
    (x, y)
}

/// Quantises a floating-point coordinate inside `[lo, hi]` onto the discrete
/// Hilbert grid. Values outside the range are clamped.
#[inline]
pub fn quantize(v: f32, lo: f32, hi: f32) -> u32 {
    // Degenerate or NaN range: everything maps to cell 0.
    if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
        return 0;
    }
    let t = ((f64::from(v) - f64::from(lo)) / (f64::from(hi) - f64::from(lo))).clamp(0.0, 1.0);
    let cell = (t * f64::from(HILBERT_SIDE - 1)).round() as u32;
    cell.min(HILBERT_SIDE - 1)
}

/// Hilbert value of a point inside the bounding box `space`, used as the
/// bulk-loading sort key.
pub fn hilbert_value(x: f32, y: f32, space: &crate::Rect) -> u64 {
    let qx = quantize(x, space.lo.x, space.hi.x);
    let qy = quantize(y, space.lo.y, space.hi.y);
    xy_to_hilbert(qx, qy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rect;

    #[test]
    fn roundtrip_small_coordinates() {
        for x in 0..64u32 {
            for y in 0..64u32 {
                let d = xy_to_hilbert(x, y);
                assert_eq!(hilbert_to_xy(d), (x, y), "roundtrip failed for ({x},{y})");
            }
        }
    }

    #[test]
    fn coarse_curve_matches_the_reference_order() {
        // An order-3 (8x8) curve must be a bijection onto 0..64 and keep the
        // adjacency property.
        let mut seen = std::collections::HashSet::new();
        for x in 0..8u32 {
            for y in 0..8u32 {
                seen.insert(xy_to_hilbert_on_side(8, x, y));
            }
        }
        assert_eq!(seen.len(), 64);
        assert!(seen.iter().all(|&d| d < 64));
        // The full-resolution entry point agrees with the dedicated function.
        assert_eq!(xy_to_hilbert_on_side(HILBERT_SIDE, 123, 456), xy_to_hilbert(123, 456));
    }

    #[test]
    fn curve_is_a_bijection_on_a_small_grid() {
        // Exhaustively check that a 32x32 sub-grid maps to distinct indices.
        let mut seen = std::collections::HashSet::new();
        for x in 0..32u32 {
            for y in 0..32u32 {
                assert!(seen.insert(xy_to_hilbert(x, y)));
            }
        }
        assert_eq!(seen.len(), 32 * 32);
    }

    #[test]
    fn consecutive_indices_are_adjacent_cells() {
        // The defining property of the Hilbert curve: consecutive indices map
        // to grid cells at L1 distance exactly 1.
        for d in 0..4096u64 {
            let (x0, y0) = hilbert_to_xy(d);
            let (x1, y1) = hilbert_to_xy(d + 1);
            let dist = (i64::from(x0) - i64::from(x1)).abs() + (i64::from(y0) - i64::from(y1)).abs();
            assert_eq!(dist, 1, "indices {d} and {} are not adjacent", d + 1);
        }
    }

    #[test]
    fn quantize_clamps_and_spans_range() {
        assert_eq!(quantize(-10.0, 0.0, 1.0), 0);
        assert_eq!(quantize(10.0, 0.0, 1.0), HILBERT_SIDE - 1);
        assert_eq!(quantize(0.0, 0.0, 1.0), 0);
        assert_eq!(quantize(1.0, 0.0, 1.0), HILBERT_SIDE - 1);
        // Degenerate range does not panic.
        assert_eq!(quantize(5.0, 3.0, 3.0), 0);
    }

    #[test]
    fn hilbert_value_orders_nearby_points_together() {
        let space = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let a = hilbert_value(10.0, 10.0, &space);
        let b = hilbert_value(11.0, 10.0, &space);
        let far = hilbert_value(990.0, 990.0, &space);
        // Nearby points should be much closer on the curve than far-away ones.
        let near_gap = a.abs_diff(b);
        let far_gap = a.abs_diff(far);
        assert!(near_gap < far_gap);
    }
}
