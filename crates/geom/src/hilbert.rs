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
///
/// The curve is walked four levels at a time: a 4 × 256-entry table maps the
/// curve's orientation and the next four bits of `x` and of `y` to the next
/// eight bits of the index and the orientation of the sub-square they lead
/// into, so an order-16 key is four dependent table lookups.
#[inline]
pub fn xy_to_hilbert(x: u32, y: u32) -> u64 {
    debug_assert!(x < HILBERT_SIDE && y < HILBERT_SIDE);
    let mut d: u32 = 0;
    let mut state: usize = 0;
    let mut shift = HILBERT_ORDER;
    while shift > 0 {
        shift -= 4;
        let cell = ((((x >> shift) & 0xF) << 4) | ((y >> shift) & 0xF)) as usize;
        let step = HILBERT_TABLE[state | cell];
        d = (d << 8) | u32::from(step & 0xFF);
        state = usize::from(step) & 0x300;
    }
    u64::from(d)
}

// The table walks the curve four bits per axis at a time.
const _: () = assert!(HILBERT_ORDER % 4 == 0 && HILBERT_ORDER <= 16);

/// One step of [`xy_to_hilbert`], indexed by `state << 8 | x_nibble << 4 |
/// y_nibble`: the low byte is the step's eight index bits (most significant
/// first), bits 8–9 the state the next step starts in.
///
/// A state is how the remaining sub-square is oriented relative to the
/// grid: bit 0 says its axes are swapped, bit 1 that both are mirrored —
/// the two transforms the bit loop applies to `(x, y)` when it descends
/// into a lower quadrant. They commute and each is its own inverse, so the
/// orientation after any descent is the XOR of the transforms taken.
static HILBERT_TABLE: [u16; 4 * 256] = hilbert_table();

const fn hilbert_table() -> [u16; 4 * 256] {
    let mut table = [0u16; 4 * 256];
    let mut state = 0;
    while state < 4 {
        let mut cell = 0;
        while cell < 256 {
            let mut orient = state;
            let mut d = 0;
            let mut bit = 4;
            while bit > 0 {
                bit -= 1;
                let (mut rx, mut ry) = ((cell >> (4 + bit)) & 1, (cell >> bit) & 1);
                if orient & 1 != 0 {
                    (rx, ry) = (ry, rx);
                }
                if orient & 2 != 0 {
                    (rx, ry) = (rx ^ 1, ry ^ 1);
                }
                d = (d << 2) | ((3 * rx) ^ ry);
                if ry == 0 {
                    orient ^= 1 | (rx << 1);
                }
            }
            table[(state << 8) | cell] = (d | (orient << 8)) as u16;
            cell += 1;
        }
        state += 1;
    }
    table
}

/// The bit-at-a-time Hilbert walk on a `side` × `side` grid: the reference
/// [`xy_to_hilbert`]'s table is tested against. `side` must be a power of two;
/// `x` and `y` must be smaller than `side`. The returned value is in
/// `0 .. side^2`. Coarse curves keep the exhaustive checks small.
#[cfg(test)]
pub(crate) fn xy_to_hilbert_on_side(side: u32, mut x: u32, mut y: u32) -> u64 {
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
    // Round half away from zero without a library call: `scaled` is in
    // `[0, HILBERT_SIDE - 1]` or NaN, where the cast truncates (NaN to 0,
    // which no fraction then rounds up), and its fraction is exact.
    let scaled = t * f64::from(HILBERT_SIDE - 1);
    let whole = scaled as u32;
    let cell = whole + u32::from(scaled - f64::from(whole) >= 0.5);
    cell.min(HILBERT_SIDE - 1)
}

/// [`quantize`] rounding through `f64::round`: the reference its
/// truncate-and-fix-up rounding must agree with.
#[cfg(test)]
pub(crate) fn quantize_by_round(v: f32, lo: f32, hi: f32) -> u32 {
    if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
        return 0;
    }
    let t = ((f64::from(v) - f64::from(lo)) / (f64::from(hi) - f64::from(lo))).clamp(0.0, 1.0);
    ((t * f64::from(HILBERT_SIDE - 1)).round() as u32).min(HILBERT_SIDE - 1)
}

/// Hilbert value of a point inside the bounding box `space`, used as the
/// bulk-loading sort key.
#[inline]
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
        assert_eq!(
            xy_to_hilbert_on_side(HILBERT_SIDE, 123, 456),
            xy_to_hilbert(123, 456)
        );
    }

    #[test]
    fn the_table_walk_equals_the_bit_loop() {
        let check = |x: u32, y: u32| {
            assert_eq!(
                xy_to_hilbert(x, y),
                xy_to_hilbert_on_side(HILBERT_SIDE, x, y),
                "({x}, {y})"
            );
        };
        for x in 0..1 << 10 {
            for y in 0..1 << 10 {
                check(x, y);
            }
        }
        let last = HILBERT_SIDE - 1;
        for v in 0..HILBERT_SIDE {
            for (x, y) in [(v, 0), (v, last), (0, v), (last, v)] {
                check(x, y);
            }
        }
    }

    #[test]
    fn quantize_rounds_half_away_from_zero_at_every_cell_boundary() {
        let side = f64::from(HILBERT_SIDE - 1);
        let below = |v: f32| f32::from_bits(v.to_bits() - 1);
        let above = |v: f32| f32::from_bits(v.to_bits() + 1);
        let mut ties = 0;
        // Over [0, 65 535] the boundaries k + 1/2 are f32s, so most of them
        // scale to an exact tie.
        for (lo, hi) in [(0.0f32, 1.0f32), (-3.5, 1000.25), (0.0, 65_535.0)] {
            for k in 0..HILBERT_SIDE - 1 {
                // The f32 nearest the boundary between cells k and k + 1.
                let t = (f64::from(k) + 0.5) / side;
                let v = (f64::from(lo) + t * (f64::from(hi) - f64::from(lo))) as f32;
                for v in [below(v), v, above(v)] {
                    let t = (f64::from(v) - f64::from(lo)) / (f64::from(hi) - f64::from(lo));
                    ties += u32::from((t * side).fract() == 0.5);
                    let got = quantize(v, lo, hi);
                    assert_eq!(got, quantize_by_round(v, lo, hi), "{v} in [{lo}, {hi}]");
                    assert!(
                        got == k || got == k + 1,
                        "{v} in [{lo}, {hi}] is cell {got}"
                    );
                }
            }
        }
        assert!(ties > HILBERT_SIDE / 2, "only {ties} exact ties");
        assert_eq!(quantize(f32::NAN, 0.0, 1.0), 0);
        assert_eq!(quantize(0.5, f32::NAN, 1.0), 0);
        assert_eq!(quantize(f32::INFINITY, 0.0, 1.0), HILBERT_SIDE - 1);
        assert_eq!(quantize(f32::NEG_INFINITY, 0.0, 1.0), 0);
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
            let dist =
                (i64::from(x0) - i64::from(x1)).abs() + (i64::from(y0) - i64::from(y1)).abs();
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
