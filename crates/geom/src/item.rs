//! Identified MBR records — the 20-byte data-file layout of the paper.

use crate::{Point, Rect};

/// Object identifier carried through the filter step.
///
/// The paper's data files store a 4-byte identifier per MBR, and each output
/// item is a pair of identifiers of overlapping MBRs.
pub type ObjectId = u32;

/// Size in bytes of a serialized [`Item`]: four `f32` coordinates plus a
/// 4-byte identifier, exactly as in the TIGER MBR files used by the paper.
pub const ITEM_BYTES: usize = 20;

/// A minimal bounding rectangle together with the identifier of the spatial
/// object it approximates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Item {
    /// The object's MBR.
    pub rect: Rect,
    /// The object's identifier.
    pub id: ObjectId,
}

impl Item {
    /// Creates a new identified rectangle.
    #[inline]
    pub fn new(rect: Rect, id: ObjectId) -> Self {
        Item { rect, id }
    }

    /// Serializes the item into its fixed 20-byte little-endian layout.
    #[inline]
    pub fn encode(&self, out: &mut [u8]) {
        assert!(out.len() >= ITEM_BYTES, "output buffer too small for Item");
        out[0..4].copy_from_slice(&self.rect.lo.x.to_le_bytes());
        out[4..8].copy_from_slice(&self.rect.lo.y.to_le_bytes());
        out[8..12].copy_from_slice(&self.rect.hi.x.to_le_bytes());
        out[12..16].copy_from_slice(&self.rect.hi.y.to_le_bytes());
        out[16..20].copy_from_slice(&self.id.to_le_bytes());
    }

    /// Deserializes an item from its fixed 20-byte little-endian layout.
    #[inline]
    pub fn decode(buf: &[u8]) -> Self {
        assert!(buf.len() >= ITEM_BYTES, "input buffer too small for Item");
        let f = |i: usize| f32::from_le_bytes([buf[i], buf[i + 1], buf[i + 2], buf[i + 3]]);
        let id = u32::from_le_bytes([buf[16], buf[17], buf[18], buf[19]]);
        Item {
            rect: Rect {
                lo: Point::new(f(0), f(4)),
                hi: Point::new(f(8), f(12)),
            },
            id,
        }
    }

    /// The item with its rectangle [`transposed`](Rect::transposed).
    #[inline]
    pub fn transposed(&self) -> Item {
        Item::new(self.rect.transposed(), self.id)
    }

    /// Sweep order: by lower y-coordinate, ties broken deterministically.
    #[inline]
    pub fn cmp_by_lower_y(&self, other: &Item) -> std::cmp::Ordering {
        self.rect
            .cmp_by_lower_y(&other.rect)
            .then_with(|| self.id.cmp(&other.id))
    }

    /// Packed radix key of the sweep order: the order-preserving bit images
    /// of `lo.y` (high half) and `lo.x` (low half).
    ///
    /// Comparing two keys with a single branchless `u64` comparison is
    /// equivalent to comparing `(lo.y, lo.x)` lexicographically with
    /// [`ord_f32`](crate::rect::ord_f32) for every non-NaN coordinate (`-0.0` and
    /// `+0.0` map to the same key). The external sort precomputes this key
    /// once per record and falls back to the full [`Item::cmp_by_lower_y`]
    /// comparator only on key collisions, which removes the multi-field
    /// float-comparison chain from the hot sort loop.
    #[inline]
    pub fn sweep_key(&self) -> u64 {
        ((f32_order_key(self.rect.lo.y) as u64) << 32) | f32_order_key(self.rect.lo.x) as u64
    }
}

/// Order-preserving bit image of an `f32`: `f32_order_key(a) <
/// f32_order_key(b)` iff [`ord_f32`](crate::rect::ord_f32)`(a, b)` is
/// `Less` (with `-0.0 == +0.0`, and every NaN mapped to the maximum key —
/// equal to each other and above all numbers, exactly like `ord_f32`).
#[inline]
pub fn f32_order_key(x: f32) -> u32 {
    if x.is_nan() {
        // `ord_f32` treats all NaNs as equal and larger than any number;
        // mapping them to one maximal key keeps the keyed sorts consistent
        // with the comparators even for sign-bit NaNs.
        return u32::MAX;
    }
    // `x + 0.0` collapses -0.0 onto +0.0 so the key order matches the
    // `partial_cmp`-based comparators, which treat the two zeroes as equal.
    let bits = (x + 0.0).to_bits();
    if bits & 0x8000_0000 != 0 {
        !bits
    } else {
        bits | 0x8000_0000
    }
}

/// Inverse of [`f32_order_key`] up to what the key forgets: `-0.0` comes
/// back as `+0.0` and every NaN as the one canonical quiet NaN.
#[inline]
pub fn f32_from_order_key(key: u32) -> f32 {
    f32::from_bits(if key & 0x8000_0000 != 0 {
        key & 0x7FFF_FFFF
    } else {
        !key
    })
}

/// Sorts `v` by `(key, cmp)`: the `u64` key decides first and `cmp` breaks
/// key ties, so `cmp` must refine the key's order. The result is the one
/// `v.sort_unstable_by(|a, b| key(a).cmp(&key(b)).then_with(|| cmp(a, b)))`
/// gives, element for element, wherever `(key, cmp)` tells two elements
/// apart.
///
/// This is the one in-memory sort of the sweep order — run formation of the
/// external sort, PBSM's partitions, PQ's staged leaves, the memtable — and
/// of the Hilbert order. It never compares records while it sorts: each
/// element becomes one `u64` tag, the high half of its key above its index,
/// the tags are sorted natively, the records gathered in tag order, and only
/// groups that tie on the high half (for [`Item::sweep_key`]: equal `lo.y`)
/// go through `(key, cmp)`. A key that says nothing in its high half (a
/// 32-bit Hilbert value) is tagged by its low half instead, so only equal
/// keys are compared; a constant key sorts by `cmp` outright.
pub fn sort_by_key_then<T, K, F>(v: &mut [T], key: K, cmp: F)
where
    T: Copy,
    K: Fn(&T) -> u64,
    F: Fn(&T, &T) -> std::cmp::Ordering,
{
    let full = |a: &T, b: &T| key(a).cmp(&key(b)).then_with(|| cmp(a, b));
    // Already in order (a partition read back from a sorted run, a chunk
    // swept a second time): one pass that an unsorted input leaves at its
    // first descent.
    if v.windows(2)
        .all(|w| full(&w[0], &w[1]) != std::cmp::Ordering::Greater)
    {
        return;
    }
    let Some(first) = v.first().map(&key) else {
        return;
    };
    // The tag holds the half of the key that varies: the high half when it
    // does, the low half when only that one does.
    let differs = |half: u64| v.iter().any(|t| (key(t) ^ first) & half != 0);
    let shift = if u32::try_from(v.len()).is_err() {
        None
    } else if differs(!0xFFFF_FFFF) {
        Some(0)
    } else if differs(0xFFFF_FFFF) {
        Some(32)
    } else {
        None
    };
    let Some(shift) = shift else {
        v.sort_unstable_by(full);
        return;
    };
    let mut tags: Vec<u64> = v
        .iter()
        .zip(0u64..)
        .map(|(t, i)| ((key(t) << shift) & !0xFFFF_FFFF) | i)
        .collect();
    tags.sort_unstable();
    let mut sorted: Vec<T> = tags
        .iter()
        .map(|&t| v[(t & 0xFFFF_FFFF) as usize])
        .collect();
    let mut start = 0;
    while start < tags.len() {
        let group = tags[start] >> 32;
        let tied = tags[start..]
            .iter()
            .take_while(|&&t| t >> 32 == group)
            .count();
        if tied > 1 {
            sorted[start..start + tied].sort_unstable_by(full);
        }
        start += tied;
    }
    v.copy_from_slice(&sorted);
}

/// Sorts a slice of items into sweep order: exactly the order of
/// [`Item::cmp_by_lower_y`], through [`sort_by_key_then`] on
/// [`Item::sweep_key`].
pub fn sort_by_lower_y(items: &mut [Item]) {
    sort_by_key_then(items, Item::sweep_key, Item::cmp_by_lower_y);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(x0: f32, y0: f32, x1: f32, y1: f32, id: u32) -> Item {
        Item::new(Rect::from_coords(x0, y0, x1, y1), id)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let it = item(1.25, -3.5, 7.75, 0.0, 0xDEAD_BEEF);
        let mut buf = [0u8; ITEM_BYTES];
        it.encode(&mut buf);
        assert_eq!(Item::decode(&buf), it);
    }

    #[test]
    fn encoded_size_matches_paper_record_size() {
        assert_eq!(ITEM_BYTES, 20);
    }

    #[test]
    #[should_panic(expected = "output buffer too small")]
    fn encode_rejects_short_buffer() {
        let it = item(0.0, 0.0, 1.0, 1.0, 1);
        let mut buf = [0u8; ITEM_BYTES - 1];
        it.encode(&mut buf);
    }

    #[test]
    fn sweep_key_orders_like_the_comparator() {
        let samples = [
            item(-5.5, -3.25, 0.0, 0.0, 1),
            item(0.0, -3.25, 1.0, 1.0, 2),
            item(-0.0, -3.25, 1.0, 1.0, 3), // -0.0 must collapse onto +0.0
            item(0.0, 0.0, 1.0, 1.0, 4),
            item(7.5, 0.0, 8.0, 1.0, 5),
            item(1e-20, 2.5e7, 1.0, 3.0e7, 6),
            item(f32::MAX, f32::MAX, f32::MAX, f32::MAX, 7),
        ];
        for a in &samples {
            for b in &samples {
                let by_key = a.sweep_key().cmp(&b.sweep_key());
                let by_cmp = a.rect.cmp_by_lower_y(&b.rect);
                if by_key != std::cmp::Ordering::Equal {
                    assert_eq!(by_key, by_cmp, "{a:?} vs {b:?}");
                } else {
                    // Key collision: lo.y and lo.x are order-equal, so the
                    // comparator must have fallen through its first two
                    // fields too.
                    assert_eq!(a.rect.lo.y, b.rect.lo.y);
                }
            }
        }
    }

    #[test]
    fn sweep_key_treats_all_nans_as_one_maximal_key() {
        let neg_nan = f32::from_bits(0xFFC0_0000);
        assert!(neg_nan.is_nan() && neg_nan.is_sign_negative());
        let a = Item::new(
            Rect {
                lo: crate::Point::new(0.0, neg_nan),
                hi: crate::Point::new(1.0, f32::NAN),
            },
            1,
        );
        let b = item(0.0, f32::MAX, 1.0, f32::MAX, 2);
        let c = Item::new(
            Rect {
                lo: crate::Point::new(0.0, f32::NAN),
                hi: crate::Point::new(1.0, f32::NAN),
            },
            3,
        );
        // Both NaN signs share the maximal key, above every number — the
        // same order ord_f32 gives the comparator-based sorts.
        assert_eq!(a.sweep_key() >> 32, u64::from(u32::MAX));
        assert_eq!(a.sweep_key() >> 32, c.sweep_key() >> 32);
        assert!(a.sweep_key() > b.sweep_key());
        assert_eq!(
            a.rect.cmp_by_lower_y(&b.rect),
            std::cmp::Ordering::Greater,
            "key order must agree with the comparator"
        );
    }

    #[test]
    fn sort_is_by_lower_y_then_stable_tiebreak() {
        let mut v = vec![
            item(0.0, 3.0, 1.0, 4.0, 1),
            item(0.0, 1.0, 1.0, 9.0, 2),
            item(5.0, 1.0, 6.0, 2.0, 3),
            item(0.0, 2.0, 1.0, 2.5, 4),
        ];
        sort_by_lower_y(&mut v);
        let ys: Vec<f32> = v.iter().map(|i| i.rect.lo.y).collect();
        assert_eq!(ys, vec![1.0, 1.0, 2.0, 3.0]);
        // Ties broken by lower x: item 2 (x=0) before item 3 (x=5).
        assert_eq!(v[0].id, 2);
        assert_eq!(v[1].id, 3);
    }

    #[test]
    fn order_key_round_trips_up_to_zero_sign_and_nan_payload() {
        for x in [
            -f32::MAX,
            -1.5,
            -1e-40,
            0.0,
            1e-40,
            2.5,
            f32::MAX,
            f32::INFINITY,
        ] {
            assert_eq!(f32_from_order_key(f32_order_key(x)), x);
        }
        assert_eq!(
            f32_from_order_key(f32_order_key(-0.0)).to_bits(),
            0.0f32.to_bits()
        );
        assert!(f32_from_order_key(f32_order_key(f32::NAN)).is_nan());
    }

    /// Coordinates that stress the keyed sort: ties on `lo.y`, both zeroes,
    /// NaNs of both signs, subnormals, the extremes.
    fn awkward_items() -> Vec<Item> {
        let ys = [
            0.0,
            -0.0,
            1.0,
            1.0,
            -1e-40,
            1e-40,
            f32::MAX,
            -f32::MAX,
            f32::NAN,
            f32::from_bits(0xFFC0_0000),
            3.5,
            1.0,
        ];
        let mut out = Vec::new();
        for (i, &y) in ys.iter().enumerate() {
            for (j, &x) in [2.0, -0.0, 0.0, 2.0].iter().enumerate() {
                let id = (i * 4 + j) as u32 ^ 0x15;
                out.push(Item::new(
                    Rect {
                        lo: crate::Point::new(x, y),
                        hi: crate::Point::new(x + (id % 3) as f32, y + (id % 2) as f32),
                    },
                    id,
                ));
            }
        }
        out
    }

    #[test]
    fn keyed_sort_gives_the_comparator_order_bit_for_bit() {
        let mut want = awkward_items();
        want.sort_by(Item::cmp_by_lower_y);
        let mut got = awkward_items();
        sort_by_lower_y(&mut got);
        let bits = |v: &[Item]| -> Vec<[u32; 5]> {
            v.iter()
                .map(|it| {
                    let [a, b, c, d] =
                        [it.rect.lo.x, it.rect.lo.y, it.rect.hi.x, it.rect.hi.y].map(f32::to_bits);
                    [a, b, c, d, it.id]
                })
                .collect()
        };
        // Distinct ids make the comparator a strict total order here, so the
        // unstable keyed sort and the stable comparator sort must agree.
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn keyed_sort_handles_keys_without_a_high_half_and_empty_input() {
        // A 32-bit key (a Hilbert value) ties on the high half everywhere and
        // is tagged by its low half; a constant key sorts by `cmp` outright.
        let mut v: Vec<Item> = awkward_items();
        v.retain(|it| !it.rect.lo.y.is_nan());
        let mut want = v.clone();
        want.sort_by(|a, b| (a.id % 7).cmp(&(b.id % 7)).then_with(|| a.id.cmp(&b.id)));
        sort_by_key_then(&mut v, |it| u64::from(it.id % 7), |a, b| a.id.cmp(&b.id));
        assert_eq!(v, want);
        want.sort_by(Item::cmp_by_lower_y);
        sort_by_key_then(&mut v, |_| 0, Item::cmp_by_lower_y);
        assert_eq!(v, want);
        sort_by_key_then(
            &mut [] as &mut [Item],
            Item::sweep_key,
            Item::cmp_by_lower_y,
        );
    }
}
