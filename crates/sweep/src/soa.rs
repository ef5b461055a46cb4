//! Shared building blocks of the struct-of-arrays interval structures.
//!
//! Both [`ForwardSweep`](crate::ForwardSweep) and
//! [`StripedSweep`](crate::StripedSweep) keep their resident sets in a
//! [`SoaBuf`]: blocks of [`LANES`] entries, each block five short parallel
//! arrays (`x_lo`, `x_hi`, `y_hi`, `y_lo`, `id`), all blocks of a buffer in
//! **one allocation**. The interval-overlap scan touches three packed `f32`
//! runs per block with a branch-light comparison the compiler unrolls and
//! vectorizes; a strip of the striped sweep — a few blocks — is one
//! contiguous piece of memory, so a push writes one place, not five, and a
//! whole-structure compaction walks one header per strip.
//!
//! Expiration is *lazy*: passing the sweep line over an item's upper edge
//! only pops its entry from an [`ExpiryHeap`] (exact counters, `O(log n)`)
//! and leaves the array entry behind as a tombstone that scans skip with a
//! single `y_hi >= cut` comparison. Tombstones are reclaimed in batches by
//! [`SoaBuf::compact`] once their density crosses a threshold, so no push
//! pays an `O(n)` `retain` while every reported pair and every counter
//! stays what an eager list would give.

use usj_geom::{f32_from_order_key, f32_order_key, Item, Point, Rect};

/// Entries per block: two SSE registers (one AVX register) per coordinate.
const LANES: usize = 8;

/// [`LANES`] entries in struct-of-arrays form. Unused lanes of a buffer's
/// last block hold a NaN upper edge, which no tombstone test `y_hi >= cut`
/// accepts, so scans need no tail handling.
#[derive(Debug, Clone, Copy)]
struct Block {
    x_lo: [f32; LANES],
    x_hi: [f32; LANES],
    y_hi: [f32; LANES],
    y_lo: [f32; LANES],
    id: [u32; LANES],
}

impl Block {
    const EMPTY: Block = Block {
        x_lo: [0.0; LANES],
        x_hi: [0.0; LANES],
        y_hi: [f32::NAN; LANES],
        y_lo: [0.0; LANES],
        id: [0; LANES],
    };
}

/// Struct-of-arrays storage for one resident set (or one strip of it).
///
/// Entries are append-only between [`SoaBuf::compact`] calls; logical
/// deletion is the caller's `y_hi < cut` tombstone test.
#[derive(Debug, Default, Clone)]
pub(crate) struct SoaBuf {
    blocks: Vec<Block>,
    /// Physical entries (live + tombstoned): the blocks before the last are
    /// full, the last holds the remainder.
    len: usize,
}

impl SoaBuf {
    /// Number of physical entries (live + tombstoned).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Appends one item.
    #[inline]
    pub fn push(&mut self, item: &Item) {
        let lane = self.len % LANES;
        if lane == 0 {
            self.blocks.push(Block::EMPTY);
        }
        self.set(self.len, item);
        self.len += 1;
    }

    /// Overwrites the entry at index `i` (inside an existing block).
    #[inline]
    fn set(&mut self, i: usize, item: &Item) {
        let (b, l) = (&mut self.blocks[i / LANES], i % LANES);
        b.x_lo[l] = item.rect.lo.x;
        b.x_hi[l] = item.rect.hi.x;
        b.y_hi[l] = item.rect.hi.y;
        b.y_lo[l] = item.rect.lo.y;
        b.id[l] = item.id;
    }

    /// Lower x-coordinate of the entry at index `i`.
    #[inline]
    pub fn x_lo(&self, i: usize) -> f32 {
        self.blocks[i / LANES].x_lo[i % LANES]
    }

    /// Upper y-coordinate (the expiry position) of the entry at index `i`.
    #[inline]
    pub fn y_hi(&self, i: usize) -> f32 {
        self.blocks[i / LANES].y_hi[i % LANES]
    }

    /// Reconstructs the full item stored at index `i` — as it was pushed,
    /// whatever its corners look like (a compaction moves NaN ones too).
    #[inline]
    pub fn item(&self, i: usize) -> Item {
        let (b, l) = (&self.blocks[i / LANES], i % LANES);
        let rect = Rect {
            lo: Point::new(b.x_lo[l], b.y_lo[l]),
            hi: Point::new(b.x_hi[l], b.y_hi[l]),
        };
        Item::new(rect, b.id[l])
    }

    /// Scans the buffer for live entries whose x-projection overlaps
    /// `[q_lo, q_hi]`, invoking `on_hit` with the index of each match (in
    /// insertion order) and returning the number of live entries tested.
    ///
    /// Per block the scan runs in two passes: a side-effect-free counting
    /// pass whose boolean-sum reductions over the fixed-width lanes the
    /// compiler turns into packed float compares, and — only when the count
    /// found something — a scalar locate pass over that block. Most sweep
    /// queries hit little or nothing, so the callback and all per-hit work
    /// stay out of the hot loop.
    #[inline]
    pub fn scan_overlaps(
        &self,
        cut: f32,
        q_lo: f32,
        q_hi: f32,
        mut on_hit: impl FnMut(usize),
    ) -> u64 {
        let mut live_n = 0u32;
        for (k, b) in self.blocks.iter().enumerate() {
            let mut hit_n = 0u32;
            for j in 0..LANES {
                let live = (b.y_hi[j] >= cut) as u32;
                live_n += live;
                hit_n += live & (b.x_lo[j] <= q_hi) as u32 & (q_lo <= b.x_hi[j]) as u32;
            }
            if hit_n > 0 {
                for j in 0..LANES {
                    if b.y_hi[j] >= cut && b.x_lo[j] <= q_hi && q_lo <= b.x_hi[j] {
                        on_hit(k * LANES + j);
                    }
                }
            }
        }
        u64::from(live_n)
    }

    /// Drops every entry with `y_hi < cut` (the tombstones), preserving the
    /// order of the survivors. Returns the number of surviving entries.
    ///
    /// This is [`SoaBuf::retain_indexed`] on the tombstone test, written out
    /// per block and branch-free per lane because it is the one retain on
    /// the sweep's hot path (4 % of the striped kernel against the generic
    /// form): at the density that triggers a compaction every other entry
    /// is a tombstone, which no branch predictor follows, so each lane is
    /// *written* to the next free slot whatever it holds, and the slot only
    /// advances past it if it was alive.
    pub fn compact(&mut self, cut: f32) -> usize {
        let mut w = 0;
        for k in 0..self.blocks.len() {
            let from = self.blocks[k];
            for l in 0..LANES {
                let (to, tl) = (&mut self.blocks[w / LANES], w % LANES);
                to.x_lo[tl] = from.x_lo[l];
                to.x_hi[tl] = from.x_hi[l];
                to.y_hi[tl] = from.y_hi[l];
                to.y_lo[tl] = from.y_lo[l];
                to.id[tl] = from.id[l];
                w += (from.y_hi[l] >= cut) as usize;
            }
        }
        self.truncate(w);
        w
    }

    /// Keeps the entries for which `keep` returns `true`, preserving order.
    /// `keep` receives the entry index and may inspect the entry through the
    /// provided buffer reference before it is overwritten.
    pub fn retain_indexed(&mut self, mut keep: impl FnMut(&SoaBuf, usize) -> bool) {
        let mut w = 0;
        for r in 0..self.len {
            if keep(&*self, r) {
                if w != r {
                    let item = self.item(r);
                    self.set(w, &item);
                }
                w += 1;
            }
        }
        self.truncate(w);
    }

    /// Drops every entry from index `len` on.
    fn truncate(&mut self, len: usize) {
        self.blocks.truncate(len.div_ceil(LANES));
        if let Some(last) = self.blocks.last_mut() {
            // Lanes past the end must not look live.
            for lane in len - (len - 1) / LANES * LANES..LANES {
                last.y_hi[lane] = f32::NAN;
            }
        }
        self.len = len;
    }
}

/// One live resident item as seen by the expiry bookkeeping: its expiry
/// position and how many strip copies it occupies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExpiryEntry {
    /// Upper y-coordinate — the sweep position at which the item expires.
    pub y: f32,
    /// Physical array entries the item occupies (1 for the forward sweep,
    /// the strip-overlap count for the striped sweep).
    pub copies: u32,
}

impl ExpiryEntry {
    /// The entry as one order-preserving `u64`: the bit image of `y`
    /// ([`f32_order_key`], the key [`Item::sweep_key`] is built from) above
    /// the copy count.
    #[inline]
    fn pack(self) -> u64 {
        u64::from(f32_order_key(self.y)) << 32 | u64::from(self.copies)
    }

    #[inline]
    fn unpack(packed: u64) -> ExpiryEntry {
        ExpiryEntry {
            y: packed_y(packed),
            copies: packed as u32,
        }
    }
}

/// Expiry position of a packed entry (`-0.0` reads back as `+0.0`, which no
/// comparison tells apart).
#[inline]
fn packed_y(packed: u64) -> f32 {
    f32_from_order_key((packed >> 32) as u32)
}

/// The expiry queue: a binary min-heap over the expiry positions of the live
/// resident items, one packed `u64` per item.
///
/// **Contract.** One entry per unique resident item, 8 bytes each
/// ([`ExpiryHeap::bytes`]). `len()` is the exact live resident count after
/// every operation; [`ExpiryHeap::pop_if`] hands out entries in ascending
/// expiry position (ties in ascending copy count), each with the copy count
/// it was pushed with, so callers that sum them keep an exact live-copy
/// total without ever scanning their arrays. The predicate sees the expiry
/// position as the `f32` it was pushed as — up to the sign of zero — so
/// `y < cut` means here what it means to the scans' tombstone test. A NaN
/// position sorts above every number and fails every comparison: such an
/// entry is never popped.
///
/// **Body.** Pops are the per-item fixed cost of lazy expiration, so their
/// constant matters. Entries compare as plain integers — no float
/// comparison, no second field — and a pop sifts *bottom-up*: the hole left
/// by the minimum walks down the smaller-child path to a leaf with one
/// branch-free comparison per level, then the displaced last entry climbs
/// back from there, which it rarely does by more than a level because it
/// came from the bottom of the heap in the first place.
#[derive(Debug, Default)]
pub(crate) struct ExpiryHeap {
    entries: Vec<u64>,
}

impl ExpiryHeap {
    /// Number of live resident items.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Bytes occupied by the bookkeeping entries.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<u64>()
    }

    /// Pushes one live item.
    #[inline]
    pub fn push(&mut self, y: f32, copies: u32) {
        let e = ExpiryEntry { y, copies }.pack();
        self.entries.push(e);
        let hole = self.entries.len() - 1;
        self.sift_up(hole, e, 0);
    }

    /// Moves `e` from the hole at `hole` towards `top` (the root of the
    /// subtree it may climb in) until its parent is no larger, and writes it
    /// there (one final write).
    #[inline]
    fn sift_up(&mut self, mut hole: usize, e: u64, top: usize) {
        while hole > top {
            let parent = (hole - 1) / 2;
            if e >= self.entries[parent] {
                break;
            }
            self.entries[hole] = self.entries[parent];
            hole = parent;
        }
        self.entries[hole] = e;
    }

    /// Refills the hole at `hole` from below: the smaller child moves up,
    /// level by level, until the hole is a leaf; `e` then climbs from there.
    #[inline]
    fn sift_down_bottom_up(&mut self, mut hole: usize, e: u64) {
        let n = self.entries.len();
        let top = hole;
        let mut child = 2 * hole + 1;
        while child + 1 < n {
            child += (self.entries[child + 1] < self.entries[child]) as usize;
            self.entries[hole] = self.entries[child];
            hole = child;
            child = 2 * hole + 1;
        }
        if child < n {
            self.entries[hole] = self.entries[child];
            hole = child;
        }
        self.sift_up(hole, e, top);
    }

    /// Pops the soonest-expiring entry if `pred` accepts its expiry position.
    #[inline]
    pub fn pop_if(&mut self, pred: impl Fn(f32) -> bool) -> Option<ExpiryEntry> {
        let top = *self.entries.first()?;
        if !pred(packed_y(top)) {
            return None;
        }
        let last = self.entries.pop().expect("non-empty: it has a top");
        if !self.entries.is_empty() {
            self.sift_down_bottom_up(0, last);
        }
        Some(ExpiryEntry::unpack(top))
    }

    /// Appends every live expiry position to `out` (one per unique item, in
    /// heap order — callers that need an order must sort or select).
    pub fn expiries_into(&self, out: &mut Vec<f32>) {
        out.extend(self.entries.iter().map(|&e| packed_y(e)));
    }

    /// Replaces the heap contents with `entries` and restores the heap
    /// property in `O(n)` (used when a strip-layout rebuild changes every
    /// item's copy count).
    pub fn rebuild(&mut self, entries: impl Iterator<Item = ExpiryEntry>) {
        self.entries.clear();
        self.entries.extend(entries.map(ExpiryEntry::pack));
        for start in (0..self.entries.len() / 2).rev() {
            let e = self.entries[start];
            self.sift_down_bottom_up(start, e);
        }
    }
}

/// The 4-ary `f32` min-heap the expiry queue replaced, kept as the oracle
/// of the unit and property tests: same pushes, same cuts, and the packed
/// heap must pop the same expiry positions with the same copy sums.
#[cfg(test)]
pub(crate) mod oracle {
    use super::ExpiryEntry;

    const D: usize = 4;

    #[derive(Debug, Default)]
    pub(crate) struct QuadHeap {
        entries: Vec<ExpiryEntry>,
    }

    impl QuadHeap {
        pub fn len(&self) -> usize {
            self.entries.len()
        }

        pub fn push(&mut self, y: f32, copies: u32) {
            self.entries.push(ExpiryEntry { y, copies });
            let mut i = self.entries.len() - 1;
            let e = self.entries[i];
            while i > 0 {
                let parent = (i - 1) / D;
                if e.y < self.entries[parent].y {
                    self.entries[i] = self.entries[parent];
                    i = parent;
                } else {
                    break;
                }
            }
            self.entries[i] = e;
        }

        fn min_child(&self, i: usize) -> Option<usize> {
            let first = D * i + 1;
            if first >= self.entries.len() {
                return None;
            }
            let last = (first + D).min(self.entries.len());
            (first..last).reduce(|best, c| {
                if self.entries[c].y < self.entries[best].y {
                    c
                } else {
                    best
                }
            })
        }

        pub fn pop_if(&mut self, pred: impl Fn(f32) -> bool) -> Option<ExpiryEntry> {
            let top = *self.entries.first()?;
            if !pred(top.y) {
                return None;
            }
            let e = self.entries.pop()?;
            if !self.entries.is_empty() {
                let mut i = 0;
                while let Some(c) = self.min_child(i) {
                    if self.entries[c].y < e.y {
                        self.entries[i] = self.entries[c];
                        i = c;
                    } else {
                        break;
                    }
                }
                self.entries[i] = e;
            }
            Some(top)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::QuadHeap;
    use super::*;
    use usj_geom::Rect;

    fn item(x0: f32, y0: f32, x1: f32, y1: f32, id: u32) -> Item {
        Item::new(Rect::from_coords(x0, y0, x1, y1), id)
    }

    fn ids(b: &SoaBuf) -> Vec<u32> {
        (0..b.len()).map(|i| b.item(i).id).collect()
    }

    #[test]
    fn soa_push_item_roundtrip_and_compact() {
        let mut b = SoaBuf::default();
        b.push(&item(0.0, 1.0, 2.0, 3.0, 7));
        b.push(&item(4.0, 1.0, 5.0, 9.0, 8));
        b.push(&item(6.0, 1.0, 7.0, 2.0, 9));
        assert_eq!(b.item(1), item(4.0, 1.0, 5.0, 9.0, 8));
        // Entries expiring below 3.0 (ids 9) become tombstones and compact away.
        assert_eq!(b.compact(3.0), 2);
        assert_eq!(b.len(), 2);
        assert_eq!(ids(&b), vec![7, 8]);
    }

    #[test]
    fn retain_indexed_keeps_order() {
        let mut b = SoaBuf::default();
        for i in 0..6 {
            b.push(&item(i as f32, 0.0, i as f32 + 1.0, 10.0, i));
        }
        b.retain_indexed(|buf, i| buf.item(i).id % 2 == 0);
        assert_eq!(ids(&b), vec![0, 2, 4]);
    }

    #[test]
    fn scans_and_compaction_cross_block_boundaries() {
        // 3 blocks and a bit: every third entry short-lived.
        let mut b = SoaBuf::default();
        for i in 0..27u32 {
            let hi = if i % 3 == 0 { 1.0 } else { 10.0 };
            b.push(&item(i as f32, 0.0, i as f32 + 0.5, hi, i));
        }
        let scan = |b: &SoaBuf, cut: f32| {
            let mut hits = Vec::new();
            let tested = b.scan_overlaps(cut, 6.2, 20.1, |i| hits.push(b.item(i).id));
            (tested, hits)
        };
        let live: Vec<u32> = (6..=20).filter(|i| i % 3 != 0).collect();
        assert_eq!(scan(&b, f32::NEG_INFINITY), (27, (6..=20).collect()));
        assert_eq!(scan(&b, 2.0), (18, live.clone()));
        // Compaction drops the tombstones, keeps the order, and the lanes it
        // vacates in the last block are not live afterwards.
        assert_eq!(b.compact(2.0), 18);
        assert_eq!(ids(&b), (0..27).filter(|i| i % 3 != 0).collect::<Vec<_>>());
        assert_eq!(scan(&b, f32::NEG_INFINITY), (18, live));
        // Down to exactly one full block, then to nothing.
        b.retain_indexed(|buf, i| buf.item(i).id < 12);
        assert_eq!((b.len(), scan(&b, f32::NEG_INFINITY).0), (8, 8));
        b.retain_indexed(|_, _| false);
        assert_eq!((b.len(), scan(&b, f32::NEG_INFINITY).0), (0, 0));
        b.push(&item(7.0, 0.0, 8.0, 1.0, 99));
        assert_eq!(scan(&b, 0.5), (1, vec![99]));
    }

    #[test]
    fn heap_pops_in_expiry_order_with_exact_counts() {
        let mut h = ExpiryHeap::default();
        for (y, c) in [(5.0, 1), (1.0, 3), (9.0, 2), (1.0, 1), (4.0, 5)] {
            h.push(y, c);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.bytes(), 40);
        let mut popped = Vec::new();
        while let Some(e) = h.pop_if(|y| y < 5.0) {
            popped.push((e.y, e.copies));
        }
        // Ascending expiry, ties by copy count.
        assert_eq!(popped, vec![(1.0, 1), (1.0, 3), (4.0, 5)]);
        assert_eq!(h.len(), 2);
        assert!(h.pop_if(|y| y < 5.0).is_none());
        assert_eq!(h.pop_if(|y| y <= 5.0).map(|e| e.copies), Some(1));
    }

    #[test]
    fn heap_rebuild_restores_the_heap_property() {
        let mut h = ExpiryHeap::default();
        h.rebuild(
            [8.0, 3.0, 6.0, 1.0, 9.0, 2.0, 7.0]
                .into_iter()
                .map(|y| ExpiryEntry { y, copies: 1 }),
        );
        let mut order = Vec::new();
        while let Some(e) = h.pop_if(|_| true) {
            order.push(e.y);
        }
        assert_eq!(order, vec![1.0, 2.0, 3.0, 6.0, 7.0, 8.0, 9.0]);
        let mut out = vec![0.5];
        h.rebuild(
            [4.0, -0.0]
                .into_iter()
                .map(|y| ExpiryEntry { y, copies: 2 }),
        );
        h.expiries_into(&mut out);
        assert_eq!(out, vec![0.5, 0.0, 4.0]);
    }

    #[test]
    fn expiry_predicate_keeps_float_semantics_at_the_edges() {
        let mut h = ExpiryHeap::default();
        for y in [
            -0.0,
            0.0,
            f32::NAN,
            1e-45,
            -f32::MAX,
            f32::MAX,
            f32::INFINITY,
        ] {
            h.push(y, 1);
        }
        // `y < 0.0` is false for both zeroes, whatever their key order.
        assert_eq!(h.pop_if(|y| y < 0.0).map(|e| e.y), Some(-f32::MAX));
        assert!(h.pop_if(|y| y < 0.0).is_none());
        assert_eq!(h.pop_if(|y| y < -0.0).map(|e| e.y), None);
        // A subnormal cut expires both zeroes and not itself.
        let mut n = 0;
        while h.pop_if(|y| y < 1e-45).is_some() {
            n += 1;
        }
        assert_eq!((n, h.len()), (2, 4));
        // NaN is above everything and accepted by no comparison.
        let mut ys = Vec::new();
        while let Some(e) = h.pop_if(|y| y <= f32::INFINITY) {
            ys.push(e.y);
        }
        assert_eq!(ys, vec![1e-45, f32::MAX, f32::INFINITY]);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn packed_heap_pops_what_the_quad_heap_popped() {
        // A monotone sweep: every pushed expiry is at or above the last cut,
        // with floods of equal expiries and extreme magnitudes mixed in.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let (mut new, mut old) = (ExpiryHeap::default(), QuadHeap::default());
        let mut cut = -50.0f32;
        for step in 0..20_000 {
            cut += (next() % 8) as f32 * 0.125;
            let (mut got, mut want) = ((0, 0u64, Vec::new()), (0, 0u64, Vec::new()));
            while let Some(e) = new.pop_if(|y| y < cut) {
                got = (got.0 + 1, got.1 + u64::from(e.copies), got.2);
                got.2.push(e.y);
            }
            while let Some(e) = old.pop_if(|y| y < cut) {
                want = (want.0 + 1, want.1 + u64::from(e.copies), want.2);
                want.2.push(e.y);
            }
            assert_eq!(got, want, "step {step}, cut {cut}");
            assert_eq!(new.len(), old.len());
            let y = match next() % 16 {
                0 => cut,
                1 => f32::MAX,
                2 => (cut + 4.0).floor(),
                3 => cut + 1e-3,
                _ => cut + (next() % 4096) as f32 / 64.0,
            };
            let copies = 1 + next() % 5;
            new.push(y, copies);
            old.push(y, copies);
        }
    }
}
