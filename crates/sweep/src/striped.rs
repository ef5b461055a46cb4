//! The `Striped-Sweep` interval structure.
//!
//! The x-extent of the data is divided into a number of vertical strips.
//! Every active interval is registered in each strip it overlaps, so a query
//! only has to look at the strips its own x-projection touches — typically a
//! small constant number for the short road/hydrography segments of the
//! TIGER data. The SSSJ study found this structure to be a factor of 2–5
//! faster than `Forward-Sweep` and the tree-based alternatives on most
//! real-life data sets, which is why both SSSJ and PQ use it.
//!
//! Because an interval may be registered in several strips, a query could see
//! the same partner more than once. Duplicates are suppressed by reporting a
//! pair only in its *canonical* strip — the strip containing the larger of
//! the two lower x-endpoints, i.e. the leftmost strip where both intervals
//! are present.
//!
//! ## Hot-path layout
//!
//! Each strip is a struct-of-arrays buffer (the `soa` module's `SoaBuf`):
//! blocks of eight entries in one allocation per strip, so the per-strip
//! overlap scan streams packed `f32` runs instead of chasing 20-byte `Item`
//! records, and an insert writes one place per strip it overlaps.
//! Expiration is lazy: the expiry queue (a packed binary heap, one `u64` per
//! resident) keeps the live count and the live copy total exact after every
//! `expire_before`, while passed entries linger in the strips as tombstones.
//!
//! Tombstones are reclaimed by a **whole-structure compaction**, fired when
//! they number at least 64 and outnumber the live copies. The policy is
//! part of the accounting, not an implementation detail: `bytes()` counts
//! physical entries, the spilling drivers compare it with their budget at
//! every push, so *when* tombstones go decides when a sweep spills.
//! Reclaiming a strip at a time as scans meet its tombstones was measured
//! and rejected for that reason — it changes the `bytes()` trajectory. The
//! walk itself visits one header and (typically) one block per strip.
//!
//! ## Density-based strip auto-tuning
//!
//! A fixed strip count wastes memory on sparse inputs and degenerates into
//! long per-strip scans on dense ones. Structures created through
//! [`SweepStructure::with_extent`] therefore start at [`INITIAL_STRIPS`] and
//! rebuild to roughly [`TARGET_PER_STRIP`] live residents per strip
//! (doubling up to [`MAX_STRIPS`], shrinking again after heavy eviction);
//! the rebuilds are geometric, so their amortized cost per insert is
//! constant. [`StripedSweep::with_strips`] pins an explicit count and
//! disables the tuning.

use usj_geom::Item;

use crate::soa::{ExpiryEntry, ExpiryHeap, SoaBuf};
use crate::structure::{SweepStats, SweepStructure};

/// Strip count an auto-tuned structure starts with.
pub const INITIAL_STRIPS: usize = 16;

/// Upper bound of the auto-tuning (4096 strips keep the per-strip overhead
/// bounded while keeping per-strip scans short on dense workloads).
pub const MAX_STRIPS: usize = 4096;

/// Live residents per strip the auto-tuning rebuilds towards. A strip that
/// holds a few cache lines of entries amortizes the per-strip scan setup;
/// fewer residents per strip would trade that for more replicated copies of
/// strip-spanning rectangles.
pub const TARGET_PER_STRIP: usize = 16;

/// Growth trigger: rebuild once the live residents exceed this many per
/// strip (hysteresis above [`TARGET_PER_STRIP`] so rebuilds stay geometric).
const GROW_PER_STRIP: usize = 32;

/// Compact once tombstoned copies exceed half the physical entries.
const COMPACT_DENOMINATOR: usize = 2;

/// Never compact below this many tombstoned copies — compaction walks every
/// strip, so firing it for a handful of tombstones in a small resident set
/// would thrash instead of batch.
const COMPACT_FLOOR: usize = 64;

/// Bytes [`SweepStructure::bytes`] charges per strip for its bookkeeping:
/// the five array headers a strip had when every coordinate was a `Vec` of
/// its own. A strip is one allocation now, but what the memory governor is
/// told decides when a sweep spills, so the charge stays what it was.
const STRIP_HEADER_BYTES: usize = 120;

/// Row index of the strip containing `x` for `n` strips over `[x_lo, ..]`
/// with precomputed scale `inv_span = n / (x_hi - x_lo)` (coordinates
/// outside the extent clamp onto the border strips). A free function so the
/// compaction loops can use the same formula while the strip vector is
/// mutably borrowed. The scale is precomputed once per layout: a multiply on
/// the insert/query path instead of an `f64` division.
#[inline]
pub(crate) fn strip_index(x_lo: f32, inv_span: f64, n: usize, x: f32) -> usize {
    // The float-to-integer cast truncates towards zero, saturates at the
    // type's bounds and sends NaN to zero: for the non-negative offsets it
    // is the floor, negative ones clamp to strip 0 either way, and `min`
    // clamps the far side — no `floor()` call, which without SSE4.1 is a
    // library routine and was a fifth of the kernel's time.
    let idx = (f64::from(x) - f64::from(x_lo)) * inv_span;
    (idx as usize).min(n - 1)
}

/// The strip scale for `n` strips over `[x_lo, x_hi]`.
#[inline]
pub(crate) fn inv_span(x_lo: f32, x_hi: f32, n: usize) -> f64 {
    n as f64 / (f64::from(x_hi) - f64::from(x_lo))
}

/// Striped interval structure in struct-of-arrays layout with lazy batched
/// expiration and density-based strip auto-tuning.
#[derive(Debug)]
pub struct StripedSweep {
    strips: Vec<SoaBuf>,
    /// Exact live bookkeeping: one `(expiry, copies)` entry per resident item.
    heap: ExpiryHeap,
    x_lo: f32,
    x_hi: f32,
    /// Precomputed `strips / (x_hi - x_lo)` of the current layout.
    inv_span: f64,
    /// Entries with `y_hi < cut` are tombstones (logically expired).
    cut: f32,
    /// Strip copies of live items.
    live_copies: usize,
    /// Physical strip entries (live + tombstoned).
    phys_copies: usize,
    auto_tune: bool,
    stats: SweepStats,
}

impl StripedSweep {
    /// Creates a structure with an explicit, fixed strip count over
    /// `[x_lo, x_hi]` (auto-tuning disabled).
    ///
    /// # Panics
    ///
    /// Panics if `strips == 0`.
    pub fn with_strips(x_lo: f32, x_hi: f32, strips: usize) -> Self {
        assert!(strips > 0, "strip count must be positive");
        let (x_lo, x_hi) = if x_hi > x_lo {
            (x_lo, x_hi)
        } else {
            (x_lo, x_lo + 1.0)
        };
        StripedSweep {
            strips: vec![SoaBuf::default(); strips],
            heap: ExpiryHeap::default(),
            x_lo,
            x_hi,
            inv_span: inv_span(x_lo, x_hi, strips),
            cut: f32::NEG_INFINITY,
            live_copies: 0,
            phys_copies: 0,
            auto_tune: false,
            stats: SweepStats::default(),
        }
    }

    /// Number of strips.
    pub fn strip_count(&self) -> usize {
        self.strips.len()
    }

    /// The x-extent `[x_lo, x_hi]` the strips divide.
    pub(crate) fn extent(&self) -> (f32, f32) {
        (self.x_lo, self.x_hi)
    }

    #[inline]
    fn strip_of(&self, x: f32) -> usize {
        strip_index(self.x_lo, self.inv_span, self.strips.len(), x)
    }

    /// Strips overlapped by an item's x-projection. Empty when the upper x
    /// is NaN (strip 0, below the lower one's): an interval that overlaps
    /// nothing occupies no strip.
    #[inline]
    fn strip_range(&self, item: &Item) -> std::ops::Range<usize> {
        let first = self.strip_of(item.rect.lo.x);
        first..(self.strip_of(item.rect.hi.x) + 1).max(first)
    }

    fn note_size(&mut self) {
        self.stats.max_resident = self.stats.max_resident.max(self.heap.len());
        self.stats.max_bytes = self.stats.max_bytes.max(self.bytes());
    }

    /// Upper y-coordinates (expiry positions) of every resident item, one
    /// entry per unique item. The spilling driver uses this to pick an
    /// eviction cut-off.
    pub fn resident_expiries(&self, out: &mut Vec<f32>) {
        self.heap.expiries_into(out);
    }

    /// Strip count the auto-tuning would pick for `live` residents.
    fn desired_strips(live: usize) -> usize {
        let raw = live.div_ceil(TARGET_PER_STRIP).max(INITIAL_STRIPS);
        raw.next_power_of_two().min(MAX_STRIPS)
    }

    /// Rebuilds the strip layout for `new_strips` strips from the live
    /// residents (tombstones are dropped for free along the way).
    fn retune(&mut self, new_strips: usize) {
        let cut = self.cut;
        let mut live: Vec<Item> = Vec::with_capacity(self.heap.len());
        for (s, strip) in self.strips.iter().enumerate() {
            for i in 0..strip.len() {
                if strip.y_hi(i) >= cut && self.strip_of(strip.x_lo(i)) == s {
                    live.push(strip.item(i));
                }
            }
        }
        self.strips = vec![SoaBuf::default(); new_strips];
        self.inv_span = inv_span(self.x_lo, self.x_hi, new_strips);
        let mut entries = Vec::with_capacity(live.len());
        let mut copies_total = 0;
        for item in &live {
            let range = self.strip_range(item);
            let copies = range.len();
            for s in range {
                self.strips[s].push(item);
            }
            copies_total += copies;
            entries.push(ExpiryEntry {
                y: item.rect.hi.y,
                copies: copies as u32,
            });
        }
        self.heap.rebuild(entries.into_iter());
        self.live_copies = copies_total;
        self.phys_copies = copies_total;
    }

    /// Drops every tombstoned entry from every strip.
    fn compact(&mut self) {
        let cut = self.cut;
        let mut phys = 0;
        for strip in &mut self.strips {
            phys += strip.compact(cut);
        }
        self.phys_copies = phys;
    }

    /// Removes every resident item whose upper y-coordinate is at most
    /// `y_cut` — the items the sweep line will expire soonest — appending
    /// them to `out` (which is *not* cleared, so callers can batch several
    /// evictions into one reusable buffer).
    ///
    /// Unlike [`SweepStructure::expire_before`] the removed items are still
    /// *active* (the sweep line has not passed them); the caller takes over
    /// responsibility for joining them against later arrivals. This is the
    /// eviction primitive of the external spilling sweep. Returns the number
    /// of evicted items.
    pub fn evict_until(&mut self, y_cut: f32, out: &mut Vec<Item>) -> usize {
        let before = out.len();
        let (x_lo, scale, cut) = (self.x_lo, self.inv_span, self.cut);
        let n = self.strips.len();
        let mut phys = 0;
        for (s, strip) in self.strips.iter_mut().enumerate() {
            strip.retain_indexed(|buf, i| {
                let y = buf.y_hi(i);
                if y < cut {
                    return false; // tombstone: reclaim silently
                }
                if y <= y_cut {
                    if strip_index(x_lo, scale, n, buf.x_lo(i)) == s {
                        out.push(buf.item(i));
                    }
                    return false;
                }
                true
            });
            phys += strip.len();
        }
        self.phys_copies = phys;
        while let Some(e) = self.heap.pop_if(|y| y <= y_cut) {
            self.live_copies -= e.copies as usize;
        }
        if self.auto_tune {
            let desired = Self::desired_strips(self.heap.len());
            if self.strips.len() > 4 * desired {
                self.retune(desired);
            }
        }
        out.len() - before
    }
}

impl SweepStructure for StripedSweep {
    fn with_extent(x_lo: f32, x_hi: f32) -> Self {
        let mut s = StripedSweep::with_strips(x_lo, x_hi, INITIAL_STRIPS);
        s.auto_tune = true;
        s
    }

    fn insert(&mut self, item: Item) {
        let range = self.strip_range(&item);
        let copies = range.len();
        for s in range {
            self.strips[s].push(&item);
        }
        self.heap.push(item.rect.hi.y, copies as u32);
        self.live_copies += copies;
        self.phys_copies += copies;
        self.stats.inserts += 1;
        if self.auto_tune
            && self.heap.len() > self.strips.len() * GROW_PER_STRIP
            && self.strips.len() < MAX_STRIPS
        {
            self.retune(Self::desired_strips(self.heap.len()));
        }
        self.note_size();
    }

    fn expire_before(&mut self, y: f32) -> usize {
        if y > self.cut {
            self.cut = y;
        }
        let cut = self.cut;
        let mut removed = 0usize;
        while let Some(e) = self.heap.pop_if(|top| top < cut) {
            self.live_copies -= e.copies as usize;
            removed += 1;
        }
        self.stats.expirations += removed as u64;
        // Saturating: an item whose upper edge is NaN never expires from the
        // queue, yet is a tombstone to every scan and compaction — once one
        // has been reclaimed the live count runs ahead of the physical one.
        let dead = self.phys_copies.saturating_sub(self.live_copies);
        if dead >= COMPACT_FLOOR && dead * COMPACT_DENOMINATOR > self.phys_copies {
            self.compact();
        }
        removed
    }

    fn query<F: FnMut(&Item)>(&mut self, query: &Item, mut report: F) {
        // The query's home strip — where its lower endpoint falls — is the
        // first strip of its range.
        let range = self.strip_range(query);
        let q_home = range.start;
        let (q_lo, q_hi) = (query.rect.lo.x, query.rect.hi.x);
        let cut = self.cut;
        let mut tests = 0u64;
        for s in range {
            let strip = &self.strips[s];
            tests += strip.scan_overlaps(cut, q_lo, q_hi, |i| {
                // Canonical strip of the pair: where the rightmost of the two
                // lower endpoints falls. Report the pair only there.
                let canonical = q_home.max(self.strip_of(strip.x_lo(i)));
                if canonical == s {
                    report(&strip.item(i));
                }
            });
        }
        self.stats.rect_tests += tests;
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    /// Physical footprint: strip entries *including* not-yet-compacted
    /// tombstones, per-strip array headers, and the expiry-heap
    /// bookkeeping. Honest for the memory governor — a consequence is that
    /// spill budgets near the pre-overhaul threshold may trigger slightly
    /// earlier than the old `copies * 20` accounting did.
    fn bytes(&self) -> usize {
        self.phys_copies * std::mem::size_of::<Item>()
            + self.strips.len() * STRIP_HEADER_BYTES
            + self.heap.bytes()
    }

    fn stats(&self) -> SweepStats {
        self.stats
    }

    fn name() -> &'static str {
        "Striped-Sweep"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_geom::Rect;

    fn item(x0: f32, y0: f32, x1: f32, y1: f32, id: u32) -> Item {
        Item::new(Rect::from_coords(x0, y0, x1, y1), id)
    }

    fn collect_query(s: &mut StripedSweep, q: &Item) -> Vec<u32> {
        let mut out = Vec::new();
        s.query(q, |it| out.push(it.id));
        out.sort_unstable();
        out
    }

    #[test]
    fn reports_each_overlapping_item_exactly_once() {
        let mut s = StripedSweep::with_strips(0.0, 100.0, 10);
        // This item spans many strips.
        s.insert(item(5.0, 0.0, 95.0, 10.0, 1));
        s.insert(item(40.0, 0.0, 60.0, 10.0, 2));
        s.insert(item(96.0, 0.0, 99.0, 10.0, 3));
        // Query also spans many strips: each overlap must be reported once.
        let q = item(0.0, 1.0, 100.0, 2.0, 99);
        assert_eq!(collect_query(&mut s, &q), vec![1, 2, 3]);
        // Narrow query inside the long item's extent.
        let q2 = item(50.0, 1.0, 51.0, 2.0, 98);
        assert_eq!(collect_query(&mut s, &q2), vec![1, 2]);
    }

    #[test]
    fn items_outside_query_strips_are_never_tested() {
        let mut s = StripedSweep::with_strips(0.0, 100.0, 10);
        s.insert(item(90.0, 0.0, 91.0, 10.0, 1));
        let before = s.stats().rect_tests;
        let q = item(5.0, 1.0, 6.0, 2.0, 99);
        assert_eq!(collect_query(&mut s, &q), Vec::<u32>::new());
        // The lone item lives in strip 9; the query touches strip 0 only.
        assert_eq!(s.stats().rect_tests, before);
    }

    #[test]
    fn expire_counts_unique_items() {
        let mut s = StripedSweep::with_strips(0.0, 100.0, 10);
        s.insert(item(0.0, 0.0, 100.0, 1.0, 1)); // copies in all 10 strips
        s.insert(item(0.0, 0.0, 5.0, 5.0, 2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.expire_before(2.0), 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.expire_before(10.0), 1);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(s.stats().expirations, 2);
    }

    #[test]
    fn expired_items_are_never_reported_even_before_compaction() {
        let mut s = StripedSweep::with_strips(0.0, 100.0, 4);
        s.insert(item(10.0, 0.0, 12.0, 1.0, 1));
        s.insert(item(10.0, 0.0, 12.0, 10.0, 2));
        s.insert(item(10.0, 0.0, 12.0, 10.0, 3));
        assert_eq!(s.expire_before(2.0), 1);
        // Tombstone density (1 of 3) is below the compaction threshold: the
        // dead entry is still physically present but must stay invisible.
        let q = item(11.0, 2.0, 11.5, 3.0, 99);
        let before = s.stats().rect_tests;
        assert_eq!(collect_query(&mut s, &q), vec![2, 3]);
        assert_eq!(s.stats().rect_tests, before + 2);
    }

    #[test]
    fn coordinates_outside_the_extent_are_clamped() {
        let mut s = StripedSweep::with_strips(0.0, 10.0, 4);
        s.insert(item(-5.0, 0.0, -1.0, 10.0, 1));
        s.insert(item(11.0, 0.0, 20.0, 10.0, 2));
        let q = item(-10.0, 1.0, 30.0, 2.0, 99);
        assert_eq!(collect_query(&mut s, &q), vec![1, 2]);
    }

    #[test]
    fn degenerate_extent_does_not_panic() {
        let mut s = StripedSweep::with_strips(5.0, 5.0, 8);
        s.insert(item(4.0, 0.0, 6.0, 10.0, 1));
        let q = item(5.0, 1.0, 5.0, 2.0, 9);
        assert_eq!(collect_query(&mut s, &q), vec![1]);
    }

    #[test]
    fn memory_accounting_counts_copies() {
        let mut s = StripedSweep::with_strips(0.0, 100.0, 10);
        s.insert(item(0.0, 0.0, 100.0, 1.0, 1));
        let item_sz = std::mem::size_of::<Item>();
        assert!(s.bytes() >= 10 * item_sz);
        assert_eq!(s.stats().max_resident, 1);
    }

    #[test]
    fn default_extent_constructor_starts_at_the_initial_strip_count() {
        let s = StripedSweep::with_extent(0.0, 1.0);
        assert_eq!(s.strip_count(), INITIAL_STRIPS);
        assert_eq!(StripedSweep::name(), "Striped-Sweep");
    }

    #[test]
    fn strip_count_grows_with_density_and_shrinks_after_eviction() {
        const N: u32 = 10_000;
        let mut s = StripedSweep::with_extent(0.0, 1000.0);
        for i in 0..N {
            let x = (i % 997) as f32;
            s.insert(item(x, 0.0, x + 0.5, 1e6, i));
        }
        assert!(
            s.strip_count() > INITIAL_STRIPS,
            "{N} residents must outgrow {INITIAL_STRIPS} strips"
        );
        assert!(s.strip_count() <= MAX_STRIPS);
        assert_eq!(s.len(), N as usize);
        // Queries still see every overlap exactly once across rebuilds.
        let q = item(0.0, 1.0, 1000.0, 2.0, u32::MAX);
        let mut hits = Vec::new();
        s.query(&q, |it| hits.push(it.id));
        hits.sort_unstable();
        hits.dedup();
        assert_eq!(hits.len(), N as usize);
        // Evicting nearly everything shrinks the layout again.
        let grown = s.strip_count();
        let mut out = Vec::new();
        assert_eq!(s.evict_until(1e6, &mut out), N as usize);
        assert_eq!(out.len(), N as usize);
        assert!(s.is_empty());
        assert!(s.strip_count() < grown, "eviction should shrink the strips");
    }

    #[test]
    fn evict_until_appends_only_active_unique_items() {
        let mut s = StripedSweep::with_strips(0.0, 100.0, 10);
        s.insert(item(0.0, 0.0, 100.0, 3.0, 1)); // wide: copies in all strips
        s.insert(item(1.0, 0.0, 2.0, 1.0, 2));
        s.insert(item(3.0, 0.0, 4.0, 9.0, 3));
        assert_eq!(s.expire_before(2.0), 1); // id 2 expires
        let mut out = vec![item(9.0, 9.0, 9.5, 9.5, 77)]; // pre-existing entry
        assert_eq!(s.evict_until(5.0, &mut out), 1);
        // The expired item is not re-surfaced; the wide one appears once.
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].id, 1);
        assert_eq!(s.len(), 1);
        let q = item(0.0, 2.5, 100.0, 2.6, 99);
        assert_eq!(collect_query(&mut s, &q), vec![3]);
    }

    #[test]
    #[should_panic(expected = "strip count")]
    fn zero_strips_rejected() {
        let _ = StripedSweep::with_strips(0.0, 1.0, 0);
    }
}
