//! The `Forward-Sweep` interval structure.
//!
//! This is the structure used by most earlier spatial-join implementations
//! (including the original PBSM and the R-tree tree join): the active
//! rectangles of each input are kept in a single unordered list and every
//! query scans the entire list.
//!
//! This implementation keeps the resident set in struct-of-arrays layout
//! (see the `soa` module): the overlap scan reads three packed `f32` runs
//! per eight-entry block with a branch-light comparison, and expiration is
//! lazy — an expiry queue keeps the exact live count and expiration totals
//! while passed items linger as tombstones until a batched compaction
//! reclaims them. Identical pair sequences and counters to the eager
//! `ListSweep` reference kernel (dev-only `reference-kernels` feature),
//! without the `O(n)` `retain` on every push.
//!
//! It remains the list structure of the generic
//! [`SweepDriver`](crate::SweepDriver) — the paper's Forward-vs-Striped
//! kernel comparison in `repro` and in the repo benchmark's probe runs on
//! it. The joins' one-shot sweeps of two small batches use
//! [`batch_join`](crate::batch_join) instead, which reports the same pairs
//! in the same order without building it.

use usj_geom::Item;

use crate::soa::{ExpiryHeap, SoaBuf};
use crate::structure::{SweepStats, SweepStructure};

/// Compact once tombstones exceed physical entries / denominator: the
/// threshold keeps the scan overhead of tombstones bounded while the
/// batched compaction itself stays amortized-constant per insert.
const COMPACT_DENOMINATOR: usize = 4;

/// Never compact below this many tombstones — small resident sets would
/// otherwise hit the threshold every few expirations and thrash the arrays
/// with `O(n)` copies whose batching is the whole point.
const COMPACT_FLOOR: usize = 64;

/// Unordered active-list interval structure in struct-of-arrays layout with
/// lazy batched expiration.
#[derive(Debug)]
pub struct ForwardSweep {
    buf: SoaBuf,
    heap: ExpiryHeap,
    /// Entries with `y_hi < cut` are tombstones (logically expired).
    cut: f32,
    /// Tombstoned entries still physically present in `buf`.
    dead: usize,
    stats: SweepStats,
}

impl Default for ForwardSweep {
    fn default() -> Self {
        ForwardSweep::new()
    }
}

impl ForwardSweep {
    /// Creates an empty structure.
    pub fn new() -> Self {
        ForwardSweep {
            buf: SoaBuf::default(),
            heap: ExpiryHeap::default(),
            // The tombstone threshold must start below every possible
            // y-coordinate (a zero-default would silently tombstone
            // negative-y items).
            cut: f32::NEG_INFINITY,
            dead: 0,
            stats: SweepStats::default(),
        }
    }

    fn note_size(&mut self) {
        self.stats.max_resident = self.stats.max_resident.max(self.heap.len());
        self.stats.max_bytes = self.stats.max_bytes.max(self.bytes());
    }
}

impl SweepStructure for ForwardSweep {
    fn with_extent(_x_lo: f32, _x_hi: f32) -> Self {
        ForwardSweep::new()
    }

    fn insert(&mut self, item: Item) {
        self.buf.push(&item);
        self.heap.push(item.rect.hi.y, 1);
        self.stats.inserts += 1;
        self.note_size();
    }

    fn expire_before(&mut self, y: f32) -> usize {
        if y > self.cut {
            self.cut = y;
        }
        let cut = self.cut;
        let mut removed = 0;
        while self.heap.pop_if(|top| top < cut).is_some() {
            removed += 1;
        }
        self.dead += removed;
        self.stats.expirations += removed as u64;
        if self.dead >= COMPACT_FLOOR && self.dead * COMPACT_DENOMINATOR > self.buf.len() {
            self.buf.compact(cut);
            self.dead = 0;
        }
        removed
    }

    fn query<F: FnMut(&Item)>(&mut self, query: &Item, mut report: F) {
        // Tombstones are skipped without being counted — the eager reference
        // kernel never saw them either (`scan_overlaps` only counts live
        // entries).
        let buf = &self.buf;
        let tests = buf.scan_overlaps(self.cut, query.rect.lo.x, query.rect.hi.x, |i| {
            report(&buf.item(i));
        });
        self.stats.rect_tests += tests;
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn bytes(&self) -> usize {
        self.buf.len() * std::mem::size_of::<Item>() + self.heap.bytes()
    }

    fn stats(&self) -> SweepStats {
        self.stats
    }

    fn name() -> &'static str {
        "Forward-Sweep"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_geom::Rect;

    fn item(x0: f32, y0: f32, x1: f32, y1: f32, id: u32) -> Item {
        Item::new(Rect::from_coords(x0, y0, x1, y1), id)
    }

    fn collect_query(s: &mut ForwardSweep, q: &Item) -> Vec<u32> {
        let mut out = Vec::new();
        s.query(q, |it| out.push(it.id));
        out.sort_unstable();
        out
    }

    #[test]
    fn query_reports_only_x_overlapping_items() {
        let mut s = ForwardSweep::new();
        s.insert(item(0.0, 0.0, 2.0, 10.0, 1));
        s.insert(item(5.0, 0.0, 6.0, 10.0, 2));
        s.insert(item(1.5, 0.0, 5.5, 10.0, 3));
        let q = item(1.0, 1.0, 2.0, 2.0, 99);
        assert_eq!(collect_query(&mut s, &q), vec![1, 3]);
    }

    #[test]
    fn expire_removes_items_below_the_sweep_line() {
        let mut s = ForwardSweep::new();
        s.insert(item(0.0, 0.0, 1.0, 1.0, 1));
        s.insert(item(0.0, 0.0, 1.0, 5.0, 2));
        s.insert(item(0.0, 0.0, 1.0, 3.0, 3));
        assert_eq!(s.expire_before(3.0), 1); // only item 1 (hi.y = 1) expires
        assert_eq!(s.len(), 2);
        assert_eq!(s.expire_before(3.0), 0); // idempotent at the same line
        assert_eq!(s.expire_before(10.0), 2);
        assert!(s.is_empty());
    }

    #[test]
    fn items_touching_the_sweep_line_are_kept() {
        let mut s = ForwardSweep::new();
        s.insert(item(0.0, 0.0, 1.0, 2.0, 1));
        assert_eq!(s.expire_before(2.0), 0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn expired_items_are_never_reported_even_before_compaction() {
        let mut s = ForwardSweep::new();
        // Many short-lived items plus one survivor: the tombstone density
        // stays below the compaction threshold after the first expiration,
        // so the query must skip tombstones by itself.
        s.insert(item(0.0, 0.0, 1.0, 1.0, 1));
        s.insert(item(0.0, 0.0, 1.0, 10.0, 2));
        s.insert(item(0.0, 0.0, 1.0, 10.0, 3));
        assert_eq!(s.expire_before(2.0), 1);
        let q = item(0.0, 2.0, 1.0, 3.0, 99);
        assert_eq!(collect_query(&mut s, &q), vec![2, 3]);
        // Tombstones are not rectangle-tested either.
        assert_eq!(s.stats().rect_tests, 2);
    }

    #[test]
    fn stats_track_inserts_tests_and_memory() {
        let mut s = ForwardSweep::new();
        for i in 0..10 {
            s.insert(item(i as f32, 0.0, i as f32 + 1.0, 10.0, i));
        }
        let q = item(0.0, 0.0, 100.0, 1.0, 99);
        let mut n = 0;
        s.query(&q, |_| n += 1);
        assert_eq!(n, 10);
        let st = s.stats();
        assert_eq!(st.inserts, 10);
        assert_eq!(st.rect_tests, 10);
        assert_eq!(st.max_resident, 10);
        // 20 payload bytes per entry plus 8 bytes of expiry bookkeeping.
        assert_eq!(st.max_bytes, 10 * (std::mem::size_of::<Item>() + 8));
        s.expire_before(100.0);
        assert_eq!(s.stats().expirations, 10);
    }

    #[test]
    fn with_extent_ignores_the_extent() {
        let s = ForwardSweep::with_extent(0.0, 100.0);
        assert!(s.is_empty());
        assert_eq!(ForwardSweep::name(), "Forward-Sweep");
    }

    #[test]
    fn default_instance_handles_negative_coordinates() {
        // Regression: a derived Default once left the tombstone cut at 0.0,
        // silently hiding items that live entirely below y = 0.
        let mut s = ForwardSweep::default();
        s.insert(item(-5.0, -10.0, -4.0, -1.0, 1));
        assert_eq!(s.len(), 1);
        let q = item(-4.5, -9.0, -4.2, -8.0, 99);
        assert_eq!(collect_query(&mut s, &q), vec![1]);
        assert_eq!(s.expire_before(-0.5), 1);
        assert!(s.is_empty());
    }
}
