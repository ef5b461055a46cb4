//! The pre-optimization reference kernels.
//!
//! Two structures preserve the exact pre-overhaul implementations, kept
//! in-tree for two jobs:
//!
//! * **oracle** — the differential tests drive the optimized kernels and
//!   these over the same workloads and require identical pair sets and
//!   consistent [`SweepStats`];
//! * **baseline** — the `sweep_structures` bench of `usj_bench` times
//!   [`ListSweep`] against the SoA kernels, so a wall-clock speedup is
//!   measured against the real pre-overhaul code, not a synthetic strawman.
//!
//! [`ListSweep`] is the pre-optimization `Forward-Sweep`: a single
//! `Vec<Item>` active list, scanned linearly for every query, with *eager*
//! expiration — every [`expire_before`](SweepStructure::expire_before) call
//! walks the whole list with `retain`. [`EagerStripedSweep`] is the
//! pre-optimization `Striped-Sweep` — `Vec<Item>` strips at a fixed count
//! of 256, with the same eager per-push `retain` over **every strip** —
//! i.e. the kernel SSSJ and PQ actually ran on before this overhaul.
//!
//! Neither is used by any join algorithm.

use usj_geom::Item;

use crate::structure::{SweepStats, SweepStructure};

/// Unordered active-list interval structure with eager expiration (the
/// pre-optimization reference kernel).
#[derive(Debug, Default)]
pub struct ListSweep {
    active: Vec<Item>,
    stats: SweepStats,
}

impl ListSweep {
    /// Creates an empty structure.
    pub fn new() -> Self {
        ListSweep::default()
    }

    fn note_size(&mut self) {
        self.stats.max_resident = self.stats.max_resident.max(self.active.len());
        self.stats.max_bytes = self.stats.max_bytes.max(self.bytes());
    }
}

impl SweepStructure for ListSweep {
    fn with_extent(_x_lo: f32, _x_hi: f32) -> Self {
        ListSweep::new()
    }

    fn insert(&mut self, item: Item) {
        self.active.push(item);
        self.stats.inserts += 1;
        self.note_size();
    }

    fn expire_before(&mut self, y: f32) -> usize {
        let before = self.active.len();
        self.active.retain(|it| it.rect.hi.y >= y);
        let removed = before - self.active.len();
        self.stats.expirations += removed as u64;
        removed
    }

    fn query<F: FnMut(&Item)>(&mut self, query: &Item, mut report: F) {
        let qx = query.rect.x_interval();
        for it in &self.active {
            self.stats.rect_tests += 1;
            if qx.overlaps(&it.rect.x_interval()) {
                report(it);
            }
        }
    }

    fn len(&self) -> usize {
        self.active.len()
    }

    fn bytes(&self) -> usize {
        self.active.len() * std::mem::size_of::<Item>()
    }

    fn stats(&self) -> SweepStats {
        self.stats
    }

    fn name() -> &'static str {
        "List-Sweep"
    }
}

/// Fixed strip count of the pre-optimization striped kernel.
const EAGER_STRIPS: usize = 256;

/// Pre-optimization striped interval structure: `Vec<Item>` strips, fixed
/// 256-strip layout, eager per-push expiration over every strip.
#[derive(Debug)]
pub struct EagerStripedSweep {
    strips: Vec<Vec<Item>>,
    x_lo: f32,
    x_hi: f32,
    resident: usize,
    copies: usize,
    stats: SweepStats,
}

/// The original f64-division strip formula, byte-for-byte.
#[inline]
fn strip_index(x_lo: f32, x_hi: f32, n: usize, x: f32) -> usize {
    let t = (f64::from(x) - f64::from(x_lo)) / (f64::from(x_hi) - f64::from(x_lo));
    let idx = (t * n as f64).floor();
    if idx < 0.0 {
        0
    } else if idx >= n as f64 {
        n - 1
    } else {
        idx as usize
    }
}

impl EagerStripedSweep {
    #[inline]
    fn strip_of(&self, x: f32) -> usize {
        strip_index(self.x_lo, self.x_hi, self.strips.len(), x)
    }

    fn note_size(&mut self) {
        self.stats.max_resident = self.stats.max_resident.max(self.resident);
        self.stats.max_bytes = self.stats.max_bytes.max(self.bytes());
    }
}

impl SweepStructure for EagerStripedSweep {
    fn with_extent(x_lo: f32, x_hi: f32) -> Self {
        let (x_lo, x_hi) = if x_hi > x_lo { (x_lo, x_hi) } else { (x_lo, x_lo + 1.0) };
        EagerStripedSweep {
            strips: vec![Vec::new(); EAGER_STRIPS],
            x_lo,
            x_hi,
            resident: 0,
            copies: 0,
            stats: SweepStats::default(),
        }
    }

    fn insert(&mut self, item: Item) {
        let (first, last) = (self.strip_of(item.rect.lo.x), self.strip_of(item.rect.hi.x));
        for s in first..=last {
            self.strips[s].push(item);
            self.copies += 1;
        }
        self.resident += 1;
        self.stats.inserts += 1;
        self.note_size();
    }

    fn expire_before(&mut self, y: f32) -> usize {
        let mut removed_unique = 0;
        let mut removed_copies = 0;
        let (x_lo, x_hi) = (self.x_lo, self.x_hi);
        let n = self.strips.len();
        for (s, strip) in self.strips.iter_mut().enumerate() {
            let before = strip.len();
            strip.retain(|it| {
                let expired = it.rect.hi.y < y;
                if expired && strip_index(x_lo, x_hi, n, it.rect.lo.x) == s {
                    removed_unique += 1;
                }
                !expired
            });
            removed_copies += before - strip.len();
        }
        self.copies -= removed_copies;
        self.resident -= removed_unique;
        self.stats.expirations += removed_unique as u64;
        removed_unique
    }

    fn query<F: FnMut(&Item)>(&mut self, query: &Item, mut report: F) {
        let (first, last) = (self.strip_of(query.rect.lo.x), self.strip_of(query.rect.hi.x));
        let q_home = self.strip_of(query.rect.lo.x);
        let qx = query.rect.x_interval();
        for s in first..=last {
            for it in &self.strips[s] {
                self.stats.rect_tests += 1;
                if !qx.overlaps(&it.rect.x_interval()) {
                    continue;
                }
                let canonical = q_home.max(self.strip_of(it.rect.lo.x));
                if canonical == s {
                    report(it);
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.resident
    }

    fn bytes(&self) -> usize {
        self.copies * std::mem::size_of::<Item>()
            + self.strips.len() * std::mem::size_of::<Vec<Item>>()
    }

    fn stats(&self) -> SweepStats {
        self.stats
    }

    fn name() -> &'static str {
        "Eager-Striped-Sweep"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_geom::Rect;

    fn item(x0: f32, y0: f32, x1: f32, y1: f32, id: u32) -> Item {
        Item::new(Rect::from_coords(x0, y0, x1, y1), id)
    }

    #[test]
    fn eager_striped_kernel_dedups_and_counts() {
        let mut s = EagerStripedSweep::with_extent(0.0, 100.0);
        s.insert(item(5.0, 0.0, 95.0, 10.0, 1)); // spans many strips
        s.insert(item(40.0, 0.0, 60.0, 1.0, 2));
        let mut hits = Vec::new();
        s.query(&item(0.0, 1.0, 100.0, 2.0, 99), |it| hits.push(it.id));
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 2], "each overlap reported exactly once");
        assert_eq!(s.expire_before(5.0), 1);
        assert_eq!(s.len(), 1);
        let st = s.stats();
        assert_eq!(st.inserts, 2);
        assert_eq!(st.expirations, 1);
        assert!(st.max_bytes > 0);
        assert_eq!(EagerStripedSweep::name(), "Eager-Striped-Sweep");
    }

    #[test]
    fn reference_kernel_reports_overlaps_and_counts() {
        let mut s = ListSweep::with_extent(0.0, 10.0);
        s.insert(item(0.0, 0.0, 2.0, 10.0, 1));
        s.insert(item(5.0, 0.0, 6.0, 1.0, 2));
        let mut hits = Vec::new();
        s.query(&item(1.0, 1.0, 2.0, 2.0, 99), |it| hits.push(it.id));
        assert_eq!(hits, vec![1]);
        assert_eq!(s.expire_before(2.0), 1);
        assert_eq!(s.len(), 1);
        let st = s.stats();
        assert_eq!(st.inserts, 2);
        assert_eq!(st.expirations, 1);
        assert_eq!(st.rect_tests, 2);
        assert_eq!(st.max_bytes, 2 * std::mem::size_of::<Item>());
        assert_eq!(ListSweep::name(), "List-Sweep");
    }
}
