//! The pre-optimization reference kernel.
//!
//! [`ListSweep`] preserves the exact pre-overhaul `Forward-Sweep`, kept
//! in-tree for two jobs:
//!
//! * **oracle** — the differential tests drive the optimized kernels and
//!   it over the same workloads and require identical pair sets and
//!   consistent [`SweepStats`];
//! * **baseline** — the `sweep_structures` bench of `usj_bench` times it
//!   against the SoA kernels, so a wall-clock speedup is measured against
//!   the real pre-overhaul code, not a synthetic strawman.
//!
//! It is a single `Vec<Item>` active list, scanned linearly for every
//! query, with *eager* expiration — every
//! [`expire_before`](SweepStructure::expire_before) call walks the whole
//! list with `retain`. No join algorithm uses it.

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

#[cfg(test)]
mod tests {
    use super::*;
    use usj_geom::Rect;

    fn item(x0: f32, y0: f32, x1: f32, y1: f32, id: u32) -> Item {
        Item::new(Rect::from_coords(x0, y0, x1, y1), id)
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
