//! The interface shared by the interval structures.

use usj_geom::Item;

/// Operation counters reported by a sweep structure.
///
/// The counters feed the deterministic CPU model (rectangle tests dominate
/// the internal-memory cost of the sweep) and the memory accounting of
/// Table 3 (the maximum number of bytes the structure held at any time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Rectangle/interval comparisons performed while answering queries.
    pub rect_tests: u64,
    /// Items inserted into the structure.
    pub inserts: u64,
    /// Items removed because the sweep line passed their upper edge.
    pub expirations: u64,
    /// Maximum number of items resident at any point of the sweep.
    pub max_resident: usize,
    /// Maximum size of the structure in bytes at any point of the sweep.
    pub max_bytes: usize,
}

/// A dynamic set of x-intervals (rectangles cut by the current sweep line).
///
/// The structure stores the full [`Item`] so that matches can be reported
/// with their identifiers; logically only the x-projection and the upper
/// y-coordinate (the expiry) matter.
pub trait SweepStructure {
    /// Creates an empty structure covering the given x-extent.
    ///
    /// `Forward-Sweep` ignores the extent; `Striped-Sweep` uses it to place
    /// its strips.
    fn with_extent(x_lo: f32, x_hi: f32) -> Self
    where
        Self: Sized;

    /// Inserts an item whose lower edge the sweep line just reached.
    fn insert(&mut self, item: Item);

    /// Removes every item whose upper y-coordinate is strictly below `y`
    /// (the sweep line has passed it, so it can never intersect anything
    /// processed later). Returns the number of removed items.
    fn expire_before(&mut self, y: f32) -> usize;

    /// Reports every resident item whose x-projection overlaps `query`'s to
    /// the callback. Expired items may be skipped or lazily removed, but must
    /// never be reported.
    fn query<F: FnMut(&Item)>(&mut self, query: &Item, report: F);

    /// Number of items currently resident (including any not yet lazily
    /// expired items is acceptable only if `expire_before` was not called).
    fn len(&self) -> usize;

    /// Returns `true` when no items are resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate current size of the structure in bytes (used for the
    /// Table 3 memory accounting).
    fn bytes(&self) -> usize;

    /// Operation counters accumulated so far.
    fn stats(&self) -> SweepStats;

    /// Human-readable name used in reports and benchmarks.
    fn name() -> &'static str
    where
        Self: Sized;
}
