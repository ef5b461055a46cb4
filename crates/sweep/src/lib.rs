//! Plane-sweep interval structures and the sweep-join driver.
//!
//! All four join algorithms in the paper ultimately reduce rectangle
//! intersection to a *dynamic 1-D interval intersection* problem: a
//! horizontal sweep line moves upward through the data, and only rectangles
//! currently cut by the line — represented by their x-projections — need to
//! be tested against each other. Two internal-memory structures for the
//! active intervals are compared in the SSSJ paper and reused here:
//!
//! * [`ForwardSweep`] — the classic structure used by earlier spatial-join
//!   implementations: one unordered active list per input, scanned linearly
//!   for every query.
//! * [`StripedSweep`] — the x-extent is divided into vertical strips and each
//!   active interval is registered in every strip it overlaps, so queries
//!   only inspect the strips they intersect. The SSSJ paper measured it to be
//!   2–5× faster than the alternatives on real data.
//!
//! Both structures keep their resident sets in **struct-of-arrays layout**
//! with **lazy batched expiration** (see the [`forward`] module docs): the
//! overlap scan streams packed coordinate arrays and the per-push `O(n)`
//! expiration `retain` of the naive kernel is replaced by an exact expiry
//! queue plus threshold-triggered tombstone compaction. The naive kernel
//! survives behind the dev-only `reference-kernels` feature (module
//! `reference`: `ListSweep`) — the differential-testing oracle and the
//! wall-clock baseline of the `sweep_structures` bench, not part of the
//! crate's API.
//!
//! The [`SweepDriver`] is the crate's one probe / insert / expire /
//! statistics loop: it consumes two y-sorted item sequences and produces
//! the intersecting pairs plus detailed operation counts, which the
//! simulation environment later converts into CPU time. Who drives it:
//!
//! * [`sweep_join_in_place`] sorts two slices where they lie and sweeps
//!   them — PBSM's fitting partitions, on their load buffers;
//!   [`sweep_join`] does the same over copies of two borrowed slices;
//! * the §4 multiway cascade pushes both of its sweeps through it;
//! * the [`SpillingSweepDriver`] holds one and adds the spill discipline:
//!   when the active intervals outgrow the internal-memory budget it evicts
//!   the soonest-to-expire items to the simulated device and recovers their
//!   missed intersections with a log-based fix-up join, keeping the memory
//!   governor's limit a hard invariant at the price of extra (charged)
//!   I/O. It is the one driver behind every externally sorted or streamed
//!   sweep — SSSJ's sorted runs and the merged runs of a live snapshot,
//!   PQ's index adapters — and [`merge_sweep`] is the one loop that feeds
//!   it: two y-ordered pull sources merged on lower y, each side closed as
//!   its source ends so the residents only it could probe drain at once.
//!
//! Two *small* in-memory batches — the entries of two R-tree nodes, two
//! chunks of an unsplittable PBSM partition — skip the structures
//! altogether: [`batch_join`] sweeps them with a moving window over the
//! sorted batches themselves, and [`batch_join_oriented`] does so along
//! whichever axis the batch is narrower on.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod batch;
pub mod driver;
pub mod forward;
#[cfg(any(test, feature = "reference-kernels"))]
pub mod reference;
mod soa;
pub mod spill;
pub mod striped;
pub mod structure;

pub use batch::{batch_join, batch_join_oriented};
pub use driver::{sweep_join, sweep_join_in_place, Side, SweepDriver, SweepJoinStats};
pub use forward::ForwardSweep;
#[cfg(any(test, feature = "reference-kernels"))]
pub use reference::ListSweep;
pub use spill::{merge_sweep, SpillingSweepDriver};
pub use striped::{StripedSweep, INITIAL_STRIPS, MAX_STRIPS, TARGET_PER_STRIP};
pub use structure::{SweepStats, SweepStructure};

// Property-based tests need the external `proptest` crate, which the
// offline build environment cannot provide; they are opt-in behind the
// `proptest` feature (see KNOWN_FAILURES.md).
#[cfg(all(test, feature = "proptest"))]
mod proptests;
