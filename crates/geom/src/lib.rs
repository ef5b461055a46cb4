//! Geometry primitives for the unified spatial join.
//!
//! The paper's filter step operates exclusively on *minimal bounding
//! rectangles* (MBRs): each spatial object is approximated by the smallest
//! axis-parallel rectangle containing it, and the join reports all pairs of
//! intersecting MBRs. This crate provides those primitives:
//!
//! * [`Point`] — a 2-D point with `f32` coordinates (the paper stores 16-byte
//!   corner coordinates, i.e. four 4-byte floats per rectangle).
//! * [`Rect`] — an axis-parallel rectangle, the MBR representation.
//! * [`Item`] — a rectangle plus its 4-byte object identifier; exactly the
//!   20-byte record layout used by the paper's data files.
//! * [`Extents`] — bounding box and summed side lengths of a set of
//!   rectangles, and the one rule by which a partitioning or a sweep picks
//!   the axis the set is narrower on.
//! * [`Interval`] — a 1-D interval, used by the plane-sweep structures for the
//!   projections of rectangles onto the sweep line.
//! * [`hilbert`] — the Hilbert space-filling curve used for R-tree bulk
//!   loading (Kamel & Faloutsos packing heuristic).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod extents;
pub mod hilbert;
pub mod interval;
pub mod item;
pub mod point;
pub mod rect;

pub use extents::Extents;
pub use interval::Interval;
pub use item::{
    f32_from_order_key, f32_order_key, sort_by_key_then, sort_by_lower_y, Item, ObjectId,
    ITEM_BYTES,
};
pub use point::Point;
pub use rect::Rect;

// Property-based tests need the external `proptest` crate, which the
// offline build environment cannot provide; they are opt-in behind the
// `proptest` feature (see KNOWN_FAILURES.md).
#[cfg(all(test, feature = "proptest"))]
mod proptests;
