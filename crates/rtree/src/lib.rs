//! Packed R-trees on the simulated external-memory substrate.
//!
//! The paper's indexed experiments all run on *packed* R-trees bulk-loaded
//! with the Hilbert heuristic of Kamel & Faloutsos: rectangles are sorted by
//! the Hilbert value of their centre and packed into leaves in that order,
//! following the advice of DeWitt et al. not to fill nodes completely (each
//! node is filled to 75 % and further rectangles are admitted only while they
//! do not grow the node's directory rectangle by more than 20 %). The
//! resulting trees have an average packing ratio of about 90 % and — because
//! bulk loading allocates the children of every node consecutively — a
//! largely sequential on-disk layout, which is exactly the property Section
//! 6.2 of the paper identifies as the reason the depth-first ST join performs
//! so much sequential I/O.
//!
//! * [`node`] — the 8 KiB on-page node format (maximum fanout 400): the
//!   writer's [`Node`] and the reader's [`NodeView`], which scans a node
//!   where it lies on its page.
//! * [`bulk`] — Hilbert bulk loading from in-memory slices or item streams,
//!   and the rebuild of a tree from its old leaves merged with new records.
//! * [`tree`] — the [`RTree`] handle: node access (optionally through an LRU
//!   buffer pool), window queries, and tree statistics. A handle is not
//!   persisted: recovery rebuilds the tree from its sorted run.
//! * [`store`] — the [`NodeStore`]: a buffer-pool-backed node cache that the
//!   ST join and the service's window/point selection queries read through.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bulk;
pub mod node;
pub mod store;
pub mod tree;

pub use bulk::BulkLoadConfig;
pub use node::{Node, NodeEntry, NodeKind, NodeView, MAX_FANOUT};
pub use store::NodeStore;
pub use tree::{LeafCursor, Probe, RTree, RTreeStats};

// Property-based tests need the external `proptest` crate, which the
// offline build environment cannot provide; they are opt-in behind the
// `proptest` feature (see KNOWN_FAILURES.md).
#[cfg(all(test, feature = "proptest"))]
mod proptests;
