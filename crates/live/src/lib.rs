//! Live ingestion: the "millions of users *writing*" half of the north
//! star.
//!
//! Everything below this crate assumes a dataset is fully prepared (sorted
//! run + R-tree) before the first query touches it. This crate adds
//! [`LiveDataset`] — an LSM-style dataset handle: an immutable **base run**
//! (the same persisted representation the static catalog builds) plus an
//! in-memory gauged **memtable** of inserts that flushes to sorted **delta
//! runs** on the device when its reservation hits a threshold, with
//! **merge compaction** folding the deltas back into a new base + rebuilt
//! R-tree. Reads go through generation [`LiveSnapshot`]s — immutable unions
//! of sorted runs plus a frozen memtable copy — so queries keep a
//! consistent view while ingestion continues.
//!
//! A snapshot joins like any other relation: [`LiveSnapshot::cataloged`] is
//! a [`usj_core::CatalogedInput`] whose tiers are the delta and in-memory
//! runs beside the indexed base. SSSJ and PQ read it as the k-way merge of
//! its runs (`usj_io::merge::Merge`, charged like the external sort's
//! merge), without a sort, through the spilling plane sweep they run on
//! every input — so pairs surface while the runs are still being scanned,
//! and memory pressure spills residents to the device and recovers their
//! pairs with log-suffix fix-up joins. A registered dataset is the special
//! case with no tiers: the service crate keeps both in one table of slots
//! — a sealed slot holds a snapshot, a live slot a dataset and the snapshot
//! it last published — so one id space and three query kinds serve both.
//! Every join lowers through `usj_core::SpatialQuery`, and a selection reads
//! the base tree, then each tier.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod catalog;
pub mod manifest;
pub mod memtable;
mod streaming;

pub use catalog::{
    CompactionOutput, CompactionPlan, FlushJob, LiveConfig, LiveDataset, LiveSnapshot, LiveStats,
    RecoveryReport,
};
pub use manifest::{Manifest, RootPointer, RunRecord};
pub use memtable::Memtable;
pub use usj_core::{MemRun, SnapshotRun};

// Property-based tests on the vendored `usj_proptest` harness; opt-in
// behind the `proptest` feature like the rest of the workspace.
#[cfg(all(test, feature = "proptest"))]
mod proptests;

use std::fmt;

use usj_io::IoSimError;

/// Errors produced by live datasets.
#[derive(Debug, Clone, PartialEq)]
pub enum LiveError {
    /// An error bubbled up from the simulated I/O substrate (including
    /// `MemoryLimitExceeded` when the memtable outgrows the gauge).
    Io(IoSimError),
    /// Durable state failed an integrity check: a manifest or root pointer
    /// with a bad magic/checksum, or a base run whose per-block checksums
    /// no longer match its pages. Unrecoverable by design — the message
    /// says which check failed.
    Corrupted(String),
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::Io(e) => write!(f, "i/o: {e}"),
            LiveError::Corrupted(what) => write!(f, "durable state corrupted: {what}"),
        }
    }
}

impl std::error::Error for LiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LiveError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IoSimError> for LiveError {
    fn from(e: IoSimError) -> Self {
        LiveError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LiveError>;
