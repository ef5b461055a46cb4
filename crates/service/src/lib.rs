//! The query service: a stored-dataset catalog and a concurrent query
//! executor with gauge-based admission control.
//!
//! Everything below the service joins *ephemeral* inputs: the ST path
//! bulk-loads a throwaway R-tree per query, and every sort-based algorithm
//! re-sorts its input from scratch. A system serving many queries over the
//! same data wants the opposite — datasets registered **once**, their
//! prepared representations persisted on the simulated device, and many
//! concurrent queries admitted against one shared memory budget. This crate
//! provides the three layers:
//!
//! * [`catalog`] — [`Catalog::register`] persists a dataset as a y-sorted
//!   [`ItemStream`](usj_io::ItemStream) run *plus* a bulk-loaded R-tree: a
//!   sealed [`usj_live::LiveDataset`], kept as its snapshot. Registered
//!   datasets feed joins through
//!   [`JoinInput::Cataloged`](usj_core::JoinInput::Cataloged), which skips
//!   re-sorting, index building and bounding-box scans; a dataset made
//!   durable before [`Catalog::insert`] recovers through the live layer's
//!   manifest.
//! * [`service`] — a [`Service`] owns a worker pool and a FIFO+priority
//!   admission queue. Each [`QueryRequest`] (a join over two datasets, or an
//!   index-backed window/point selection over one) is admitted only when
//!   the shared admission gauge has headroom for its memory estimate, then
//!   runs on a forked [`SimEnv`](usj_io::SimEnv) layered over a read-only
//!   snapshot of the
//!   catalog device — its own I/O accounting, its own hard per-query memory
//!   budget. Results stream through the existing
//!   [`PairSink`](usj_core::PairSink)/`ControlFlow` machinery with `LIMIT`
//!   and [`CancelToken`] cancellation, and per-query plus service-wide
//!   [`ServiceStats`] roll up like
//!   [`JoinResult`](usj_core::JoinResult).
//! * the plan cache — completed [`QueryPlan`](usj_core::QueryPlan)s are
//!   memoized by query fingerprint, so repeat queries skip the planner's
//!   cost-estimation I/O (the `Algo::Auto` directory probes). The cache
//!   also remembers each fingerprint's measured memory-gauge peak from
//!   completed runs, which replaces the size-based admission heuristic on
//!   repeat workloads ([`Service::admission_estimate`] adds a 25% safety
//!   margin) — so a service that has seen a query before admits it more
//!   densely the next time.
//!
//! The service also fronts the *live* layer ([`usj_live`]):
//! [`Service::register_live`] / [`Service::append_live`] mutate LSM-style
//! datasets. Registered and live datasets are slots of one published table,
//! numbered in one [`DatasetId`] space, registered ones first. A live
//! dataset is a base run + R-tree plus unindexed tiers, and a registered
//! one is the case with no tiers, so the same three query kinds serve
//! both: every join lowers through [`usj_core::SpatialQuery`] over
//! cataloged inputs, a live one taken from the snapshot its slot published
//! at execution time — under `Auto`, SSSJ merges a tiered input's runs as
//! it sweeps, so first pairs stream out before either input is fully read —
//! and a selection reads the tree, then each tier.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod catalog;
mod executor;
mod faults;
mod obs;
mod plan_cache;
mod request;
mod scheduler;
pub mod service;
mod store;

// Property-based tests on the vendored `usj_proptest` harness; opt-in
// behind the `proptest` feature like the rest of the workspace.
#[cfg(all(test, feature = "proptest"))]
mod proptests;

pub use catalog::{Catalog, DatasetId};
pub use service::{
    CancelToken, JoinSpec, QueryKind, QueryOutcome, QueryRequest, QueryStats, QueryStatus, Service,
    ServiceConfig, ServiceReport, ServiceStats, Session,
};
pub use usj_live::LiveConfig;

/// The id of a live dataset: a [`DatasetId`] like any other.
pub type LiveId = DatasetId;
pub use usj_obs::{
    ChromeTrace, Clock, HostClock, MetricsSnapshot, QueryTrace, TraceSpan, VirtualClock,
};

use std::fmt;

use usj_io::IoSimError;

/// Errors produced by the catalog and the query service.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// An error bubbled up from the simulated I/O substrate (including
    /// `MemoryLimitExceeded` when a query outgrows its admitted budget).
    Io(IoSimError),
    /// A dataset name was registered twice.
    DuplicateDataset(String),
    /// A query referred to a dataset the catalog does not hold.
    UnknownDataset(String),
    /// Durable state failed an integrity check (bubbled up from the live
    /// layer's manifest/checksum verification).
    Corrupted(String),
    /// A worker thread panicked while executing the query. The panic was
    /// contained: the worker kept running, the query's admission
    /// reservation was released, and the payload is carried here.
    WorkerPanicked(String),
    /// The query missed its [`deadline`](service::QueryRequest::deadline_us)
    /// — either while waiting in the admission queue or mid-execution.
    DeadlineExceeded {
        /// The deadline, microseconds on the service clock.
        deadline_us: u64,
        /// When the deadline was noticed, on the same clock.
        now_us: u64,
    },
    /// The query waited longer than the configured admission timeout
    /// without getting a reservation
    /// ([`ServiceConfig::with_admission_timeout_us`](service::ServiceConfig::with_admission_timeout_us)).
    AdmissionTimeout {
        /// The configured timeout, microseconds.
        timeout_us: u64,
        /// How long the query actually waited before giving up.
        waited_us: u64,
    },
    /// A shared lock was poisoned by a panic in another thread and the
    /// protected state cannot be trusted on this path. The payload names
    /// the lock.
    LockPoisoned(&'static str),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "i/o: {e}"),
            ServiceError::DuplicateDataset(name) => {
                write!(f, "dataset '{name}' is already registered")
            }
            ServiceError::UnknownDataset(name) => write!(f, "unknown dataset '{name}'"),
            ServiceError::Corrupted(what) => write!(f, "durable state corrupted: {what}"),
            ServiceError::WorkerPanicked(payload) => {
                write!(f, "worker panicked while executing the query: {payload}")
            }
            ServiceError::DeadlineExceeded {
                deadline_us,
                now_us,
            } => {
                write!(
                    f,
                    "deadline exceeded: deadline {deadline_us}us, noticed at {now_us}us"
                )
            }
            ServiceError::AdmissionTimeout {
                timeout_us,
                waited_us,
            } => {
                write!(
                    f,
                    "admission timed out after {waited_us}us (timeout {timeout_us}us)"
                )
            }
            ServiceError::LockPoisoned(which) => {
                write!(f, "lock '{which}' poisoned by a panic in another thread")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IoSimError> for ServiceError {
    fn from(e: IoSimError) -> Self {
        ServiceError::Io(e)
    }
}

impl From<usj_live::LiveError> for ServiceError {
    fn from(e: usj_live::LiveError) -> Self {
        match e {
            usj_live::LiveError::Io(io) => ServiceError::Io(io),
            usj_live::LiveError::Corrupted(what) => ServiceError::Corrupted(what),
        }
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ServiceError>;
