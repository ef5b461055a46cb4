//! The unified spatial-join algorithms.
//!
//! This crate is the paper's primary contribution plus the three algorithms
//! it is compared against, all running on the simulated external-memory
//! substrate of [`usj_io`]:
//!
//! * [`pq`] — **Priority-Queue-Driven Traversal (PQ)**, the new algorithm:
//!   an index adapter extracts the rectangles of an R-tree in sorted
//!   (lower-y) order with a priority queue, touching every node at most once,
//!   and feeds them — together with any sorted non-indexed inputs — into the
//!   same plane-sweep used by SSSJ. Indexed and non-indexed inputs are thus
//!   processed by one algorithm (Section 4).
//! * [`sssj`] — Scalable Sweeping-Based Spatial Join: external sort by lower
//!   y-coordinate followed by a single plane-sweep scan (Section 3.1).
//! * [`pbsm`] — Partition-Based Spatial Merge join: tile-hash partitioning
//!   followed by an in-memory sweep per partition (Section 3.2).
//! * [`st`] — Synchronized R-tree Traversal: depth-first traversal of two
//!   R-trees with an LRU buffer pool (Section 3.3).
//! * [`multiway`] — the 3-way intersection join built by cascading PQ
//!   (Section 4).
//! * [`histogram`] / [`cost`] — spatial selectivity estimation and the cost
//!   model of Section 6.3 that decides when to use the indexes ("use the
//!   index only when the join involves less than ~60 % of the leaves").

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cost;
pub mod histogram;
pub mod input;
pub mod multiway;
mod partition;
pub mod pbsm;
pub mod pq;
pub mod predicate;
pub mod query;
pub mod result;
pub mod sink;
pub mod sssj;
pub mod st;

pub use cost::{CostBasedJoin, CostEstimate, JoinPlan};
pub use histogram::GridHistogram;
pub use input::{CatalogedInput, JoinInput};
pub use multiway::MultiwayJoin;
pub use pbsm::PbsmJoin;
pub use pq::PqJoin;
pub use predicate::Predicate;
pub use query::{Algo, MemoryPlan, QueryPlan, SpatialQuery};
pub use result::{JoinResult, MemoryStats};
pub use sink::{CollectSink, CountSink, FanoutSink, LimitSink, PairSink, SampleSink, TripleSink};
pub use sssj::SssjJoin;
pub use st::StJoin;

use usj_io::{Result, SimEnv};

/// The four join algorithms of the comparative study, as a value — used by
/// the experiment harness to iterate over algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinAlgorithm {
    /// Scalable Sweeping-based Spatial Join (non-indexed).
    Sssj,
    /// Partition-Based Spatial Merge join (non-indexed).
    Pbsm,
    /// Priority-Queue-Driven Traversal (works on indexed and non-indexed inputs).
    Pq,
    /// Synchronized R-tree Traversal (indexed only).
    St,
}

impl JoinAlgorithm {
    /// All algorithms in the order the paper's Figure 3 lists them
    /// (SJ, PB, PQ, ST).
    pub fn all() -> [JoinAlgorithm; 4] {
        [
            JoinAlgorithm::Sssj,
            JoinAlgorithm::Pbsm,
            JoinAlgorithm::Pq,
            JoinAlgorithm::St,
        ]
    }

    /// Short display name used in the paper's figures.
    pub fn short_name(self) -> &'static str {
        match self {
            JoinAlgorithm::Sssj => "SJ",
            JoinAlgorithm::Pbsm => "PB",
            JoinAlgorithm::Pq => "PQ",
            JoinAlgorithm::St => "ST",
        }
    }

    /// Full display name.
    pub fn name(self) -> &'static str {
        match self {
            JoinAlgorithm::Sssj => "SSSJ",
            JoinAlgorithm::Pbsm => "PBSM",
            JoinAlgorithm::Pq => "PQ",
            JoinAlgorithm::St => "ST",
        }
    }

    /// Runs the algorithm with its default configuration, discarding the
    /// output pairs (the paper's measurements exclude writing the output).
    ///
    /// This routes through [`SpatialQuery`], the single algorithm-dispatch
    /// site of the crate.
    pub fn run(
        self,
        env: &mut SimEnv,
        left: JoinInput<'_>,
        right: JoinInput<'_>,
    ) -> Result<JoinResult> {
        SpatialQuery::new(left, right).algorithm(self.into()).run(env)
    }
}

/// The interface shared by the join implementations (the four algorithms of
/// the comparative study).
///
/// Output pairs stream through a [`PairSink`], whose
/// [`ControlFlow`](std::ops::ControlFlow)-returning
/// [`emit`](PairSink::emit) lets consumers stop the join early (LIMIT-style
/// queries). A stopped join returns normally with the accounting of the work
/// it actually performed; [`JoinResult::pairs`] counts the pairs delivered to
/// the sink.
pub trait JoinOperator {
    /// Human-readable algorithm name.
    fn name(&self) -> &'static str;

    /// Runs the join, streaming every accepted `(left_id, right_id)` pair to
    /// `sink` and returning the accounting summary.
    fn run_with(
        &self,
        env: &mut SimEnv,
        left: JoinInput<'_>,
        right: JoinInput<'_>,
        sink: &mut dyn PairSink,
    ) -> Result<JoinResult>;

    /// Runs the join discarding the output pairs (the paper measures the
    /// filter step excluding output writing).
    fn run(&self, env: &mut SimEnv, left: JoinInput<'_>, right: JoinInput<'_>) -> Result<JoinResult> {
        self.run_with(env, left, right, &mut CountSink::default())
    }

    /// Runs the join and collects the output pairs in memory (intended for
    /// tests and small workloads).
    fn run_collect(
        &self,
        env: &mut SimEnv,
        left: JoinInput<'_>,
        right: JoinInput<'_>,
    ) -> Result<(JoinResult, Vec<(u32, u32)>)> {
        let mut sink = CollectSink::default();
        let res = self.run_with(env, left, right, &mut sink)?;
        Ok((res, sink.pairs))
    }
}

// The pre-0.2 `SpatialJoin` trait (a bare `FnMut(u32, u32)` callback shim
// over `JoinOperator`) was deprecated in 0.2.0 and has been removed as
// promised after one release. Use `JoinOperator` with a `PairSink`, or the
// `SpatialQuery` builder — plain closures still implement `PairSink`, so
// `op.run_with(env, l, r, &mut |a, b| ...)` keeps working unchanged.

#[cfg(test)]
mod algorithm_tests;
// Property-based tests need the external `proptest` crate, which the
// offline build environment cannot provide; they are opt-in behind the
// `proptest` feature (see KNOWN_FAILURES.md).
#[cfg(all(test, feature = "proptest"))]
mod proptests;
