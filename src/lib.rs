//! # Unified Spatial Join
//!
//! A from-scratch Rust reproduction of *"A Unified Approach for Indexed and
//! Non-Indexed Spatial Joins"* (Arge, Procopiuc, Ramaswamy, Suel, Vahrenhold,
//! Vitter — EDBT 2000).
//!
//! This facade crate re-exports the workspace crates so downstream users can
//! depend on a single package:
//!
//! * [`geom`] — rectangles, points, intervals, Hilbert curve.
//! * [`io`] — the simulated external-memory substrate: block device with
//!   sequential/random I/O accounting, LRU buffer pool, record streams,
//!   external multiway mergesort, and the three machine cost models from
//!   Table 1 of the paper.
//! * [`rtree`] — packed, Hilbert bulk-loaded R-trees stored on the simulated
//!   disk.
//! * [`sweep`] — the `Forward-Sweep` and `Striped-Sweep` interval structures
//!   and the plane-sweep join driver.
//! * [`datagen`] — TIGER-like synthetic workloads matching Table 2.
//! * [`join`] — the four spatial-join algorithms (SSSJ, PBSM, ST and the
//!   paper's new PQ join), the multi-way extension, and the cost model that
//!   decides between indexed and non-indexed execution.
//! * [`live`] — LSM-style live ingestion (memtable → sorted delta runs →
//!   merge compaction, with generation snapshots that join as cataloged
//!   inputs with tiers, emitting pairs while their runs are still being
//!   scanned).
//! * [`service`] — the register-once/query-many layer: a dataset
//!   [`Catalog`](prelude::Catalog) of sealed live datasets (a sorted run and
//!   an R-tree on the device, never appended to), and a concurrent
//!   [`Service`](prelude::Service) admitting join,
//!   window and point queries over registered and live datasets alike
//!   against a shared memory budget with gauge-based admission control and
//!   a plan cache.
//!
//! ## Quickstart
//!
//! Joins are described with the [`SpatialQuery`](prelude::SpatialQuery)
//! builder: pick an algorithm (or let the paper's §6.3 cost model pick)
//! and a predicate, then stream the result pairs into any sink.
//!
//! ```
//! use unified_spatial_join::prelude::*;
//!
//! // Generate a small TIGER-like workload.
//! let workload = WorkloadSpec::preset(Preset::NJ).with_scale(200).generate(42);
//!
//! // Build the simulated machine and an R-tree over each relation.
//! let machine = MachineConfig::machine3();
//! let mut env = SimEnv::new(machine);
//! let roads_tree = RTree::bulk_load(&mut env, &workload.roads).unwrap();
//! let hydro_tree = RTree::bulk_load(&mut env, &workload.hydro).unwrap();
//!
//! // Describe and run the join; Algo::Auto routes through the cost model,
//! // Algo::Pq forces the paper's unified algorithm.
//! let result = SpatialQuery::new(
//!         JoinInput::Indexed(&roads_tree),
//!         JoinInput::Indexed(&hydro_tree),
//!     )
//!     .algorithm(Algo::Pq)
//!     .run(&mut env)
//!     .unwrap();
//! assert!(result.pairs > 0);
//! ```

pub use usj_core as join;
pub use usj_datagen as datagen;
pub use usj_geom as geom;
pub use usj_io as io;
pub use usj_live as live;
pub use usj_obs as obs;
pub use usj_rtree as rtree;
pub use usj_service as service;
pub use usj_sweep as sweep;

/// Commonly used items, re-exported for convenience.
///
/// The pre-0.2 `SpatialJoin` shim trait (deprecated in 0.2.0) has been
/// removed; drive joins through [`JoinOperator`](usj_core::JoinOperator)
/// (plain closures implement `PairSink`) or the
/// [`SpatialQuery`](usj_core::SpatialQuery) builder.
pub mod prelude {
    pub use usj_core::{
        cost::{CostBasedJoin, CostEstimate, JoinPlan},
        pbsm::PbsmJoin,
        pq::PqJoin,
        query::{Algo, MemoryPlan, QueryPlan, SpatialQuery},
        sssj::SssjJoin,
        st::StJoin,
        CatalogedInput, CollectSink, CountSink, JoinAlgorithm, JoinInput, JoinOperator,
        JoinResult, LimitSink, MemoryStats, MultiwayJoin, PairSink, Predicate, SampleSink,
        TripleSink,
    };
    pub use usj_datagen::{Preset, Workload, WorkloadSpec};
    pub use usj_geom::{Interval, Point, Rect};
    pub use usj_io::{machine::MachineConfig, sim::SimEnv, stats::IoStats};
    pub use usj_live::{LiveConfig, LiveDataset, LiveSnapshot};
    pub use usj_obs::{
        ChromeTrace, HostClock, LogHistogram, MetricsSnapshot, QueryTrace, VirtualClock,
    };
    pub use usj_rtree::{NodeStore, RTree};
    pub use usj_service::{
        CancelToken, Catalog, DatasetId, JoinSpec, PlanCache, QueryKind, QueryOutcome,
        QueryRequest, QueryStats, QueryStatus, Service, ServiceConfig, ServiceReport,
        ServiceStats, Session,
    };
    pub use usj_sweep::{ForwardSweep, StripedSweep, SweepScratch, SweepStructure};
}
