//! The concurrent query service: worker pool, FIFO+priority admission
//! queue, gauge-based admission control.
//!
//! A [`Service`] freezes a registered [`Catalog`] behind a read-only device
//! snapshot and executes batches of [`QueryRequest`]s on a pool of worker
//! threads. The scheduling contract:
//!
//! * **Admission order** is priority-then-FIFO: higher
//!   [`priority`](QueryRequest::priority) first, submission order within a
//!   priority.
//! * **Admission control** is *gauge-based*: every request carries a memory
//!   estimate (its [`admission_estimate`](Service::admission_estimate), or an
//!   explicit [`memory_budget`](QueryRequest::memory_budget)), and is
//!   admitted only when the service-wide admission
//!   [`MemoryGauge`] — whose limit is the shared
//!   [`ServiceConfig::memory_limit`] — can reserve that many bytes. A free
//!   worker that cannot admit a request records a **deferral** and either
//!   admits a later (smaller or lower-priority) request or sleeps until a
//!   running query releases its reservation. The admitted bytes become the
//!   worker environment's *hard* memory limit, so the measured per-query
//!   `peak_bytes` can never exceed the granted budget, and the sum of
//!   concurrently granted budgets can never exceed the shared limit —
//!   admission control *bounds the aggregate footprint by construction*.
//! * **Isolation**: every admitted query runs on
//!   [`SimEnv::fork_with_base`] over the catalog snapshot — its own I/O
//!   statistics and disk head, its own scratch pages, its own memory gauge.
//! * **Results** stream through the `PairSink`/`ControlFlow` machinery:
//!   `LIMIT` and [`CancelToken`] cancellation genuinely stop the producing
//!   traversal, saving I/O.
//! * **Open-loop sessions**: [`Service::with_session`] keeps the worker
//!   pool alive while a driver thread [`submit`](Session::submit)s requests
//!   on its own schedule — the load-generator mode. [`Service::run`] is the
//!   batch special case (everything submitted up front, session closed
//!   immediately). Queue waits are anchored at each request's *first
//!   enqueue*, so a deferred request's re-admission attempts never reset
//!   its measured wait.
//! * **Bounded overtake**: a free worker may admit a later (smaller or
//!   cheaper) request over a blocked head-of-line one, but only
//!   [`ServiceConfig::max_overtakes`] times per queue entry — after that
//!   the entry becomes a barrier no admission scan passes, so heavy
//!   requests cannot starve.
//! * **Background maintenance** (opt-in via
//!   [`ServiceConfig::with_background_maintenance`]): live-dataset flushes
//!   and merge compactions run on a dedicated worker thread instead of
//!   inside [`Service::append_live`]. Appends return after the memtable
//!   insert (plus an O(1) freeze past the threshold); the worker runs the
//!   same split maintenance phases the inline path composes, against
//!   immutable run handles, under a scoped 4 MiB maintenance budget, and
//!   publishes each new generation through the snapshot mechanism. The
//!   publication order — base page snapshot first, then the run handle —
//!   paired with the read order — run handles first, then the base — keeps
//!   every visible run readable from every worker fork by construction.

use std::borrow::Cow;
use std::fmt;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use usj_core::{
    Algo, CatalogedInput, JoinInput, JoinResult, MemoryStats, PairSink, Predicate,
    SpatialQuery,
};
use usj_geom::{Item, Point, Rect, ITEM_BYTES};
use usj_io::{
    fault::derive_seed, BlockDevice, CpuCounter, CpuOp, FaultConfig, FaultPlan, IoSimError,
    IoStats, MachineConfig, MemoryGauge, Page, SimEnv, PAGE_SIZE,
};
use usj_live::{
    CompactionPlan, FlushJob, LiveCatalog, LiveConfig, LiveDataset, LiveSnapshot, LiveStats,
};
use usj_obs::{Clock, QueryTrace, Recorder, RingCollector};
use usj_rtree::NodeStore;

use crate::catalog::{Catalog, DatasetId};
use crate::obs::ServiceObs;
use crate::plan_cache::{PlanCache, PlanKey};
pub use crate::scheduler::Session;
use crate::{Result, ServiceError};

/// Smallest budget any query is granted (stream block buffers plus sweep
/// floors make smaller grants fail immediately).
pub const MIN_QUERY_BUDGET: usize = 512 * 1024;

/// Default admission floor for join queries: two 512 KiB stream read
/// buffers plus sweep/partition working sets.
pub const JOIN_BUDGET_FLOOR: usize = 2 * 1024 * 1024;

/// Default admission estimate for window/point selections (node-store pool
/// plus traversal state).
pub const SELECTION_BUDGET: usize = 1024 * 1024;

/// Scoped memory budget for each live-maintenance step's transient working
/// set: flush writes and compaction merges run under [`SimEnv::with_budget`]
/// of this size, so background merges degrade (spill) at a bounded footprint
/// instead of competing unboundedly with query admission.
const MAINTENANCE_BUDGET: usize = 4 * 1024 * 1024;

/// Per-query trace ring capacity, in events. A bounded trace drops its
/// *oldest* events (and says how many) instead of growing without limit.
const QUERY_TRACE_EVENTS: usize = 16 * 1024;

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing admitted queries (at least 1; default 4).
    pub workers: usize,
    /// The shared admission budget in bytes: the sum of the budgets of all
    /// concurrently running queries never exceeds it (default: the paper's
    /// 24 MB free-memory figure).
    pub memory_limit: usize,
    /// How many times a pending request may be overtaken by later
    /// admissions before it becomes a barrier the admission scan will not
    /// pass (default 8). `0` disables overtaking entirely (strict
    /// priority/FIFO admission).
    pub max_overtakes: u64,
    /// Whether live-dataset maintenance (flushes, merge compactions) runs
    /// on a dedicated background worker thread instead of inside
    /// [`Service::append_live`] (default: off — the inline baseline the
    /// interference benchmark compares against). Both modes compose the
    /// same split maintenance phases, so they produce identical runs.
    pub background_maintenance: bool,
    /// Bounded retries for transient device faults
    /// ([`IoSimError::DeviceFault`]` { transient: true }`): a failed query
    /// or maintenance step is re-run up to this many times with
    /// exponential backoff before the error surfaces (default 3).
    pub fault_retries: u32,
    /// Base backoff between transient-fault retries, microseconds on the
    /// observability clock — attempt *n* waits `base << (n-1)`. Driven
    /// through [`Clock::wait_us`], so a
    /// [`VirtualClock`](usj_obs::VirtualClock) replays the schedule
    /// exactly without host sleeps (default 1000 µs).
    pub fault_backoff_us: u64,
    /// Longest a request may wait in the admission queue without getting a
    /// reservation before it fails with [`ServiceError::AdmissionTimeout`]
    /// (default `None` — wait indefinitely). Only deferred requests time
    /// out; a request the gauge can admit is never failed by this knob.
    pub admission_timeout_us: Option<u64>,
    /// Deterministic fault injection (default `None` — zero cost, no fault
    /// machinery touched). When set, every query's forked environment and
    /// the storage environment get [`FaultPlan`]s derived from this
    /// config's seed via domain-separated streams, so a seed replays the
    /// exact same fault schedule while distinct queries see independent
    /// faults.
    pub fault_plan: Option<FaultConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            memory_limit: usj_io::sim::DEFAULT_MEMORY_LIMIT,
            max_overtakes: 8,
            background_maintenance: false,
            fault_retries: 3,
            fault_backoff_us: 1_000,
            admission_timeout_us: None,
            fault_plan: None,
        }
    }
}

impl ServiceConfig {
    /// Sets the worker count (builder style).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the shared admission budget in bytes (builder style).
    pub fn with_memory_limit(mut self, bytes: usize) -> Self {
        self.memory_limit = bytes;
        self
    }

    /// Sets the per-entry overtake bound (builder style).
    pub fn with_max_overtakes(mut self, max: u64) -> Self {
        self.max_overtakes = max;
        self
    }

    /// Enables or disables the background maintenance worker (builder
    /// style).
    pub fn with_background_maintenance(mut self, enabled: bool) -> Self {
        self.background_maintenance = enabled;
        self
    }

    /// Sets the transient-fault retry policy (builder style): up to
    /// `retries` re-runs, attempt *n* backing off `backoff_base_us << (n-1)`
    /// microseconds on the observability clock.
    pub fn with_fault_retries(mut self, retries: u32, backoff_base_us: u64) -> Self {
        self.fault_retries = retries;
        self.fault_backoff_us = backoff_base_us;
        self
    }

    /// Sets the admission-wait timeout (builder style).
    pub fn with_admission_timeout_us(mut self, timeout_us: u64) -> Self {
        self.admission_timeout_us = Some(timeout_us);
        self
    }

    /// Installs deterministic fault injection (builder style).
    pub fn with_fault_plan(mut self, faults: FaultConfig) -> Self {
        self.fault_plan = Some(faults);
        self
    }
}

/// A shared cancellation flag for one or more queries.
///
/// Setting it makes queued queries resolve to
/// [`QueryStatus::Cancelled`] without running, and makes running queries
/// stop at their next emitted pair (the sink breaks the producing join or
/// traversal, so the remaining I/O is genuinely saved).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// The join form of a [`QueryRequest`]: which datasets, which algorithm
/// and predicate.
#[derive(Debug, Clone, Copy)]
pub struct JoinSpec {
    /// Left input dataset.
    pub left: DatasetId,
    /// Right input dataset.
    pub right: DatasetId,
    /// Join algorithm (default [`Algo::Auto`], which runs SSSJ over a
    /// dataset with tiers — see [`QueryKind`]).
    pub algo: Algo,
    /// Pair predicate (default intersection).
    pub predicate: Predicate,
}

impl JoinSpec {
    /// A default (Auto, intersects) join of `left` against `right`.
    pub fn new(left: DatasetId, right: DatasetId) -> Self {
        JoinSpec {
            left,
            right,
            algo: Algo::default(),
            predicate: Predicate::default(),
        }
    }
}

/// What a [`QueryRequest`] asks for.
///
/// Every kind addresses datasets by [`DatasetId`], registered and live
/// alike, and reads each as a cataloged input — a live dataset's delta and
/// in-memory runs as its tiers, taken from a generation snapshot when the
/// query starts:
///
/// * a join lowers through [`SpatialQuery`] — the chosen [`Algo`], and
///   the plan cache when both datasets are registered. `Auto` consults the
///   §6.3 estimate over inputs without tiers and runs SSSJ over any with
///   tiers, which merges their runs without sorting, so pairs surface
///   while the runs are still being scanned;
/// * a selection reads the base R-tree, then each tier behind its bounding
///   box — for a dataset without tiers, exactly the plain tree query.
#[derive(Debug, Clone, Copy)]
pub enum QueryKind {
    /// A spatial join of two datasets.
    Join(JoinSpec),
    /// A window selection: every item of `dataset` intersecting `window`,
    /// streamed as `(id, 0)` pairs.
    Window {
        /// The dataset to select from.
        dataset: DatasetId,
        /// The query window.
        window: Rect,
    },
    /// A point (stabbing) selection: every item of `dataset` containing
    /// `point`, streamed as `(id, 0)` pairs.
    Point {
        /// The dataset to select from.
        dataset: DatasetId,
        /// The query point.
        point: Point,
    },
}

impl QueryKind {
    /// The dataset and window of a selection (a point is a degenerate
    /// window); `None` for a join.
    pub fn selection(&self) -> Option<(DatasetId, Rect)> {
        match *self {
            QueryKind::Join(_) => None,
            QueryKind::Window { dataset, window } => Some((dataset, window)),
            QueryKind::Point { dataset, point } => {
                Some((dataset, Rect::from_coords(point.x, point.y, point.x, point.y)))
            }
        }
    }
}

/// One query submitted to the service.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// What to run.
    pub kind: QueryKind,
    /// Admission priority: higher priorities are admitted first; submission
    /// order breaks ties (FIFO within a priority).
    pub priority: u8,
    /// Stop after this many delivered pairs (`LIMIT n`).
    pub limit: Option<u64>,
    /// Whether to collect the delivered pairs into the outcome (off by
    /// default — the paper's measurement mode discards output).
    pub collect: bool,
    /// Explicit per-query memory budget in bytes, overriding the service's
    /// admission estimate (clamped to `[MIN_QUERY_BUDGET, memory_limit]`).
    pub memory_budget: Option<usize>,
    /// Cooperative cancellation flag.
    pub cancel: Option<CancelToken>,
    /// Absolute deadline, microseconds on the service's observability
    /// clock. A request past its deadline fails with
    /// [`ServiceError::DeadlineExceeded`] — noticed in the admission queue
    /// before it runs, and at emission checkpoints while it runs (firing
    /// the attached [`CancelToken`], if any, so the producing traversal
    /// genuinely stops).
    pub deadline_us: Option<u64>,
}

impl QueryRequest {
    fn with_kind(kind: QueryKind) -> Self {
        QueryRequest {
            kind,
            priority: 0,
            limit: None,
            collect: false,
            memory_budget: None,
            cancel: None,
            deadline_us: None,
        }
    }

    /// A default join request of `left` against `right`.
    pub fn join(left: DatasetId, right: DatasetId) -> Self {
        Self::with_kind(QueryKind::Join(JoinSpec::new(left, right)))
    }

    /// A join request with an explicit specification.
    pub fn from_spec(spec: JoinSpec) -> Self {
        Self::with_kind(QueryKind::Join(spec))
    }

    /// A window-selection request.
    pub fn window(dataset: DatasetId, window: Rect) -> Self {
        Self::with_kind(QueryKind::Window { dataset, window })
    }

    /// A point-selection request.
    pub fn point(dataset: DatasetId, point: Point) -> Self {
        Self::with_kind(QueryKind::Point { dataset, point })
    }

    /// The same request as [`join`](QueryRequest::join).
    pub fn streaming_join(left: DatasetId, right: DatasetId) -> Self {
        Self::join(left, right)
    }

    /// The same request as [`window`](QueryRequest::window).
    pub fn live_window(dataset: DatasetId, window: Rect) -> Self {
        Self::window(dataset, window)
    }

    /// Selects the join algorithm (builder style; no-op for selections).
    pub fn with_algorithm(mut self, algo: Algo) -> Self {
        if let QueryKind::Join(spec) = &mut self.kind {
            spec.algo = algo;
        }
        self
    }

    /// Selects the join predicate (builder style; no-op for selections).
    pub fn with_predicate(mut self, predicate: Predicate) -> Self {
        if let QueryKind::Join(spec) = &mut self.kind {
            spec.predicate = predicate;
        }
        self
    }

    /// Sets the admission priority (builder style).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets a `LIMIT` on delivered pairs (builder style).
    pub fn with_limit(mut self, limit: u64) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Collects the delivered pairs into the outcome (builder style).
    pub fn collecting(mut self) -> Self {
        self.collect = true;
        self
    }

    /// Sets an explicit per-query memory budget (builder style).
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Attaches a cancellation token (builder style).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets an absolute deadline on the observability clock (builder
    /// style). `0` means "already expired": the request resolves to
    /// [`ServiceError::DeadlineExceeded`] without running — the
    /// deterministic smoke case.
    pub fn with_deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }
}

/// How one query ended.
#[derive(Debug, Clone)]
pub enum QueryStatus {
    /// The query ran to completion (or to its `LIMIT`); the accounting
    /// summary covers exactly the work its forked environment performed.
    Completed(JoinResult),
    /// The query was cancelled: `None` if it never ran, `Some(partial)` with
    /// the accounting of the work done before the cancellation stopped it.
    Cancelled(Option<JoinResult>),
    /// The query failed (unknown dataset, or its admitted memory budget was
    /// genuinely insufficient).
    Failed(ServiceError),
}

/// Per-query scheduling statistics.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Bytes reserved on the admission gauge for this query (zero if it was
    /// never admitted). The worker environment's hard memory limit.
    pub admitted_bytes: usize,
    /// Times a free worker examined this request and could not admit it for
    /// lack of gauge headroom.
    pub deferrals: u64,
    /// Wall-clock time from this request's *first enqueue* to its admission
    /// (or to resolution, for queries that never ran). Deferrals and
    /// re-admission attempts do not reset the anchor.
    pub queue_wait: Duration,
    /// Wall-clock time from first enqueue to resolution (queue wait plus
    /// execution) — the client-observed latency the repo benchmark's
    /// `serve_*` workloads aggregate into percentiles.
    pub latency: Duration,
    /// Position in the service's admission order (`None` if the request
    /// was never admitted). Within one priority class, un-overtaken
    /// admissions happen in submission order — the FIFO property the
    /// admission-queue property tests check.
    pub admission_seq: Option<u64>,
    /// Times a later request was admitted over this one while it waited.
    /// Bounded by [`ServiceConfig::max_overtakes`] by construction.
    pub overtaken: u64,
    /// The per-query operator trace, when [`Service::set_tracing`] was on
    /// while this query executed: a `query` root holding the synthesised
    /// `admission.wait` leaf and the recorded `execute` span tree
    /// (operator phases with attributed charged I/O, spill/expiry marks).
    /// `None` whenever tracing is off — and the executed work is
    /// byte-identical either way (the differential suite's contract).
    pub trace: Option<QueryTrace>,
}

/// The outcome of one submitted query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Index of the request in the submitted batch.
    pub request: usize,
    /// How the query ended.
    pub status: QueryStatus,
    /// The delivered pairs, when the request asked to
    /// [`collect`](QueryRequest::collect) them.
    pub pairs: Option<Vec<(u32, u32)>>,
    /// Scheduling statistics.
    pub stats: QueryStats,
}

impl QueryOutcome {
    /// The accounting summary, if the query produced one (completed, or
    /// cancelled after it started running).
    pub fn result(&self) -> Option<&JoinResult> {
        match &self.status {
            QueryStatus::Completed(r) => Some(r),
            QueryStatus::Cancelled(r) => r.as_ref(),
            QueryStatus::Failed(_) => None,
        }
    }

    /// Returns `true` if the query completed.
    pub fn is_completed(&self) -> bool {
        matches!(self.status, QueryStatus::Completed(_))
    }
}

/// Service-wide statistics of one [`Service::run`] batch. Counters sum and
/// peaks take maxima.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// The shared admission budget the batch ran under.
    pub memory_limit: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Requests submitted.
    pub submitted: u64,
    /// Requests admitted (their budget was reserved and they ran).
    pub admitted: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Requests cancelled (before or during execution).
    pub cancelled: u64,
    /// Admission deferral events: a free worker examined a request and could
    /// not reserve its budget.
    pub deferrals: u64,
    /// Plan-cache lookups satisfied from the cache during this batch.
    pub plan_cache_hits: u64,
    /// Plan-cache lookups that planned from scratch during this batch.
    pub plan_cache_misses: u64,
    /// High-water mark of the admission gauge: the largest sum of
    /// concurrently granted budgets (never exceeds
    /// [`memory_limit`](ServiceStats::memory_limit) by construction).
    pub peak_admitted_bytes: usize,
    /// Largest *measured* per-query `peak_bytes`.
    pub peak_query_bytes: usize,
    /// Total pairs delivered across all queries.
    pub pairs: u64,
    /// Aggregate I/O of every query's forked environment.
    pub io: IoStats,
    /// Aggregate CPU work of every query's forked environment.
    pub cpu: CpuCounter,
    /// Longest queue wait of any request.
    pub max_queue_wait: Duration,
    /// Sum of all queue waits.
    pub total_queue_wait: Duration,
    /// High-water mark of the pending queue length.
    pub max_queue_depth: usize,
}

impl fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} submitted / {} completed / {} failed / {} cancelled on {} workers; \
             {} deferrals under {:.1} MB shared budget (peak admitted {:.1} MB, \
             peak query {:.2} MB); {} pairs, {} pages read, {} pages written; \
             plan cache {}/{} hits",
            self.submitted,
            self.completed,
            self.failed,
            self.cancelled,
            self.workers,
            self.deferrals,
            self.memory_limit as f64 / (1024.0 * 1024.0),
            self.peak_admitted_bytes as f64 / (1024.0 * 1024.0),
            self.peak_query_bytes as f64 / (1024.0 * 1024.0),
            self.pairs,
            self.io.pages_read,
            self.io.pages_written,
            self.plan_cache_hits,
            self.plan_cache_hits + self.plan_cache_misses,
        )
    }
}

impl ServiceStats {
    /// A digest over the *interleaving-independent* fields: request
    /// resolution counts, delivered pairs, aggregate page I/O, and
    /// plan-cache misses. Two runs of the same request schedule against the
    /// same catalog produce equal digests regardless of worker scheduling —
    /// the seed-replay determinism contract `tests/replay.rs` pins.
    ///
    /// Timing-dependent fields (waits, deferrals, overtakes, plan-cache
    /// hit/miss *split* per query, queue depth) are deliberately excluded;
    /// aggregate I/O is included because the plan cache plans each join
    /// shape exactly once per batch no matter which query pays for it.
    pub fn replay_digest(&self) -> u64 {
        // FNV-1a over the stable fields, dependency-free.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.submitted);
        eat(self.admitted);
        eat(self.completed);
        eat(self.failed);
        eat(self.cancelled);
        eat(self.pairs);
        eat(self.io.pages_read);
        eat(self.io.pages_written);
        eat(self.plan_cache_misses);
        h
    }
}

/// Everything one [`Service::run`] batch produced.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// One outcome per submitted request, in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// The batch-wide roll-up.
    pub stats: ServiceStats,
}

/// The concurrent query service over a frozen catalog and the live datasets
/// registered beside it.
///
/// # Example
///
/// ```
/// use usj_core::Algo;
/// use usj_geom::{Item, Rect};
/// use usj_io::{MachineConfig, SimEnv};
/// use usj_service::{Catalog, QueryRequest, Service, ServiceConfig};
///
/// let mut env = SimEnv::new(MachineConfig::machine3());
/// let boxes: Vec<Item> = (0..400)
///     .map(|i| {
///         let (x, y) = ((i % 20) as f32, (i / 20) as f32);
///         Item::new(Rect::from_coords(x, y, x + 0.9, y + 0.9), i)
///     })
///     .collect();
/// let mut catalog = Catalog::new();
/// let a = catalog.register(&mut env, "boxes", &boxes).unwrap();
///
/// let service = Service::new(env, catalog, ServiceConfig::default().with_workers(2));
/// let report = service.run(vec![
///     QueryRequest::join(a, a).with_algorithm(Algo::Pq),
///     QueryRequest::window(a, Rect::from_coords(0.0, 0.0, 5.0, 5.0)),
/// ]);
/// assert_eq!(report.stats.completed, 2);
/// assert!(report.stats.pairs > 0);
/// ```
#[derive(Debug)]
pub struct Service {
    /// The shared mutable state of the live (LSM) side, behind three
    /// independent locks — see [`LiveStore`]. Shared with the background
    /// maintenance worker when one is running.
    store: Arc<LiveStore>,
    catalog: Catalog,
    pub(crate) config: ServiceConfig,
    /// The machine model, copied out of the storage environment so query
    /// worker forks can be built without touching the storage lock.
    machine: MachineConfig,
    pub(crate) plan_cache: Mutex<PlanCache>,
    /// The background maintenance worker, when
    /// [`ServiceConfig::background_maintenance`] is on. Dropped (shut down
    /// and joined) before the store is dissolved.
    maintenance: Option<Maintenance>,
    /// The observability hub: metric registry, trace clock, tracing switch
    /// and the background-maintenance event ring. Shared with the
    /// maintenance worker.
    pub(crate) obs: Arc<ServiceObs>,
}

/// Microseconds elapsed between two clock readings, as a [`Duration`]
/// (clamped at zero — a swapped virtual clock never yields negative waits).
pub(crate) fn us_between(from_us: u64, to_us: u64) -> Duration {
    Duration::from_micros(to_us.saturating_sub(from_us))
}

/// Recovers a poisoned lock guard.
///
/// The service's lock-poisoning policy, from the `unwrap()` audit: worker
/// and maintenance panics are contained with `catch_unwind` *before* they
/// reach scheduler state, and every structure these locks protect keeps its
/// invariants across a panic (the device is append-only, catalog and queue
/// mutations are not interleaved with faultable I/O). Refusing service
/// forever because some earlier thread panicked would turn one contained
/// fault into a total outage — so scheduler, storage and observability
/// locks *recover*, while query-path lookups whose callers return `Result`
/// propagate [`ServiceError::LockPoisoned`] instead (see
/// [`Service::live_snapshot`]).
pub(crate) fn relock<T>(result: std::sync::LockResult<T>) -> T {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Transient-fault retry policy: how many re-runs, and the base backoff.
#[derive(Debug, Clone, Copy)]
struct FaultRetry {
    retries: u32,
    backoff_us: u64,
}

impl FaultRetry {
    fn of(config: &ServiceConfig) -> Self {
        FaultRetry {
            retries: config.fault_retries,
            backoff_us: config.fault_backoff_us,
        }
    }

    /// Backoff before retry attempt `n` (1-based): `base << (n-1)`,
    /// shift-capped so a misconfigured retry count cannot overflow.
    fn backoff_for(&self, attempt: u32) -> u64 {
        self.backoff_us.saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
    }
}

/// Runs `f`, retrying transient device faults per `retry` with
/// clock-driven exponential backoff. Every observed device fault bumps
/// `faults.injected`; every re-run bumps `faults.retries`. Non-transient
/// errors (torn writes included) surface immediately.
fn retry_transient<T>(
    obs: &ServiceObs,
    retry: FaultRetry,
    mut f: impl FnMut() -> Result<T>,
) -> Result<T> {
    let mut attempt = 0u32;
    loop {
        match f() {
            Err(ServiceError::Io(IoSimError::DeviceFault { transient: true }))
                if attempt < retry.retries =>
            {
                attempt += 1;
                obs.metrics.faults_injected.inc();
                obs.metrics.faults_retries.inc();
                obs.clock().wait_us(retry.backoff_for(attempt));
            }
            Err(e) => {
                if matches!(&e, ServiceError::Io(IoSimError::DeviceFault { .. })) {
                    obs.metrics.faults_injected.inc();
                }
                return Err(e);
            }
            ok => return ok,
        }
    }
}

/// Best-effort text of a caught panic payload.
fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Fault stream id for one query attempt: request index in the low half,
/// retry attempt in the high half — every (query, attempt) pair draws an
/// independent, replayable fault schedule, so a retry is not doomed to hit
/// the very fault decision that failed it.
fn query_fault_stream(idx: usize, attempt: u32) -> u64 {
    (idx as u64 & 0xffff_ffff) | (u64::from(attempt) << 32)
}

/// Reserved fault stream for the storage environment (registrations,
/// flushes, compactions) — far outside the per-query space.
const STORAGE_FAULT_STREAM: u64 = u64::MAX;

/// Static label for a query kind, used as trace span detail.
fn kind_label(kind: &QueryKind) -> &'static str {
    match kind {
        QueryKind::Join(_) => "join",
        QueryKind::Window { .. } => "window",
        QueryKind::Point { .. } => "point",
    }
}

/// The live side's shared state. Three locks, deliberately independent:
///
/// * `storage` — the device-owning environment. All persisted-run I/O
///   (registration, flush writes, compaction merges) happens here.
///   Appends, snapshot-taking and query execution never touch it, so a
///   long merge never blocks them.
/// * `live` — the catalog of [`LiveDataset`] handles: memtables, run
///   handles, generations. Held only for O(in-memory) operations (inserts,
///   claims, publications, snapshot clones) — never across device I/O.
/// * `base` — the latest device page snapshot, forked by query workers.
///
/// **Publication ordering invariant**: a maintenance actor makes new pages
/// readable *before* making the run that references them visible — it
/// snapshots the device (under `storage`), advances `base`, and only then
/// publishes the run handle (under `live`). Readers do the reverse: clone
/// run handles first (a snapshot, under `live`), then fork the base.
///
/// What that rests on is the device's sharing contract
/// ([`BlockDevice::snapshot`](usj_io::BlockDevice::snapshot)): a snapshot
/// is immutable and shares the storage device's pages instead of copying
/// them, so publishing one after *every* flush and compaction costs a
/// pointer per page; the storage device's later writes (new runs on fresh
/// pages, a durable dataset's root pointer in place) un-share only the
/// pages they hit and never show through a published snapshot; and pages
/// are never freed or renumbered, so each snapshot is a prefix of every
/// later one — every run a reader can see has its pages in the base it
/// forks. Lock order, where nesting is needed at all, is
/// `live` → `storage` → `base`; the maintenance loop itself holds at most
/// one of the three at a time.
#[derive(Debug)]
struct LiveStore {
    storage: Mutex<SimEnv>,
    live: Mutex<LiveCatalog>,
    base: Mutex<Arc<Vec<Page>>>,
}

impl LiveStore {
    /// Advances the base snapshot slot — monotonically, so two actors
    /// racing their publications can never move readers *backwards* onto a
    /// snapshot that lacks already-visible pages.
    fn publish_base(&self, snap: Arc<Vec<Page>>) {
        let mut base = relock(self.base.lock());
        if snap.len() > base.len() {
            *base = snap;
        }
    }

    /// The current base snapshot for a worker fork.
    fn fork_base(&self) -> Arc<Vec<Page>> {
        Arc::clone(&*relock(self.base.lock()))
    }
}

/// One step of live maintenance, claimed under the `live` lock and executed
/// against immutable handles on the storage environment.
enum MaintStep {
    Flush(FlushJob),
    Compact(CompactionPlan),
}

/// Drives one dataset's maintenance to completion: claim a step under the
/// `live` lock, run its I/O on the storage environment under the scoped
/// maintenance budget, publish base-then-run, repeat until nothing is
/// pending. `full` forces a terminal freeze + compaction regardless of the
/// configured thresholds (the quiesce path); otherwise the dataset's own
/// thresholds decide.
///
/// This one function *is* live maintenance for both modes: the inline path
/// calls it on the appending thread, the background worker calls it on its
/// own — so the two modes produce identical runs by construction.
fn tend_live(
    store: &LiveStore,
    obs: &ServiceObs,
    name: &str,
    budget: usize,
    full: bool,
    retry: FaultRetry,
) -> Result<()> {
    // While tracing, route the `live.flush` / `live.compaction` spans the
    // split-phase runners emit into the shared maintenance ring. Metric
    // durations below are recorded unconditionally.
    let _trace = obs.install_maint();
    loop {
        // Claim: O(in-memory) work only under the live lock.
        let step = {
            let mut live = relock(store.live.lock());
            let Some(ds) = live.get_mut_by_name(name) else {
                return Ok(());
            };
            if (full && ds.memtable_len() > 0) || ds.wants_freeze() {
                ds.freeze();
            }
            if let Some(job) = ds.begin_flush() {
                MaintStep::Flush(job)
            } else if full && !ds.delta_runs().is_empty() || ds.wants_compaction() {
                match ds.begin_compaction() {
                    Some(plan) => MaintStep::Compact(plan),
                    None => return Ok(()),
                }
            } else {
                return Ok(());
            }
        };
        // Execute: device I/O on the storage environment, inside the scoped
        // maintenance budget; then snapshot *under the same lock hold*, so
        // the snapshot is guaranteed to contain the step's pages.
        match step {
            MaintStep::Flush(job) => {
                let t0 = obs.now_us();
                // Transient device faults re-run the whole flush: `begin_flush`
                // only *peeked* the batch, so a failed attempt leaves it queued
                // and a re-run writes a fresh run from the same records.
                let (run, snap) = retry_transient(obs, retry, || {
                    let mut storage = relock(store.storage.lock());
                    let run =
                        storage.with_budget(budget, |env| LiveDataset::run_flush(env, &job))?;
                    let snap = storage.device.snapshot();
                    Ok((run, snap))
                })?;
                obs.metrics.maintenance_flushes.inc();
                obs.metrics.maintenance_flush_us.record(obs.now_us().saturating_sub(t0));
                // Publish: base pages first, then the run handle.
                store.publish_base(snap);
                let mut live = relock(store.live.lock());
                if let Some(ds) = live.get_mut_by_name(name) {
                    ds.publish_flush(job, run);
                }
            }
            MaintStep::Compact(plan) => {
                let t0 = obs.now_us();
                let ran = retry_transient(obs, retry, || {
                    let mut storage = relock(store.storage.lock());
                    storage
                        .with_budget(budget, |env| LiveDataset::run_compaction(env, &plan))
                        .map(|out| (out, storage.device.snapshot()))
                        .map_err(ServiceError::from)
                });
                obs.metrics.maintenance_compactions.inc();
                obs.metrics.maintenance_compaction_us.record(obs.now_us().saturating_sub(t0));
                match ran {
                    Ok((out, snap)) => {
                        store.publish_base(snap);
                        let mut live = relock(store.live.lock());
                        if let Some(ds) = live.get_mut_by_name(name) {
                            ds.publish_compaction(out);
                        }
                    }
                    Err(e) => {
                        let mut live = relock(store.live.lock());
                        if let Some(ds) = live.get_mut_by_name(name) {
                            ds.abort_compaction();
                        }
                        return Err(e);
                    }
                }
            }
        }
    }
}

/// A queued unit of background maintenance.
#[derive(Debug)]
enum MaintJob {
    /// Run [`tend_live`] for the named dataset until nothing is pending.
    Tend(String),
    /// Exit the worker loop.
    Shutdown,
}

/// The background maintenance worker: one thread, an mpsc job queue, and an
/// in-flight counter so [`Service::quiesce_live`] can wait for the queue to
/// drain. Dropping it sends `Shutdown` and joins the thread — the
/// shutdown/join discipline that keeps [`Service::into_parts`] sound.
#[derive(Debug)]
struct Maintenance {
    tx: mpsc::Sender<MaintJob>,
    /// Jobs enqueued but not yet finished, with a condvar for waiters.
    inflight: Arc<(Mutex<u64>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Maintenance {
    fn spawn(store: Arc<LiveStore>, obs: Arc<ServiceObs>, budget: usize, retry: FaultRetry) -> Self {
        let (tx, rx) = mpsc::channel::<MaintJob>();
        let inflight = Arc::new((Mutex::new(0u64), Condvar::new()));
        let worker_inflight = Arc::clone(&inflight);
        let handle = std::thread::spawn(move || {
            while let Ok(job) = rx.recv() {
                match job {
                    MaintJob::Shutdown => break,
                    MaintJob::Tend(name) => {
                        // A maintenance error (e.g. device full) leaves the
                        // dataset consistent with the work still pending;
                        // the next append's tend retries it. Queries and
                        // appends keep working off the last published
                        // generation either way. A *panic* inside the tend
                        // is contained the same way: the claimed step is
                        // abandoned (its records stay in the queued tiers),
                        // the poisoned locks recover via `relock`, and —
                        // crucially — the in-flight count still drops, so
                        // `wait_idle` never hangs on a dead job.
                        let tended = catch_unwind(AssertUnwindSafe(|| {
                            let _ = tend_live(&store, &obs, &name, budget, false, retry);
                        }));
                        if tended.is_err() {
                            obs.metrics.faults_panics.inc();
                            obs.metrics.faults_injected.inc();
                        }
                        let (count, cv) = &*worker_inflight;
                        let mut n = relock(count.lock());
                        *n -= 1;
                        cv.notify_all();
                    }
                }
            }
        });
        Maintenance {
            tx,
            inflight,
            handle: Some(handle),
        }
    }

    /// Queues a tend for `name`; the worker coalesces naturally (a tend
    /// drains *everything* pending, so later queued tends for the same
    /// dataset fall through as no-ops).
    fn enqueue(&self, name: &str) {
        let (count, cv) = &*self.inflight;
        *relock(count.lock()) += 1;
        if self.tx.send(MaintJob::Tend(name.to_string())).is_err() {
            // Worker already shut down (only happens mid-drop).
            *relock(count.lock()) -= 1;
            cv.notify_all();
        }
    }

    /// Blocks until every queued job has finished.
    fn wait_idle(&self) {
        let (count, cv) = &*self.inflight;
        let mut n = relock(count.lock());
        while *n > 0 {
            n = relock(cv.wait(n));
        }
    }
}

impl Drop for Maintenance {
    fn drop(&mut self) {
        let _ = self.tx.send(MaintJob::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Service {
    /// Creates a service over `catalog`, whose datasets live on `env`'s
    /// device. The device is snapshotted here — the catalog is frozen for
    /// the service's lifetime and queries never mutate it — and every
    /// batch's worker forks share that snapshot, or the later one live
    /// maintenance published, which extends it without copying its pages.
    pub fn new(mut env: SimEnv, catalog: Catalog, config: ServiceConfig) -> Self {
        // Under a fault plan, the *storage* environment (registrations,
        // flushes, compactions) draws from its own reserved stream —
        // independent of every per-query schedule and replayable on its own.
        if let Some(faults) = config.fault_plan {
            let mut storage_faults = faults;
            storage_faults.seed = derive_seed(faults.seed, STORAGE_FAULT_STREAM);
            env.install_faults(FaultPlan::new(storage_faults));
        }
        let base = env.device.snapshot();
        let machine = env.machine.clone();
        // Live ids continue the catalog's: one id space, two tables.
        let store = Arc::new(LiveStore {
            storage: Mutex::new(env),
            live: Mutex::new(LiveCatalog::numbered_from(catalog.len() as u32)),
            base: Mutex::new(base),
        });
        let obs = Arc::new(ServiceObs::new());
        let maintenance = config.background_maintenance.then(|| {
            Maintenance::spawn(
                Arc::clone(&store),
                Arc::clone(&obs),
                MAINTENANCE_BUDGET,
                FaultRetry::of(&config),
            )
        });
        Service {
            store,
            catalog,
            config,
            machine,
            plan_cache: Mutex::new(PlanCache::new()),
            maintenance,
            obs,
        }
    }

    /// The registered datasets (live ones are reached through
    /// [`with_live`](Service::with_live)).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Runs `f` against the live (LSM-style) side of the catalog, under its
    /// lock. With background maintenance on, the view is a consistent point
    /// in time but maintenance may publish a new generation the moment the
    /// closure returns — don't cache tier shapes across calls.
    pub fn with_live<T>(&self, f: impl FnOnce(&LiveCatalog) -> T) -> T {
        // The deref is load-bearing: without it, inference unifies
        // `relock`'s T with `LiveCatalog` instead of the guard.
        #[allow(clippy::explicit_auto_deref)]
        f(&*relock(self.store.live.lock()))
    }

    /// Lifetime counters for the named live dataset, if it exists.
    pub fn live_stats(&self, name: &str) -> Option<LiveStats> {
        self.with_live(|live| live.lookup(name).map(|(_, ds)| ds.stats()))
    }

    /// The named live dataset's *observed maintenance backlog*: delta runs
    /// awaiting compaction plus frozen batches awaiting flush, at this
    /// instant. Under background maintenance this is the number a submitter
    /// actually races against — the load the worker has not yet retired —
    /// which makes it the right bucketing key for interference experiments
    /// (post-hoc stats deltas can't tell "ran during compaction" from "ran
    /// just after").
    pub fn live_backlog(&self, name: &str) -> Option<usize> {
        self.with_live(|live| {
            live.lookup(name)
                .map(|(_, ds)| ds.delta_runs().len() + ds.pending_flush_batches())
        })
    }

    /// Registers a live dataset with an initial base batch, publishing the
    /// new device pages so queries' worker forks can read its base run.
    /// Registered and live datasets share one namespace: a name the catalog
    /// holds is refused.
    pub fn register_live(
        &self,
        name: &str,
        base_items: &[Item],
        config: LiveConfig,
    ) -> Result<DatasetId> {
        // Hold the live lock across creation so two racing registrations of
        // the same name can't both pass the duplicate check (lock order:
        // live → storage).
        let mut live = self
            .store
            .live
            .lock()
            .map_err(|_| ServiceError::LockPoisoned("live catalog"))?;
        if live.lookup(name).is_some() || self.catalog.lookup(name).is_some() {
            return Err(ServiceError::DuplicateDataset(name.to_string()));
        }
        let (dataset, snap) = retry_transient(&self.obs, FaultRetry::of(&self.config), || {
            let mut storage = relock(self.store.storage.lock());
            let dataset = LiveDataset::create(&mut storage, name, base_items, config)?;
            let snap = storage.device.snapshot();
            Ok((dataset, snap))
        })?;
        self.store.publish_base(snap);
        Ok(live.insert(dataset)?)
    }

    /// Appends records to a registered live dataset. The records land in the
    /// dataset's memtable and are immediately visible to queries; flushes
    /// and compactions the append makes due either run here inline or are
    /// handed to the background maintenance worker, per
    /// [`ServiceConfig::background_maintenance`].
    pub fn append_live(&self, name: &str, items: &[Item]) -> Result<()> {
        let pending = {
            let mut live = self
                .store
                .live
                .lock()
                .map_err(|_| ServiceError::LockPoisoned("live catalog"))?;
            let Some(ds) = live.get_mut_by_name(name) else {
                return Err(ServiceError::UnknownDataset(name.to_string()));
            };
            ds.append_buffered(items)?
        };
        if pending {
            match &self.maintenance {
                Some(worker) => worker.enqueue(name),
                None => tend_live(
                    &self.store,
                    &self.obs,
                    name,
                    MAINTENANCE_BUDGET,
                    false,
                    FaultRetry::of(&self.config),
                )?,
            }
        }
        Ok(())
    }

    /// Drains the named live dataset's maintenance backlog to *nothing*:
    /// waits out any queued background work, then flushes the memtable and
    /// folds every delta into the base run. Afterwards the dataset has no
    /// tiers — a single sorted run + R-tree that joins through
    /// [`SpatialQuery`] like a registered dataset, and the shape that makes
    /// benchmark pair-checks deterministic.
    pub fn quiesce_live(&self, name: &str) -> Result<()> {
        if self.with_live(|live| live.lookup(name).is_none()) {
            return Err(ServiceError::UnknownDataset(name.to_string()));
        }
        if let Some(worker) = &self.maintenance {
            worker.wait_idle();
        }
        tend_live(
            &self.store,
            &self.obs,
            name,
            MAINTENANCE_BUDGET,
            true,
            FaultRetry::of(&self.config),
        )
    }

    /// [`quiesce_live`](Service::quiesce_live), then the dataset's id.
    pub fn promote_live(&mut self, name: &str) -> Result<DatasetId> {
        self.quiesce_live(name)?;
        self.with_live(|live| live.lookup(name).map(|(id, _)| id))
            .ok_or_else(|| ServiceError::UnknownDataset(name.to_string()))
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Dissolves the service, returning the environment and catalog (e.g. to
    /// register more datasets and build a new service). Shuts down and joins
    /// the background maintenance worker first, so the store has exactly one
    /// owner left.
    pub fn into_parts(mut self) -> (SimEnv, Catalog) {
        drop(self.maintenance.take());
        let store = Arc::try_unwrap(self.store)
            .unwrap_or_else(|_| panic!("maintenance worker joined; no other store owners remain"));
        let env = relock(store.storage.into_inner());
        (env, self.catalog)
    }

    /// The memory estimate admission control will reserve for `request`: an
    /// explicit [`memory_budget`](QueryRequest::memory_budget) clamped to
    /// `[MIN_QUERY_BUDGET, memory_limit]`, or a size-based heuristic:
    /// 3× the input bytes with a [`JOIN_BUDGET_FLOOR`] floor for a join of
    /// two registered datasets, 1× for a join touching a live one (the
    /// sweep over its merged runs spills instead of growing), and
    /// [`SELECTION_BUDGET`] for selections.
    ///
    /// When the plan cache holds a *measured* peak for a join's fingerprint
    /// (recorded from earlier uncancelled, unlimited runs of the same query
    /// shape), the estimate is that peak plus a 25 % safety margin instead
    /// of the size heuristic — repeat workloads are admitted against what
    /// the query actually used, so more of them fit the shared budget
    /// concurrently. Only joins of two registered datasets have
    /// fingerprints: a live dataset can still grow past any peak measured
    /// on it.
    pub fn admission_estimate(&self, request: &QueryRequest) -> usize {
        let limit = self.config.memory_limit;
        if let Some(bytes) = request.memory_budget {
            return bytes.max(MIN_QUERY_BUDGET).min(limit.max(1));
        }
        let want = match &request.kind {
            QueryKind::Join(spec) => {
                let registered = |id: DatasetId| self.catalog.get(id).map(LiveSnapshot::len);
                match (registered(spec.left), registered(spec.right)) {
                    (Some(left), Some(right)) => {
                        let measured = relock(self.plan_cache.lock()).peak(&PlanKey::new(spec));
                        match measured {
                            Some(peak) => (peak + peak / 4).max(MIN_QUERY_BUDGET),
                            None => {
                                let bytes = (left + right) as usize * ITEM_BYTES;
                                (3 * bytes).max(JOIN_BUDGET_FLOOR)
                            }
                        }
                    }
                    (left, right) => {
                        let live = relock(self.store.live.lock());
                        let len = |known: Option<u64>, id: DatasetId| {
                            known.or_else(|| live.get(id).map(LiveDataset::len)).unwrap_or(0)
                        };
                        let items = len(left, spec.left) + len(right, spec.right);
                        (items as usize * ITEM_BYTES).max(JOIN_BUDGET_FLOOR)
                    }
                }
            }
            QueryKind::Window { .. } | QueryKind::Point { .. } => SELECTION_BUDGET,
        };
        want.min(limit.max(1))
    }

    /// Runs one admitted query on a fresh forked environment whose hard
    /// memory limit is the granted budget.
    pub(crate) fn execute_one(
        &self,
        idx: usize,
        request: &QueryRequest,
        granted: usize,
        clock: &Arc<dyn Clock>,
    ) -> QueryOutcome {
        let metrics = &self.obs.metrics;
        let outcome = |status, pairs, trace| QueryOutcome {
            request: idx,
            status,
            pairs,
            stats: QueryStats {
                admitted_bytes: granted,
                trace,
                ..QueryStats::default()
            },
        };
        // Deadline already blown at admission-to-execution handoff: report
        // it without building an environment (deadline 0 takes this path
        // deterministically).
        if let Some(deadline_us) = request.deadline_us {
            let now_us = clock.now_us();
            if now_us >= deadline_us {
                metrics.faults_deadline_exceeded.inc();
                return outcome(
                    QueryStatus::Failed(ServiceError::DeadlineExceeded { deadline_us, now_us }),
                    None,
                    None,
                );
            }
        }
        let retry = FaultRetry::of(&self.config);
        let mut attempt = 0u32;
        loop {
            // A fresh sink per attempt: a retried query re-emits from pair
            // zero, so partial output from the failed attempt never leaks.
            let mut sink = ServiceSink::new(request, clock);
            let dispatched = catch_unwind(AssertUnwindSafe(|| {
                let fault_stream = query_fault_stream(idx, attempt);
                self.dispatch_traced(&request.kind, granted, fault_stream, &mut sink, clock)
            }));
            let (ran, trace) = match dispatched {
                Ok(ran) => ran,
                Err(payload) => {
                    // The worker thread survives; the panicking attempt's
                    // forked environment (and its gauge bytes) died with the
                    // unwind, and the reservation is released by the caller.
                    metrics.faults_panics.inc();
                    metrics.faults_injected.inc();
                    return outcome(
                        QueryStatus::Failed(ServiceError::WorkerPanicked(panic_payload(
                            payload.as_ref(),
                        ))),
                        None,
                        None,
                    );
                }
            };
            match ran {
                Err(ServiceError::Io(IoSimError::DeviceFault { transient: true }))
                    if attempt < retry.retries =>
                {
                    attempt += 1;
                    metrics.faults_injected.inc();
                    metrics.faults_retries.inc();
                    clock.wait_us(retry.backoff_for(attempt));
                    continue;
                }
                ran => {
                    if matches!(
                        &ran,
                        Err(ServiceError::Io(IoSimError::DeviceFault { .. }))
                    ) {
                        metrics.faults_injected.inc();
                    }
                    let status = match ran {
                        _ if sink.deadline_hit => {
                            metrics.faults_deadline_exceeded.inc();
                            QueryStatus::Failed(ServiceError::DeadlineExceeded {
                                deadline_us: request.deadline_us.unwrap_or(0),
                                now_us: clock.now_us(),
                            })
                        }
                        Ok(result) if sink.cancelled => QueryStatus::Cancelled(Some(result)),
                        Ok(result) => QueryStatus::Completed(result),
                        Err(e) => QueryStatus::Failed(e),
                    };
                    return outcome(status, sink.collected, trace);
                }
            }
        }
    }

    /// [`dispatch`](Service::dispatch), wrapped in a per-query span context
    /// while tracing is on: a fresh bounded ring collects the `execute`
    /// root and every operator phase the layers below emit, and the
    /// drained events come back as the raw execute-side [`QueryTrace`]
    /// ([`finish`](Service::finish) adds the admission wait). With tracing
    /// off this is exactly `dispatch` — no ring, no spans, no extra work.
    fn dispatch_traced(
        &self,
        kind: &QueryKind,
        granted: usize,
        fault_stream: u64,
        sink: &mut ServiceSink,
        clock: &Arc<dyn Clock>,
    ) -> (Result<JoinResult>, Option<QueryTrace>) {
        if !self.obs.tracing() {
            return (self.dispatch(kind, granted, fault_stream, sink), None);
        }
        let collector = Arc::new(RingCollector::new(QUERY_TRACE_EVENTS));
        let guard = usj_obs::install(Arc::clone(&collector) as Arc<dyn Recorder>, Arc::clone(clock));
        let ran = {
            let mut root = usj_obs::span_detail("execute", || kind_label(kind).to_string());
            let ran = self.dispatch(kind, granted, fault_stream, sink);
            if let Ok(result) = &ran {
                root.add_io(result.io.span_io());
            }
            ran
        };
        drop(guard);
        let (events, dropped) = collector.drain();
        (ran, Some(QueryTrace::from_events(&events, dropped)))
    }

    /// Routes an admitted query to its operator (see [`QueryKind`]). Live
    /// datasets are read through generation snapshots taken **before** the
    /// worker environment is built:
    /// snapshots clone run handles under the `live` lock, the environment
    /// forks the base page slot afterwards — the reader half of the
    /// [`LiveStore`] publication-ordering invariant, guaranteeing every
    /// visible run's pages exist in the forked base even while background
    /// maintenance publishes concurrently. Registered datasets are borrowed
    /// from the immutable catalog and take no lock.
    fn dispatch(
        &self,
        kind: &QueryKind,
        granted: usize,
        fault_stream: u64,
        sink: &mut ServiceSink,
    ) -> Result<JoinResult> {
        let QueryKind::Join(spec) = kind else {
            let (dataset, window) = kind.selection().expect("a non-join kind is a selection");
            let source = self.source(dataset)?;
            let mut wenv = self.worker_env(granted, fault_stream);
            return self.run_selection(&mut wenv, source.cataloged(), window, granted, sink);
        };
        let (left, right) = (self.source(spec.left)?, self.source(spec.right)?);
        let mut wenv = self.worker_env(granted, fault_stream);
        let cached = matches!((&left, &right), (Cow::Borrowed(_), Cow::Borrowed(_)));
        self.run_join(&mut wenv, spec, left.cataloged(), right.cataloged(), cached, sink)
    }

    /// A fresh execution environment for one admitted query: its own I/O
    /// accounting, a hard memory limit of the granted budget, and a device
    /// layered over the *current* published base snapshot. Under a
    /// configured fault plan the device also draws a fault schedule seeded
    /// by `fault_stream` — unique per (query, retry attempt), so every
    /// attempt sees an independent, replayable schedule. With no plan
    /// configured this is byte-identical to the fault-free build.
    fn worker_env(&self, granted: usize, fault_stream: u64) -> SimEnv {
        let mut device = BlockDevice::with_base(self.store.fork_base());
        if let Some(faults) = self.config.fault_plan {
            let mut query_faults = faults;
            query_faults.seed = derive_seed(faults.seed, fault_stream);
            device.install_faults(FaultPlan::new(query_faults));
        }
        SimEnv {
            device,
            machine: self.machine.clone(),
            cpu: CpuCounter::new(),
            memory_limit: granted,
            memory: MemoryGauge::new(granted),
        }
    }

    /// A dataset as one query reads it: the registered snapshot borrowed
    /// from the immutable catalog (no lock, no clone), else a fresh
    /// generation snapshot of the live dataset — a consistent view that
    /// stays valid however far ingestion and maintenance advance while the
    /// query runs. This lookup is *on the query path* and returns `Result`,
    /// so a poisoned live catalog propagates as a typed
    /// [`ServiceError::LockPoisoned`] instead of panicking the worker.
    fn source(&self, id: DatasetId) -> Result<Cow<'_, LiveSnapshot>> {
        if let Some(snap) = self.catalog.get(id) {
            return Ok(Cow::Borrowed(snap));
        }
        let live = self
            .store
            .live
            .lock()
            .map_err(|_| ServiceError::LockPoisoned("live catalog"))?;
        live.get(id)
            .map(|ds| Cow::Owned(ds.snapshot()))
            .ok_or_else(|| ServiceError::UnknownDataset(format!("#{}", id.0)))
    }

    /// A join through [`SpatialQuery`]. With `cached` (both inputs
    /// registered) the plan comes from, and the measured peak goes to, the
    /// plan cache.
    fn run_join(
        &self,
        wenv: &mut SimEnv,
        spec: &JoinSpec,
        left: CatalogedInput<'_>,
        right: CatalogedInput<'_>,
        cached: bool,
        sink: &mut ServiceSink,
    ) -> Result<JoinResult> {
        let query = SpatialQuery::new(JoinInput::Cataloged(left), JoinInput::Cataloged(right))
            .algorithm(spec.algo)
            .predicate(spec.predicate);
        // The reported accounting covers the query end to end on its forked
        // environment — planning included. This is what makes the plan
        // cache's saving visible: a cache hit skips the planner's
        // cost-estimation I/O, so the repeat query's `JoinResult.io` is
        // strictly smaller.
        let measurement = wenv.begin();
        let plan = if cached {
            let key = PlanKey::new(spec);
            // Get-or-insert under one guard: concurrent identical queries
            // must not both miss and plan twice (each shape is planned
            // exactly once per service lifetime). Planning while holding
            // the cache lock briefly serializes concurrent *planning* —
            // execution, the expensive part, stays fully concurrent.
            let mut cache = relock(self.plan_cache.lock());
            match cache.lookup(&key) {
                Some(plan) => plan,
                None => {
                    let plan = query.plan(wenv)?;
                    cache.insert(key, plan.clone());
                    plan
                }
            }
        } else {
            query.plan(wenv)?
        };
        let mut result = query.execute_planned(wenv, &plan, sink)?;
        let (io, cpu) = wenv.since(&measurement);
        result.io = io;
        result.cpu = cpu;
        // Feed the admission estimator: remember the gauge peak of this
        // fingerprint, but only from runs that went to completion —
        // LIMIT-truncated or cancelled runs stop early and under-state the
        // query's true footprint.
        if cached && sink.limit.is_none() && !sink.cancelled {
            relock(self.plan_cache.lock()).record_peak(PlanKey::new(spec), result.memory.peak_bytes);
        }
        Ok(result)
    }

    /// Index-backed selection, tier by tier: the base run through its
    /// R-tree, then each delta run and in-memory run linear-scanned *only*
    /// when its bounding box intersects the window. Emission order —
    /// base-tree order, deltas oldest-first, memory runs last — is
    /// deterministic for a given generation, which is what the
    /// differential tests pin down.
    fn run_selection(
        &self,
        wenv: &mut SimEnv,
        source: CatalogedInput<'_>,
        window: Rect,
        granted: usize,
        sink: &mut ServiceSink,
    ) -> Result<JoinResult> {
        let measurement = wenv.begin();
        wenv.memory.begin_phase();
        let mut store = NodeStore::with_capacity_bytes_gauged(granted, &wenv.memory);
        let mut alive = source
            .tree
            .window_query_via(wenv, &mut store, &window, &mut |item| {
                sink.emit(item.id, 0)
            })?;
        for run in source.deltas {
            if !alive {
                break;
            }
            if !run.bbox().intersects(&window) {
                continue;
            }
            let mut reader = run.stream().reader();
            while let Some(item) = reader.next(wenv)? {
                if item.rect.intersects(&window) && sink.emit(item.id, 0).is_break() {
                    alive = false;
                    break;
                }
            }
        }
        for mem in source.mem_runs {
            if !alive {
                break;
            }
            if !mem.bbox().intersects(&window) {
                continue;
            }
            for item in mem.items() {
                if item.rect.intersects(&window) && sink.emit(item.id, 0).is_break() {
                    alive = false;
                    break;
                }
            }
        }
        wenv.charge(CpuOp::OutputPair, sink.delivered);
        let (io, cpu) = wenv.since(&measurement);
        Ok(JoinResult {
            pairs: sink.delivered,
            io,
            cpu,
            index_page_requests: store.stats().misses,
            sweep: Default::default(),
            memory: MemoryStats {
                priority_queue_bytes: 0,
                sweep_structure_bytes: 0,
                other_bytes: store.resident_pages() * PAGE_SIZE,
                peak_bytes: wenv.memory.peak(),
            },
        })
    }
}

/// The sink every service query streams through: counts, optionally
/// collects, enforces `LIMIT`, and observes the cancellation token — all by
/// steering the producer with `ControlFlow`, so a stopped query stops
/// *reading*, not just reporting.
struct ServiceSink {
    collected: Option<Vec<(u32, u32)>>,
    delivered: u64,
    limit: Option<u64>,
    cancel: Option<CancelToken>,
    cancelled: bool,
    /// Absolute execution deadline on the service clock, if the request
    /// carries one; checked every [`ServiceSink::DEADLINE_CHECK_EVERY`]
    /// emissions so a deadline-free query pays nothing per pair.
    deadline_us: Option<u64>,
    clock: Option<Arc<dyn Clock>>,
    deadline_hit: bool,
    since_check: u32,
}

impl ServiceSink {
    /// Emissions between deadline probes: a mid-stream deadline is noticed
    /// at worst this many pairs late, and the clock is read 64× less often.
    const DEADLINE_CHECK_EVERY: u32 = 64;

    fn new(request: &QueryRequest, clock: &Arc<dyn Clock>) -> Self {
        ServiceSink {
            collected: request.collect.then(Vec::new),
            delivered: 0,
            limit: request.limit,
            cancel: request.cancel.clone(),
            cancelled: false,
            deadline_us: request.deadline_us,
            clock: request.deadline_us.map(|_| Arc::clone(clock)),
            deadline_hit: false,
            since_check: 0,
        }
    }
}

impl PairSink for ServiceSink {
    fn emit(&mut self, left: u32, right: u32) -> ControlFlow<()> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                self.cancelled = true;
                return ControlFlow::Break(());
            }
        }
        if let (Some(deadline_us), Some(clock)) = (self.deadline_us, self.clock.as_ref()) {
            if self.since_check == 0 && clock.now_us() >= deadline_us {
                self.deadline_hit = true;
                // Fire the token too: the break stops this operator, the
                // token stops any cooperating producer upstream.
                if let Some(token) = &self.cancel {
                    token.cancel();
                }
                return ControlFlow::Break(());
            }
            self.since_check = (self.since_check + 1) % Self::DEADLINE_CHECK_EVERY;
        }
        if self.limit.is_some_and(|l| self.delivered >= l) {
            return ControlFlow::Break(());
        }
        if let Some(pairs) = &mut self.collected {
            pairs.push((left, right));
        }
        self.delivered += 1;
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_geom::Item;
    use usj_io::MachineConfig;

    fn grid(n: u32, cell: f32, offset: f32, id_base: u32) -> Vec<Item> {
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let x = offset + i as f32 * cell;
                let y = offset + j as f32 * cell;
                out.push(Item::new(
                    Rect::from_coords(x, y, x + cell * 0.7, y + cell * 0.7),
                    id_base + i * n + j,
                ));
            }
        }
        out
    }

    fn service_over(
        a: &[Item],
        b: &[Item],
        config: ServiceConfig,
    ) -> (Service, DatasetId, DatasetId) {
        let mut env = SimEnv::new(MachineConfig::machine3());
        let mut catalog = Catalog::new();
        let ia = catalog.register(&mut env, "a", a).unwrap();
        let ib = catalog.register(&mut env, "b", b).unwrap();
        (Service::new(env, catalog, config), ia, ib)
    }

    #[test]
    fn joins_and_selections_complete_with_correct_counts() {
        let a = grid(15, 4.0, 0.0, 0);
        let b = grid(15, 4.0, 1.5, 100_000);
        let expected: u64 = a
            .iter()
            .map(|x| b.iter().filter(|y| x.rect.intersects(&y.rect)).count() as u64)
            .sum();
        let window = Rect::from_coords(0.0, 0.0, 20.0, 20.0);
        let in_window = a.iter().filter(|it| it.rect.intersects(&window)).count() as u64;

        let (service, ia, ib) = service_over(&a, &b, ServiceConfig::default().with_workers(3));
        let report = service.run(vec![
            QueryRequest::join(ia, ib).with_algorithm(Algo::Pq),
            QueryRequest::join(ia, ib).with_algorithm(Algo::Sssj),
            QueryRequest::join(ia, ib).with_algorithm(Algo::St),
            QueryRequest::window(ia, window),
        ]);
        assert_eq!(report.stats.completed, 4);
        assert_eq!(report.stats.failed, 0);
        for outcome in &report.outcomes[..3] {
            assert_eq!(outcome.result().unwrap().pairs, expected, "join #{}", outcome.request);
        }
        assert_eq!(report.outcomes[3].result().unwrap().pairs, in_window);
        assert!(report.outcomes[3].result().unwrap().index_page_requests > 0);
        assert_eq!(report.stats.pairs, expected * 3 + in_window);
    }

    #[test]
    fn collected_pairs_match_count_only_runs() {
        let a = grid(10, 4.0, 0.0, 0);
        let (service, ia, _) = service_over(&a, &a, ServiceConfig::default());
        let report = service.run(vec![
            QueryRequest::join(ia, ia).with_algorithm(Algo::Pq).collecting(),
            QueryRequest::join(ia, ia).with_algorithm(Algo::Pq),
        ]);
        let collected = report.outcomes[0].pairs.as_ref().unwrap();
        assert_eq!(collected.len() as u64, report.outcomes[1].result().unwrap().pairs);
        assert!(report.outcomes[1].pairs.is_none());
    }

    #[test]
    fn limits_stop_selection_io_early() {
        let a = grid(60, 4.0, 0.0, 0);
        let (service, ia, _) = service_over(&a, &a, ServiceConfig::default().with_workers(1));
        let window = Rect::from_coords(0.0, 0.0, 240.0, 240.0);
        let report = service.run(vec![
            QueryRequest::window(ia, window),
            QueryRequest::window(ia, window).with_limit(3).collecting(),
        ]);
        let full = report.outcomes[0].result().unwrap();
        let limited = report.outcomes[1].result().unwrap();
        assert_eq!(limited.pairs, 3);
        assert_eq!(report.outcomes[1].pairs.as_ref().unwrap().len(), 3);
        assert!(
            limited.io.pages_read < full.io.pages_read,
            "LIMIT must stop the traversal early ({} vs {})",
            limited.io.pages_read,
            full.io.pages_read
        );
    }

    #[test]
    fn pre_cancelled_requests_never_run() {
        let a = grid(8, 4.0, 0.0, 0);
        let (service, ia, _) = service_over(&a, &a, ServiceConfig::default());
        let token = CancelToken::new();
        token.cancel();
        let report = service.run(vec![
            QueryRequest::join(ia, ia).with_cancel(token.clone()),
            QueryRequest::join(ia, ia),
        ]);
        assert!(matches!(report.outcomes[0].status, QueryStatus::Cancelled(None)));
        assert!(report.outcomes[1].is_completed());
        assert_eq!(report.stats.cancelled, 1);
        assert_eq!(report.stats.completed, 1);
        assert_eq!(report.stats.admitted, 1);
    }

    #[test]
    fn unknown_datasets_fail_cleanly() {
        let a = grid(6, 4.0, 0.0, 0);
        let (service, ia, _) = service_over(&a, &a, ServiceConfig::default());
        let report = service.run(vec![
            QueryRequest::join(ia, DatasetId(99)),
            QueryRequest::window(DatasetId(42), Rect::from_coords(0.0, 0.0, 1.0, 1.0)),
        ]);
        for outcome in &report.outcomes {
            assert!(
                matches!(&outcome.status, QueryStatus::Failed(ServiceError::UnknownDataset(_))),
                "{:?}",
                outcome.status
            );
        }
        assert_eq!(report.stats.failed, 2);
    }

    #[test]
    fn priorities_admit_before_fifo_order() {
        let a = grid(10, 4.0, 0.0, 0);
        // One worker: execution order equals admission order.
        let (service, ia, _) = service_over(&a, &a, ServiceConfig::default().with_workers(1));
        let report = service.run(vec![
            QueryRequest::join(ia, ia).with_algorithm(Algo::Sssj),
            QueryRequest::join(ia, ia).with_algorithm(Algo::Sssj).with_priority(5),
            QueryRequest::join(ia, ia).with_algorithm(Algo::Sssj).with_priority(5),
        ]);
        // The priority-5 requests waited less than the priority-0 one which
        // was submitted first but admitted last.
        let w0 = report.outcomes[0].stats.queue_wait;
        let w1 = report.outcomes[1].stats.queue_wait;
        let w2 = report.outcomes[2].stats.queue_wait;
        assert!(w1 <= w0 && w2 <= w0, "{w0:?} {w1:?} {w2:?}");
        assert!(w1 <= w2, "FIFO within a priority");
    }

    #[test]
    fn admission_respects_the_shared_budget_and_records_deferrals() {
        let a = grid(12, 4.0, 0.0, 0);
        let limit = 4 * 1024 * 1024;
        let (service, ia, ib) = service_over(
            &a,
            &a,
            ServiceConfig::default().with_workers(4).with_memory_limit(limit),
        );
        // Each request demands 3 MB of the 4 MB budget: only one runs at a
        // time even though four workers are free.
        let requests: Vec<QueryRequest> = (0..6)
            .map(|_| {
                QueryRequest::join(ia, ib)
                    .with_algorithm(Algo::Sssj)
                    .with_memory_budget(3 * 1024 * 1024)
            })
            .collect();
        let report = service.run(requests);
        assert_eq!(report.stats.completed, 6);
        assert!(report.stats.deferrals > 0, "free workers must have deferred");
        assert!(report.stats.peak_admitted_bytes <= limit);
        for outcome in &report.outcomes {
            assert_eq!(outcome.stats.admitted_bytes, 3 * 1024 * 1024);
            let result = outcome.result().unwrap();
            assert!(result.memory.peak_bytes <= outcome.stats.admitted_bytes);
        }
    }

    #[test]
    fn unadmittable_requests_fail_instead_of_deadlocking() {
        let a = grid(6, 4.0, 0.0, 0);
        // A zero shared budget can never admit anything: the scheduler must
        // fail the requests loudly rather than park its workers forever.
        let (service, ia, _) = service_over(
            &a,
            &a,
            ServiceConfig::default().with_workers(2).with_memory_limit(0),
        );
        let report = service.run(vec![
            QueryRequest::join(ia, ia),
            QueryRequest::window(ia, Rect::from_coords(0.0, 0.0, 1.0, 1.0)),
        ]);
        for outcome in &report.outcomes {
            assert!(
                matches!(
                    outcome.status,
                    QueryStatus::Failed(ServiceError::Io(IoSimError::MemoryLimitExceeded { .. }))
                ),
                "{:?}",
                outcome.status
            );
        }
        assert_eq!(report.stats.failed, 2);
        assert_eq!(report.stats.admitted, 0);

        // A query whose *granted* budget is too small for its working set
        // fails at run time with the same error, reported per query.
        let b = grid(40, 4.0, 0.0, 0);
        let (tight, ib, _) = service_over(
            &b,
            &b,
            ServiceConfig::default().with_workers(1).with_memory_limit(8 * 1024),
        );
        let report = tight.run(vec![QueryRequest::join(ib, ib).with_algorithm(Algo::Sssj)]);
        assert!(
            matches!(
                report.outcomes[0].status,
                QueryStatus::Failed(ServiceError::Io(IoSimError::MemoryLimitExceeded { .. }))
            ),
            "{:?}",
            report.outcomes[0].status
        );
    }

    #[test]
    fn plan_cache_reuses_plans_across_identical_queries() {
        // Large enough that the trees have internal levels: the Auto
        // estimate's directory probes then cost real, measurable I/O.
        let a = grid(40, 4.0, 0.0, 0);
        let b = grid(40, 4.0, 1.5, 100_000);
        let (service, ia, ib) = service_over(&a, &b, ServiceConfig::default().with_workers(1));
        let request = || QueryRequest::join(ia, ib).with_algorithm(Algo::Auto);
        let report = service.run(vec![request(), request(), request()]);
        assert_eq!(report.stats.completed, 3);
        assert_eq!(report.stats.plan_cache_misses, 1);
        assert_eq!(report.stats.plan_cache_hits, 2);
        // All three deliver identical pair counts...
        let pairs: Vec<u64> = report
            .outcomes
            .iter()
            .map(|o| o.result().unwrap().pairs)
            .collect();
        assert_eq!(pairs[0], pairs[1]);
        assert_eq!(pairs[1], pairs[2]);
        // ...and the cached repeats skip the Auto estimate's directory
        // probes, so they charge strictly less I/O.
        let first = report.outcomes[0].result().unwrap().io.pages_read;
        let repeat = report.outcomes[1].result().unwrap().io.pages_read;
        assert!(repeat < first, "cached plan must save I/O ({repeat} vs {first})");
    }

    #[test]
    fn point_selection_matches_brute_force() {
        let a = grid(12, 5.0, 0.0, 0);
        let (service, ia, _) = service_over(&a, &a, ServiceConfig::default());
        let p = Point::new(17.0, 22.0);
        let expected = a
            .iter()
            .filter(|it| {
                it.rect.contains(&Rect::from_coords(p.x, p.y, p.x, p.y))
            })
            .count() as u64;
        let report = service.run(vec![QueryRequest::point(ia, p).collecting()]);
        let outcome = &report.outcomes[0];
        assert_eq!(outcome.result().unwrap().pairs, expected);
        assert_eq!(outcome.pairs.as_ref().unwrap().len() as u64, expected);
    }

    #[test]
    fn session_accepts_submissions_while_workers_run() {
        let a = grid(10, 4.0, 0.0, 0);
        let (service, ia, _) = service_over(&a, &a, ServiceConfig::default().with_workers(2));
        let window = Rect::from_coords(0.0, 0.0, 20.0, 20.0);
        let ((), report) = service.with_session(|session| {
            for k in 0..6 {
                let idx = session.submit(if k % 2 == 0 {
                    QueryRequest::join(ia, ia).with_algorithm(Algo::Sssj)
                } else {
                    QueryRequest::window(ia, window)
                });
                assert_eq!(idx, k);
            }
            assert_eq!(session.submitted(), 6);
            // Depth and running are sampled live; both are bounded by what
            // was submitted.
            assert!(session.queue_depth() <= 6);
        });
        assert_eq!(report.stats.submitted, 6);
        assert_eq!(report.stats.completed, 6);
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(outcome.request, i, "outcomes stay in submission order");
            assert!(outcome.stats.latency >= outcome.stats.queue_wait);
            assert!(outcome.stats.admission_seq.is_some());
        }
    }

    #[test]
    fn overtakes_are_bounded_and_stamped() {
        let a = grid(30, 4.0, 0.0, 0);
        let limit = 4 * 1024 * 1024;
        let (service, ia, _) = service_over(
            &a,
            &a,
            ServiceConfig::default()
                .with_workers(2)
                .with_memory_limit(limit)
                .with_max_overtakes(2),
        );
        // A long heavy join runs first; a second heavy join blocks on the
        // gauge while cheap selections are free to overtake it — but no
        // more than max_overtakes times.
        let heavy = || {
            QueryRequest::join(ia, ia)
                .with_algorithm(Algo::Sssj)
                .with_memory_budget(3 * 1024 * 1024)
        };
        let mut requests = vec![heavy(), heavy()];
        for _ in 0..6 {
            requests.push(QueryRequest::window(ia, Rect::from_coords(0.0, 0.0, 10.0, 10.0)));
        }
        let report = service.run(requests);
        assert_eq!(report.stats.completed, 8);
        for outcome in &report.outcomes {
            assert!(
                outcome.stats.overtaken <= 2,
                "request #{} overtaken {} times (> max_overtakes)",
                outcome.request,
                outcome.stats.overtaken
            );
        }
    }

    #[test]
    fn queue_wait_is_anchored_at_first_enqueue() {
        // Regression test for the deferred-wait accounting fix: a request
        // that sits behind a running query must report the full span from
        // its first enqueue to its admission, not the residue since its
        // last failed admission attempt.
        let a = grid(30, 4.0, 0.0, 0);
        let limit = 4 * 1024 * 1024;
        let (service, ia, _) = service_over(
            &a,
            &a,
            ServiceConfig::default().with_workers(2).with_memory_limit(limit),
        );
        // Both demand 3 of the 4 MB: strictly serialized by the gauge even
        // though two workers are free, so the second's queue wait covers
        // the first's entire execution.
        let heavy = || {
            QueryRequest::join(ia, ia)
                .with_algorithm(Algo::Sssj)
                .with_memory_budget(3 * 1024 * 1024)
        };
        let report = service.run(vec![heavy(), heavy()]);
        assert_eq!(report.stats.completed, 2);
        let first = &report.outcomes[0].stats;
        let second = &report.outcomes[1].stats;
        assert!(second.deferrals > 0, "the second must have been deferred");
        let first_execution = first.latency.saturating_sub(first.queue_wait);
        assert!(
            second.queue_wait >= first_execution / 2,
            "deferred wait must cover the blocking query's execution \
             ({:?} vs execution {:?})",
            second.queue_wait,
            first_execution
        );
        assert!(second.latency >= second.queue_wait);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let a = grid(4, 4.0, 0.0, 0);
        let (service, _, _) = service_over(&a, &a, ServiceConfig::default());
        let report = service.run(Vec::new());
        assert!(report.outcomes.is_empty());
        assert_eq!(report.stats.submitted, 0);
        let text = format!("{}", report.stats);
        assert!(text.contains("0 submitted"), "{text}");
    }

    fn brute_pairs(a: &[Item], b: &[Item]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for x in a {
            for y in b {
                if x.rect.intersects(&y.rect) {
                    out.push((x.id, y.id));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn streaming_joins_run_over_live_datasets_through_the_service() {
        let a = grid(12, 4.0, 0.0, 0);
        let b = grid(12, 4.0, 1.5, 100_000);
        let (service, _, _) = service_over(&a, &b, ServiceConfig::default().with_workers(2));
        // Register with part of each dataset, then ingest the rest through
        // appends — flushes and compactions happen behind the thresholds.
        let config = LiveConfig {
            flush_threshold_bytes: 40 * ITEM_BYTES,
            compact_after_deltas: 2,
        };
        let la = service.register_live("live_a", &a[..60], config).unwrap();
        let lb = service.register_live("live_b", &b[..30], config).unwrap();
        for chunk in a[60..].chunks(37) {
            service.append_live("live_a", chunk).unwrap();
        }
        for chunk in b[30..].chunks(53) {
            service.append_live("live_b", chunk).unwrap();
        }
        assert_eq!(
            service.with_live(|live| live.lookup("live_a").map(|(id, _)| id)),
            Some(la)
        );

        let expected = brute_pairs(&a, &b);
        let report = service.run(vec![
            QueryRequest::join(la, lb).collecting(),
            QueryRequest::join(la, lb),
            QueryRequest::join(la, lb).with_limit(7).collecting(),
        ]);
        assert_eq!(report.stats.completed, 3);
        let mut collected = report.outcomes[0].pairs.clone().unwrap();
        collected.sort_unstable();
        assert_eq!(collected, expected);
        assert_eq!(report.outcomes[1].result().unwrap().pairs, expected.len() as u64);
        // LIMIT truncates the stream to an exact prefix of true pairs.
        let limited = report.outcomes[2].pairs.as_ref().unwrap();
        assert_eq!(limited.len(), 7.min(expected.len()));
        for p in limited {
            assert!(expected.binary_search(p).is_ok(), "{p:?} not a result pair");
        }
    }

    #[test]
    fn live_registration_rejects_duplicates_and_unknown_ids_fail_cleanly() {
        let a = grid(6, 4.0, 0.0, 0);
        let (service, _, _) = service_over(&a, &a, ServiceConfig::default());
        let la = service
            .register_live("points", &a, LiveConfig::default())
            .unwrap();
        assert!(matches!(
            service.register_live("points", &a, LiveConfig::default()),
            Err(ServiceError::DuplicateDataset(_))
        ));
        assert!(matches!(
            service.append_live("nowhere", &a),
            Err(ServiceError::UnknownDataset(_))
        ));
        let report = service.run(vec![QueryRequest::join(la, DatasetId(99))]);
        assert!(
            matches!(
                &report.outcomes[0].status,
                QueryStatus::Failed(ServiceError::UnknownDataset(_))
            ),
            "{:?}",
            report.outcomes[0].status
        );
    }

    /// Builds a service holding one *fragmented* live dataset over `live`
    /// (partial base + chunked appends, so every tier — base run, delta
    /// runs, frozen batches, memtable — is populated) and one frozen
    /// cataloged dataset over `frozen`.
    fn mixed_service(live: &[Item], frozen: &[Item]) -> (Service, DatasetId, DatasetId) {
        let (service, _, ib) = service_over(frozen, frozen, ServiceConfig::default().with_workers(2));
        let config = LiveConfig {
            flush_threshold_bytes: 40 * ITEM_BYTES,
            compact_after_deltas: 3,
        };
        let split = live.len() / 3;
        let la = service.register_live("mixed", &live[..split], config).unwrap();
        for chunk in live[split..].chunks(29) {
            service.append_live("mixed", chunk).unwrap();
        }
        (service, la, ib)
    }

    #[test]
    fn mixed_joins_match_brute_force_including_limit_and_cancellation() {
        let a = grid(12, 4.0, 0.0, 0);
        let b = grid(12, 4.0, 1.5, 100_000);
        let (service, la, ib) = mixed_service(&a, &b);
        // The live side genuinely spans tiers when the join runs.
        assert!(service.live_backlog("mixed").unwrap_or(0) > 0 || {
            service.with_live(|l| l.get(la).unwrap().memtable_len() > 0)
        });

        let expected = brute_pairs(&a, &b);
        let token = CancelToken::new();
        token.cancel();
        let report = service.run(vec![
            QueryRequest::join(la, ib).collecting(),
            QueryRequest::join(la, ib),
            QueryRequest::join(la, ib).with_limit(9).collecting(),
            QueryRequest::join(la, ib).with_cancel(token),
        ]);
        let mut collected = report.outcomes[0].pairs.clone().unwrap();
        collected.sort_unstable();
        assert_eq!(collected, expected, "mixed join diverged from brute force");
        assert_eq!(report.outcomes[1].result().unwrap().pairs, expected.len() as u64);
        // LIMIT truncates the stream to an exact prefix of true pairs.
        let limited = report.outcomes[2].pairs.as_ref().unwrap();
        assert_eq!(limited.len(), 9.min(expected.len()));
        for p in limited {
            assert!(expected.binary_search(p).is_ok(), "{p:?} not a result pair");
        }
        assert!(matches!(report.outcomes[3].status, QueryStatus::Cancelled(None)));
        assert_eq!(report.stats.completed, 3);
        assert_eq!(report.stats.cancelled, 1);

        // A dataset with tiers joins like the same dataset quiesced, whose
        // join lowers to the offline operators instead.
        service.quiesce_live("mixed").unwrap();
        let quiesced = service.run(vec![QueryRequest::join(la, ib).collecting()]);
        let mut pairs = quiesced.outcomes[0].pairs.clone().unwrap();
        pairs.sort_unstable();
        assert_eq!(pairs, collected);
    }

    #[test]
    fn explicit_algorithms_run_as_asked_over_tiers_and_answer_like_the_quiesced_datasets() {
        let a = grid(12, 4.0, 0.0, 0);
        let b = grid(12, 4.0, 1.5, 100_000);
        let (service, la, ib) = mixed_service(&a, &b);
        assert!(service.with_live(|l| l.get(la).unwrap().snapshot().has_tiers()));
        service.set_tracing(true);
        // `Auto` over tiers runs SSSJ; every explicit algorithm runs as asked.
        let algos = [
            (Algo::Auto, "sssj.sweep"),
            (Algo::Sssj, "sssj.sweep"),
            (Algo::Pbsm, "pbsm.join"),
            (Algo::Pq, "pq.sweep"),
            (Algo::St, "st.traverse"),
        ];
        let mut requests = Vec::new();
        for predicate in [Predicate::Intersects, Predicate::WithinDistance(0.6)] {
            for (left, right) in [(la, ib), (ib, la)] {
                for (algo, _) in algos {
                    requests.push(
                        QueryRequest::join(left, right)
                            .with_algorithm(algo)
                            .with_predicate(predicate)
                            .collecting(),
                    );
                }
            }
        }
        let run = |requests: Vec<QueryRequest>| {
            let report = service.run(requests);
            assert_eq!(report.stats.failed, 0);
            report
        };
        let tiered = run(requests.clone());
        service.quiesce_live("mixed").unwrap();
        let quiesced = run(requests);
        for (k, (t, q)) in tiered.outcomes.iter().zip(&quiesced.outcomes).enumerate() {
            let phase = algos[k % algos.len()].1;
            let trace = t.stats.trace.as_ref().unwrap();
            assert!(trace.find(phase).is_some(), "#{k}: no {phase} in {}", trace.shape());
            let pairs = |o: &QueryOutcome| {
                let mut p = o.pairs.clone().unwrap();
                p.sort_unstable();
                p
            };
            assert!(!pairs(q).is_empty());
            assert_eq!(pairs(t), pairs(q), "request #{k}");
        }
    }

    #[test]
    fn mixed_join_cancellation_stops_the_stream_partway() {
        let a = grid(14, 4.0, 0.0, 0);
        let b = grid(14, 4.0, 1.5, 100_000);
        let (service, la, ib) = mixed_service(&a, &b);
        let expected = brute_pairs(&a, &b);
        let token = CancelToken::new();
        let (_, report) = service.with_session(|session| {
            session.submit(QueryRequest::join(la, ib).with_cancel(token.clone()).collecting());
            // Spin until the query is genuinely executing, then pull the
            // token out from under it mid-stream.
            while session.running() == 0 && session.queue_depth() > 0 {
                std::thread::yield_now();
            }
            token.cancel();
        });
        let outcome = &report.outcomes[0];
        // Raced against a fast query the cancel may lose — but whatever
        // prefix streamed out must consist of true pairs only.
        match &outcome.status {
            QueryStatus::Cancelled(partial) => {
                let delivered = outcome.pairs.as_ref().map_or(0, |p| p.len());
                assert!(delivered <= expected.len());
                assert!(partial.is_none() || partial.as_ref().unwrap().pairs == delivered as u64);
            }
            QueryStatus::Completed(r) => assert_eq!(r.pairs, expected.len() as u64),
            QueryStatus::Failed(e) => panic!("mixed join failed: {e}"),
        }
        for p in outcome.pairs.as_ref().unwrap() {
            assert!(expected.binary_search(p).is_ok(), "{p:?} not a result pair");
        }
    }

    #[test]
    fn live_selections_cover_every_tier_and_match_brute_force() {
        let a = grid(13, 4.0, 0.0, 0);
        let (service, la, _) = mixed_service(&a, &a);
        let windows = [
            Rect::from_coords(0.0, 0.0, 18.0, 18.0),
            Rect::from_coords(20.0, 20.0, 52.0, 52.0),
            Rect::from_coords(-5.0, -5.0, 100.0, 100.0),
            Rect::from_coords(90.0, 90.0, 95.0, 95.0), // beyond the bbox
        ];
        let mut requests: Vec<QueryRequest> = windows
            .iter()
            .map(|w| QueryRequest::window(la, *w).collecting())
            .collect();
        let probe = Point { x: 10.1, y: 10.1 };
        requests.push(QueryRequest::point(la, probe).collecting());
        requests.push(QueryRequest::window(la, windows[2]).with_limit(5).collecting());
        let report = service.run(requests);
        assert_eq!(report.stats.completed, 6);
        for (i, window) in windows.iter().enumerate() {
            let mut expected: Vec<u32> = a
                .iter()
                .filter(|it| it.rect.intersects(window))
                .map(|it| it.id)
                .collect();
            expected.sort_unstable();
            let mut got: Vec<u32> = report.outcomes[i]
                .pairs
                .as_ref()
                .unwrap()
                .iter()
                .map(|&(id, _)| id)
                .collect();
            got.sort_unstable();
            assert_eq!(got, expected, "window #{i} diverged from brute force");
        }
        let probe_rect = Rect::from_coords(probe.x, probe.y, probe.x, probe.y);
        let hits = a.iter().filter(|it| it.rect.intersects(&probe_rect)).count();
        assert_eq!(report.outcomes[4].pairs.as_ref().unwrap().len(), hits);
        assert_eq!(report.outcomes[5].pairs.as_ref().unwrap().len(), 5);
    }

    #[test]
    fn background_maintenance_matches_inline_and_shrinks_no_answers() {
        let a = grid(12, 4.0, 0.0, 0);
        let b = grid(12, 4.0, 1.5, 100_000);
        let run_mode = |background: bool| {
            let mut env = SimEnv::new(MachineConfig::machine3());
            let mut catalog = Catalog::new();
            let ib = catalog.register(&mut env, "frozen", &b).unwrap();
            let service = Service::new(
                env,
                catalog,
                ServiceConfig::default()
                    .with_workers(2)
                    .with_background_maintenance(background),
            );
            let config = LiveConfig {
                flush_threshold_bytes: 32 * ITEM_BYTES,
                compact_after_deltas: 2,
            };
            let la = service.register_live("live", &a[..40], config).unwrap();
            for chunk in a[40..].chunks(23) {
                service.append_live("live", chunk).unwrap();
            }
            // Quiesce: waits out the background queue, then drains every
            // tier into a single compacted base run.
            service.quiesce_live("live").unwrap();
            assert_eq!(service.live_backlog("live"), Some(0));
            service.with_live(|live| {
                let ds = live.get(la).unwrap();
                assert_eq!(ds.memtable_len(), 0, "quiesce left memtable items");
                assert_eq!(ds.pending_flush_batches(), 0);
            });
            let stats = service.live_stats("live").unwrap();
            assert!(stats.flushes > 0, "maintenance never flushed");
            let report = service.run(vec![QueryRequest::join(la, ib).collecting()]);
            let mut pairs = report.outcomes[0].pairs.clone().unwrap();
            pairs.sort_unstable();
            pairs
        };
        let inline = run_mode(false);
        let background = run_mode(true);
        assert_eq!(inline, brute_pairs(&a, &b));
        assert_eq!(inline, background, "maintenance modes diverged");
    }

    #[test]
    fn promotion_roundtrip_matches_a_fresh_registration() {
        // A quiesced live dataset answers joins and windows like a freshly
        // registered one: no tiers are left, so its joins lower through
        // the same offline operators.
        let a = grid(11, 4.0, 0.0, 0);
        let b = grid(11, 4.0, 1.5, 100_000);
        let window = Rect::from_coords(3.0, 3.0, 25.0, 25.0);

        // Grown path: grow the dataset through live appends (background
        // maintenance on, to exercise the worker), then quiesce it.
        let mut env = SimEnv::new(MachineConfig::machine3());
        let mut catalog = Catalog::new();
        let ib = catalog.register(&mut env, "peer", &b).unwrap();
        let mut service = Service::new(
            env,
            catalog,
            ServiceConfig::default()
                .with_workers(2)
                .with_background_maintenance(true),
        );
        let config = LiveConfig {
            flush_threshold_bytes: 32 * ITEM_BYTES,
            compact_after_deltas: 2,
        };
        let grown = service.register_live("grown", &a[..30], config).unwrap();
        for chunk in a[30..].chunks(17) {
            service.append_live("grown", chunk).unwrap();
        }
        assert_eq!(service.promote_live("grown").unwrap(), grown, "the id stays");
        assert!(matches!(
            service.promote_live("missing"),
            Err(ServiceError::UnknownDataset(_))
        ));
        service.with_live(|live| {
            let snap = live.get(grown).unwrap().snapshot();
            assert!(!snap.has_tiers());
            assert_eq!(snap.len(), a.len() as u64);
        });
        let requests = |ds: DatasetId, peer: DatasetId| {
            vec![
                QueryRequest::join(ds, peer).with_algorithm(Algo::Sssj).collecting(),
                QueryRequest::join(ds, peer).collecting(),
                QueryRequest::window(ds, window).collecting(),
            ]
        };
        let report = service.run(requests(grown, ib));

        // Oracle path: register the same items directly. Compaction keeps
        // item identity, not arrival order, so compare pair *sets*.
        let mut env2 = SimEnv::new(MachineConfig::machine3());
        let mut catalog2 = Catalog::new();
        let fresh = catalog2.register(&mut env2, "fresh", &a).unwrap();
        let ib2 = catalog2.register(&mut env2, "peer", &b).unwrap();
        let oracle_service = Service::new(env2, catalog2, ServiceConfig::default().with_workers(2));
        let oracle = oracle_service.run(requests(fresh, ib2));

        for k in 0..3 {
            let mut got = report.outcomes[k].pairs.clone().unwrap();
            let mut want = oracle.outcomes[k].pairs.clone().unwrap();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "query #{k} diverged after quiescing");
        }
        // The dataset still accepts appends, and its next join sees them.
        service.append_live("grown", &grid(2, 4.0, 0.5, 900_000)).unwrap();
        let more = service.run(vec![QueryRequest::join(grown, ib).collecting()]);
        let got = more.outcomes[0].pairs.as_ref().unwrap().len();
        assert!(got > report.outcomes[0].pairs.as_ref().unwrap().len());
    }

    #[test]
    fn register_live_refuses_a_name_the_catalog_holds() {
        let a = grid(6, 4.0, 0.0, 0);
        let (service, _, _) = service_over(&a, &a, ServiceConfig::default());
        assert!(matches!(
            service.register_live("a", &a, LiveConfig::default()),
            Err(ServiceError::DuplicateDataset(_))
        ));
        // Live ids continue after the registered ones.
        let live = service.register_live("c", &a, LiveConfig::default()).unwrap();
        assert_eq!(live, DatasetId(2));
    }

    #[test]
    fn a_grown_dataset_is_never_admitted_on_a_stale_peak() {
        // A join over a quiesced live dataset lowers like a registered one
        // but takes no plan-cache entry: the dataset can still grow, and a
        // peak measured before it grew would under-admit it afterwards.
        let a = grid(10, 4.0, 0.0, 0);
        let b = grid(10, 4.0, 1.5, 100_000);
        let (service, _, ib) = service_over(&a, &b, ServiceConfig::default().with_workers(1));
        let la = service.register_live("growing", &a, LiveConfig::default()).unwrap();
        service.quiesce_live("growing").unwrap();
        let request = || QueryRequest::join(la, ib).with_algorithm(Algo::Sssj).collecting();
        let first = service.run(vec![request()]);
        let peak = first.outcomes[0].result().unwrap().memory.peak_bytes;
        assert_eq!(first.outcomes[0].pairs.as_ref().unwrap().len(), brute_pairs(&a, &b).len());

        // Grow it about 4x, quiesce, run the same join.
        let more: Vec<Item> = (0..4)
            .flat_map(|k| grid(10, 4.0, 0.3 * (k + 1) as f32, 1_000 * (k + 1)))
            .collect();
        service.append_live("growing", &more).unwrap();
        service.quiesce_live("growing").unwrap();
        let estimate = service.admission_estimate(&request());
        assert_ne!(estimate, (peak + peak / 4).max(MIN_QUERY_BUDGET));
        assert_eq!(estimate, ((5 * a.len() + b.len()) * ITEM_BYTES).max(JOIN_BUDGET_FLOOR));
        let second = service.run(vec![request()]);
        let mut got = second.outcomes[0].pairs.clone().unwrap();
        got.sort_unstable();
        let all: Vec<Item> = a.iter().chain(&more).copied().collect();
        assert_eq!(got, brute_pairs(&all, &b));
        assert_eq!(second.stats.plan_cache_hits + second.stats.plan_cache_misses, 0);
    }

    #[test]
    fn admission_estimates_keep_their_per_kind_rules() {
        // Inputs large enough to clear the join floor: every estimate is the
        // rule of the request kind these datasets needed before live and
        // registered datasets shared one id space.
        let items = |n: u32, id_base: u32| -> Vec<Item> {
            (0..n)
                .map(|i| {
                    let (x, y) = ((i % 300) as f32, (i / 300) as f32);
                    Item::new(Rect::from_coords(x, y, x + 0.5, y + 0.5), id_base + i)
                })
                .collect()
        };
        let (a, b) = (items(40_000, 0), items(600, 1_000_000));
        let (service, ia, ib) = service_over(&a, &b, ServiceConfig::default());
        let live = items(120_000, 2_000_000);
        let la = service.register_live("la", &live, LiveConfig::default()).unwrap();
        let lb = service.register_live("lb", &b, LiveConfig::default()).unwrap();
        let bytes = |n: usize| n * ITEM_BYTES;
        let estimate = |r: QueryRequest| service.admission_estimate(&r);
        // Registered × registered: 3x the inputs (the parent's `join`).
        assert_eq!(estimate(QueryRequest::join(ia, ib)), 3 * bytes(40_600));
        assert_eq!(estimate(QueryRequest::join(ib, ib)), JOIN_BUDGET_FLOOR);
        // Live × live and live × registered: 1x the inputs (the parent's
        // `streaming_join` and `mixed_join`), floored.
        assert_eq!(estimate(QueryRequest::streaming_join(la, lb)), bytes(120_600));
        assert_eq!(estimate(QueryRequest::join(la, ia)), bytes(160_000));
        assert_eq!(estimate(QueryRequest::join(lb, ib)), JOIN_BUDGET_FLOOR);
        // Selections, registered or live.
        let w = Rect::from_coords(0.0, 0.0, 9.0, 9.0);
        assert_eq!(estimate(QueryRequest::window(ia, w)), SELECTION_BUDGET);
        assert_eq!(estimate(QueryRequest::live_window(la, w)), SELECTION_BUDGET);
        assert_eq!(estimate(QueryRequest::point(lb, Point { x: 1.0, y: 1.0 })), SELECTION_BUDGET);
        // An explicit budget is clamped, whatever the kind.
        assert_eq!(
            estimate(QueryRequest::join(la, lb).with_memory_budget(1)),
            MIN_QUERY_BUDGET
        );
    }

    #[test]
    fn measured_peaks_tighten_repeat_admission() {
        // First run of a fingerprint is admitted on the 3x-input-size
        // heuristic; once a completed run has recorded its real gauge peak,
        // repeats are admitted on peak + 25% — a strictly smaller claim
        // here, so the same shared budget packs more concurrent queries.
        let a = grid(20, 4.0, 0.0, 0);
        let b = grid(20, 4.0, 1.5, 100_000);
        let (service, ia, ib) = service_over(&a, &b, ServiceConfig::default().with_workers(1));
        let request = || QueryRequest::join(ia, ib).with_algorithm(Algo::Sssj);

        let first = service.run(vec![request()]);
        let second = service.run(vec![request()]);
        let (o1, o2) = (&first.outcomes[0], &second.outcomes[0]);
        assert!(o1.is_completed() && o2.is_completed());
        assert_eq!(o1.result().unwrap().pairs, o2.result().unwrap().pairs);
        assert!(
            o2.stats.admitted_bytes < o1.stats.admitted_bytes,
            "measured-peak admission must be denser than the heuristic \
             ({} vs {})",
            o2.stats.admitted_bytes,
            o1.stats.admitted_bytes
        );
        // The margin really covers the run: the repeat finished inside its
        // tighter budget.
        assert!(o2.result().unwrap().memory.peak_bytes <= o2.stats.admitted_bytes);
    }

    #[test]
    fn truncated_runs_never_poison_admission_estimates() {
        // A LIMIT-stopped run's peak under-states the query's footprint; it
        // must not be recorded, so the repeat is still admitted on the
        // conservative heuristic.
        let a = grid(20, 4.0, 0.0, 0);
        let b = grid(20, 4.0, 1.5, 100_000);
        let (service, ia, ib) = service_over(&a, &b, ServiceConfig::default().with_workers(1));
        let limited = service.run(vec![QueryRequest::join(ia, ib)
            .with_algorithm(Algo::Sssj)
            .with_limit(1)]);
        assert!(limited.outcomes[0].is_completed());
        let repeat = service.run(vec![QueryRequest::join(ia, ib).with_algorithm(Algo::Sssj)]);
        assert_eq!(
            repeat.outcomes[0].stats.admitted_bytes,
            limited.outcomes[0].stats.admitted_bytes,
            "a truncated run must not shrink the next admission"
        );
    }
}
