//! What a client sends the service and what it gets back: requests, their
//! outcomes, and the batch roll-up a [`ServiceReport`] carries.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use usj_core::{Algo, JoinResult, Predicate};
use usj_geom::{Point, Rect};
use usj_io::ledger::Fnv1a;
use usj_io::{CpuCounter, IoStats};
use usj_obs::QueryTrace;

use crate::catalog::DatasetId;
use crate::ServiceError;
#[cfg(doc)]
use crate::{Service, ServiceConfig};

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
/// * a join lowers through [`SpatialQuery`](usj_core::SpatialQuery) — the chosen [`Algo`], and
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
            QueryKind::Point { dataset, point } => Some((
                dataset,
                Rect::from_coords(point.x, point.y, point.x, point.y),
            )),
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
        let mut h = Fnv1a::default();
        for v in [
            self.submitted,
            self.admitted,
            self.completed,
            self.failed,
            self.cancelled,
            self.pairs,
            self.io.pages_read,
            self.io.pages_written,
            self.plan_cache_misses,
        ] {
            h.write(&v.to_le_bytes());
        }
        h.finish()
    }

    /// Folds one resolved request into the roll-up: its resolution, wait
    /// and deferrals, and its result's pairs, charged work and peak.
    pub fn fold(&mut self, outcome: &QueryOutcome) {
        self.submitted += 1;
        self.admitted += u64::from(outcome.stats.admission_seq.is_some());
        match &outcome.status {
            QueryStatus::Completed(_) => self.completed += 1,
            QueryStatus::Cancelled(_) => self.cancelled += 1,
            QueryStatus::Failed(_) => self.failed += 1,
        }
        if let Some(result) = outcome.result() {
            self.pairs += result.pairs;
            self.io.merge(&result.io);
            self.cpu.merge(&result.cpu);
            self.peak_query_bytes = self.peak_query_bytes.max(result.memory.peak_bytes);
        }
        self.deferrals += outcome.stats.deferrals;
        self.max_queue_wait = self.max_queue_wait.max(outcome.stats.queue_wait);
        self.total_queue_wait += outcome.stats.queue_wait;
    }

    /// Adds the requests `other` [`fold`](Self::fold)ed to this roll-up;
    /// the fields `fold` leaves alone stay as they are.
    pub fn merge(&mut self, other: &ServiceStats) {
        self.submitted += other.submitted;
        self.admitted += other.admitted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.cancelled += other.cancelled;
        self.pairs += other.pairs;
        self.io.merge(&other.io);
        self.cpu.merge(&other.cpu);
        self.peak_query_bytes = self.peak_query_bytes.max(other.peak_query_bytes);
        self.deferrals += other.deferrals;
        self.max_queue_wait = self.max_queue_wait.max(other.max_queue_wait);
        self.total_queue_wait += other.total_queue_wait;
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
