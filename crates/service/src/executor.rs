//! The executor: what admission reserves for a request, and how an
//! admitted query runs — [`Service::execute_one`] wraps every attempt
//! (retry, `catch_unwind`, deadline, tracing) around [`Service::dispatch`].

use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use usj_core::{CatalogedInput, JoinInput, JoinResult, MemoryStats, PairSink, SpatialQuery};
use usj_geom::{Rect, ITEM_BYTES};
use usj_io::{BlockDevice, CpuCounter, CpuOp, ItemStream, MemoryGauge, Page, SimEnv, PAGE_SIZE};
use usj_obs::{Clock, QueryTrace, Recorder, RingCollector};
use usj_rtree::NodeStore;

use crate::faults::{fault_plan, query_fault_stream, retry_transient, FaultRetry};
use crate::plan_cache::PlanKey;
use crate::request::{
    CancelToken, JoinSpec, QueryKind, QueryOutcome, QueryRequest, QueryStats, QueryStatus,
};
use crate::service::{relock, Service};
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

/// Per-query trace ring capacity, in events. A bounded trace drops its
/// *oldest* events (and says how many) instead of growing without limit.
const QUERY_TRACE_EVENTS: usize = 16 * 1024;

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

/// Static label for a query kind, used as trace span detail.
fn kind_label(kind: &QueryKind) -> &'static str {
    match kind {
        QueryKind::Join(_) => "join",
        QueryKind::Window { .. } => "window",
        QueryKind::Point { .. } => "point",
    }
}

impl Service {
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
                // Only a join of two registered datasets records a peak, and
                // ids are never reused: a peak says both are registered.
                let measured = relock(self.plan_cache.lock()).peak(&PlanKey::new(spec));
                match measured {
                    Some(peak) => (peak + peak / 4).max(MIN_QUERY_BUDGET),
                    None => {
                        let reads = [spec.left, spec.right].map(|id| self.store.read([id]));
                        let sealed = reads.iter().all(|read| matches!(read, Ok((_, _, true))));
                        let read = reads.iter().flatten().map(|(sources, _, _)| &sources[0]);
                        let items: u64 = read.map(|snapshot| snapshot.len()).sum();
                        let bytes = items as usize * ITEM_BYTES;
                        (if sealed { 3 * bytes } else { bytes }).max(JOIN_BUDGET_FLOOR)
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
                    QueryStatus::Failed(ServiceError::DeadlineExceeded {
                        deadline_us,
                        now_us,
                    }),
                    None,
                    None,
                );
            }
        }
        let (mut sink, mut trace) = (ServiceSink::new(request, clock), None);
        let retry = FaultRetry::of(&self.config);
        let ran = retry_transient(&self.obs, clock.as_ref(), retry, |attempt| {
            // A fresh sink per attempt: a retried query re-emits from pair
            // zero, so partial output from the failed attempt never leaks.
            sink = ServiceSink::new(request, clock);
            let dispatched = catch_unwind(AssertUnwindSafe(|| {
                let fault_stream = query_fault_stream(idx, attempt);
                self.dispatch_traced(&request.kind, granted, fault_stream, &mut sink, clock)
            }));
            let ran;
            (ran, trace) = dispatched.map_err(|payload| {
                metrics.faults_panics.inc();
                metrics.faults_injected.inc();
                ServiceError::WorkerPanicked(panic_payload(payload.as_ref()))
            })?;
            ran
        });
        let status = match ran {
            // The worker thread survives; the panicking attempt's forked
            // environment (and its gauge bytes) died with the unwind, and
            // the reservation is released by the caller.
            Err(e @ ServiceError::WorkerPanicked(_)) => {
                return outcome(QueryStatus::Failed(e), None, None)
            }
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
        outcome(status, sink.collected, trace)
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
        let guard = usj_obs::install(
            Arc::clone(&collector) as Arc<dyn Recorder>,
            Arc::clone(clock),
        );
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

    /// Routes an admitted query to its operator (see [`QueryKind`]), over
    /// what [`LiveStore::read`](crate::store::LiveStore::read) reads of its datasets, on a worker
    /// environment built from those pages.
    fn dispatch(
        &self,
        kind: &QueryKind,
        granted: usize,
        fault_stream: u64,
        sink: &mut ServiceSink,
    ) -> Result<JoinResult> {
        let QueryKind::Join(spec) = kind else {
            let (dataset, window) = kind.selection().expect("a non-join kind is a selection");
            let (sources, pages, _) = self.store.read([dataset])?;
            let mut wenv = self.worker_env(pages, granted, fault_stream);
            return self.run_selection(&mut wenv, sources[0].cataloged(), window, granted, sink);
        };
        let (sources, pages, sealed) = self.store.read([spec.left, spec.right])?;
        let (left, right) = (sources[0].cataloged(), sources[1].cataloged());
        let mut wenv = self.worker_env(pages, granted, fault_stream);
        self.run_join(&mut wenv, spec, left, right, sealed, sink)
    }

    /// A fresh execution environment for one admitted query: its own I/O
    /// accounting, a hard memory limit of the granted budget, and a device
    /// layered over the published `pages` the query read. Under a
    /// configured fault plan the device also draws a fault schedule seeded
    /// by `stream` — unique per (query, retry attempt), so every attempt
    /// sees an independent, replayable schedule. With no plan configured
    /// this is byte-identical to the fault-free build.
    fn worker_env(&self, pages: Arc<Vec<Page>>, granted: usize, stream: u64) -> SimEnv {
        let mut device = BlockDevice::with_base(pages);
        if let Some(faults) = self.config.fault_plan {
            device.install_faults(fault_plan(faults, stream));
        }
        SimEnv {
            device,
            machine: self.machine.clone(),
            cpu: CpuCounter::new(),
            memory_limit: granted,
            memory: MemoryGauge::new(granted),
        }
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
            relock(self.plan_cache.lock())
                .record_peak(PlanKey::new(spec), result.memory.peak_bytes);
        }
        Ok(result)
    }

    /// Index-backed selection, tier by tier: the base run through its
    /// R-tree, then each delta run (read from the device) and in-memory run
    /// linear-scanned *only* when its bounding box intersects the window.
    /// Emission order — base-tree order, deltas oldest-first, memory runs
    /// last — is deterministic for a given generation, which is what the
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
            .window_query_via(wenv, &mut store, &window, &mut |item| sink.emit(item.id, 0))?;
        // A sealed dataset has no tiers to scan.
        if source.has_tiers() {
            let deltas = source
                .deltas
                .iter()
                .map(|run| (run.bbox(), Some(run.stream()), &[][..]));
            let mem_runs = source
                .mem_runs
                .iter()
                .map(|mem| (mem.bbox(), None, mem.items()));
            for (bbox, stream, items) in deltas.chain(mem_runs) {
                if !alive {
                    break;
                }
                if !bbox.intersects(&window) {
                    continue;
                }
                let reader = stream.map(ItemStream::reader);
                let (mut reader, mut items) = (reader, items.iter().copied());
                while let Some(item) = match &mut reader {
                    Some(reader) => reader.next(wenv)?,
                    None => items.next(),
                } {
                    if item.rect.intersects(&window) && sink.emit(item.id, 0).is_break() {
                        alive = false;
                        break;
                    }
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
