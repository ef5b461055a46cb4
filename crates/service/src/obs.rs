//! The service's observability hub: the metric registry and its
//! pre-resolved handles, the trace clock, the tracing switch and the
//! background-maintenance event ring.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use usj_obs::{
    Clock, Counter, Gauge, HostClock, LogHistogram, MetricsRegistry, MetricsSnapshot, QueryTrace,
    Recorder, RingCollector,
};

use crate::service::{relock, Service};

/// Background-maintenance trace ring capacity, in events. Shared by every
/// flush and compaction until [`Service::drain_background_trace`] empties it.
const MAINT_TRACE_EVENTS: usize = 16 * 1024;

/// Every metric the service updates, resolved out of the registry **once**
/// (in [`ServiceObs::new`]) so an update is one relaxed atomic on the
/// handle. The registry stays the snapshot source; this struct is the only
/// place a metric name is spelled.
#[derive(Debug)]
pub(crate) struct Metrics {
    pub(crate) queries_submitted: Arc<Counter>,
    pub(crate) queries_completed: Arc<Counter>,
    pub(crate) queries_cancelled: Arc<Counter>,
    pub(crate) queries_failed: Arc<Counter>,
    pub(crate) admission_grants: Arc<Counter>,
    pub(crate) admission_deferrals: Arc<Counter>,
    pub(crate) admission_overtakes: Arc<Counter>,
    pub(crate) faults_injected: Arc<Counter>,
    pub(crate) faults_retries: Arc<Counter>,
    pub(crate) faults_panics: Arc<Counter>,
    pub(crate) faults_deadline_exceeded: Arc<Counter>,
    pub(crate) faults_admission_timeouts: Arc<Counter>,
    pub(crate) maintenance_flushes: Arc<Counter>,
    pub(crate) maintenance_compactions: Arc<Counter>,
    pub(crate) queue_depth: Arc<Gauge>,
    pub(crate) queue_depth_peak: Arc<Gauge>,
    pub(crate) live_backlog: Arc<Gauge>,
    pub(crate) queue_wait_us: Arc<LogHistogram>,
    pub(crate) query_latency_us: Arc<LogHistogram>,
    pub(crate) maintenance_flush_us: Arc<LogHistogram>,
    pub(crate) maintenance_compaction_us: Arc<LogHistogram>,
}

impl Metrics {
    fn resolve(registry: &MetricsRegistry) -> Self {
        Metrics {
            queries_submitted: registry.counter("queries.submitted"),
            queries_completed: registry.counter("queries.completed"),
            queries_cancelled: registry.counter("queries.cancelled"),
            queries_failed: registry.counter("queries.failed"),
            admission_grants: registry.counter("admission.grants"),
            admission_deferrals: registry.counter("admission.deferrals"),
            admission_overtakes: registry.counter("admission.overtakes"),
            faults_injected: registry.counter("faults.injected"),
            faults_retries: registry.counter("faults.retries"),
            faults_panics: registry.counter("faults.panics"),
            faults_deadline_exceeded: registry.counter("faults.deadline_exceeded"),
            faults_admission_timeouts: registry.counter("faults.admission_timeouts"),
            maintenance_flushes: registry.counter("maintenance.flushes"),
            maintenance_compactions: registry.counter("maintenance.compactions"),
            queue_depth: registry.gauge("queue.depth"),
            queue_depth_peak: registry.gauge("queue.depth.peak"),
            live_backlog: registry.gauge("live.backlog"),
            queue_wait_us: registry.histogram("queue.wait_us"),
            query_latency_us: registry.histogram("query.latency_us"),
            maintenance_flush_us: registry.histogram("maintenance.flush_us"),
            maintenance_compaction_us: registry.histogram("maintenance.compaction_us"),
        }
    }
}

/// The service's observability state, shared between the scheduler, the
/// query workers and the background maintenance worker.
///
/// Metrics are always on: every handle is resolved in [`ServiceObs::new`],
/// so the request path updates counters, gauges and log-bucketed histograms
/// with single relaxed atomics and never takes a registry lock — cheap
/// enough to never gate. (A side effect: every name is registered from
/// [`Service::new`] on, at zero, rather than appearing on first use.)
/// Tracing is the expensive half (per-event allocation and ring pushes)
/// and is off by default; flipping [`Service::set_tracing`] installs
/// per-query [`RingCollector`]s in the execute path and routes maintenance
/// spans into [`ServiceObs::maint`].
#[derive(Debug)]
pub(crate) struct ServiceObs {
    /// Timestamp source for queue waits, latencies and trace spans. The
    /// host monotonic clock in production; tests swap in a
    /// [`usj_obs::VirtualClock`] via [`Service::set_clock`] to make waits
    /// and trace bounds deterministic. A session captures the clock when
    /// it opens, so the request path never takes this lock; only
    /// maintenance (off the request path) reads through it.
    clock: Mutex<Arc<dyn Clock>>,
    /// Whether per-query and maintenance span tracing is enabled.
    tracing: AtomicBool,
    /// Event ring for background maintenance spans (flush/compaction),
    /// drained by [`Service::drain_background_trace`].
    maint: Arc<RingCollector>,
    /// Counters, gauges and histograms, snapshot via
    /// [`Service::metrics_snapshot`].
    registry: MetricsRegistry,
    /// The registry's handles, resolved once.
    pub(crate) metrics: Metrics,
}

impl ServiceObs {
    pub(crate) fn new() -> Self {
        let registry = MetricsRegistry::new();
        ServiceObs {
            clock: Mutex::new(Arc::new(HostClock::new())),
            tracing: AtomicBool::new(false),
            maint: Arc::new(RingCollector::new(MAINT_TRACE_EVENTS)),
            metrics: Metrics::resolve(&registry),
            registry,
        }
    }

    /// The current trace/wait clock.
    pub(crate) fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&*relock(self.clock.lock()))
    }

    /// Current clock reading, microseconds.
    pub(crate) fn now_us(&self) -> u64 {
        self.clock().now_us()
    }

    pub(crate) fn tracing(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// Installs the maintenance ring on the calling thread while tracing is
    /// on; a no-op (`None`) otherwise.
    pub(crate) fn install_maint(&self) -> Option<usj_obs::ObsGuard> {
        self.tracing()
            .then(|| usj_obs::install(Arc::clone(&self.maint) as Arc<dyn Recorder>, self.clock()))
    }
}

impl Service {
    /// Swaps the observability clock used for queue waits, latencies and
    /// trace timestamps. Production keeps the default host monotonic clock;
    /// tests install a [`usj_obs::VirtualClock`] to make every measured
    /// wait and trace bound deterministic.
    ///
    /// Swap **between sessions**: [`run`](Service::run) and
    /// [`with_session`](Service::with_session) capture the clock when they
    /// start (which is what keeps the clock's lock off the request path),
    /// so a swap made while a session is open is seen by the next session,
    /// not by the open one. Live maintenance reads the clock per step.
    pub fn set_clock(&self, clock: Arc<dyn Clock>) {
        *relock(self.obs.clock.lock()) = clock;
    }

    /// Enables or disables span tracing. Off (the default), queries carry
    /// no [`QueryStats::trace`](crate::QueryStats::trace) and the execute
    /// path never touches the span machinery beyond one thread-local probe;
    /// on, every query drains its operator spans into a bounded per-query
    /// ring and background maintenance records into the shared maintenance
    /// ring. Executed work is byte-identical either way.
    pub fn set_tracing(&self, on: bool) {
        self.obs.tracing.store(on, Ordering::Relaxed);
    }

    /// A point-in-time snapshot of every service metric: admission
    /// counters, queue-depth gauges, wait/latency and maintenance-duration
    /// histograms. Every name is listed from construction on (at zero until
    /// first updated). The `live.backlog` gauge is refreshed here (delta
    /// runs plus frozen batches summed over every live dataset).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.obs.metrics.live_backlog.set(self.total_backlog() as i64);
        self.obs.registry.snapshot()
    }

    /// Drains the background-maintenance event ring into a span tree of
    /// the `live.flush` / `live.compaction` work recorded since the last
    /// drain (empty unless [`set_tracing`](Service::set_tracing) was on).
    pub fn drain_background_trace(&self) -> QueryTrace {
        let (events, dropped) = self.obs.maint.drain();
        QueryTrace::from_events(&events, dropped)
    }
}
