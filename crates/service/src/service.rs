//! The concurrent query service: worker pool, FIFO+priority admission
//! queue, gauge-based admission control.
//!
//! A [`Service`] keeps one published dataset table — the sealed slots of a
//! registered [`Catalog`], then the live datasets registered beside it —
//! with the device pages they live on, and executes batches of
//! [`QueryRequest`]s on a pool of worker threads. The scheduling contract:
//!
//! * **Admission order** is priority-then-FIFO: higher
//!   [`priority`](QueryRequest::priority) first, submission order within a
//!   priority.
//! * **Admission control** is *gauge-based*: every request carries a memory
//!   estimate (its [`admission_estimate`](Service::admission_estimate), or an
//!   explicit [`memory_budget`](QueryRequest::memory_budget)), and is
//!   admitted only when the service-wide admission
//!   [`MemoryGauge`](usj_io::MemoryGauge) — whose limit is the shared
//!   [`ServiceConfig::memory_limit`] — can reserve that many bytes. A free
//!   worker that cannot admit a request records a **deferral** and either
//!   admits a later (smaller or lower-priority) request or sleeps until a
//!   running query releases its reservation. The admitted bytes become the
//!   worker environment's *hard* memory limit, so the measured per-query
//!   `peak_bytes` can never exceed the granted budget, and the sum of
//!   concurrently granted budgets can never exceed the shared limit —
//!   admission control *bounds the aggregate footprint by construction*.
//! * **Isolation**: every admitted query runs on a worker environment
//!   layered over the published device pages — its own I/O statistics and
//!   disk head, its own scratch pages, its own memory gauge.
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
//!   insert (plus, past the threshold, a freeze that sorts the batch the
//!   flush will write); the worker runs the same split maintenance phases
//!   the inline path composes, against immutable run handles, under a
//!   scoped 4 MiB maintenance budget, and publishes each new generation
//!   in the order the store keeps, so every run a query can see is
//!   readable from its worker fork by construction (see `LiveStore`).

use std::sync::{Arc, Mutex, MutexGuard};

use usj_geom::Item;
use usj_io::{FaultConfig, MachineConfig, SimEnv};
use usj_live::{LiveConfig, LiveDataset, LiveStats};

use crate::catalog::{Catalog, DatasetId};
pub use crate::executor::{JOIN_BUDGET_FLOOR, MIN_QUERY_BUDGET, SELECTION_BUDGET};
use crate::faults::{fault_plan, FaultRetry, STORAGE_FAULT_STREAM};
use crate::obs::ServiceObs;
use crate::plan_cache::PlanCache;
pub use crate::request::{
    CancelToken, JoinSpec, QueryKind, QueryOutcome, QueryRequest, QueryStats, QueryStatus,
    ServiceReport, ServiceStats,
};
pub use crate::scheduler::Session;
use crate::store::{backlog, tend_live, LiveSlot, LiveStore, Maintenance};
use crate::{Result, ServiceError};

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
    /// ([`IoSimError::DeviceFault`](usj_io::IoSimError::DeviceFault)
    /// `{ transient: true }`): a failed query or maintenance step is re-run
    /// up to this many times with exponential backoff before the error
    /// surfaces (default 3).
    pub fault_retries: u32,
    /// Base backoff between transient-fault retries, microseconds on the
    /// observability clock — attempt *n* waits `base << (n-1)`. Driven
    /// through [`Clock::wait_us`](usj_obs::Clock::wait_us), so a
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
    /// the storage environment get [`FaultPlan`](usj_io::FaultPlan)s derived from this
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
    /// The dataset table, the device pages and the storage environment —
    /// see [`LiveStore`]. Shared with the background maintenance worker
    /// when one is running.
    pub(crate) store: Arc<LiveStore>,
    pub(crate) config: ServiceConfig,
    /// The machine model, copied out of the storage environment so query
    /// worker forks can be built without touching the storage lock.
    pub(crate) machine: MachineConfig,
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

/// The live datasets, each under its writer lock, for one
/// [`Service::with_live`] call.
#[derive(Debug)]
pub struct LiveView<'a> {
    datasets: Vec<(DatasetId, MutexGuard<'a, LiveSlot>)>,
}

impl LiveView<'_> {
    /// The live dataset `id`, if there is one.
    pub fn get(&self, id: DatasetId) -> Option<&LiveDataset> {
        self.datasets
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, slot)| slot.dataset())
    }

    /// The live datasets, in registration order.
    pub fn datasets(&self) -> impl Iterator<Item = &LiveDataset> {
        self.datasets.iter().map(|(_, slot)| slot.dataset())
    }
}

/// Recovers a poisoned lock guard.
///
/// The service's lock-poisoning policy, from the `unwrap()` audit: worker
/// and maintenance panics are contained with `catch_unwind` *before* they
/// reach scheduler state, and every structure these locks protect keeps its
/// invariants across a panic (the device is append-only, the published
/// table changes by whole swaps, queue mutations are not interleaved with
/// faultable I/O). Refusing service forever because some earlier thread
/// panicked would turn one contained fault into a total outage — so
/// scheduler, storage, published-table and observability locks *recover*.
/// A live dataset's writer lock is its own slot's: a panic while it is held
/// (an append, a snapshot build) poisons that one dataset, whose queries
/// and appends then fail with [`ServiceError::LockPoisoned`]`("live
/// dataset")` (see `LiveStore::read`) while every other dataset keeps
/// serving.
pub(crate) fn relock<T>(result: std::sync::LockResult<T>) -> T {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Service {
    /// Creates a service over `catalog`, whose datasets live on `env`'s
    /// device: the catalog's snapshots become the sealed slots of the
    /// service's dataset table, and the device's pages the first ones
    /// published. Queries never mutate either; every batch's worker forks
    /// share those pages, or the later ones registration and live
    /// maintenance published, which extend them without copying.
    pub fn new(mut env: SimEnv, catalog: Catalog, config: ServiceConfig) -> Self {
        // Under a fault plan, the *storage* environment (registrations,
        // flushes, compactions) draws from its own reserved stream —
        // independent of every per-query schedule and replayable on its own.
        if let Some(faults) = config.fault_plan {
            env.install_faults(fault_plan(faults, STORAGE_FAULT_STREAM));
        }
        let machine = env.machine.clone();
        let store = Arc::new(LiveStore::new(env, catalog, FaultRetry::of(&config)));
        let obs = Arc::clone(&store.obs);
        let maintenance = config
            .background_maintenance
            .then(|| Maintenance::spawn(Arc::clone(&store)));
        Service {
            store,
            config,
            machine,
            plan_cache: Mutex::new(PlanCache::new()),
            maintenance,
            obs,
        }
    }

    /// Runs `f` against the live datasets, each under its writer lock. With
    /// background maintenance on, the view is a consistent point in time
    /// but maintenance may publish a new generation the moment the closure
    /// returns — don't cache tier shapes across calls.
    pub fn with_live<T>(&self, f: impl FnOnce(&LiveView<'_>) -> T) -> T {
        let slots = self.store.live_slots();
        let datasets = slots
            .iter()
            .map(|(id, live)| (*id, relock(live.lock())))
            .collect();
        let view = LiveView { datasets };
        f(&view)
    }

    /// Lifetime counters for the named live dataset, if it exists.
    pub fn live_stats(&self, name: &str) -> Option<LiveStats> {
        let live = self.store.live(name).ok();
        live.map(|(_, live)| relock(live.lock()).dataset().stats())
    }

    /// The named live dataset's *observed maintenance backlog*: delta runs
    /// awaiting compaction plus frozen batches awaiting flush, at this
    /// instant. Under background maintenance this is the number a submitter
    /// actually races against — the load the worker has not yet retired —
    /// which makes it the right bucketing key for interference experiments
    /// (post-hoc stats deltas can't tell "ran during compaction" from "ran
    /// just after").
    pub fn live_backlog(&self, name: &str) -> Option<usize> {
        let live = self.store.live(name).ok();
        live.map(|(_, live)| backlog(relock(live.lock()).dataset()))
    }

    /// The backlog of every live dataset, summed.
    pub(crate) fn total_backlog(&self) -> usize {
        let slots = self.store.live_slots();
        slots
            .iter()
            .map(|(_, live)| backlog(relock(live.lock()).dataset()))
            .sum()
    }

    /// Registers a live dataset with an initial base batch. Its pages and
    /// its slot are published in one swap, so no query can name it before
    /// its base run is readable. Registered and live datasets share one
    /// namespace: a name the table holds is refused.
    pub fn register_live(
        &self,
        name: &str,
        base_items: &[Item],
        config: LiveConfig,
    ) -> Result<DatasetId> {
        self.store.register(name, base_items, config)
    }

    /// Appends records to a registered live dataset. The records land in the
    /// dataset's memtable and are immediately visible to queries; flushes
    /// and compactions the append makes due either run here inline or are
    /// handed to the background maintenance worker, per
    /// [`ServiceConfig::background_maintenance`].
    pub fn append_live(&self, name: &str, items: &[Item]) -> Result<()> {
        let (_, live) = self.store.live(name)?;
        let pending = live
            .lock()
            .map_err(|_| ServiceError::LockPoisoned("live dataset"))?
            .writer()
            .append_buffered(items)?;
        if pending {
            match &self.maintenance {
                Some(worker) => worker.enqueue(live),
                None => tend_live(&self.store, &live, false)?,
            }
        }
        Ok(())
    }

    /// Drains the named live dataset's maintenance backlog to *nothing*:
    /// waits out any queued background work, then flushes the memtable and
    /// folds every delta into the base run. Afterwards the dataset has no
    /// tiers — a single sorted run + R-tree that joins through
    /// [`SpatialQuery`](usj_core::SpatialQuery) like a registered dataset, and the shape that makes
    /// benchmark pair-checks deterministic.
    pub fn quiesce_live(&self, name: &str) -> Result<()> {
        let (_, live) = self.store.live(name)?;
        if let Some(worker) = &self.maintenance {
            worker.wait_idle();
        }
        tend_live(&self.store, &live, true)
    }

    /// [`quiesce_live`](Service::quiesce_live), then the dataset's id.
    pub fn promote_live(&mut self, name: &str) -> Result<DatasetId> {
        self.quiesce_live(name)?;
        Ok(self.store.live(name)?.0)
    }

    /// Dissolves the service, returning the environment and the catalog of
    /// its sealed datasets (e.g. to register more datasets and build a new
    /// service). Shuts down and joins the background maintenance worker
    /// first, so the store has exactly one owner left.
    pub fn into_parts(mut self) -> (SimEnv, Catalog) {
        drop(self.maintenance.take());
        let store = Arc::try_unwrap(self.store)
            .unwrap_or_else(|_| panic!("maintenance worker joined; no other store owners remain"));
        store.into_parts()
    }
}

#[cfg(test)]
pub(crate) mod tests;
