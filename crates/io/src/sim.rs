//! The simulation environment handed to every algorithm.

use std::sync::Arc;

use crate::cost::{CostBreakdown, CostModel};
use crate::device::BlockDevice;
use crate::gauge::MemoryGauge;
use crate::machine::MachineConfig;
use crate::page::Page;
use crate::stats::{CpuCounter, CpuOp, IoStats};

/// Default amount of internal memory available to the algorithms.
///
/// The paper's machines have 64 MB of RAM of which at least 24 MB is free;
/// all memory-limit decisions (sort run length, PBSM partition sizing, the
/// ST buffer pool) are taken against this figure.
pub const DEFAULT_MEMORY_LIMIT: usize = 24 * 1024 * 1024;

/// A snapshot of the accounting state, used to measure a phase of a join.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    io_at_start: IoStats,
    cpu_at_start: CpuCounter,
}

/// An open observability phase: a tracing span plus (when recording) the
/// counter snapshot that will attribute the phase's charged I/O to it.
/// Created by [`SimEnv::obs_phase`], closed by [`SimEnv::obs_close`].
#[must_use = "close the phase with SimEnv::obs_close to attribute its I/O"]
pub struct ObsPhase {
    span: usj_obs::SpanGuard,
    measure: Option<Measurement>,
}

/// The environment a join algorithm runs in: the simulated disk, the machine
/// cost model, the deterministic CPU counter, and the internal-memory limit.
#[derive(Debug)]
pub struct SimEnv {
    /// The simulated disk.
    pub device: BlockDevice,
    /// The machine (Table 1) this run is simulating.
    pub machine: MachineConfig,
    /// Deterministic CPU-work counter.
    pub cpu: CpuCounter,
    /// Internal memory available to the algorithms, in bytes.
    ///
    /// Mutate it only through [`SimEnv::with_memory_limit`] /
    /// [`SimEnv::set_memory_limit`], which keep the enforcing
    /// [`memory`](SimEnv::memory) gauge in sync.
    pub memory_limit: usize,
    /// The memory governor enforcing [`memory_limit`](SimEnv::memory_limit):
    /// allocation-heavy structures (sweep active lists, PBSM partition
    /// buffers, stream block buffers, the PQ heaps, the ST buffer pool)
    /// register their bytes here, so the reported peak is *measured* and
    /// exceeding the limit is impossible by construction.
    pub memory: MemoryGauge,
}

impl SimEnv {
    /// Creates a fresh environment for `machine` with the default 24 MB
    /// internal-memory limit.
    pub fn new(machine: MachineConfig) -> Self {
        SimEnv {
            device: BlockDevice::new(),
            machine,
            cpu: CpuCounter::new(),
            memory_limit: DEFAULT_MEMORY_LIMIT,
            memory: MemoryGauge::new(DEFAULT_MEMORY_LIMIT),
        }
    }

    /// Sets the internal-memory limit (builder style).
    pub fn with_memory_limit(mut self, bytes: usize) -> Self {
        self.set_memory_limit(bytes);
        self
    }

    /// Sets the internal-memory limit, replacing the gauge.
    ///
    /// Call this between joins (any [`MemoryReservation`] still alive keeps
    /// charging the *old* gauge — the new one starts empty).
    ///
    /// [`MemoryReservation`]: crate::gauge::MemoryReservation
    pub fn set_memory_limit(&mut self, bytes: usize) {
        self.memory_limit = bytes;
        self.memory = MemoryGauge::new(bytes);
    }

    /// Creates an independent *worker* environment: the same machine model
    /// and internal-memory limit, zeroed CPU counters, and a device layered
    /// over the given read-only page snapshot.
    ///
    /// This is the unit of isolation of a worker over a frozen store: the
    /// query service's workers layer their devices the same way, and the
    /// benchmark and the fault experiment fork one per measured join. The
    /// snapshot holds what the workers share — stored sorted runs, R-tree
    /// nodes, the catalog directory — so a worker can *read* it with its
    /// reads charged to its own statistics, while all scratch allocations
    /// stay private to the fork. Per-worker accounting never interleaves and
    /// rolls up with
    /// [`IoStats::merge`](crate::stats::IoStats::merge) /
    /// [`CpuCounter::merge`](crate::stats::CpuCounter::merge). Writes to
    /// snapshot pages fail with
    /// [`IoSimError::ReadOnlyPage`](crate::IoSimError::ReadOnlyPage).
    pub fn fork_with_base(&self, base: Arc<Vec<Page>>) -> SimEnv {
        SimEnv {
            device: BlockDevice::with_base(base),
            machine: self.machine.clone(),
            cpu: CpuCounter::new(),
            memory_limit: self.memory_limit,
            // Each worker gets a fresh gauge with the same budget: the
            // per-worker peak is the invariant of interest.
            memory: MemoryGauge::new(self.memory_limit),
        }
    }

    /// Installs a fault schedule on this environment's device; see
    /// [`BlockDevice::install_faults`].
    pub fn install_faults(&mut self, plan: crate::fault::FaultPlan) {
        self.device.install_faults(plan);
    }

    /// Counters of the installed fault schedule, if any; see
    /// [`BlockDevice::fault_stats`].
    pub fn fault_stats(&self) -> Option<crate::fault::FaultStats> {
        self.device.fault_stats()
    }

    /// The cost model for this environment's machine.
    pub fn cost_model(&self) -> CostModel {
        CostModel::new(self.machine.clone())
    }

    /// Records `n` CPU operations of kind `op`.
    #[inline]
    pub fn charge(&mut self, op: CpuOp, n: u64) {
        self.cpu.add(op, n);
    }

    /// Starts measuring a phase: returns a snapshot of the current counters.
    pub fn begin(&self) -> Measurement {
        Measurement {
            io_at_start: self.device.stats(),
            cpu_at_start: self.cpu,
        }
    }

    /// I/O and CPU deltas since `m` was taken.
    pub fn since(&self, m: &Measurement) -> (IoStats, CpuCounter) {
        (
            self.device.stats().delta_since(&m.io_at_start),
            self.cpu.delta_since(&m.cpu_at_start),
        )
    }

    /// Observed (sequential/random-aware) simulated cost since `m`.
    pub fn observed_since(&self, m: &Measurement) -> CostBreakdown {
        let (io, cpu) = self.since(m);
        self.cost_model().observed(&io, &cpu)
    }

    /// Estimated (every page charged a random read) simulated cost since `m`.
    pub fn estimated_since(&self, m: &Measurement) -> CostBreakdown {
        let (io, cpu) = self.since(m);
        self.cost_model().estimated(&io, &cpu)
    }

    /// Runs `f` with device accounting disabled, restoring the previous
    /// setting afterwards. Used for preprocessing that the paper excludes
    /// from its measurements (e.g. materialising the raw input files).
    pub fn unaccounted<T>(&mut self, f: impl FnOnce(&mut SimEnv) -> T) -> T {
        let was = self.device.set_accounting(false);
        let out = f(self);
        self.device.set_accounting(was);
        out
    }

    /// Opens an observability span named `name` that will attribute the
    /// charged I/O of the enclosed phase to itself.
    ///
    /// With no recorder installed on the current thread (the production
    /// default) this is a single thread-local probe: no measurement is
    /// taken and the returned phase is inert. When recording, the phase
    /// snapshots the counters ([`SimEnv::begin`]) so that
    /// [`obs_close`](SimEnv::obs_close) can report the delta on the span.
    /// A phase that is dropped without `obs_close` still closes its span,
    /// just without I/O attribution.
    pub fn obs_phase(&self, name: &'static str) -> ObsPhase {
        let span = usj_obs::span(name);
        let measure = span.is_recording().then(|| self.begin());
        ObsPhase { span, measure }
    }

    /// Closes an observability phase, attributing the I/O charged since
    /// [`obs_phase`](SimEnv::obs_phase) to its span.
    pub fn obs_close(&self, mut phase: ObsPhase) {
        if let Some(m) = phase.measure.take() {
            let (io, _) = self.since(&m);
            phase.span.add_io(io.span_io());
        }
        // Dropping the guard emits the span-end event.
    }

    /// Marks a point event named `name` carrying `value` under the
    /// innermost open phase ([`usj_obs::instant`]); a no-op when nothing
    /// records.
    pub fn obs_mark(&self, name: &'static str, value: u64) {
        usj_obs::instant(name, value);
    }

    /// Runs `f` under a *temporary* memory budget of `bytes`, restoring the
    /// previous gauge and limit afterwards.
    ///
    /// The scoped work gets a fresh gauge enforcing `bytes`, so its sorts and
    /// merges degrade (spill) at that budget instead of the environment's
    /// full limit. Reservations created before the call keep charging the
    /// *old* gauge (which is restored on exit), so long-lived structures —
    /// live memtables, frozen flush batches — are unaffected. This is the
    /// governor of background maintenance: compaction merges run inside
    /// `with_budget(4 MiB, ..)` (the service's maintenance budget) so their
    /// transient working sets stay bounded independently of query admission.
    pub fn with_budget<T>(&mut self, bytes: usize, f: impl FnOnce(&mut SimEnv) -> T) -> T {
        let prev_limit = self.memory_limit;
        let prev_gauge = std::mem::replace(&mut self.memory, MemoryGauge::new(bytes));
        self.memory_limit = bytes;
        let out = f(self);
        self.memory_limit = prev_limit;
        self.memory = prev_gauge;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_env_has_default_memory_limit() {
        let env = SimEnv::new(MachineConfig::machine3());
        assert_eq!(env.memory_limit, DEFAULT_MEMORY_LIMIT);
        let env = env.with_memory_limit(1024);
        assert_eq!(env.memory_limit, 1024);
    }

    #[test]
    fn fork_is_isolated_from_the_parent() {
        let mut env = SimEnv::new(MachineConfig::machine2()).with_memory_limit(4096);
        let p = env.device.allocate(2);
        env.device.read_page(p).unwrap();
        env.charge(CpuOp::Compare, 7);

        let mut worker = env.fork_with_base(Arc::default());
        // Same machine and memory budget...
        assert_eq!(worker.machine, env.machine);
        assert_eq!(worker.memory_limit, 4096);
        // ...but a disk of its own and zeroed counters.
        assert_eq!(worker.device.allocated_pages(), 0);
        assert_eq!(worker.device.stats(), IoStats::default());
        assert_eq!(worker.cpu.total(), 0);

        // Traffic in the fork never shows up in the parent and vice versa.
        let q = worker.device.allocate(3);
        worker.device.read_page(q).unwrap();
        worker.charge(CpuOp::HeapOp, 3);
        assert_eq!(env.device.stats().read_ops(), 1);
        assert_eq!(env.cpu.get(CpuOp::HeapOp), 0);
        assert_eq!(worker.device.stats().read_ops(), 1);
    }

    #[test]
    fn fork_with_base_shares_stored_pages_read_only() {
        let mut env = SimEnv::new(MachineConfig::machine3()).with_memory_limit(1 << 20);
        let p = env.device.allocate(2);
        env.device.write_page(p, b"stored").unwrap();

        let base = env.device.snapshot();
        let mut worker = env.fork_with_base(base);
        assert_eq!(worker.memory_limit, 1 << 20);
        assert_eq!(worker.device.base_pages(), 2);
        // The worker reads the parent's stored data on its own accounting.
        assert_eq!(&worker.device.read_page(p).unwrap()[..6], b"stored");
        assert_eq!(worker.device.stats().pages_read, 1);
        assert_eq!(env.device.stats().pages_read, 0);
        // Stored pages are immutable from the fork.
        assert!(worker.device.write_page(p, b"x").is_err());
        // Scratch allocations are private.
        let q = worker.device.allocate(1);
        worker.device.write_page(q, b"mine").unwrap();
        assert_eq!(env.device.allocated_pages(), 2);
    }

    #[test]
    fn measurement_captures_only_the_phase() {
        let mut env = SimEnv::new(MachineConfig::machine3());
        let p = env.device.allocate(8);
        env.device.read_page(p).unwrap();
        env.charge(CpuOp::Compare, 100);

        let m = env.begin();
        env.device.read_page(p + 1).unwrap();
        env.device.read_page(p + 5).unwrap();
        env.charge(CpuOp::Compare, 50);
        let (io, cpu) = env.since(&m);
        assert_eq!(io.read_ops(), 2);
        assert_eq!(cpu.get(CpuOp::Compare), 50);
    }

    #[test]
    fn observed_and_estimated_costs_are_consistent() {
        let mut env = SimEnv::new(MachineConfig::machine1());
        let p = env.device.allocate(4);
        let m = env.begin();
        for i in 0..4 {
            env.device.read_page(p + i).unwrap();
        }
        let obs = env.observed_since(&m);
        let est = env.estimated_since(&m);
        // Three of the four reads are sequential, so the observed I/O time
        // must be lower than the all-random estimate.
        assert!(obs.io_secs < est.io_secs);
        assert!(obs.io_secs > 0.0);
    }

    #[test]
    fn with_budget_scopes_the_gauge_and_restores_it() {
        let mut env = SimEnv::new(MachineConfig::machine3()).with_memory_limit(1 << 20);
        let outer = env.memory.try_reserve(512 * 1024).unwrap();
        env.with_budget(64 * 1024, |e| {
            assert_eq!(e.memory_limit, 64 * 1024);
            // The scoped gauge starts empty: the outer reservation charges
            // the (suspended) outer gauge, not this one.
            assert_eq!(e.memory.current(), 0);
            assert!(e.memory.try_reserve(128 * 1024).is_err());
            let _inner = e.memory.try_reserve(32 * 1024).unwrap();
        });
        assert_eq!(env.memory_limit, 1 << 20);
        assert_eq!(env.memory.current(), 512 * 1024);
        drop(outer);
        assert_eq!(env.memory.current(), 0);
    }

    #[test]
    fn obs_phase_attributes_io_only_when_recording() {
        let mut env = SimEnv::new(MachineConfig::machine3());
        let p = env.device.allocate(4);

        // No recorder installed: the phase is inert (no measurement taken).
        let phase = env.obs_phase("phase");
        env.device.read_page(p).unwrap();
        env.obs_close(phase);

        // Recording: the span-end event carries the phase's I/O delta.
        let ring = Arc::new(usj_obs::RingCollector::new(64));
        let guard = usj_obs::install(ring.clone(), Arc::new(usj_obs::VirtualClock::new()));
        let phase = env.obs_phase("phase");
        env.device.read_page(p + 1).unwrap();
        env.device.read_page(p + 3).unwrap();
        env.obs_close(phase);
        drop(guard);

        let (events, dropped) = ring.drain();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 2, "one begin + one end");
        let usj_obs::Event::SpanEnd { io, .. } = &events[1] else {
            panic!("expected span end, got {:?}", events[1]);
        };
        assert_eq!(io.pages_read, 2);
        assert_eq!(io.seq_ops + io.rand_ops, 2);
    }

    #[test]
    fn unaccounted_suppresses_io_charges() {
        let mut env = SimEnv::new(MachineConfig::machine2());
        env.device.allocate(4);
        let m = env.begin();
        env.unaccounted(|e| {
            e.device.read_page(0).unwrap();
            e.device.write_page(1, b"x").unwrap();
        });
        let (io, _) = env.since(&m);
        assert_eq!(io.total_ops(), 0);
        // Accounting is restored afterwards.
        env.device.read_page(2).unwrap();
        let (io, _) = env.since(&m);
        assert_eq!(io.total_ops(), 1);
    }
}
