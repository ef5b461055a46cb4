//! The chaos experiment (not in the paper): a mixed 16-request service
//! batch that oversubscribes a 16 MB shared budget, run under a seeded fault
//! plan, plus three targeted probes with *deterministic* outcomes.
//!
//! Four claims are exercised, per preset:
//!
//! 1. **Transient faults are absorbed.** The mixed 16-request batch runs
//!    with per-operation read/write fault probabilities injected into every
//!    query's forked device. Bounded retry must resolve every request, and
//!    a collecting join on the faulted service must produce the exact pair
//!    set of an identically-configured fault-free twin.
//! 2. **Panics are contained.** A probe service with `panic = 1.0` turns
//!    every device operation into a worker panic; the query must come back
//!    as a typed [`ServiceError::WorkerPanicked`] — not a hung or dead
//!    service — and the admission gauge must read zero afterwards.
//! 3. **Deadlines are typed failures.** A request with `deadline_us = 0`
//!    must fail as [`ServiceError::DeadlineExceeded`] without wedging the
//!    queue.
//! 4. **Acknowledged data is never lost.** A durable live dataset ingests
//!    under write/torn-write faults and is crash-recovered every round;
//!    the recovered record set must equal the set acknowledged by the last
//!    successful manifest commit, at every crash point.
//!
//! `repro faults` prints one row per preset and asserts every invariant
//! in-process, including that the run as a whole injected faults and
//! retried — a chaos run that injected nothing proves nothing.

use std::collections::BTreeSet;
use std::time::Instant;

use usj_core::Algo;
use usj_datagen::WorkloadSpec;
use usj_geom::{Item, Rect};
use usj_io::{fault::derive_seed, FaultConfig, FaultPlan, MachineConfig, SimEnv};
use usj_live::{LiveConfig, LiveDataset};
use usj_service::{Catalog, QueryRequest, QueryStatus, Service, ServiceConfig, ServiceError};

use crate::setup::ExperimentConfig;

/// Shared admission budget of the chaos services (16 MB).
const FAULTS_MEMORY_LIMIT: usize = 16 * 1024 * 1024;

/// Per-request demanded budget (6 MB: 2.67× oversubscription at 16 requests).
const FAULTS_QUERY_BUDGET: usize = 6 * 1024 * 1024;

/// Requests per chaos batch.
const FAULTS_REQUESTS: usize = 16;

/// Per-operation transient read-fault probability of the chaos batch.
pub const FAULTS_READ_RATE: f64 = 0.005;

/// Per-operation transient write-fault probability of the chaos batch.
pub const FAULTS_WRITE_RATE: f64 = 0.005;

/// Retry budget per query (transient faults only).
pub const FAULTS_RETRIES: u32 = 24;

/// Base backoff between retries, microseconds (exponential).
pub const FAULTS_BACKOFF_US: u64 = 20;

/// Crash/recover rounds of the durability loop.
pub const FAULTS_CRASH_ROUNDS: u64 = 6;

/// Worker threads of the chaos services.
const FAULTS_WORKERS: usize = 4;

/// One measured preset of the chaos experiment.
#[derive(Debug, Clone)]
pub struct FaultsBenchRow {
    /// Workload preset name.
    pub preset: String,
    /// Requests submitted to the chaos batch.
    pub requests: u64,
    /// Chaos-batch requests completed.
    pub completed: u64,
    /// Chaos-batch requests failed.
    pub failed: u64,
    /// Faults injected across the faulted services (`faults.injected`).
    pub injected: u64,
    /// Transient-fault retries performed (`faults.retries`).
    pub retries: u64,
    /// Worker panics contained (`faults.panics`).
    pub panics: u64,
    /// Deadline misses recorded (`faults.deadline_exceeded`).
    pub deadline_exceeded: u64,
    /// Admission-gauge reading after every failure mode drained (bytes;
    /// must be zero — leaked reservations would wedge future admissions).
    pub gauge_after_bytes: usize,
    /// Whether the faulted service's pair set equalled the fault-free twin.
    pub pairs_match: bool,
    /// Rounds whose ingestion was interrupted by an injected device fault.
    pub faulted_rounds: u64,
    /// Records acknowledged (manifested) when the loop ended — every one
    /// survived every crash.
    pub records_acknowledged: usize,
    /// Host wall-clock of the preset in milliseconds.
    pub wall_ms: f64,
}

/// Builds the mixed batch — SSSJ, PQ and ST joins plus half-region window
/// selections — with per-request budgets that oversubscribe the shared limit.
fn chaos_requests(
    roads: usj_service::DatasetId,
    hydro: usj_service::DatasetId,
    region: Rect,
) -> Vec<QueryRequest> {
    let window = Rect::from_coords(
        region.lo.x,
        region.lo.y,
        region.lo.x + region.width() * 0.5,
        region.lo.y + region.height() * 0.5,
    );
    (0..FAULTS_REQUESTS as u32)
        .map(|i| {
            let request = match i % 4 {
                0 => QueryRequest::join(roads, hydro).with_algorithm(Algo::Sssj),
                1 => QueryRequest::join(roads, hydro).with_algorithm(Algo::Pq),
                2 => QueryRequest::join(roads, hydro).with_algorithm(Algo::St),
                _ => QueryRequest::window(roads, window),
            };
            request
                .with_memory_budget(FAULTS_QUERY_BUDGET)
                .with_priority((i % 3) as u8)
        })
        .collect()
}

/// Registers the preset workload into a fresh service under `config`.
fn service_over(
    workload: &usj_datagen::Workload,
    config: ServiceConfig,
) -> (Service, usj_service::DatasetId, usj_service::DatasetId) {
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut catalog = Catalog::new();
    let (roads, hydro) = env.unaccounted(|env| {
        (
            catalog
                .register(env, "roads", &workload.roads)
                .expect("register roads"),
            catalog
                .register(env, "hydro", &workload.hydro)
                .expect("register hydro"),
        )
    });
    (Service::new(env, catalog, config), roads, hydro)
}

/// A small synthetic grid pair for the panic probe — the probe only needs
/// *some* device operations, not the full preset workload.
fn probe_grid(id_base: u32, offset: f32) -> Vec<Item> {
    (0..144u32)
        .map(|i| {
            let (gx, gy) = ((i % 12) as f32, (i / 12) as f32);
            let (x, y) = (gx * 8.0 + offset, gy * 8.0 + offset);
            Item::new(Rect::from_coords(x, y, x + 9.0, y + 9.0), id_base + i)
        })
        .collect()
}

fn sorted_pairs(pairs: Option<&Vec<(u32, u32)>>) -> Vec<(u32, u32)> {
    let mut out = pairs.cloned().unwrap_or_default();
    out.sort_unstable();
    out
}

/// The panic probe: every device operation panics; the query must resolve
/// as a contained `WorkerPanicked` and the gauge must drain. Returns the
/// probe service's (injected, panics) counters.
fn panic_probe(seed: u64) -> (u64, u64, usize) {
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut catalog = Catalog::new();
    let (a, b) = env.unaccounted(|env| {
        (
            catalog
                .register(env, "pa", &probe_grid(0, 0.0))
                .expect("register pa"),
            catalog
                .register(env, "pb", &probe_grid(10_000, 3.0))
                .expect("register pb"),
        )
    });
    let service = Service::new(
        env,
        catalog,
        ServiceConfig::default()
            .with_workers(2)
            .with_memory_limit(FAULTS_MEMORY_LIMIT)
            .with_fault_plan(FaultConfig {
                seed,
                panic: 1.0,
                ..FaultConfig::default()
            }),
    );
    let mut gauge_after = usize::MAX;
    let ((), report) = service.with_session(|session| {
        session.submit(QueryRequest::join(a, b));
        while session.queue_depth() > 0 || session.running() > 0 {
            std::thread::yield_now();
        }
        gauge_after = session.admission_bytes_in_use();
    });
    assert!(
        matches!(
            report.outcomes[0].status,
            QueryStatus::Failed(ServiceError::WorkerPanicked(_))
        ),
        "panic probe must resolve as a contained WorkerPanicked, got {:?}",
        report.outcomes[0].status
    );
    let snap = service.metrics_snapshot();
    let panics = snap.counter("faults.panics").unwrap_or(0);
    assert!(panics >= 1, "panic probe must record faults.panics");
    (
        snap.counter("faults.injected").unwrap_or(0),
        panics,
        gauge_after,
    )
}

/// The durability loop: ingest under write/torn-write faults, crash at the
/// end of every round (including rounds whose ingestion was cut short by
/// an injected fault), recover, and assert the recovered record set equals
/// the acknowledged (last-manifested) set. Returns (faulted rounds,
/// acknowledged records).
fn crash_loop(cfg: &ExperimentConfig, items: &[Item]) -> (u64, usize) {
    let live_config = LiveConfig {
        flush_threshold_bytes: 24 * usj_geom::ITEM_BYTES,
        compact_after_deltas: 2,
    };
    let split = items.len() / 4;
    let mut env = SimEnv::new(MachineConfig::machine3());
    let (ds, root) = LiveDataset::create_durable(&mut env, "chaos", &items[..split], live_config)
        .expect("create durable dataset");
    let mut ds = ds;
    // Recovery re-homes the root pointer onto the restarted device, so a
    // caller that will crash again must chase it across rounds.
    let mut root = root;
    let mut acked: BTreeSet<u32> = ds
        .published_items(&mut env)
        .expect("read published base")
        .iter()
        .map(|i| i.id)
        .collect();

    let mut rest = &items[split..];
    let mut faulted_rounds = 0u64;
    for round in 0..FAULTS_CRASH_ROUNDS {
        // A few write/torn faults per round; the cap keeps each round's
        // recovery bounded while still crossing flush, compaction and
        // manifest writes with live fault schedules. A round issues only a
        // dozen or so device writes (merge compaction: the new base, the
        // nodes, and the loader's runs when the box grew), so the rates are
        // what it takes for one to three of the six rounds to fault at any
        // seed.
        env.install_faults(FaultPlan::new(FaultConfig {
            seed: derive_seed(cfg.seed, 0x100 + round),
            write_fault: 0.04,
            torn_write: 0.04,
            max_faults: 3,
            ..FaultConfig::default()
        }));
        let chunk = rest.len().min(1 + items.len() / 8);
        let ingested = (|| -> usj_live::Result<()> {
            if chunk > 0 {
                ds.append(&mut env, &rest[..chunk])?;
            }
            ds.flush(&mut env)?;
            ds.write_manifest(&mut env)
        })();
        match ingested {
            Ok(()) => {
                rest = &rest[chunk..];
                acked = ds
                    .published_items(&mut env)
                    .expect("read acked set")
                    .iter()
                    .map(|i| i.id)
                    .collect();
            }
            Err(usj_live::LiveError::Io(_)) => faulted_rounds += 1,
            Err(other) => panic!("unexpected ingestion error: {other:?}"),
        }
        // Crash: all volatile state is gone; restart from the device image
        // (the fork carries no fault plan, so recovery itself runs clean —
        // matching a machine that comes back healthy after a power cut).
        env = env.fork_with_base(env.device.snapshot());
        let (recovered, _report) =
            LiveDataset::recover(&mut env, "chaos", root, live_config).expect("recover");
        let got: BTreeSet<u32> = recovered
            .published_items(&mut env)
            .expect("read recovered set")
            .iter()
            .map(|i| i.id)
            .collect();
        assert_eq!(
            got, acked,
            "round {round}: recovery lost or fabricated acknowledged records"
        );
        root = recovered
            .durable_root()
            .expect("recovered dataset stays durable");
        ds = recovered;
    }
    (faulted_rounds, acked.len())
}

/// Runs the chaos experiment, printing one row per preset, and returns the
/// rows. Every invariant is asserted here, so a run that returns is a pass.
pub fn faults_bench(cfg: &ExperimentConfig) -> Vec<FaultsBenchRow> {
    println!(
        "\n== Chaos: {} mixed requests under injected faults (read {:.3}, write {:.3}, \
         {} retries), {} crash/recover rounds (scale divisor {}) ==",
        FAULTS_REQUESTS,
        FAULTS_READ_RATE,
        FAULTS_WRITE_RATE,
        FAULTS_RETRIES,
        FAULTS_CRASH_ROUNDS,
        cfg.scale
    );
    println!(
        "{:<10} {:>9} {:>7} {:>9} {:>8} {:>7} {:>9} {:>7} {:>6} {:>7} {:>8} {:>9}",
        "Data set",
        "Complete",
        "Failed",
        "Injected",
        "Retries",
        "Panics",
        "Deadline",
        "Gauge",
        "Match",
        "Crashes",
        "Records",
        "Wall ms"
    );
    let mut rows = Vec::new();
    for &preset in &cfg.presets {
        let workload = WorkloadSpec::preset(preset)
            .with_scale(cfg.scale)
            .generate(cfg.seed);
        let start = Instant::now();

        let chaos_config = ServiceConfig::default()
            .with_workers(FAULTS_WORKERS)
            .with_memory_limit(FAULTS_MEMORY_LIMIT)
            .with_fault_retries(FAULTS_RETRIES, FAULTS_BACKOFF_US)
            .with_fault_plan(FaultConfig {
                seed: derive_seed(cfg.seed, 1),
                read_fault: FAULTS_READ_RATE,
                write_fault: FAULTS_WRITE_RATE,
                ..FaultConfig::default()
            });
        let (chaos, roads, hydro) = service_over(&workload, chaos_config);
        let clean_config = ServiceConfig::default()
            .with_workers(FAULTS_WORKERS)
            .with_memory_limit(FAULTS_MEMORY_LIMIT);
        let (clean, c_roads, c_hydro) = service_over(&workload, clean_config);

        // 1. The chaos batch: every request must resolve, the gauge must
        //    drain. (Failures are typed and reported, not asserted away —
        //    a query that exhausts its retry budget is a legal outcome.)
        let mut gauge_after = usize::MAX;
        let ((), report) = chaos.with_session(|session| {
            for request in chaos_requests(roads, hydro, workload.region) {
                session.submit(request);
            }
            while session.queue_depth() > 0 || session.running() > 0 {
                std::thread::yield_now();
            }
            gauge_after = session.admission_bytes_in_use();
        });
        let stats = &report.stats;
        assert_eq!(
            stats.completed + stats.failed,
            stats.submitted,
            "{preset}: every chaos request must resolve"
        );
        assert_eq!(
            gauge_after, 0,
            "{preset}: failures must not leak admission bytes"
        );

        // 2. Deadline probe: an already-expired deadline is a typed,
        //    deterministic failure — never a hang.
        let deadline_report = chaos.run(vec![QueryRequest::join(roads, hydro).with_deadline_us(0)]);
        assert!(
            matches!(
                deadline_report.outcomes[0].status,
                QueryStatus::Failed(ServiceError::DeadlineExceeded { .. })
            ),
            "{preset}: expired deadline must fail as DeadlineExceeded"
        );

        // 3. Identity probe: the faulted service, retries and all, must
        //    answer a collecting join byte-identically to the clean twin.
        let faulted_join = chaos.run(vec![QueryRequest::join(roads, hydro)
            .with_algorithm(Algo::Sssj)
            .collecting()]);
        let clean_join = clean.run(vec![QueryRequest::join(c_roads, c_hydro)
            .with_algorithm(Algo::Sssj)
            .collecting()]);
        assert!(
            clean_join.outcomes[0].is_completed(),
            "{preset}: the fault-free twin must complete"
        );
        let faulted_pairs = sorted_pairs(faulted_join.outcomes[0].pairs.as_ref());
        let clean_pairs = sorted_pairs(clean_join.outcomes[0].pairs.as_ref());
        let pairs_match = faulted_join.outcomes[0].is_completed() && faulted_pairs == clean_pairs;
        assert!(
            pairs_match,
            "{preset}: faulted service diverged from the fault-free twin \
             ({} vs {} pairs)",
            faulted_pairs.len(),
            clean_pairs.len()
        );

        // 4. Panic containment probe + the durability crash loop.
        let (probe_injected, probe_panics, probe_gauge) = panic_probe(derive_seed(cfg.seed, 2));
        assert_eq!(
            probe_gauge, 0,
            "{preset}: contained panic must release its grant"
        );
        let crash_items = &workload.roads[..workload.roads.len().min(600)];
        let (faulted_rounds, records_acknowledged) = crash_loop(cfg, crash_items);

        let snap = chaos.metrics_snapshot();
        let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
        let row = FaultsBenchRow {
            preset: preset.name().to_string(),
            requests: stats.submitted,
            completed: stats.completed,
            failed: stats.failed,
            injected: snap.counter("faults.injected").unwrap_or(0) + probe_injected,
            retries: snap.counter("faults.retries").unwrap_or(0),
            panics: snap.counter("faults.panics").unwrap_or(0) + probe_panics,
            deadline_exceeded: snap.counter("faults.deadline_exceeded").unwrap_or(0),
            gauge_after_bytes: gauge_after,
            pairs_match,
            faulted_rounds,
            records_acknowledged,
            wall_ms,
        };
        println!(
            "{:<10} {:>9} {:>7} {:>9} {:>8} {:>7} {:>9} {:>7} {:>6} {:>7} {:>8} {:>9.1}",
            row.preset,
            row.completed,
            row.failed,
            row.injected,
            row.retries,
            row.panics,
            row.deadline_exceeded,
            row.gauge_after_bytes,
            if row.pairs_match { "yes" } else { "NO" },
            row.faulted_rounds,
            row.records_acknowledged,
            row.wall_ms
        );
        rows.push(row);
    }
    println!(
        "(every chaos request resolves with a typed outcome; retried answers are \
         byte-identical to the fault-free twin; recovery never loses manifested records)"
    );
    // A run that injected nothing proves nothing.
    let injected: u64 = rows.iter().map(|r| r.injected).sum();
    let retries: u64 = rows.iter().map(|r| r.retries).sum();
    assert!(injected > 0, "chaos run injected no faults");
    assert!(
        rows.iter().any(|r| r.faulted_rounds > 0),
        "no crash/recover round faulted: recovery only ever saw cleanly written devices"
    );
    assert!(
        retries > 0,
        "chaos run exercised no retries: the workload issues too few device operations to \
         draw faults at these rates (DISK1 and larger at the default scale do)"
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_datagen::Preset;

    #[test]
    fn faults_bench_runs_and_serializes_on_a_tiny_configuration() {
        let cfg = ExperimentConfig {
            scale: 200,
            seed: 42,
            presets: vec![Preset::Disk1_3],
        };
        // Not smaller: the batch must issue enough device operations to
        // draw faults at the experiment's rates (NJ at this scale draws
        // none, and faults_bench refuses a run that retried nothing).
        //
        // faults_bench asserts the chaos invariants internally: every
        // request resolves, the gauge drains to zero, the panic and
        // deadline probes come back typed, the faulted pair set equals the
        // clean twin's and recovery conserves acknowledged records.
        let rows = faults_bench(&cfg);
        assert_eq!(rows.len(), 1, "one row per preset");
        let row = &rows[0];
        assert_eq!(row.completed + row.failed, row.requests);
        assert_eq!(row.gauge_after_bytes, 0);
        assert!(row.pairs_match);
        assert!(
            row.panics >= 1,
            "the panic probe guarantees a contained panic"
        );
        assert!(
            row.deadline_exceeded >= 1,
            "the deadline probe guarantees a miss"
        );
        assert!(row.records_acknowledged > 0);
    }
}
