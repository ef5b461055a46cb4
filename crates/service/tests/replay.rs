//! Seed replay: two *fresh* services given the same seeded batch agree.
//!
//! `ServiceStats::replay_digest()` folds the interleaving-independent part
//! of a batch's outcome (resolution counts, pairs, charged I/O, plan-cache
//! misses). Two workers race over the queue, so waits, deferrals and
//! completion order differ run to run — the digest must not.
//!
//! The batch roll-up itself is pinned beside it: `ServiceStats` is a fold
//! of the outcomes the same report carries.

use std::time::Duration;

use usj_core::Algo;
use usj_datagen::rng::SmallRng;
use usj_datagen::{Preset, WorkloadSpec};
use usj_geom::{Point, Rect};
use usj_io::{CpuCounter, IoStats, MachineConfig, SimEnv};
use usj_service::{
    CancelToken, Catalog, DatasetId, LiveConfig, QueryRequest, QueryStatus, Service,
    ServiceConfig, ServiceStats,
};

const REQUESTS: usize = 96;

/// A seeded mixed batch: 15 % joins cycling SSSJ/PQ/ST, the rest window and
/// point selections; some carry a priority, a `LIMIT`, or arrive already
/// cancelled (the client gave up while queued).
fn mixed_batch(seed: u64, roads: DatasetId, hydro: DatasetId, region: Rect) -> Vec<QueryRequest> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let join_algos = [Algo::Sssj, Algo::Pq, Algo::St];
    let mut joins = 0;
    (0..REQUESTS)
        .map(|_| {
            let mut request = if rng.gen_f64() < 0.15 {
                joins += 1;
                QueryRequest::join(roads, hydro)
                    .with_algorithm(join_algos[joins % join_algos.len()])
            } else if rng.gen_f64() < 0.15 {
                let x = region.lo.x + rng.gen_f32() * region.width();
                let y = region.lo.y + rng.gen_f32() * region.height();
                QueryRequest::point(roads, Point::new(x, y))
            } else {
                let w = region.width() * rng.gen_range_f32(0.02, 0.25);
                let h = region.height() * rng.gen_range_f32(0.02, 0.25);
                let x = region.lo.x + rng.gen_f32() * (region.width() - w);
                let y = region.lo.y + rng.gen_f32() * (region.height() - h);
                QueryRequest::window(roads, Rect::from_coords(x, y, x + w, y + h))
            };
            if rng.gen_f64() < 0.2 {
                request = request.with_priority(rng.gen_range_usize(1, 4) as u8);
            }
            if rng.gen_f64() < 0.1 {
                request = request.with_limit(rng.gen_range_usize(1, 64) as u64);
            }
            if rng.gen_f64() < 0.05 {
                let token = CancelToken::new();
                token.cancel();
                request = request.with_cancel(token);
            }
            request
        })
        .collect()
}

/// Registers the same NJ catalog into a fresh two-worker service and runs
/// the batch `seed` generates.
fn run_fresh(seed: u64) -> ServiceStats {
    let w = WorkloadSpec::preset(Preset::NJ)
        .with_scale(700)
        .generate(42);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut catalog = Catalog::new();
    let (roads, hydro) = env.unaccounted(|env| {
        (
            catalog.register(env, "roads", &w.roads).unwrap(),
            catalog.register(env, "hydro", &w.hydro).unwrap(),
        )
    });
    let service = Service::new(env, catalog, ServiceConfig::default().with_workers(2));
    service.run(mixed_batch(seed, roads, hydro, w.region)).stats
}

#[test]
fn identical_seeds_produce_identical_service_outcomes() {
    let first = run_fresh(7);
    let second = run_fresh(7);
    assert_eq!(first.submitted, REQUESTS as u64);
    assert!(
        first.cancelled > 0,
        "the batch must contain pre-cancelled requests"
    );
    assert!(first.pairs > 0);
    assert_eq!(first.completed + first.cancelled, first.submitted);

    assert_eq!(
        first.replay_digest(),
        second.replay_digest(),
        "replay digest must be deterministic across fresh services"
    );
    assert_eq!(first.completed, second.completed);
    assert_eq!(first.cancelled, second.cancelled);
    assert_eq!(first.pairs, second.pairs);

    assert_ne!(
        first.replay_digest(),
        run_fresh(8).replay_digest(),
        "a different seed is a different batch"
    );
}

#[test]
fn the_batch_roll_up_is_a_fold_of_its_outcomes() {
    let w = WorkloadSpec::preset(Preset::NJ)
        .with_scale(700)
        .generate(42);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut catalog = Catalog::new();
    let (roads, hydro) = env.unaccounted(|env| {
        (
            catalog.register(env, "roads", &w.roads).unwrap(),
            catalog.register(env, "hydro", &w.hydro).unwrap(),
        )
    });
    // A 4 MB budget under two workers: joins wait for each other, so the
    // batch records deferrals.
    let config = ServiceConfig::default().with_workers(2).with_memory_limit(4 << 20);
    let service = Service::new(env, catalog, config);
    // A live dataset with every tier: a base, delta runs and a memtable.
    let live_config = LiveConfig {
        flush_threshold_bytes: 16 * 1024,
        compact_after_deltas: 0,
    };
    let half = w.hydro.len() / 2;
    let live = service.register_live("live", &w.hydro[..half], live_config).unwrap();
    for chunk in w.hydro[half..].chunks(97) {
        service.append_live("live", chunk).unwrap();
    }

    let window = Rect::from_coords(
        w.region.lo.x,
        w.region.lo.y,
        w.region.lo.x + w.region.width() / 3.0,
        w.region.lo.y + w.region.height() / 3.0,
    );
    let token = CancelToken::new();
    token.cancel();
    let mut requests = mixed_batch(11, roads, hydro, w.region);
    requests.extend([
        QueryRequest::join(roads, live).with_algorithm(Algo::Sssj),
        QueryRequest::join(live, hydro).with_limit(25),
        QueryRequest::window(live, window),
        QueryRequest::window(live, window).with_limit(3),
        QueryRequest::join(live, roads).with_cancel(token),
        QueryRequest::join(roads, DatasetId(99)),
        QueryRequest::window(DatasetId(98), window),
    ]);
    let report = service.run(requests);
    let stats = &report.stats;

    // Every resolution the roll-up counts is present.
    assert!(stats.completed > 0 && stats.failed >= 2 && stats.cancelled >= 2, "{stats}");
    assert!(stats.deferrals > 0, "{stats}");
    assert!(report.outcomes.iter().any(|o| o.result().is_some_and(|r| r.pairs == 3)));

    let mut admitted = 0;
    let (mut completed, mut failed, mut cancelled) = (0, 0, 0);
    let (mut pairs, mut io, mut cpu) = (0, IoStats::default(), CpuCounter::default());
    let (mut peak_query_bytes, mut deferrals) = (0, 0);
    let (mut total_wait, mut max_wait) = (Duration::ZERO, Duration::ZERO);
    for outcome in &report.outcomes {
        admitted += u64::from(outcome.stats.admission_seq.is_some());
        match outcome.status {
            QueryStatus::Completed(_) => completed += 1,
            QueryStatus::Failed(_) => failed += 1,
            QueryStatus::Cancelled(_) => cancelled += 1,
        }
        if let Some(result) = outcome.result() {
            pairs += result.pairs;
            io.merge(&result.io);
            cpu.merge(&result.cpu);
            peak_query_bytes = peak_query_bytes.max(result.memory.peak_bytes);
        }
        deferrals += outcome.stats.deferrals;
        total_wait += outcome.stats.queue_wait;
        max_wait = max_wait.max(outcome.stats.queue_wait);
    }
    assert_eq!(stats.submitted, report.outcomes.len() as u64);
    assert_eq!(
        (stats.admitted, stats.completed, stats.failed, stats.cancelled),
        (admitted, completed, failed, cancelled)
    );
    assert_eq!(stats.pairs, pairs);
    assert_eq!(stats.io, io);
    assert_eq!(stats.cpu, cpu);
    assert_eq!(stats.peak_query_bytes, peak_query_bytes);
    assert_eq!(stats.deferrals, deferrals);
    assert_eq!(stats.total_queue_wait, total_wait);
    assert_eq!(stats.max_queue_wait, max_wait);
}
