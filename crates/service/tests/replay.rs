//! Seed replay: two *fresh* services given the same seeded batch agree.
//!
//! `ServiceStats::replay_digest()` folds the interleaving-independent part
//! of a batch's outcome (resolution counts, pairs, charged I/O, plan-cache
//! misses). Two workers race over the queue, so waits, deferrals and
//! completion order differ run to run — the digest must not.

use usj_core::Algo;
use usj_datagen::rng::SmallRng;
use usj_datagen::{Preset, WorkloadSpec};
use usj_geom::{Point, Rect};
use usj_io::{MachineConfig, SimEnv};
use usj_service::{
    CancelToken, Catalog, DatasetId, QueryRequest, Service, ServiceConfig, ServiceStats,
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
