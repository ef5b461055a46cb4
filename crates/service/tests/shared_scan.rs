//! Differential proof that shared-scan batching is invisible to clients.
//!
//! Every test runs the same request batch twice — once with
//! `shared_scans` off (each selection traverses the R-tree on its own) and
//! once with it on (compatible selections coalesce into one traversal fanned
//! through per-query sinks) — and asserts the delivered output is
//! **byte-identical**: the same pairs, in the same per-query order, under
//! `LIMIT` early termination and mid-batch cancellation too. The batched run
//! must also charge strictly less index I/O, which is the whole point.

use std::time::Duration;

use usj_datagen::rng::SmallRng;
use usj_datagen::{Preset, WorkloadSpec};
use usj_geom::{Point, Rect};
use usj_io::{MachineConfig, SimEnv};
use usj_service::{
    CancelToken, Catalog, DatasetId, QueryKind, QueryRequest, QueryStatus, Service, ServiceConfig,
    ServiceReport,
};

/// Builds a service over one registered NJ dataset pair.
fn build_service(
    shared_scans: bool,
    workers: usize,
    scale: u64,
    seed: u64,
) -> (Service, DatasetId, DatasetId, Rect) {
    let w = WorkloadSpec::preset(Preset::NJ).with_scale(scale).generate(seed);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut catalog = Catalog::new();
    let (roads, hydro) = env.unaccounted(|env| {
        (
            catalog.register(env, "roads", &w.roads).unwrap(),
            catalog.register(env, "hydro", &w.hydro).unwrap(),
        )
    });
    let service = Service::new(
        env,
        catalog,
        ServiceConfig::default()
            .with_workers(workers)
            .with_shared_scans(shared_scans),
    );
    (service, roads, hydro, w.region)
}

/// A deterministic batch of collecting selections over `region`: windows of
/// wildly different sizes (including empty ones off the region's edge),
/// point stabs, and a sprinkling of `LIMIT`s.
fn selection_batch(region: Rect, roads: DatasetId, seed: u64, n: usize) -> Vec<QueryRequest> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let request = if i % 5 == 4 {
                let x = region.lo.x + rng.gen_f32() * region.width();
                let y = region.lo.y + rng.gen_f32() * region.height();
                QueryRequest::point(roads, Point::new(x, y))
            } else {
                let w = region.width() * rng.gen_range_f32(0.01, 0.6);
                let h = region.height() * rng.gen_range_f32(0.01, 0.6);
                let x = region.lo.x + rng.gen_f32() * region.width();
                let y = region.lo.y + rng.gen_f32() * region.height();
                QueryRequest::window(roads, Rect::from_coords(x, y, x + w, y + h))
            };
            let request = if i % 3 == 0 {
                request.with_limit(1 + (i as u64 * 7) % 40)
            } else {
                request
            };
            request.collecting()
        })
        .collect()
}

/// Asserts the two reports delivered byte-identical output per query.
fn assert_identical_output(serial: &ServiceReport, batched: &ServiceReport) {
    assert_eq!(serial.outcomes.len(), batched.outcomes.len());
    for (s, b) in serial.outcomes.iter().zip(&batched.outcomes) {
        assert_eq!(s.request, b.request);
        assert_eq!(
            s.is_completed(),
            b.is_completed(),
            "request #{} status diverged: {:?} vs {:?}",
            s.request,
            s.status,
            b.status
        );
        assert_eq!(
            s.pairs, b.pairs,
            "request #{}: batched pairs differ from serial",
            s.request
        );
    }
    assert_eq!(serial.stats.pairs, batched.stats.pairs);
}

#[test]
fn batched_selections_are_byte_identical_across_seeds() {
    for seed in [3, 17, 1999] {
        let batch = |svc: &(Service, DatasetId, DatasetId, Rect)| {
            selection_batch(svc.3, svc.1, seed * 31, 24)
        };
        let serial_svc = build_service(false, 1, 700, seed);
        let serial = serial_svc.0.run(batch(&serial_svc));
        let batched_svc = build_service(true, 1, 700, seed);
        let batched = batched_svc.0.run(batch(&batched_svc));

        assert_identical_output(&serial, &batched);
        assert_eq!(serial.stats.shared_scans, 0);
        assert!(
            batched.stats.shared_scans > 0 && batched.stats.coalesced > 0,
            "seed {seed}: a 24-selection single-worker batch must coalesce"
        );
        assert!(
            batched.stats.io.pages_read < serial.stats.io.pages_read,
            "seed {seed}: sharing the traversal must save index I/O \
             ({} vs {} pages)",
            batched.stats.io.pages_read,
            serial.stats.io.pages_read
        );
    }
}

#[test]
fn limit_early_termination_is_identical_under_batching() {
    // Every query carries a tight LIMIT, so each deactivates its slot of
    // the shared traversal early; the delivered prefix must still match the
    // solo traversal exactly, per query.
    let seed = 29;
    let make = |svc: &(Service, DatasetId, DatasetId, Rect)| -> Vec<QueryRequest> {
        let region = svc.3;
        (0..12u64)
            .map(|i| {
                let f = 0.1 + 0.07 * i as f32;
                QueryRequest::window(
                    svc.1,
                    Rect::from_coords(
                        region.lo.x,
                        region.lo.y,
                        region.lo.x + region.width() * f.min(1.0),
                        region.lo.y + region.height() * f.min(1.0),
                    ),
                )
                .with_limit(1 + i * 3)
                .collecting()
            })
            .collect()
    };
    let serial_svc = build_service(false, 1, 700, seed);
    let serial = serial_svc.0.run(make(&serial_svc));
    let batched_svc = build_service(true, 1, 700, seed);
    let batched = batched_svc.0.run(make(&batched_svc));

    assert_identical_output(&serial, &batched);
    assert!(batched.stats.coalesced > 0);
    // The limits actually bit: at least one query delivered exactly its cap.
    let capped = serial
        .outcomes
        .iter()
        .zip((0..12u64).map(|i| 1 + i * 3))
        .filter(|(o, cap)| o.pairs.as_ref().is_some_and(|p| p.len() as u64 == *cap))
        .count();
    assert!(capped > 0, "the test data must make some LIMIT bind");
}

#[test]
fn joins_never_coalesce_and_mixed_batches_stay_identical() {
    let seed = 5;
    let make = |svc: &(Service, DatasetId, DatasetId, Rect)| -> Vec<QueryRequest> {
        let mut requests = selection_batch(svc.3, svc.1, 77, 10);
        // Interleave joins: incompatible with scan sharing, but the batch
        // as a whole must still be answer-identical.
        requests.insert(0, QueryRequest::join(svc.1, svc.2).collecting());
        requests.insert(5, QueryRequest::join(svc.1, svc.2).collecting());
        requests
    };
    let serial_svc = build_service(false, 1, 900, seed);
    let serial = serial_svc.0.run(make(&serial_svc));
    let batched_svc = build_service(true, 1, 900, seed);
    let batched = batched_svc.0.run(make(&batched_svc));

    assert_identical_output(&serial, &batched);
    for idx in [0, 5] {
        assert!(
            !batched.outcomes[idx].stats.coalesced,
            "a join must never ride a shared scan"
        );
    }
}

#[test]
fn mid_batch_cancellation_yields_a_prefix_of_the_solo_answer() {
    // One query in the middle of the batch carries a token that fires from
    // the driving thread while the workers are busy. Wherever the
    // cancellation happens to land — before admission, mid-scan, or after
    // completion — the cancelled query's delivered pairs must be a prefix
    // of its solo answer, and every *other* query must stay byte-identical.
    let seed = 13;
    let (solo_svc, solo_roads, _, region) = build_service(false, 1, 700, seed);
    let everything = Rect::from_coords(
        region.lo.x,
        region.lo.y,
        region.lo.x + region.width(),
        region.lo.y + region.height(),
    );
    let solo = solo_svc.run(vec![QueryRequest::window(solo_roads, everything).collecting()]);
    let full_answer = solo.outcomes[0].pairs.clone().unwrap();
    assert!(!full_answer.is_empty());

    for delay_us in [0u64, 50, 400] {
        let (service, roads, _, _) = build_service(true, 2, 700, seed);
        let token = CancelToken::new();
        let mut requests = selection_batch(region, roads, 101, 12);
        requests.insert(
            6,
            QueryRequest::window(roads, everything)
                .collecting()
                .with_cancel(token.clone()),
        );
        let n = requests.len();
        let ((), report) = service.with_session(|session| {
            for request in requests {
                session.submit(request);
            }
            std::thread::sleep(Duration::from_micros(delay_us));
            token.cancel();
        });
        assert_eq!(report.outcomes.len(), n);

        let cancelled = &report.outcomes[6];
        let delivered = cancelled.pairs.clone().unwrap_or_default();
        assert!(
            delivered.len() <= full_answer.len()
                && delivered == full_answer[..delivered.len()],
            "delay {delay_us}µs: cancelled query's {} pairs are not a prefix \
             of the {}-pair solo answer",
            delivered.len(),
            full_answer.len()
        );
        if matches!(cancelled.status, QueryStatus::Failed(_)) {
            panic!("cancellation must never fail a query: {:?}", cancelled.status);
        }

        // Everyone else is unaffected: byte-identical to the serial run of
        // the same 12-selection batch.
        let reference_svc = build_service(false, 1, 700, seed);
        let reference = reference_svc.0.run(selection_batch(region, reference_svc.1, 101, 12));
        for (i, r) in reference.outcomes.iter().enumerate() {
            let b = &report.outcomes[if i < 6 { i } else { i + 1 }];
            assert_eq!(r.pairs, b.pairs, "bystander query #{i} diverged (delay {delay_us}µs)");
        }
    }
}

#[test]
fn selections_over_a_dataset_with_tiers_see_every_tier_under_batching() {
    // The shared traversal reads the R-tree alone. Windows and points over
    // a live dataset whose items sit in the base, delta runs and the
    // memtable must still each see every tier — brute force over all of
    // them — while selections over a registered dataset in the same batch
    // coalesce as usual.
    let seed = 41;
    let (service, roads, _, region) = build_service(true, 1, 700, seed);
    let w = WorkloadSpec::preset(Preset::NJ).with_scale(700).generate(seed);
    let config = usj_service::LiveConfig {
        flush_threshold_bytes: 64 * usj_geom::ITEM_BYTES,
        compact_after_deltas: 0,
    };
    let third = w.roads.len() / 3;
    let live = service.register_live("roads_live", &w.roads[..third], config).unwrap();
    for chunk in w.roads[third..].chunks(50) {
        service.append_live("roads_live", chunk).unwrap();
    }
    service.with_live(|catalog| {
        let ds = catalog.get(live).unwrap();
        assert!(!ds.delta_runs().is_empty(), "no delta runs to read");
        assert!(ds.memtable_len() > 0, "no memtable items to read");
    });
    let strip = |batch: Vec<QueryRequest>, dataset: DatasetId| {
        batch.into_iter().map(move |mut r| {
            r.limit = None;
            r.kind = match r.kind {
                QueryKind::Window { window, .. } => QueryKind::Window { dataset, window },
                QueryKind::Point { point, .. } => QueryKind::Point { dataset, point },
                join => join,
            };
            r
        })
    };
    let requests: Vec<QueryRequest> = strip(selection_batch(region, roads, 7, 20), live)
        .chain(strip(selection_batch(region, roads, 8, 20), roads))
        .collect();
    let report = service.run(requests.clone());
    assert!(report.stats.shared_scans > 0, "the registered selections must coalesce");
    for (request, outcome) in requests.iter().zip(&report.outcomes) {
        let (_, window) = request.kind.selection().unwrap();
        let mut want: Vec<u32> =
            w.roads.iter().filter(|it| it.rect.intersects(&window)).map(|it| it.id).collect();
        let mut got: Vec<u32> = outcome.pairs.as_ref().unwrap().iter().map(|p| p.0).collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "request #{} missed items", outcome.request);
    }
}
