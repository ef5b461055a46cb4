//! Acceptance suite of the catalog + service subsystem.
//!
//! Three properties gate the `usj_service` subsystem:
//!
//! 1. **Catalog saving** — a cataloged join charges *strictly less* I/O than
//!    the uncataloged equivalent while producing identical pairs: the ST
//!    path stops bulk-loading throwaway R-trees per query, and the
//!    sort-based paths stop re-sorting.
//! 2. **Admission control** — a 16-request concurrent run under a 16 MB
//!    shared budget completes with every per-query measured `peak_bytes`
//!    within its granted budget (hence within the limit), with deferred
//!    admissions actually recorded, and with the sum of concurrently
//!    granted budgets bounded by the limit by construction.
//! 3. **Service semantics** — a durable registered dataset survives a
//!    crash, cancellation stops queued work, and repeat queries hit the
//!    plan cache.

use unified_spatial_join::prelude::*;

fn workload(scale: u64, seed: u64) -> Workload {
    WorkloadSpec::preset(Preset::NJ)
        .with_scale(scale)
        .generate(seed)
}

fn sorted(mut pairs: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    pairs.sort_unstable();
    pairs
}

/// Acceptance criterion 1: the cataloged ST join performs strictly less
/// charged I/O than the uncataloged equivalent and produces byte-identical
/// pairs.
#[test]
fn cataloged_st_join_charges_strictly_less_io_for_identical_pairs() {
    let w = workload(400, 7);

    // Uncataloged: ST receives flat streams and bulk-loads a throwaway
    // R-tree per input, per query — all charged.
    let mut env_u = SimEnv::new(MachineConfig::machine3());
    let (roads, hydro) = env_u.unaccounted(|env| {
        (
            unified_spatial_join::io::ItemStream::from_items(env, &w.roads).unwrap(),
            unified_spatial_join::io::ItemStream::from_items(env, &w.hydro).unwrap(),
        )
    });
    env_u.device.reset_stats();
    let (uncat, uncat_pairs) = StJoin::default()
        .run_collect(
            &mut env_u,
            JoinInput::Stream(&roads),
            JoinInput::Stream(&hydro),
        )
        .unwrap();

    // Cataloged: registration pays the preparation once; the query itself
    // touches only the persisted trees.
    let mut env_c = SimEnv::new(MachineConfig::machine3());
    let mut catalog = Catalog::new();
    let (ir, ih) = env_c
        .unaccounted(|env| {
            Ok::<_, unified_spatial_join::service::ServiceError>((
                catalog.register(env, "roads", &w.roads)?,
                catalog.register(env, "hydro", &w.hydro)?,
            ))
        })
        .unwrap();
    env_c.device.reset_stats();
    let left = JoinInput::Cataloged(catalog.get(ir).unwrap().cataloged());
    let right = JoinInput::Cataloged(catalog.get(ih).unwrap().cataloged());
    let (cat, cat_pairs) = StJoin::default()
        .run_collect(&mut env_c, left, right)
        .unwrap();

    assert!(cat.pairs > 0);
    assert_eq!(cat.pairs, uncat.pairs);
    assert_eq!(
        sorted(cat_pairs),
        sorted(uncat_pairs),
        "pair sets must be identical"
    );
    let cat_io = cat.io.pages_read + cat.io.pages_written;
    let uncat_io = uncat.io.pages_read + uncat.io.pages_written;
    assert!(
        cat_io < uncat_io,
        "cataloged ST must charge strictly less I/O ({cat_io} vs {uncat_io} pages)"
    );
    // The uncataloged run writes the throwaway indexes; the cataloged one
    // writes nothing at all.
    assert!(uncat.io.pages_written > 0);
    assert_eq!(cat.io.pages_written, 0);
}

/// The sort-based algorithms save the same way: a cataloged SSSJ reads the
/// persisted sorted run instead of sorting.
#[test]
fn cataloged_sort_based_joins_skip_the_sort() {
    let w = workload(600, 3);
    for algo in [Algo::Sssj, Algo::Pq, Algo::Pbsm] {
        let mut env_u = SimEnv::new(MachineConfig::machine3());
        let (roads, hydro) = env_u.unaccounted(|env| {
            (
                unified_spatial_join::io::ItemStream::from_items(env, &w.roads).unwrap(),
                unified_spatial_join::io::ItemStream::from_items(env, &w.hydro).unwrap(),
            )
        });
        env_u.device.reset_stats();
        let uncat = SpatialQuery::new(JoinInput::Stream(&roads), JoinInput::Stream(&hydro))
            .algorithm(algo)
            .run(&mut env_u)
            .unwrap();

        let mut env_c = SimEnv::new(MachineConfig::machine3());
        let mut catalog = Catalog::new();
        let (ir, ih) = (
            env_c
                .unaccounted(|env| catalog.register(env, "roads", &w.roads))
                .unwrap(),
            env_c
                .unaccounted(|env| catalog.register(env, "hydro", &w.hydro))
                .unwrap(),
        );
        env_c.device.reset_stats();
        let left = JoinInput::Cataloged(catalog.get(ir).unwrap().cataloged());
        let right = JoinInput::Cataloged(catalog.get(ih).unwrap().cataloged());
        let cat = SpatialQuery::new(left, right)
            .algorithm(algo)
            .run(&mut env_c)
            .unwrap();

        assert_eq!(cat.pairs, uncat.pairs, "{algo:?}");
        let cat_io = cat.io.pages_read + cat.io.pages_written;
        let uncat_io = uncat.io.pages_read + uncat.io.pages_written;
        assert!(
            cat_io < uncat_io,
            "{algo:?}: cataloged must charge less I/O ({cat_io} vs {uncat_io})"
        );
    }
}

/// Acceptance criterion 2 + the concurrent-gauge satellite: a 16-request
/// mixed batch under a 16 MB shared budget completes with every per-query
/// peak inside its granted budget, nonzero deferrals, and the admission
/// gauge's high-water mark inside the limit.
#[test]
fn sixteen_concurrent_requests_respect_a_16mb_shared_budget() {
    let limit = 16 * 1024 * 1024;
    let per_query = 6 * 1024 * 1024;
    let w = workload(400, 11);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut catalog = Catalog::new();
    let ir = catalog.register(&mut env, "roads", &w.roads).unwrap();
    let ih = catalog.register(&mut env, "hydro", &w.hydro).unwrap();
    let region = w.region;
    let service = Service::new(
        env,
        catalog,
        ServiceConfig::default()
            .with_workers(4)
            .with_memory_limit(limit),
    );

    // 16 mixed requests (joins across all algorithms + window selections),
    // each demanding 6 MB — at most two can hold reservations at once —
    // plus one high-priority 12 MB request admitted first, which leaves
    // less than one regular budget of headroom and therefore *forces* a
    // recorded deferral regardless of scheduling timing.
    let heavy = 12 * 1024 * 1024;
    let mut requests = Vec::new();
    for i in 0..16u32 {
        let request = match i % 4 {
            0 => QueryRequest::join(ir, ih).with_algorithm(Algo::Sssj),
            1 => QueryRequest::join(ir, ih).with_algorithm(Algo::Pq),
            2 => QueryRequest::join(ir, ih).with_algorithm(Algo::St),
            _ => QueryRequest::window(
                ir,
                Rect::from_coords(
                    region.lo.x,
                    region.lo.y,
                    region.lo.x + region.width() * 0.5,
                    region.lo.y + region.height() * 0.5,
                ),
            ),
        };
        requests.push(if i == 0 {
            request.with_memory_budget(heavy).with_priority(1)
        } else {
            request.with_memory_budget(per_query)
        });
    }
    let report = service.run(requests);

    assert_eq!(report.stats.submitted, 16);
    assert_eq!(report.stats.completed, 16, "{}", report.stats);
    assert_eq!(report.stats.failed, 0);
    assert!(
        report.stats.deferrals > 0,
        "2.67x oversubscription must record deferred admissions"
    );
    // The admission gauge bounds the sum of concurrently granted budgets.
    assert!(report.stats.peak_admitted_bytes <= limit);
    assert!(
        report.stats.peak_admitted_bytes >= per_query,
        "something ran"
    );
    // Per-worker budget semantics: every query's *measured* peak stays
    // within its granted budget, hence within the shared limit.
    let mut total_grants = 0usize;
    for outcome in &report.outcomes {
        let result = outcome.result().expect("completed");
        let expected_grant = if outcome.request == 0 {
            heavy
        } else {
            per_query
        };
        assert_eq!(outcome.stats.admitted_bytes, expected_grant);
        assert!(
            result.memory.peak_bytes <= outcome.stats.admitted_bytes,
            "query {} peaked at {} over its {} budget",
            outcome.request,
            result.memory.peak_bytes,
            outcome.stats.admitted_bytes
        );
        assert!(result.memory.peak_bytes <= limit);
        total_grants += outcome.stats.admitted_bytes;
    }
    // The workload genuinely oversubscribed the budget — without admission
    // control the grants would have exceeded the limit six times over.
    assert!(total_grants > limit);
    // Identical joins agree regardless of scheduling.
    let joins: Vec<u64> = (0..16)
        .filter(|i| i % 4 == 0)
        .map(|i| report.outcomes[i].result().unwrap().pairs)
        .collect();
    assert!(
        joins.windows(2).all(|p| p[0] == p[1]),
        "identical joins must agree"
    );
}

/// A registered dataset survives a crash: two sealed datasets built from
/// 64-page-block streams and made durable, crashed by forking over a device
/// snapshot, recovered and inserted into a new catalog, answer a PQ join
/// and a window selection through the service exactly as freshly
/// registered copies do, and keep their block size.
#[test]
fn a_registered_dataset_survives_a_crash() {
    let w = workload(800, 5);
    let window = Rect::from_coords(
        w.region.lo.x,
        w.region.lo.y,
        w.region.lo.x + w.region.width() * 0.4,
        w.region.lo.y + w.region.height() * 0.4,
    );
    let answers = |env: SimEnv, catalog: Catalog| {
        for id in [DatasetId(0), DatasetId(1)] {
            let run = catalog.get(id).unwrap().runs()[0].stream();
            assert_eq!(run.pages_per_block(), 64);
        }
        let service = Service::new(env, catalog, ServiceConfig::default().with_workers(1));
        let report = service.run(vec![
            QueryRequest::join(DatasetId(0), DatasetId(1))
                .with_algorithm(Algo::Pq)
                .collecting(),
            QueryRequest::window(DatasetId(0), window).collecting(),
        ]);
        assert_eq!(report.stats.failed, 0);
        report
            .outcomes
            .into_iter()
            .map(|outcome| outcome.pairs.unwrap())
            .collect::<Vec<_>>()
    };

    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut fresh = Catalog::new();
    fresh.register(&mut env, "roads", &w.roads).unwrap();
    fresh.register(&mut env, "hydro", &w.hydro).unwrap();
    let want = answers(env, fresh);
    assert!(want.iter().all(|pairs| !pairs.is_empty()));

    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut roots = Vec::new();
    for (name, items) in [("roads", &w.roads), ("hydro", &w.hydro)] {
        let stream = unified_spatial_join::io::ItemStream::from_items(&mut env, items).unwrap();
        let mut ds =
            LiveDataset::from_stream(&mut env, name, &stream, LiveConfig::default()).unwrap();
        roots.push((name, ds.enable_durability(&mut env).unwrap()));
    }
    let mut after = env.fork_with_base(env.device.snapshot());
    let mut recovered = Catalog::new();
    for (name, root) in roots {
        let (ds, report) =
            LiveDataset::recover(&mut after, name, root, LiveConfig::default()).unwrap();
        assert_eq!((report.verified_runs, report.dropped_deltas), (1, 0));
        recovered.insert(&mut after, ds).unwrap();
    }
    assert_eq!(answers(after, recovered), want);
}

/// Cancellation mid-batch: queued requests carrying a cancelled token
/// resolve without running, while the rest of the batch completes; a
/// selection cancelled while the workers are busy delivers a prefix of its
/// solo answer and leaves the selections beside it unaffected.
#[test]
fn cancellation_stops_queued_queries() {
    let w = workload(800, 9);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut catalog = Catalog::new();
    let ir = catalog.register(&mut env, "roads", &w.roads).unwrap();
    let ih = catalog.register(&mut env, "hydro", &w.hydro).unwrap();
    let service = Service::new(env, catalog, ServiceConfig::default().with_workers(2));

    let token = CancelToken::new();
    token.cancel();
    let mut requests = vec![QueryRequest::join(ir, ih).with_algorithm(Algo::Sssj)];
    for _ in 0..4 {
        requests.push(
            QueryRequest::join(ir, ih)
                .with_algorithm(Algo::Sssj)
                .with_cancel(token.clone()),
        );
    }
    let report = service.run(requests);
    assert_eq!(report.stats.completed, 1);
    assert_eq!(report.stats.cancelled, 4);
    for outcome in &report.outcomes[1..] {
        assert!(
            matches!(outcome.status, QueryStatus::Cancelled(None)),
            "{:?}",
            outcome.status
        );
        assert_eq!(outcome.stats.admitted_bytes, 0);
    }

    // Wherever the cancel lands — before admission, mid-traversal or after
    // the last item — the cancelled selection's pairs are a prefix of its
    // solo answer, and every other selection's are its solo answer.
    let r = w.region;
    let quarter = Rect::from_coords(r.lo.x, r.lo.y, r.lo.x + r.width() / 4.0, r.hi.y);
    let window = |rect: Rect| QueryRequest::window(ir, rect).collecting();
    let solo = service.run(vec![window(r), window(quarter)]);
    let (full, bystander) = (
        solo.outcomes[0].pairs.clone().unwrap(),
        &solo.outcomes[1].pairs,
    );
    assert!(!full.is_empty());
    for delay_us in [0u64, 50, 400] {
        let token = CancelToken::new();
        let ((), report) = service.with_session(|session| {
            session.submit(window(quarter));
            session.submit(window(r).with_cancel(token.clone()));
            session.submit(window(quarter));
            std::thread::sleep(std::time::Duration::from_micros(delay_us));
            token.cancel();
        });
        let cancelled = &report.outcomes[1];
        assert!(
            !matches!(cancelled.status, QueryStatus::Failed(_)),
            "{:?}",
            cancelled.status
        );
        let delivered = cancelled.pairs.clone().unwrap_or_default();
        assert!(
            full.starts_with(&delivered),
            "delay {delay_us}µs: {} cancelled pairs are not a prefix of the {}-pair solo answer",
            delivered.len(),
            full.len()
        );
        for i in [0, 2] {
            assert!(report.outcomes[i].is_completed());
            assert_eq!(
                &report.outcomes[i].pairs, bystander,
                "bystander #{i} diverged"
            );
        }
    }
}

/// The plan cache memoizes across batches: the same query shape planned in
/// batch 1 is a hit in batch 2.
#[test]
fn plan_cache_persists_across_batches() {
    let w = workload(600, 13);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut catalog = Catalog::new();
    let ir = catalog.register(&mut env, "roads", &w.roads).unwrap();
    let ih = catalog.register(&mut env, "hydro", &w.hydro).unwrap();
    let service = Service::new(env, catalog, ServiceConfig::default().with_workers(1));

    let first = service.run(vec![QueryRequest::join(ir, ih)]);
    assert_eq!(first.stats.plan_cache_misses, 1);
    assert_eq!(first.stats.plan_cache_hits, 0);
    let second = service.run(vec![QueryRequest::join(ir, ih)]);
    assert_eq!(second.stats.plan_cache_misses, 0);
    assert_eq!(second.stats.plan_cache_hits, 1);
    assert_eq!(
        first.outcomes[0].result().unwrap().pairs,
        second.outcomes[0].result().unwrap().pairs
    );
}
