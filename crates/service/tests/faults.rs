//! Chaos contract of the hardened service: deterministic fault injection
//! at the device layer must never corrupt answers, leak admission budget,
//! or take the service down.
//!
//! * **Transient faults are absorbed**: with retry-with-backoff enabled, a
//!   fault-plagued run delivers byte-identical pair sets to a fault-free
//!   one, and the retries are visible in the metrics.
//! * **Panics are isolated**: an injected panic deep inside an operator
//!   fails only its query (typed [`ServiceError::WorkerPanicked`]); the
//!   worker, the queue and later queries keep working.
//! * **No reservation leaks**: after any mix of failed, panicked,
//!   cancelled, deadline-exceeded and timed-out queries, the admission
//!   gauge reads zero and a full-budget query still admits.
//! * **Deadlines and admission timeouts are deterministic** under a
//!   [`VirtualClock`], including the exact replayed backoff schedule.

use std::sync::Arc;

use usj_geom::{Item, Rect};
use usj_io::{FaultConfig, MachineConfig, SimEnv};
use usj_service::{
    CancelToken, Catalog, Clock, QueryRequest, QueryStatus, Service, ServiceConfig, ServiceError,
    VirtualClock,
};

fn grid(n: u32, cell: f32, offset: f32, id_base: u32) -> Vec<Item> {
    (0..n * n)
        .map(|i| {
            let x = (i % n) as f32 * cell + offset;
            let y = (i / n) as f32 * cell + offset;
            Item::new(
                Rect::from_coords(x, y, x + cell * 1.4, y + cell * 1.4),
                id_base + i,
            )
        })
        .collect()
}

fn service_over(
    config: ServiceConfig,
) -> (Service, usj_service::DatasetId, usj_service::DatasetId) {
    let a = grid(14, 4.0, 0.0, 0);
    let b = grid(14, 4.0, 1.5, 100_000);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut catalog = Catalog::new();
    let ia = env.unaccounted(|env| catalog.register(env, "a", &a).unwrap());
    let ib = env.unaccounted(|env| catalog.register(env, "b", &b).unwrap());
    (Service::new(env, catalog, config), ia, ib)
}

fn join_batch(ia: usj_service::DatasetId, ib: usj_service::DatasetId) -> Vec<QueryRequest> {
    vec![
        QueryRequest::join(ia, ib).collecting(),
        QueryRequest::window(ia, Rect::from_coords(0.0, 0.0, 30.0, 30.0)).collecting(),
        QueryRequest::join(ib, ia).collecting(),
        QueryRequest::window(ib, Rect::from_coords(10.0, 10.0, 40.0, 40.0)).collecting(),
    ]
}

fn pair_sets(report: &usj_service::ServiceReport) -> Vec<Option<Vec<(u32, u32)>>> {
    report
        .outcomes
        .iter()
        .map(|o| {
            o.pairs.clone().map(|mut p| {
                p.sort_unstable();
                p
            })
        })
        .collect()
}

#[test]
fn transient_faults_are_retried_to_byte_identical_answers() {
    let (clean_svc, ia, ib) = service_over(ServiceConfig::default().with_workers(1));
    let clean = clean_svc.run(join_batch(ia, ib));
    assert_eq!(clean.stats.completed, 4);

    let faults = FaultConfig {
        read_fault: 0.05,
        write_fault: 0.05,
        ..FaultConfig::quiet(0x5eed_f417)
    };
    let (chaos_svc, ia, ib) = service_over(
        ServiceConfig::default()
            .with_workers(1)
            .with_fault_plan(faults)
            .with_fault_retries(16, 100),
    );
    chaos_svc.set_clock(Arc::new(VirtualClock::new()));
    let chaos = chaos_svc.run(join_batch(ia, ib));

    assert_eq!(
        chaos.stats.completed, 4,
        "retries must absorb transient faults"
    );
    assert_eq!(
        pair_sets(&clean),
        pair_sets(&chaos),
        "answers must be byte-identical"
    );

    let snap = chaos_svc.metrics_snapshot();
    assert!(
        snap.counter("faults.injected").unwrap_or(0) > 0,
        "a 5% fault rate over the batch's device ops must fire"
    );
    assert_eq!(
        snap.counter("faults.injected"),
        snap.counter("faults.retries"),
        "every injected transient fault was absorbed by exactly one retry"
    );
}

#[test]
fn fault_schedules_and_backoff_replay_exactly_from_the_seed() {
    let run_once = || {
        let faults = FaultConfig {
            read_fault: 0.2,
            write_fault: 0.1,
            ..FaultConfig::quiet(0xd15c_0bee)
        };
        let (service, ia, ib) = service_over(
            ServiceConfig::default()
                .with_workers(1)
                .with_fault_plan(faults)
                .with_fault_retries(16, 250),
        );
        let clock = Arc::new(VirtualClock::new());
        service.set_clock(Arc::clone(&clock) as Arc<dyn usj_service::Clock>);
        let report = service.run(join_batch(ia, ib));
        assert_eq!(report.stats.completed, 4);
        let snap = service.metrics_snapshot();
        (
            pair_sets(&report),
            snap.counter("faults.injected"),
            snap.counter("faults.retries"),
            clock.now_us(),
        )
    };
    let first = run_once();
    let second = run_once();
    assert!(
        first.1.unwrap_or(0) > 0,
        "seed 0xd15c_0bee must inject at these rates"
    );
    assert_eq!(
        first, second,
        "same seed ⇒ same faults, same retries, same total backoff"
    );
}

#[test]
fn injected_panics_fail_only_their_query_and_the_service_survives() {
    let faults = FaultConfig {
        panic: 0.02,
        max_faults: 2,
        ..FaultConfig::quiet(0xdead_9090)
    };
    let (service, ia, ib) = service_over(
        ServiceConfig::default()
            .with_workers(2)
            .with_fault_plan(faults),
    );
    let report = service.run(join_batch(ia, ib));
    let panicked: Vec<usize> = report
        .outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| {
            matches!(
                o.status,
                QueryStatus::Failed(ServiceError::WorkerPanicked(_))
            )
        })
        .map(|(k, _)| k)
        .collect();
    let completed = report
        .outcomes
        .iter()
        .filter(|o| matches!(o.status, QueryStatus::Completed(_)))
        .count();
    assert!(
        !panicked.is_empty(),
        "seeded plan must inject at least one panic"
    );
    assert_eq!(
        panicked.len() + completed,
        4,
        "every query resolves, none hangs or vanishes"
    );

    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter("faults.panics"), Some(panicked.len() as u64));

    // The service keeps answering: the same batch resubmitted draws the
    // *same* derived fault streams (replay determinism), so the same
    // queries panic again and the rest complete — and those answers match
    // a fault-free service byte for byte.
    let after = service.run(join_batch(ia, ib));
    let statuses = |r: &usj_service::ServiceReport| {
        r.outcomes
            .iter()
            .map(|o| matches!(o.status, QueryStatus::Completed(_)))
            .collect::<Vec<bool>>()
    };
    assert_eq!(
        statuses(&report),
        statuses(&after),
        "fault schedules must replay exactly"
    );
    let (clean_svc, ca, cb) = service_over(ServiceConfig::default().with_workers(1));
    let clean = clean_svc.run(join_batch(ca, cb));
    for (k, (chaotic, reference)) in pair_sets(&after).iter().zip(pair_sets(&clean)).enumerate() {
        if statuses(&after)[k] {
            assert_eq!(
                chaotic, &reference,
                "surviving query {k} must answer exactly"
            );
        }
    }
}

#[test]
fn no_failure_mode_leaks_admission_gauge_bytes() {
    // Every per-query fault plan here panics on the first device operation,
    // so every executed query dies mid-operator with live allocations on
    // its gauge — the hardest case for reservation cleanup. Alongside them:
    // a pre-cancelled query and one already past its deadline.
    let faults = FaultConfig {
        panic: 1.0,
        ..FaultConfig::quiet(7)
    };
    let (service, ia, ib) = service_over(
        ServiceConfig::default()
            .with_workers(2)
            .with_fault_plan(faults),
    );

    let cancelled_token = CancelToken::new();
    cancelled_token.cancel();
    let ((), report) = service.with_session(|session| {
        session.submit(QueryRequest::join(ia, ib));
        session.submit(QueryRequest::window(
            ia,
            Rect::from_coords(0.0, 0.0, 9.0, 9.0),
        ));
        session.submit(QueryRequest::join(ib, ia).with_cancel(cancelled_token.clone()));
        session.submit(QueryRequest::join(ia, ib).with_deadline_us(0));
        // Wait for every submitted query to resolve, then read the gauge:
        // any failure path that kept its reservation shows up here.
        while session.queue_depth() > 0 || session.running() > 0 {
            std::thread::yield_now();
        }
        assert_eq!(
            session.admission_bytes_in_use(),
            0,
            "a failure path leaked admission gauge bytes"
        );
        // And the next query still admits with full headroom: its outcome
        // below must show the complete estimate granted, which is only
        // possible if the failures released every reserved byte.
        session.submit(QueryRequest::join(ia, ib));
    });
    let statuses: Vec<&QueryStatus> = report.outcomes.iter().map(|o| &o.status).collect();
    assert!(
        matches!(statuses[2], QueryStatus::Cancelled(_)),
        "{statuses:?}"
    );
    assert!(matches!(
        statuses[3],
        QueryStatus::Failed(ServiceError::DeadlineExceeded { deadline_us: 0, .. })
    ));
    for k in [0, 1, 4] {
        assert!(
            matches!(
                statuses[k],
                QueryStatus::Failed(ServiceError::WorkerPanicked(_))
            ),
            "query {k}: {statuses:?}"
        );
    }
    // The post-chaos probe was granted its full admission estimate.
    let probe = &report.outcomes[4];
    assert_eq!(
        probe.stats.admitted_bytes,
        service.admission_estimate(&QueryRequest::join(ia, ib)),
        "probe admitted with less than its full estimate — leaked gauge bytes"
    );
    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter("faults.panics"), Some(3));
}

#[test]
fn an_expired_deadline_is_a_typed_deterministic_failure() {
    let (service, ia, ib) = service_over(ServiceConfig::default().with_workers(1));
    service.set_clock(Arc::new(VirtualClock::new()));
    let report = service.run(vec![
        QueryRequest::join(ia, ib).with_deadline_us(0).collecting(),
        QueryRequest::join(ia, ib).collecting(),
    ]);
    assert!(
        matches!(
            report.outcomes[0].status,
            QueryStatus::Failed(ServiceError::DeadlineExceeded { deadline_us: 0, .. })
        ),
        "virtual clock at 0 ⇒ deadline 0 has already passed: {:?}",
        report.outcomes[0].status
    );
    assert!(report.outcomes[0].pairs.is_none());
    assert!(matches!(
        report.outcomes[1].status,
        QueryStatus::Completed(_)
    ));
    let snap = service.metrics_snapshot();
    assert!(snap.counter("faults.deadline_exceeded").unwrap_or(0) >= 1);
}

#[test]
fn an_inadmissible_request_times_out_of_the_queue_instead_of_wedging_it() {
    // A zero-byte admission budget can never grant a reservation (estimates
    // clamp to at least one byte), so the request is deferred forever; with
    // an admission timeout of zero, the very first deferred scan converts
    // it into a typed AdmissionTimeout instead of a memory error.
    let (service, ia, ib) = service_over(
        ServiceConfig::default()
            .with_workers(1)
            .with_memory_limit(0)
            .with_admission_timeout_us(0),
    );
    service.set_clock(Arc::new(VirtualClock::new()));
    let report = service.run(vec![QueryRequest::join(ia, ib)]);
    assert!(
        matches!(
            report.outcomes[0].status,
            QueryStatus::Failed(ServiceError::AdmissionTimeout { timeout_us: 0, .. })
        ),
        "{:?}",
        report.outcomes[0].status
    );
    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter("faults.admission_timeouts"), Some(1));
    assert_eq!(snap.counter("queries.failed"), Some(1));
}

#[test]
fn maintenance_survives_storage_faults_and_loses_no_records() {
    // Transient write faults on the *storage* environment hit flushes and
    // compactions; the retry path must absorb them and the live dataset
    // must end up with exactly the appended records.
    let faults = FaultConfig {
        write_fault: 0.05,
        ..FaultConfig::quiet(0xf1a5_4b5e)
    };
    let (service, _ia, _ib) = service_over(
        ServiceConfig::default()
            .with_workers(1)
            .with_fault_plan(faults)
            .with_fault_retries(10, 50),
    );
    service.set_clock(Arc::new(VirtualClock::new()));
    let items = grid(12, 4.0, 0.0, 500_000);
    let live = service
        .register_live(
            "chaotic",
            &items[..40],
            usj_service::LiveConfig {
                flush_threshold_bytes: 24 * usj_geom::ITEM_BYTES,
                compact_after_deltas: 2,
            },
        )
        .unwrap();
    for chunk in items[40..].chunks(31) {
        service.append_live("chaotic", chunk).unwrap();
    }
    service.quiesce_live("chaotic").unwrap();

    let report = service.run(vec![QueryRequest::window(
        live,
        Rect::from_coords(-1000.0, -1000.0, 1000.0, 1000.0),
    )
    .collecting()]);
    let outcome = &report.outcomes[0];
    let pairs = outcome.pairs.as_ref().expect("collecting");
    assert!(
        matches!(outcome.status, QueryStatus::Completed(_)),
        "{:?}",
        outcome.status
    );
    assert_eq!(
        pairs.len(),
        items.len(),
        "maintenance under faults lost or duplicated records"
    );
    let retries = service
        .metrics_snapshot()
        .counter("faults.retries")
        .unwrap_or(0);
    assert!(
        retries > 0,
        "the storage stream drew no fault: nothing was survived"
    );
}
