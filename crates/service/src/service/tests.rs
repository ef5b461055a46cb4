use super::*;
use usj_core::{Algo, Predicate};
use usj_geom::{Item, Point, Rect, ITEM_BYTES};
use usj_io::{IoSimError, MachineConfig};

pub(crate) fn grid(n: u32, cell: f32, offset: f32, id_base: u32) -> Vec<Item> {
    let mut out = Vec::new();
    for i in 0..n {
        for j in 0..n {
            let x = offset + i as f32 * cell;
            let y = offset + j as f32 * cell;
            out.push(Item::new(
                Rect::from_coords(x, y, x + cell * 0.7, y + cell * 0.7),
                id_base + i * n + j,
            ));
        }
    }
    out
}

pub(crate) fn service_over(
    a: &[Item],
    b: &[Item],
    config: ServiceConfig,
) -> (Service, DatasetId, DatasetId) {
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut catalog = Catalog::new();
    let ia = catalog.register(&mut env, "a", a).unwrap();
    let ib = catalog.register(&mut env, "b", b).unwrap();
    (Service::new(env, catalog, config), ia, ib)
}

#[test]
fn joins_and_selections_complete_with_correct_counts() {
    let a = grid(15, 4.0, 0.0, 0);
    let b = grid(15, 4.0, 1.5, 100_000);
    let expected: u64 = a
        .iter()
        .map(|x| b.iter().filter(|y| x.rect.intersects(&y.rect)).count() as u64)
        .sum();
    let window = Rect::from_coords(0.0, 0.0, 20.0, 20.0);
    let in_window = a.iter().filter(|it| it.rect.intersects(&window)).count() as u64;

    let (service, ia, ib) = service_over(&a, &b, ServiceConfig::default().with_workers(3));
    let report = service.run(vec![
        QueryRequest::join(ia, ib).with_algorithm(Algo::Pq),
        QueryRequest::join(ia, ib).with_algorithm(Algo::Sssj),
        QueryRequest::join(ia, ib).with_algorithm(Algo::St),
        QueryRequest::window(ia, window),
    ]);
    assert_eq!(report.stats.completed, 4);
    assert_eq!(report.stats.failed, 0);
    for outcome in &report.outcomes[..3] {
        assert_eq!(
            outcome.result().unwrap().pairs,
            expected,
            "join #{}",
            outcome.request
        );
    }
    assert_eq!(report.outcomes[3].result().unwrap().pairs, in_window);
    assert!(report.outcomes[3].result().unwrap().index_page_requests > 0);
    assert_eq!(report.stats.pairs, expected * 3 + in_window);
}

#[test]
fn collected_pairs_match_count_only_runs() {
    let a = grid(10, 4.0, 0.0, 0);
    let (service, ia, _) = service_over(&a, &a, ServiceConfig::default());
    let report = service.run(vec![
        QueryRequest::join(ia, ia)
            .with_algorithm(Algo::Pq)
            .collecting(),
        QueryRequest::join(ia, ia).with_algorithm(Algo::Pq),
    ]);
    let collected = report.outcomes[0].pairs.as_ref().unwrap();
    assert_eq!(
        collected.len() as u64,
        report.outcomes[1].result().unwrap().pairs
    );
    assert!(report.outcomes[1].pairs.is_none());
}

#[test]
fn limits_stop_selection_io_early() {
    let a = grid(60, 4.0, 0.0, 0);
    let (service, ia, _) = service_over(&a, &a, ServiceConfig::default().with_workers(1));
    let window = Rect::from_coords(0.0, 0.0, 240.0, 240.0);
    let report = service.run(vec![
        QueryRequest::window(ia, window),
        QueryRequest::window(ia, window).with_limit(3).collecting(),
    ]);
    let full = report.outcomes[0].result().unwrap();
    let limited = report.outcomes[1].result().unwrap();
    assert_eq!(limited.pairs, 3);
    assert_eq!(report.outcomes[1].pairs.as_ref().unwrap().len(), 3);
    assert!(
        limited.io.pages_read < full.io.pages_read,
        "LIMIT must stop the traversal early ({} vs {})",
        limited.io.pages_read,
        full.io.pages_read
    );
}

#[test]
fn pre_cancelled_requests_never_run() {
    let a = grid(8, 4.0, 0.0, 0);
    let (service, ia, _) = service_over(&a, &a, ServiceConfig::default());
    let token = CancelToken::new();
    token.cancel();
    let report = service.run(vec![
        QueryRequest::join(ia, ia).with_cancel(token.clone()),
        QueryRequest::join(ia, ia),
    ]);
    assert!(matches!(
        report.outcomes[0].status,
        QueryStatus::Cancelled(None)
    ));
    assert!(report.outcomes[1].is_completed());
    assert_eq!(report.stats.cancelled, 1);
    assert_eq!(report.stats.completed, 1);
    assert_eq!(report.stats.admitted, 1);
}

#[test]
fn unknown_datasets_fail_cleanly() {
    let a = grid(6, 4.0, 0.0, 0);
    let (service, ia, _) = service_over(&a, &a, ServiceConfig::default());
    let report = service.run(vec![
        QueryRequest::join(ia, DatasetId(99)),
        QueryRequest::window(DatasetId(42), Rect::from_coords(0.0, 0.0, 1.0, 1.0)),
    ]);
    for outcome in &report.outcomes {
        assert!(
            matches!(
                &outcome.status,
                QueryStatus::Failed(ServiceError::UnknownDataset(_))
            ),
            "{:?}",
            outcome.status
        );
    }
    assert_eq!(report.stats.failed, 2);
}

#[test]
fn priorities_admit_before_fifo_order() {
    let a = grid(10, 4.0, 0.0, 0);
    // One worker: execution order equals admission order.
    let (service, ia, _) = service_over(&a, &a, ServiceConfig::default().with_workers(1));
    let report = service.run(vec![
        QueryRequest::join(ia, ia).with_algorithm(Algo::Sssj),
        QueryRequest::join(ia, ia)
            .with_algorithm(Algo::Sssj)
            .with_priority(5),
        QueryRequest::join(ia, ia)
            .with_algorithm(Algo::Sssj)
            .with_priority(5),
    ]);
    // The priority-5 requests waited less than the priority-0 one which
    // was submitted first but admitted last.
    let w0 = report.outcomes[0].stats.queue_wait;
    let w1 = report.outcomes[1].stats.queue_wait;
    let w2 = report.outcomes[2].stats.queue_wait;
    assert!(w1 <= w0 && w2 <= w0, "{w0:?} {w1:?} {w2:?}");
    assert!(w1 <= w2, "FIFO within a priority");
}

#[test]
fn admission_respects_the_shared_budget_and_records_deferrals() {
    let a = grid(12, 4.0, 0.0, 0);
    let limit = 4 * 1024 * 1024;
    let (service, ia, ib) = service_over(
        &a,
        &a,
        ServiceConfig::default()
            .with_workers(4)
            .with_memory_limit(limit),
    );
    // Each request demands 3 MB of the 4 MB budget: only one runs at a
    // time even though four workers are free.
    let requests: Vec<QueryRequest> = (0..6)
        .map(|_| {
            QueryRequest::join(ia, ib)
                .with_algorithm(Algo::Sssj)
                .with_memory_budget(3 * 1024 * 1024)
        })
        .collect();
    let report = service.run(requests);
    assert_eq!(report.stats.completed, 6);
    assert!(
        report.stats.deferrals > 0,
        "free workers must have deferred"
    );
    assert!(report.stats.peak_admitted_bytes <= limit);
    for outcome in &report.outcomes {
        assert_eq!(outcome.stats.admitted_bytes, 3 * 1024 * 1024);
        let result = outcome.result().unwrap();
        assert!(result.memory.peak_bytes <= outcome.stats.admitted_bytes);
    }
}

#[test]
fn unadmittable_requests_fail_instead_of_deadlocking() {
    let a = grid(6, 4.0, 0.0, 0);
    // A zero shared budget can never admit anything: the scheduler must
    // fail the requests loudly rather than park its workers forever.
    let (service, ia, _) = service_over(
        &a,
        &a,
        ServiceConfig::default()
            .with_workers(2)
            .with_memory_limit(0),
    );
    let report = service.run(vec![
        QueryRequest::join(ia, ia),
        QueryRequest::window(ia, Rect::from_coords(0.0, 0.0, 1.0, 1.0)),
    ]);
    for outcome in &report.outcomes {
        assert!(
            matches!(
                outcome.status,
                QueryStatus::Failed(ServiceError::Io(IoSimError::MemoryLimitExceeded { .. }))
            ),
            "{:?}",
            outcome.status
        );
    }
    assert_eq!(report.stats.failed, 2);
    assert_eq!(report.stats.admitted, 0);

    // A query whose *granted* budget is too small for its working set
    // fails at run time with the same error, reported per query.
    let b = grid(40, 4.0, 0.0, 0);
    let (tight, ib, _) = service_over(
        &b,
        &b,
        ServiceConfig::default()
            .with_workers(1)
            .with_memory_limit(8 * 1024),
    );
    let report = tight.run(vec![QueryRequest::join(ib, ib).with_algorithm(Algo::Sssj)]);
    assert!(
        matches!(
            report.outcomes[0].status,
            QueryStatus::Failed(ServiceError::Io(IoSimError::MemoryLimitExceeded { .. }))
        ),
        "{:?}",
        report.outcomes[0].status
    );
}

#[test]
fn plan_cache_reuses_plans_across_identical_queries() {
    // Large enough that the trees have internal levels: the Auto
    // estimate's directory probes then cost real, measurable I/O.
    let a = grid(40, 4.0, 0.0, 0);
    let b = grid(40, 4.0, 1.5, 100_000);
    let (service, ia, ib) = service_over(&a, &b, ServiceConfig::default().with_workers(1));
    let request = || QueryRequest::join(ia, ib).with_algorithm(Algo::Auto);
    let report = service.run(vec![request(), request(), request()]);
    assert_eq!(report.stats.completed, 3);
    assert_eq!(report.stats.plan_cache_misses, 1);
    assert_eq!(report.stats.plan_cache_hits, 2);
    // All three deliver identical pair counts...
    let pairs: Vec<u64> = report
        .outcomes
        .iter()
        .map(|o| o.result().unwrap().pairs)
        .collect();
    assert_eq!(pairs[0], pairs[1]);
    assert_eq!(pairs[1], pairs[2]);
    // ...and the cached repeats skip the Auto estimate's directory
    // probes, so they charge strictly less I/O.
    let first = report.outcomes[0].result().unwrap().io.pages_read;
    let repeat = report.outcomes[1].result().unwrap().io.pages_read;
    assert!(
        repeat < first,
        "cached plan must save I/O ({repeat} vs {first})"
    );
}

#[test]
fn point_selection_matches_brute_force() {
    let a = grid(12, 5.0, 0.0, 0);
    let (service, ia, _) = service_over(&a, &a, ServiceConfig::default());
    let p = Point::new(17.0, 22.0);
    let expected = a
        .iter()
        .filter(|it| it.rect.contains(&Rect::from_coords(p.x, p.y, p.x, p.y)))
        .count() as u64;
    let report = service.run(vec![QueryRequest::point(ia, p).collecting()]);
    let outcome = &report.outcomes[0];
    assert_eq!(outcome.result().unwrap().pairs, expected);
    assert_eq!(outcome.pairs.as_ref().unwrap().len() as u64, expected);
}

#[test]
fn session_accepts_submissions_while_workers_run() {
    let a = grid(10, 4.0, 0.0, 0);
    let (service, ia, _) = service_over(&a, &a, ServiceConfig::default().with_workers(2));
    let window = Rect::from_coords(0.0, 0.0, 20.0, 20.0);
    let ((), report) = service.with_session(|session| {
        for k in 0..6 {
            let idx = session.submit(if k % 2 == 0 {
                QueryRequest::join(ia, ia).with_algorithm(Algo::Sssj)
            } else {
                QueryRequest::window(ia, window)
            });
            assert_eq!(idx, k);
        }
        assert_eq!(session.submitted(), 6);
        // Depth and running are sampled live; both are bounded by what
        // was submitted.
        assert!(session.queue_depth() <= 6);
    });
    assert_eq!(report.stats.submitted, 6);
    assert_eq!(report.stats.completed, 6);
    for (i, outcome) in report.outcomes.iter().enumerate() {
        assert_eq!(outcome.request, i, "outcomes stay in submission order");
        assert!(outcome.stats.latency >= outcome.stats.queue_wait);
        assert!(outcome.stats.admission_seq.is_some());
    }
}

#[test]
fn overtakes_are_bounded_and_stamped() {
    let a = grid(30, 4.0, 0.0, 0);
    let limit = 4 * 1024 * 1024;
    let (service, ia, _) = service_over(
        &a,
        &a,
        ServiceConfig::default()
            .with_workers(2)
            .with_memory_limit(limit)
            .with_max_overtakes(2),
    );
    // A long heavy join runs first; a second heavy join blocks on the
    // gauge while cheap selections are free to overtake it — but no
    // more than max_overtakes times.
    let heavy = || {
        QueryRequest::join(ia, ia)
            .with_algorithm(Algo::Sssj)
            .with_memory_budget(3 * 1024 * 1024)
    };
    let mut requests = vec![heavy(), heavy()];
    for _ in 0..6 {
        requests.push(QueryRequest::window(
            ia,
            Rect::from_coords(0.0, 0.0, 10.0, 10.0),
        ));
    }
    let report = service.run(requests);
    assert_eq!(report.stats.completed, 8);
    for outcome in &report.outcomes {
        assert!(
            outcome.stats.overtaken <= 2,
            "request #{} overtaken {} times (> max_overtakes)",
            outcome.request,
            outcome.stats.overtaken
        );
    }
}

#[test]
fn queue_wait_is_anchored_at_first_enqueue() {
    // Regression test for the deferred-wait accounting fix: a request
    // that sits behind a running query must report the full span from
    // its first enqueue to its admission, not the residue since its
    // last failed admission attempt.
    let a = grid(30, 4.0, 0.0, 0);
    let limit = 4 * 1024 * 1024;
    let (service, ia, _) = service_over(
        &a,
        &a,
        ServiceConfig::default()
            .with_workers(2)
            .with_memory_limit(limit),
    );
    // Both demand 3 of the 4 MB: strictly serialized by the gauge even
    // though two workers are free, so the second's queue wait covers
    // the first's entire execution.
    let heavy = || {
        QueryRequest::join(ia, ia)
            .with_algorithm(Algo::Sssj)
            .with_memory_budget(3 * 1024 * 1024)
    };
    let report = service.run(vec![heavy(), heavy()]);
    assert_eq!(report.stats.completed, 2);
    let first = &report.outcomes[0].stats;
    let second = &report.outcomes[1].stats;
    assert!(second.deferrals > 0, "the second must have been deferred");
    let first_execution = first.latency.saturating_sub(first.queue_wait);
    assert!(
        second.queue_wait >= first_execution / 2,
        "deferred wait must cover the blocking query's execution \
         ({:?} vs execution {:?})",
        second.queue_wait,
        first_execution
    );
    assert!(second.latency >= second.queue_wait);
}

#[test]
fn empty_batch_is_a_no_op() {
    let a = grid(4, 4.0, 0.0, 0);
    let (service, _, _) = service_over(&a, &a, ServiceConfig::default());
    let report = service.run(Vec::new());
    assert!(report.outcomes.is_empty());
    assert_eq!(report.stats.submitted, 0);
    let text = format!("{}", report.stats);
    assert!(text.contains("0 submitted"), "{text}");
}

fn brute_pairs(a: &[Item], b: &[Item]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for x in a {
        for y in b {
            if x.rect.intersects(&y.rect) {
                out.push((x.id, y.id));
            }
        }
    }
    out.sort_unstable();
    out
}

#[test]
fn streaming_joins_run_over_live_datasets_through_the_service() {
    let a = grid(12, 4.0, 0.0, 0);
    let b = grid(12, 4.0, 1.5, 100_000);
    let (service, _, _) = service_over(&a, &b, ServiceConfig::default().with_workers(2));
    // Register with part of each dataset, then ingest the rest through
    // appends — flushes and compactions happen behind the thresholds.
    let config = LiveConfig {
        flush_threshold_bytes: 40 * ITEM_BYTES,
        compact_after_deltas: 2,
    };
    let la = service.register_live("live_a", &a[..60], config).unwrap();
    let lb = service.register_live("live_b", &b[..30], config).unwrap();
    for chunk in a[60..].chunks(37) {
        service.append_live("live_a", chunk).unwrap();
    }
    for chunk in b[30..].chunks(53) {
        service.append_live("live_b", chunk).unwrap();
    }
    // Live ids follow the two registered ones, in registration order.
    assert_eq!((la, lb), (DatasetId(2), DatasetId(3)));

    let expected = brute_pairs(&a, &b);
    let report = service.run(vec![
        QueryRequest::join(la, lb).collecting(),
        QueryRequest::join(la, lb),
        QueryRequest::join(la, lb).with_limit(7).collecting(),
    ]);
    assert_eq!(report.stats.completed, 3);
    let mut collected = report.outcomes[0].pairs.clone().unwrap();
    collected.sort_unstable();
    assert_eq!(collected, expected);
    assert_eq!(
        report.outcomes[1].result().unwrap().pairs,
        expected.len() as u64
    );
    // LIMIT truncates the stream to an exact prefix of true pairs.
    let limited = report.outcomes[2].pairs.as_ref().unwrap();
    assert_eq!(limited.len(), 7.min(expected.len()));
    for p in limited {
        assert!(expected.binary_search(p).is_ok(), "{p:?} not a result pair");
    }
}

#[test]
fn live_registration_rejects_duplicates_and_unknown_ids_fail_cleanly() {
    let a = grid(6, 4.0, 0.0, 0);
    let (service, _, _) = service_over(&a, &a, ServiceConfig::default());
    let la = service
        .register_live("points", &a, LiveConfig::default())
        .unwrap();
    assert!(matches!(
        service.register_live("points", &a, LiveConfig::default()),
        Err(ServiceError::DuplicateDataset(_))
    ));
    assert!(matches!(
        service.append_live("nowhere", &a),
        Err(ServiceError::UnknownDataset(_))
    ));
    let report = service.run(vec![QueryRequest::join(la, DatasetId(99))]);
    assert!(
        matches!(
            &report.outcomes[0].status,
            QueryStatus::Failed(ServiceError::UnknownDataset(_))
        ),
        "{:?}",
        report.outcomes[0].status
    );
}

/// Builds a service holding one *fragmented* live dataset over `live`
/// (partial base + chunked appends, so every tier — base run, delta
/// runs, frozen batches, memtable — is populated) and one frozen
/// cataloged dataset over `frozen`.
fn mixed_service(live: &[Item], frozen: &[Item]) -> (Service, DatasetId, DatasetId) {
    let (service, _, ib) = service_over(frozen, frozen, ServiceConfig::default().with_workers(2));
    let config = LiveConfig {
        flush_threshold_bytes: 40 * ITEM_BYTES,
        compact_after_deltas: 3,
    };
    let split = live.len() / 3;
    let la = service
        .register_live("mixed", &live[..split], config)
        .unwrap();
    for chunk in live[split..].chunks(29) {
        service.append_live("mixed", chunk).unwrap();
    }
    (service, la, ib)
}

#[test]
fn mixed_joins_match_brute_force_including_limit_and_cancellation() {
    let a = grid(12, 4.0, 0.0, 0);
    let b = grid(12, 4.0, 1.5, 100_000);
    let (service, la, ib) = mixed_service(&a, &b);
    // The live side genuinely spans tiers when the join runs.
    assert!(
        service.live_backlog("mixed").unwrap_or(0) > 0 || {
            service.with_live(|l| l.get(la).unwrap().memtable_len() > 0)
        }
    );

    let expected = brute_pairs(&a, &b);
    let token = CancelToken::new();
    token.cancel();
    let report = service.run(vec![
        QueryRequest::join(la, ib).collecting(),
        QueryRequest::join(la, ib),
        QueryRequest::join(la, ib).with_limit(9).collecting(),
        QueryRequest::join(la, ib).with_cancel(token),
    ]);
    let mut collected = report.outcomes[0].pairs.clone().unwrap();
    collected.sort_unstable();
    assert_eq!(collected, expected, "mixed join diverged from brute force");
    assert_eq!(
        report.outcomes[1].result().unwrap().pairs,
        expected.len() as u64
    );
    // LIMIT truncates the stream to an exact prefix of true pairs.
    let limited = report.outcomes[2].pairs.as_ref().unwrap();
    assert_eq!(limited.len(), 9.min(expected.len()));
    for p in limited {
        assert!(expected.binary_search(p).is_ok(), "{p:?} not a result pair");
    }
    assert!(matches!(
        report.outcomes[3].status,
        QueryStatus::Cancelled(None)
    ));
    assert_eq!(report.stats.completed, 3);
    assert_eq!(report.stats.cancelled, 1);

    // A dataset with tiers joins like the same dataset quiesced, whose
    // join lowers to the offline operators instead.
    service.quiesce_live("mixed").unwrap();
    let quiesced = service.run(vec![QueryRequest::join(la, ib).collecting()]);
    let mut pairs = quiesced.outcomes[0].pairs.clone().unwrap();
    pairs.sort_unstable();
    assert_eq!(pairs, collected);
}

#[test]
fn explicit_algorithms_run_as_asked_over_tiers_and_answer_like_the_quiesced_datasets() {
    let a = grid(12, 4.0, 0.0, 0);
    let b = grid(12, 4.0, 1.5, 100_000);
    let (service, la, ib) = mixed_service(&a, &b);
    assert!(service.with_live(|l| l.get(la).unwrap().snapshot().has_tiers()));
    service.set_tracing(true);
    // `Auto` over tiers runs SSSJ; every explicit algorithm runs as asked.
    let algos = [
        (Algo::Auto, "sssj.sweep"),
        (Algo::Sssj, "sssj.sweep"),
        (Algo::Pbsm, "pbsm.join"),
        (Algo::Pq, "pq.sweep"),
        (Algo::St, "st.traverse"),
    ];
    let mut requests = Vec::new();
    for predicate in [Predicate::Intersects, Predicate::WithinDistance(0.6)] {
        for (left, right) in [(la, ib), (ib, la)] {
            for (algo, _) in algos {
                requests.push(
                    QueryRequest::join(left, right)
                        .with_algorithm(algo)
                        .with_predicate(predicate)
                        .collecting(),
                );
            }
        }
    }
    let run = |requests: Vec<QueryRequest>| {
        let report = service.run(requests);
        assert_eq!(report.stats.failed, 0);
        report
    };
    let tiered = run(requests.clone());
    service.quiesce_live("mixed").unwrap();
    let quiesced = run(requests);
    for (k, (t, q)) in tiered.outcomes.iter().zip(&quiesced.outcomes).enumerate() {
        let phase = algos[k % algos.len()].1;
        let trace = t.stats.trace.as_ref().unwrap();
        assert!(
            trace.find(phase).is_some(),
            "#{k}: no {phase} in {}",
            trace.shape()
        );
        let pairs = |o: &QueryOutcome| {
            let mut p = o.pairs.clone().unwrap();
            p.sort_unstable();
            p
        };
        assert!(!pairs(q).is_empty());
        assert_eq!(pairs(t), pairs(q), "request #{k}");
    }
}

#[test]
fn mixed_join_cancellation_stops_the_stream_partway() {
    let a = grid(14, 4.0, 0.0, 0);
    let b = grid(14, 4.0, 1.5, 100_000);
    let (service, la, ib) = mixed_service(&a, &b);
    let expected = brute_pairs(&a, &b);
    let token = CancelToken::new();
    let (_, report) = service.with_session(|session| {
        session.submit(
            QueryRequest::join(la, ib)
                .with_cancel(token.clone())
                .collecting(),
        );
        // Spin until the query is genuinely executing, then pull the
        // token out from under it mid-stream.
        while session.running() == 0 && session.queue_depth() > 0 {
            std::thread::yield_now();
        }
        token.cancel();
    });
    let outcome = &report.outcomes[0];
    // Raced against a fast query the cancel may lose — but whatever
    // prefix streamed out must consist of true pairs only.
    match &outcome.status {
        QueryStatus::Cancelled(partial) => {
            let delivered = outcome.pairs.as_ref().map_or(0, |p| p.len());
            assert!(delivered <= expected.len());
            assert!(partial.is_none() || partial.as_ref().unwrap().pairs == delivered as u64);
        }
        QueryStatus::Completed(r) => assert_eq!(r.pairs, expected.len() as u64),
        QueryStatus::Failed(e) => panic!("mixed join failed: {e}"),
    }
    for p in outcome.pairs.as_ref().unwrap() {
        assert!(expected.binary_search(p).is_ok(), "{p:?} not a result pair");
    }
}

#[test]
fn live_selections_cover_every_tier_and_match_brute_force() {
    let a = grid(13, 4.0, 0.0, 0);
    let (service, la, _) = mixed_service(&a, &a);
    let windows = [
        Rect::from_coords(0.0, 0.0, 18.0, 18.0),
        Rect::from_coords(20.0, 20.0, 52.0, 52.0),
        Rect::from_coords(-5.0, -5.0, 100.0, 100.0),
        Rect::from_coords(90.0, 90.0, 95.0, 95.0), // beyond the bbox
    ];
    let mut requests: Vec<QueryRequest> = windows
        .iter()
        .map(|w| QueryRequest::window(la, *w).collecting())
        .collect();
    let probe = Point { x: 10.1, y: 10.1 };
    requests.push(QueryRequest::point(la, probe).collecting());
    requests.push(
        QueryRequest::window(la, windows[2])
            .with_limit(5)
            .collecting(),
    );
    let report = service.run(requests);
    assert_eq!(report.stats.completed, 6);
    for (i, window) in windows.iter().enumerate() {
        let mut expected: Vec<u32> = a
            .iter()
            .filter(|it| it.rect.intersects(window))
            .map(|it| it.id)
            .collect();
        expected.sort_unstable();
        let mut got: Vec<u32> = report.outcomes[i]
            .pairs
            .as_ref()
            .unwrap()
            .iter()
            .map(|&(id, _)| id)
            .collect();
        got.sort_unstable();
        assert_eq!(got, expected, "window #{i} diverged from brute force");
    }
    let probe_rect = Rect::from_coords(probe.x, probe.y, probe.x, probe.y);
    let hits = a
        .iter()
        .filter(|it| it.rect.intersects(&probe_rect))
        .count();
    assert_eq!(report.outcomes[4].pairs.as_ref().unwrap().len(), hits);
    assert_eq!(report.outcomes[5].pairs.as_ref().unwrap().len(), 5);
}

#[test]
fn background_maintenance_matches_inline_and_shrinks_no_answers() {
    let a = grid(12, 4.0, 0.0, 0);
    let b = grid(12, 4.0, 1.5, 100_000);
    let run_mode = |background: bool| {
        let mut env = SimEnv::new(MachineConfig::machine3());
        let mut catalog = Catalog::new();
        let ib = catalog.register(&mut env, "frozen", &b).unwrap();
        let service = Service::new(
            env,
            catalog,
            ServiceConfig::default()
                .with_workers(2)
                .with_background_maintenance(background),
        );
        let config = LiveConfig {
            flush_threshold_bytes: 32 * ITEM_BYTES,
            compact_after_deltas: 2,
        };
        let la = service.register_live("live", &a[..40], config).unwrap();
        for chunk in a[40..].chunks(23) {
            service.append_live("live", chunk).unwrap();
        }
        // Quiesce: waits out the background queue, then drains every
        // tier into a single compacted base run.
        service.quiesce_live("live").unwrap();
        assert_eq!(service.live_backlog("live"), Some(0));
        service.with_live(|live| {
            let ds = live.get(la).unwrap();
            assert_eq!(ds.memtable_len(), 0, "quiesce left memtable items");
            assert_eq!(ds.pending_flush_batches(), 0);
        });
        let stats = service.live_stats("live").unwrap();
        assert!(stats.flushes > 0, "maintenance never flushed");
        let report = service.run(vec![QueryRequest::join(la, ib).collecting()]);
        let mut pairs = report.outcomes[0].pairs.clone().unwrap();
        pairs.sort_unstable();
        pairs
    };
    let inline = run_mode(false);
    let background = run_mode(true);
    assert_eq!(inline, brute_pairs(&a, &b));
    assert_eq!(inline, background, "maintenance modes diverged");
}

#[test]
fn promotion_roundtrip_matches_a_fresh_registration() {
    // A quiesced live dataset answers joins and windows like a freshly
    // registered one: no tiers are left, so its joins lower through
    // the same offline operators.
    let a = grid(11, 4.0, 0.0, 0);
    let b = grid(11, 4.0, 1.5, 100_000);
    let window = Rect::from_coords(3.0, 3.0, 25.0, 25.0);

    // Grown path: grow the dataset through live appends (background
    // maintenance on, to exercise the worker), then quiesce it.
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut catalog = Catalog::new();
    let ib = catalog.register(&mut env, "peer", &b).unwrap();
    let mut service = Service::new(
        env,
        catalog,
        ServiceConfig::default()
            .with_workers(2)
            .with_background_maintenance(true),
    );
    let config = LiveConfig {
        flush_threshold_bytes: 32 * ITEM_BYTES,
        compact_after_deltas: 2,
    };
    let grown = service.register_live("grown", &a[..30], config).unwrap();
    for chunk in a[30..].chunks(17) {
        service.append_live("grown", chunk).unwrap();
    }
    assert_eq!(
        service.promote_live("grown").unwrap(),
        grown,
        "the id stays"
    );
    assert!(matches!(
        service.promote_live("missing"),
        Err(ServiceError::UnknownDataset(_))
    ));
    service.with_live(|live| {
        let snap = live.get(grown).unwrap().snapshot();
        assert!(!snap.has_tiers());
        assert_eq!(snap.len(), a.len() as u64);
    });
    let requests = |ds: DatasetId, peer: DatasetId| {
        vec![
            QueryRequest::join(ds, peer)
                .with_algorithm(Algo::Sssj)
                .collecting(),
            QueryRequest::join(ds, peer).collecting(),
            QueryRequest::window(ds, window).collecting(),
        ]
    };
    let report = service.run(requests(grown, ib));

    // Oracle path: register the same items directly. Compaction keeps
    // item identity, not arrival order, so compare pair *sets*.
    let mut env2 = SimEnv::new(MachineConfig::machine3());
    let mut catalog2 = Catalog::new();
    let fresh = catalog2.register(&mut env2, "fresh", &a).unwrap();
    let ib2 = catalog2.register(&mut env2, "peer", &b).unwrap();
    let oracle_service = Service::new(env2, catalog2, ServiceConfig::default().with_workers(2));
    let oracle = oracle_service.run(requests(fresh, ib2));

    for k in 0..3 {
        let mut got = report.outcomes[k].pairs.clone().unwrap();
        let mut want = oracle.outcomes[k].pairs.clone().unwrap();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "query #{k} diverged after quiescing");
    }
    // The dataset still accepts appends, and its next join sees them.
    service
        .append_live("grown", &grid(2, 4.0, 0.5, 900_000))
        .unwrap();
    let more = service.run(vec![QueryRequest::join(grown, ib).collecting()]);
    let got = more.outcomes[0].pairs.as_ref().unwrap().len();
    assert!(got > report.outcomes[0].pairs.as_ref().unwrap().len());
}

#[test]
fn register_live_refuses_a_name_the_catalog_holds() {
    let a = grid(6, 4.0, 0.0, 0);
    let (service, _, _) = service_over(&a, &a, ServiceConfig::default());
    assert!(matches!(
        service.register_live("a", &a, LiveConfig::default()),
        Err(ServiceError::DuplicateDataset(_))
    ));
    // Live ids continue after the registered ones.
    let live = service
        .register_live("c", &a, LiveConfig::default())
        .unwrap();
    assert_eq!(live, DatasetId(2));
}

#[test]
fn a_grown_dataset_is_never_admitted_on_a_stale_peak() {
    // A join over a quiesced live dataset lowers like a registered one
    // but takes no plan-cache entry: the dataset can still grow, and a
    // peak measured before it grew would under-admit it afterwards.
    let a = grid(10, 4.0, 0.0, 0);
    let b = grid(10, 4.0, 1.5, 100_000);
    let (service, _, ib) = service_over(&a, &b, ServiceConfig::default().with_workers(1));
    let la = service
        .register_live("growing", &a, LiveConfig::default())
        .unwrap();
    service.quiesce_live("growing").unwrap();
    let request = || {
        QueryRequest::join(la, ib)
            .with_algorithm(Algo::Sssj)
            .collecting()
    };
    let first = service.run(vec![request()]);
    let peak = first.outcomes[0].result().unwrap().memory.peak_bytes;
    assert_eq!(
        first.outcomes[0].pairs.as_ref().unwrap().len(),
        brute_pairs(&a, &b).len()
    );

    // Grow it about 4x, quiesce, run the same join.
    let more: Vec<Item> = (0..4)
        .flat_map(|k| grid(10, 4.0, 0.3 * (k + 1) as f32, 1_000 * (k + 1)))
        .collect();
    service.append_live("growing", &more).unwrap();
    service.quiesce_live("growing").unwrap();
    let estimate = service.admission_estimate(&request());
    assert_ne!(estimate, (peak + peak / 4).max(MIN_QUERY_BUDGET));
    assert_eq!(
        estimate,
        ((5 * a.len() + b.len()) * ITEM_BYTES).max(JOIN_BUDGET_FLOOR)
    );
    let second = service.run(vec![request()]);
    let mut got = second.outcomes[0].pairs.clone().unwrap();
    got.sort_unstable();
    let all: Vec<Item> = a.iter().chain(&more).copied().collect();
    assert_eq!(got, brute_pairs(&all, &b));
    assert_eq!(
        second.stats.plan_cache_hits + second.stats.plan_cache_misses,
        0
    );
}

#[test]
fn admission_estimates_keep_their_per_kind_rules() {
    // Inputs large enough to clear the join floor: every estimate is the
    // rule of the request kind these datasets needed before live and
    // registered datasets shared one id space.
    let items = |n: u32, id_base: u32| -> Vec<Item> {
        (0..n)
            .map(|i| {
                let (x, y) = ((i % 300) as f32, (i / 300) as f32);
                Item::new(Rect::from_coords(x, y, x + 0.5, y + 0.5), id_base + i)
            })
            .collect()
    };
    let (a, b) = (items(40_000, 0), items(600, 1_000_000));
    let (service, ia, ib) = service_over(&a, &b, ServiceConfig::default());
    let live = items(120_000, 2_000_000);
    let la = service
        .register_live("la", &live, LiveConfig::default())
        .unwrap();
    let lb = service
        .register_live("lb", &b, LiveConfig::default())
        .unwrap();
    let bytes = |n: usize| n * ITEM_BYTES;
    let estimate = |r: QueryRequest| service.admission_estimate(&r);
    // Registered × registered: 3x the inputs (the parent's `join`).
    assert_eq!(estimate(QueryRequest::join(ia, ib)), 3 * bytes(40_600));
    assert_eq!(estimate(QueryRequest::join(ib, ib)), JOIN_BUDGET_FLOOR);
    // Live × live and live × registered: 1x the inputs (the parent's
    // `streaming_join` and `mixed_join`), floored.
    assert_eq!(
        estimate(QueryRequest::streaming_join(la, lb)),
        bytes(120_600)
    );
    assert_eq!(estimate(QueryRequest::join(la, ia)), bytes(160_000));
    assert_eq!(estimate(QueryRequest::join(lb, ib)), JOIN_BUDGET_FLOOR);
    // Selections, registered or live.
    let w = Rect::from_coords(0.0, 0.0, 9.0, 9.0);
    assert_eq!(estimate(QueryRequest::window(ia, w)), SELECTION_BUDGET);
    assert_eq!(estimate(QueryRequest::live_window(la, w)), SELECTION_BUDGET);
    assert_eq!(
        estimate(QueryRequest::point(lb, Point { x: 1.0, y: 1.0 })),
        SELECTION_BUDGET
    );
    // An explicit budget is clamped, whatever the kind.
    assert_eq!(
        estimate(QueryRequest::join(la, lb).with_memory_budget(1)),
        MIN_QUERY_BUDGET
    );
}

#[test]
fn measured_peaks_tighten_repeat_admission() {
    // First run of a fingerprint is admitted on the 3x-input-size
    // heuristic; once a completed run has recorded its real gauge peak,
    // repeats are admitted on peak + 25% — a strictly smaller claim
    // here, so the same shared budget packs more concurrent queries.
    let a = grid(20, 4.0, 0.0, 0);
    let b = grid(20, 4.0, 1.5, 100_000);
    let (service, ia, ib) = service_over(&a, &b, ServiceConfig::default().with_workers(1));
    let request = || QueryRequest::join(ia, ib).with_algorithm(Algo::Sssj);

    let first = service.run(vec![request()]);
    let second = service.run(vec![request()]);
    let (o1, o2) = (&first.outcomes[0], &second.outcomes[0]);
    assert!(o1.is_completed() && o2.is_completed());
    assert_eq!(o1.result().unwrap().pairs, o2.result().unwrap().pairs);
    assert!(
        o2.stats.admitted_bytes < o1.stats.admitted_bytes,
        "measured-peak admission must be denser than the heuristic \
         ({} vs {})",
        o2.stats.admitted_bytes,
        o1.stats.admitted_bytes
    );
    // The margin really covers the run: the repeat finished inside its
    // tighter budget.
    assert!(o2.result().unwrap().memory.peak_bytes <= o2.stats.admitted_bytes);
}

#[test]
fn truncated_runs_never_poison_admission_estimates() {
    // A LIMIT-stopped run's peak under-states the query's footprint; it
    // must not be recorded, so the repeat is still admitted on the
    // conservative heuristic.
    let a = grid(20, 4.0, 0.0, 0);
    let b = grid(20, 4.0, 1.5, 100_000);
    let (service, ia, ib) = service_over(&a, &b, ServiceConfig::default().with_workers(1));
    let limited = service.run(vec![QueryRequest::join(ia, ib)
        .with_algorithm(Algo::Sssj)
        .with_limit(1)]);
    assert!(limited.outcomes[0].is_completed());
    let repeat = service.run(vec![QueryRequest::join(ia, ib).with_algorithm(Algo::Sssj)]);
    assert_eq!(
        repeat.outcomes[0].stats.admitted_bytes, limited.outcomes[0].stats.admitted_bytes,
        "a truncated run must not shrink the next admission"
    );
}
