//! End-to-end observability contract of the service layer.
//!
//! Three guarantees, each proved differentially:
//!
//! 1. **Tracing is invisible to execution**: the same request batch with
//!    tracing on and off delivers byte-identical pair sets, charged I/O and
//!    peak memory. Tracing may only *observe*.
//! 2. **Traces are complete**: a traced run of joins over live datasets under
//!    background maintenance yields a span tree with the admission wait,
//!    the per-operator execute phases (probe, fix-up, spill marks) and the
//!    background flush/compaction spans — and the tree exports to a
//!    balanced Chrome trace-event document.
//! 3. **Traces are deterministic under a virtual clock**: with a
//!    [`VirtualClock`] installed, measured waits are exact and two
//!    identical single-worker runs produce identical trace shapes.

use std::sync::Arc;

use usj_geom::{Item, Rect, ITEM_BYTES};
use usj_io::{MachineConfig, SimEnv};
use usj_service::{
    Catalog, ChromeTrace, DatasetId, LiveConfig, QueryRequest, QueryTrace, Service, ServiceConfig,
    ServiceReport, TraceSpan, VirtualClock,
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

/// A service with one frozen dataset plus two fragmented live datasets
/// (small thresholds, chunked appends — flushes and compactions genuinely
/// run during setup).
fn live_service(config: ServiceConfig) -> (Service, DatasetId, DatasetId, DatasetId) {
    let a = grid(12, 4.0, 0.0, 0);
    let b = grid(12, 4.0, 1.5, 100_000);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut catalog = Catalog::new();
    let frozen = env.unaccounted(|env| catalog.register(env, "frozen", &b).unwrap());
    let service = Service::new(env, catalog, config);
    let live_config = LiveConfig {
        flush_threshold_bytes: 40 * ITEM_BYTES,
        compact_after_deltas: 2,
    };
    let la = service
        .register_live("live_a", &a[..60], live_config)
        .unwrap();
    let lb = service
        .register_live("live_b", &b[..30], live_config)
        .unwrap();
    for chunk in a[60..].chunks(37) {
        service.append_live("live_a", chunk).unwrap();
    }
    for chunk in b[30..].chunks(53) {
        service.append_live("live_b", chunk).unwrap();
    }
    (service, la, lb, frozen)
}

fn join_batch(la: DatasetId, lb: DatasetId, frozen: DatasetId) -> Vec<QueryRequest> {
    vec![
        QueryRequest::join(la, lb).collecting(),
        QueryRequest::join(la, frozen).collecting(),
        QueryRequest::join(la, lb).with_limit(9).collecting(),
    ]
}

/// Pairs, charged read/write page counts and measured peak of one outcome.
type Fingerprint = (Option<Vec<(u32, u32)>>, u64, u64, usize);

/// The per-outcome fields that must not move when tracing flips on.
fn execution_fingerprint(report: &ServiceReport) -> Vec<Fingerprint> {
    report
        .outcomes
        .iter()
        .map(|o| {
            let r = o.result().expect("all queries complete in this suite");
            (
                o.pairs.clone(),
                r.io.pages_read,
                r.io.pages_written,
                r.memory.peak_bytes,
            )
        })
        .collect()
}

/// Proper nesting: every span lies inside its parent's `[start_us, end_us]`.
fn assert_children_inside_parents(trace: &QueryTrace) {
    fn check(parent: &TraceSpan) {
        assert!(
            parent.start_us <= parent.end_us,
            "span {} ends before it starts",
            parent.name
        );
        for child in &parent.children {
            assert!(
                parent.start_us <= child.start_us && child.end_us <= parent.end_us,
                "span {} [{}, {}] overhangs its parent {} [{}, {}]",
                child.name,
                child.start_us,
                child.end_us,
                parent.name,
                parent.start_us,
                parent.end_us
            );
            check(child);
        }
    }
    trace.roots.iter().for_each(check);
}

#[test]
fn tracing_is_byte_invisible_to_execution() {
    let (plain_svc, la, lb, frozen) = live_service(ServiceConfig::default().with_workers(1));
    let plain = plain_svc.run(join_batch(la, lb, frozen));

    let (traced_svc, la, lb, frozen) = live_service(ServiceConfig::default().with_workers(1));
    traced_svc.set_tracing(true);
    let traced = traced_svc.run(join_batch(la, lb, frozen));

    assert_eq!(
        execution_fingerprint(&plain),
        execution_fingerprint(&traced)
    );
    assert_eq!(plain.stats.replay_digest(), traced.stats.replay_digest());
    assert!(plain.outcomes.iter().all(|o| o.stats.trace.is_none()));
    assert!(traced.outcomes.iter().all(|o| o.stats.trace.is_some()));

    // Expiry is marked once per join, where the driver closes — not once
    // per push, which would crowd a long join's own spans out of the ring.
    // The two full joins drain both 144-record inputs; LIMIT 9 stops before
    // anything could expire.
    let expired: Vec<Vec<u64>> = traced
        .outcomes
        .iter()
        .map(|o| {
            let trace = o.stats.trace.as_ref().unwrap();
            assert_eq!(trace.dropped_events, 0);
            assert!(trace.orphan_marks.is_empty());
            trace.mark_values("sweep.expire")
        })
        .collect();
    assert_eq!(expired[0], [288]);
    assert_eq!(expired[1], [288]);
    assert_eq!(expired[2], [0u64; 0]);
}

#[test]
fn traced_joins_under_background_maintenance_yield_full_span_trees() {
    let (service, la, lb, frozen) = live_service(
        ServiceConfig::default()
            .with_workers(2)
            .with_background_maintenance(true),
    );
    service.set_tracing(true);
    // Traced appends so background flush/compaction spans land in the
    // maintenance ring; quiesce forces the backlog to actually drain.
    let extra = grid(6, 4.0, 7.0, 500_000);
    for chunk in extra.chunks(23) {
        service.append_live("live_a", chunk).unwrap();
    }
    service.quiesce_live("live_a").unwrap();

    let report = service.run(join_batch(la, lb, frozen));
    assert_eq!(report.stats.completed, 3);

    let mut chrome = ChromeTrace::new();
    chrome.add_thread(0, "maintenance");
    for outcome in &report.outcomes {
        let trace = outcome.stats.trace.as_ref().expect("tracing was on");
        // The scheduler wraps every execution under one `query` root with
        // the synthesised admission wait beside the recorded execute tree.
        assert_eq!(trace.roots.len(), 1, "shape: {}", trace.shape());
        assert_eq!(trace.roots[0].name, "query");
        assert_children_inside_parents(trace);
        assert!(
            trace.find("admission.wait").is_some(),
            "shape: {}",
            trace.shape()
        );
        let execute = trace.find("execute").expect("recorded execute root");
        // `live_a` is quiesced: its join with the registered dataset has no
        // tiers on either side and `Auto` prices it (picking SSSJ here),
        // while the joins with `live_b` have tiers, so `Auto` runs SSSJ over
        // the merged runs without an estimate. Every join sweeps.
        assert!(
            execute.find("sssj.sweep").is_some(),
            "operator phase sssj.sweep missing: {}",
            trace.shape()
        );
        assert!(
            execute.io.pages_read > 0,
            "execute span carries the query's charged I/O"
        );
        let seq = outcome.stats.admission_seq.expect("admitted") + 1;
        chrome.add_thread(seq, "query");
        chrome.add_trace(seq, trace);
    }

    let maint = service.drain_background_trace();
    assert!(
        maint.find("live.flush").is_some(),
        "background maintenance must record flush spans: {}",
        maint.shape()
    );
    let compaction = maint.find("live.compaction").unwrap_or_else(|| {
        panic!(
            "compact_after_deltas=2 under chunked appends must compact: {}",
            maint.shape()
        )
    });
    let phases: Vec<&str> = compaction
        .children
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(phases, ["live.compaction.merge", "live.compaction.index"]);
    assert_children_inside_parents(&maint);
    chrome.add_trace(0, &maint);

    let doc = chrome.finish();
    assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    assert!(doc.contains("\"name\": \"admission.wait\""));
    assert!(doc.contains("\"name\": \"live.flush\""));
}

#[test]
fn virtual_clock_makes_waits_and_trace_shapes_deterministic() {
    let run_once = || {
        let (service, la, lb, frozen) = live_service(ServiceConfig::default().with_workers(1));
        service.set_clock(Arc::new(VirtualClock::new()));
        service.set_tracing(true);
        let report = service.run(join_batch(la, lb, frozen));
        assert_eq!(report.stats.completed, 3);
        // The virtual clock never advances, so every measured wait and
        // latency is exactly zero — no host-timer noise.
        for outcome in &report.outcomes {
            assert_eq!(outcome.stats.queue_wait.as_micros(), 0);
            assert_eq!(outcome.stats.latency.as_micros(), 0);
        }
        report
            .outcomes
            .iter()
            .map(|o| o.stats.trace.as_ref().unwrap().shape())
            .collect::<Vec<String>>()
    };
    let first = run_once();
    let second = run_once();
    assert_eq!(
        first, second,
        "identical runs must produce identical trace shapes"
    );
    assert!(
        first[0].starts_with("query(admission.wait,execute("),
        "{}",
        first[0]
    );
}

#[test]
fn metrics_snapshot_reports_admission_queue_and_maintenance_activity() {
    let (service, la, lb, frozen) = live_service(ServiceConfig::default().with_workers(2));
    let report = service.run(join_batch(la, lb, frozen));
    assert_eq!(report.stats.completed, 3);

    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter("queries.submitted"), Some(3));
    assert_eq!(snap.counter("queries.completed"), Some(3));
    assert_eq!(snap.counter("admission.grants"), Some(3));
    assert!(
        snap.gauge("queue.depth") == Some(0),
        "drained batch leaves no queue"
    );
    assert!(snap.gauge("queue.depth.peak").unwrap_or(0) >= 1);
    assert!(snap.gauge("live.backlog").unwrap_or(-1) >= 0);
    // Inline maintenance ran during the chunked appends.
    assert!(snap.counter("maintenance.flushes").unwrap_or(0) > 0);
    let waits = snap.histogram("queue.wait_us").expect("wait histogram");
    assert_eq!(waits.count, 3);
    let latency = snap
        .histogram("query.latency_us")
        .expect("latency histogram");
    assert_eq!(latency.count, 3);
    assert!(latency.p50 <= latency.p95 && latency.p95 <= latency.p99);

    // The JSON dump is balanced and self-describing.
    let json = snap.to_json(2);
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.contains("queries.submitted"));

    // An open session with trickled submits: submitter and workers store
    // the depth gauge concurrently, and the last store must be the drain's.
    let window = Rect::from_coords(0.0, 0.0, 30.0, 30.0);
    let ((), report) = service.with_session(|session| {
        for k in 0..200 {
            session.submit(QueryRequest::window(frozen, window));
            if k % 3 == 0 {
                std::thread::yield_now();
            }
        }
    });
    assert_eq!(report.stats.completed, 200);
    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter("queries.submitted"), Some(203));
    assert_eq!(
        snap.gauge("queue.depth"),
        Some(0),
        "a drained open session leaves no queue"
    );
    assert!(snap.gauge("queue.depth.peak").unwrap_or(0) >= 1);
}

#[test]
fn metric_names_are_fixed_at_construction_and_the_counts_add_up() {
    let (service, la, lb, frozen) = live_service(ServiceConfig::default().with_workers(2));
    let names = |snap: &usj_service::MetricsSnapshot| -> Vec<String> {
        let counters = snap.counters.iter().map(|(n, _)| n.clone());
        let gauges = snap.gauges.iter().map(|(n, _)| n.clone());
        let histograms = snap.histograms.iter().map(|(n, _)| n.clone());
        counters.chain(gauges).chain(histograms).collect()
    };
    // Handles are resolved in `Service::new`: every name is listed before
    // the first query, at zero.
    let before = service.metrics_snapshot();
    assert_eq!(before.counter("queries.submitted"), Some(0));
    assert_eq!(before.counter("faults.panics"), Some(0));
    assert_eq!(
        before.histogram("query.latency_us").map(|h| h.count),
        Some(0)
    );

    // A mixed batch: joins, selections, one cancelled in the queue, one
    // that fails (unknown dataset).
    let token = usj_service::CancelToken::new();
    token.cancel();
    let mut batch = join_batch(la, lb, frozen);
    batch.push(QueryRequest::window(
        frozen,
        Rect::from_coords(0.0, 0.0, 20.0, 20.0),
    ));
    batch.push(
        QueryRequest::window(frozen, Rect::from_coords(5.0, 5.0, 9.0, 9.0)).with_cancel(token),
    );
    batch.push(QueryRequest::join(frozen, usj_service::DatasetId(99)));
    let submitted = batch.len() as u64;
    let report = service.run(batch);
    assert_eq!((report.stats.cancelled, report.stats.failed), (1, 1));

    let after = service.metrics_snapshot();
    assert_eq!(
        names(&before),
        names(&after),
        "a batch must not add or drop a metric name"
    );
    let counter = |name: &str| after.counter(name).unwrap();
    assert_eq!(counter("queries.submitted"), submitted);
    assert_eq!(
        counter("queries.submitted"),
        counter("queries.completed") + counter("queries.cancelled") + counter("queries.failed")
    );
    assert_eq!(counter("admission.grants"), report.stats.admitted);
    assert_eq!(after.histogram("queue.wait_us").unwrap().count, submitted);
    assert_eq!(
        after.histogram("query.latency_us").unwrap().count,
        submitted
    );
}
