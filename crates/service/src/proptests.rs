//! Property-based tests for the admission queue on the in-tree
//! `usj_proptest` harness: scheduling invariants that must hold for *any*
//! request mix, worker count and memory limit —
//!
//! * grants never exceed the shared limit (individually or concurrently),
//! * overtaking is bounded by `max_overtakes` (no starvation),
//! * admission within one priority class is FIFO when nothing overtakes,
//! * every submitted request resolves to exactly one outcome,
//! * a quiesced live dataset answers joins and windows like the same items
//!   registered directly.

use usj_geom::{Item, Rect};
use usj_io::{MachineConfig, SimEnv};
use usj_proptest::{forall, Gen};

use crate::service::{QueryRequest, Service, ServiceConfig};
use crate::Catalog;

/// A small fixed dataset pair: the properties under test are scheduling
/// invariants, so the *requests* vary per case, not the data.
fn tiny_service(config: ServiceConfig) -> (Service, crate::DatasetId, crate::DatasetId) {
    let mut env = SimEnv::new(MachineConfig::machine3());
    let items: Vec<Item> = (0..64)
        .map(|i| {
            let (x, y) = ((i % 8) as f32 * 5.0, (i / 8) as f32 * 5.0);
            Item::new(Rect::from_coords(x, y, x + 3.0, y + 3.0), i)
        })
        .collect();
    let mut catalog = Catalog::new();
    let a = catalog.register(&mut env, "a", &items).unwrap();
    let b = catalog.register(&mut env, "b", &items).unwrap();
    (Service::new(env, catalog, config), a, b)
}

/// An arbitrary request mix: joins and selections with random priorities,
/// random explicit budgets (some deliberately larger than any limit we
/// draw), limits and pre-fired cancellations.
fn arb_requests(
    g: &mut Gen,
    a: crate::DatasetId,
    b: crate::DatasetId,
    max_len: usize,
) -> Vec<QueryRequest> {
    g.vec(1, max_len, |g| {
        let mut request = if g.bool_with(0.4) {
            QueryRequest::join(a, b).with_algorithm(usj_core::Algo::Sssj)
        } else {
            let x = g.f32_in(0.0, 30.0);
            let y = g.f32_in(0.0, 30.0);
            QueryRequest::window(a, Rect::from_coords(x, y, x + g.f32_in(1.0, 15.0), y + 5.0))
        };
        if g.bool_with(0.5) {
            request = request.with_priority(g.u32_in(0, 4) as u8);
        }
        if g.bool_with(0.4) {
            request = request.with_memory_budget(g.usize_in(256 * 1024, 8 * 1024 * 1024));
        }
        if g.bool_with(0.3) {
            request = request.with_limit(g.u64_in(0, 20));
        }
        if g.bool_with(0.15) {
            let token = crate::CancelToken::new();
            token.cancel();
            request = request.with_cancel(token);
        }
        request
    })
}

#[test]
fn grants_never_exceed_the_shared_limit_under_random_mixes() {
    forall!(16, |g| {
        let limit = g.usize_in(1024 * 1024, 12 * 1024 * 1024);
        let workers = g.usize_in(1, 5);
        let config = ServiceConfig::default()
            .with_workers(workers)
            .with_memory_limit(limit)
            .with_max_overtakes(g.u64_in(0, 6));
        let (service, a, b) = tiny_service(config);
        let requests = arb_requests(g, a, b, 24);
        let n = requests.len();
        let report = service.run(requests);

        // Every request resolves to exactly one outcome, in order.
        assert_eq!(report.outcomes.len(), n);
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(outcome.request, i);
        }
        assert_eq!(
            report.stats.completed + report.stats.failed + report.stats.cancelled,
            n as u64
        );
        // No single grant, nor the concurrent sum of grants, exceeds the
        // shared limit; measured peaks stay within each grant.
        assert!(report.stats.peak_admitted_bytes <= limit);
        for outcome in &report.outcomes {
            assert!(outcome.stats.admitted_bytes <= limit);
            if outcome.stats.admitted_bytes > 0 {
                if let Some(result) = outcome.result() {
                    assert!(
                        result.memory.peak_bytes <= outcome.stats.admitted_bytes,
                        "request #{}: peak {} exceeds its grant {}",
                        outcome.request,
                        result.memory.peak_bytes,
                        outcome.stats.admitted_bytes
                    );
                }
            }
        }
    });
}

#[test]
fn overtaking_is_bounded_so_nothing_starves() {
    forall!(16, |g| {
        let max_overtakes = g.u64_in(0, 5);
        let config = ServiceConfig::default()
            .with_workers(g.usize_in(2, 5))
            .with_memory_limit(g.usize_in(2 * 1024 * 1024, 6 * 1024 * 1024))
            .with_max_overtakes(max_overtakes);
        let (service, a, b) = tiny_service(config);
        let requests = arb_requests(g, a, b, 24);
        let report = service.run(requests);
        for outcome in &report.outcomes {
            assert!(
                outcome.stats.overtaken <= max_overtakes,
                "request #{} overtaken {} > max {}",
                outcome.request,
                outcome.stats.overtaken,
                max_overtakes
            );
        }
    });
}

#[test]
fn admission_is_fifo_within_a_priority_class_without_overtaking() {
    forall!(16, |g| {
        // One worker, equal budgets that always fit, overtaking disabled,
        // a clock that never moves: the admission order of the admitted
        // requests must be exactly the stable sort by (priority desc,
        // submission asc) — whatever mix of joins, selections, LIMITs and
        // pre-cancelled requests the queue holds, and however long it is.
        let config = ServiceConfig::default()
            .with_workers(1)
            .with_memory_limit(8 * 1024 * 1024)
            .with_max_overtakes(0);
        let (service, a, b) = tiny_service(config);
        service.set_clock(std::sync::Arc::new(crate::VirtualClock::new()));
        let n = g.usize_in(2, 513);
        let requests: Vec<QueryRequest> = (0..n)
            .map(|_| {
                let mut r = if g.bool_with(0.15) {
                    QueryRequest::join(a, b).with_algorithm(usj_core::Algo::Sssj)
                } else {
                    QueryRequest::window(a, Rect::from_coords(0.0, 0.0, 20.0, 20.0))
                };
                if g.bool_with(0.6) {
                    r = r.with_priority(g.u32_in(0, 4) as u8);
                }
                if g.bool_with(0.3) {
                    r = r.with_limit(g.u64_in(0, 20));
                }
                if g.bool_with(0.1) {
                    let token = crate::CancelToken::new();
                    token.cancel();
                    r = r.with_cancel(token);
                }
                r.with_memory_budget(1024 * 1024)
            })
            .collect();
        let mut expected: Vec<usize> = (0..n).filter(|&i| requests[i].cancel.is_none()).collect();
        expected.sort_by_key(|&i| std::cmp::Reverse(requests[i].priority));
        let report = service.run(requests);
        let mut admitted: Vec<(u64, usize)> = report
            .outcomes
            .iter()
            .filter_map(|o| o.stats.admission_seq.map(|s| (s, o.request)))
            .collect();
        admitted.sort_unstable();
        let order: Vec<usize> = admitted.into_iter().map(|(_, i)| i).collect();
        assert_eq!(
            order, expected,
            "admission order is not (priority desc, submission asc)"
        );
        assert_eq!(report.stats.cancelled as usize, n - expected.len());
        assert_eq!(
            report.stats.deferrals, 0,
            "every budget fits: nothing is ever deferred"
        );
        assert!(report.outcomes.iter().all(|o| o.stats.queue_wait.is_zero()));
    });

    // One seeded case with overtaking on: a 4 MB budget, 3 MB joins queued
    // ahead (priority 1) of cheap selections, two workers. Only one join
    // fits at a time, so every join admission but the last leaves the next
    // join at the head of the queue unable to co-fit — the deterministic
    // head-of-queue deferral — while the free worker overtakes the blocked
    // joins with selections, never more than `max_overtakes` times each.
    let max_overtakes = 2;
    let config = ServiceConfig::default()
        .with_workers(2)
        .with_memory_limit(4 * 1024 * 1024)
        .with_max_overtakes(max_overtakes);
    let (service, a, b) = tiny_service(config);
    let mut g = Gen::new(0x5c4e_d01e);
    let mut joins = 0u64;
    let requests: Vec<QueryRequest> = (0..96)
        .map(|_| {
            if g.bool_with(0.25) {
                joins += 1;
                QueryRequest::join(a, b)
                    .with_algorithm(usj_core::Algo::Sssj)
                    .with_priority(1)
                    .with_memory_budget(3 * 1024 * 1024)
            } else {
                let x = g.f32_in(0.0, 30.0);
                QueryRequest::window(a, Rect::from_coords(x, 0.0, x + 8.0, 20.0))
                    .with_memory_budget(512 * 1024)
            }
        })
        .collect();
    assert!(joins >= 2, "the seed must queue at least two joins");
    let report = service.run(requests);
    assert_eq!(report.stats.completed, 96);
    for outcome in &report.outcomes {
        assert!(
            outcome.stats.overtaken <= max_overtakes,
            "request #{} overtaken {} > max {max_overtakes}",
            outcome.request,
            outcome.stats.overtaken
        );
    }
    let deferrals: u64 = report.outcomes.iter().map(|o| o.stats.deferrals).sum();
    assert_eq!(deferrals, report.stats.deferrals);
    assert!(
        deferrals >= joins - 1,
        "{deferrals} deferrals recorded, the head-of-queue rule alone gives {}",
        joins - 1
    );
}

#[test]
fn promotion_roundtrip_is_indistinguishable_from_fresh_registration() {
    forall!(8, |g| {
        // A random item set, grown through live ingestion with a random
        // history (split point, chunk sizes, maintenance mode, thresholds),
        // then quiesced. Every query answer must be identical to a catalog
        // that registered the same items directly — a quiesced dataset has
        // no tiers left, and may not lose, duplicate or distort anything.
        let n = g.usize_in(40, 160);
        let items: Vec<Item> = (0..n as u32)
            .map(|i| {
                let x = g.f32_in(0.0, 80.0);
                let y = g.f32_in(0.0, 80.0);
                Item::new(
                    Rect::from_coords(x, y, x + g.f32_in(0.2, 9.0), y + g.f32_in(0.2, 9.0)),
                    i,
                )
            })
            .collect();
        let peer: Vec<Item> = (0..48u32)
            .map(|i| {
                let (x, y) = ((i % 8) as f32 * 9.0, (i / 8) as f32 * 11.0);
                Item::new(Rect::from_coords(x, y, x + 7.0, y + 8.0), 500_000 + i)
            })
            .collect();

        // Grown path: part of the items as the registration base, the rest
        // appended in random chunks; random maintenance mode; quiesce.
        let mut env = SimEnv::new(MachineConfig::machine3());
        let mut catalog = Catalog::new();
        let peer_grown = catalog.register(&mut env, "peer", &peer).unwrap();
        let mut service = Service::new(
            env,
            catalog,
            ServiceConfig::default()
                .with_workers(2)
                .with_background_maintenance(g.bool_with(0.5)),
        );
        let split = g.usize_in(1, n);
        let config = crate::LiveConfig {
            flush_threshold_bytes: g.usize_in(8, 64) * usj_geom::ITEM_BYTES,
            compact_after_deltas: g.usize_in(0, 4),
        };
        service
            .register_live("grown", &items[..split], config)
            .unwrap();
        let mut rest = &items[split..];
        while !rest.is_empty() {
            let take = g.usize_in(1, rest.len() + 1).min(rest.len());
            service.append_live("grown", &rest[..take]).unwrap();
            rest = &rest[take..];
        }
        let promoted = service.promote_live("grown").unwrap();

        // Oracle path: the same set registered directly (compaction sorts
        // by sweep key, so identity is set-level, not order-level).
        let mut env2 = SimEnv::new(MachineConfig::machine3());
        let mut catalog2 = Catalog::new();
        let peer_fresh = catalog2.register(&mut env2, "peer", &peer).unwrap();
        let fresh = catalog2.register(&mut env2, "fresh", &items).unwrap();
        let oracle = Service::new(env2, catalog2, ServiceConfig::default().with_workers(2));

        let wx = g.f32_in(-5.0, 60.0);
        let wy = g.f32_in(-5.0, 60.0);
        let window = Rect::from_coords(wx, wy, wx + g.f32_in(2.0, 40.0), wy + g.f32_in(2.0, 40.0));
        let requests = |ds: crate::DatasetId, peer: crate::DatasetId| {
            vec![
                QueryRequest::join(ds, peer)
                    .with_algorithm(usj_core::Algo::Sssj)
                    .collecting(),
                QueryRequest::join(ds, peer).collecting(), // Algo::Auto → the §6.3 estimate
                QueryRequest::window(ds, window).collecting(),
            ]
        };
        let got = service.run(requests(promoted, peer_grown));
        let want = oracle.run(requests(fresh, peer_fresh));
        for k in 0..3 {
            let mut g_pairs = got.outcomes[k]
                .pairs
                .clone()
                .expect("quiesced query collected");
            let mut w_pairs = want.outcomes[k]
                .pairs
                .clone()
                .expect("oracle query collected");
            g_pairs.sort_unstable();
            w_pairs.sort_unstable();
            assert_eq!(g_pairs, w_pairs, "query #{k} diverged after quiescing");
        }
    });
}
