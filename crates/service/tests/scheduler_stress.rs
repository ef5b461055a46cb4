//! Lost-wake-up stress for the session scheduler.
//!
//! Workers park on the session condvar and are notified only when a waiter
//! is counted (see `crates/service/src/scheduler.rs`). A missed notify does
//! not corrupt anything — it parks a worker next to work forever — so the
//! gate is liveness: open sessions driven by two trickling submitter
//! threads, sized so the four workers drain the queue, park and are woken
//! thousands of times, must drain. Three shapes: plain selections (the
//! untimed wait), selections with deadline-carrying requests lingering in
//! the queue (the timed wait), and an oversubscribed join mix under a
//! tight budget, queued as one batch so that it is oversubscribed whatever
//! the timing (deferral → park → wake on release). A fourth registers live
//! datasets while the submitters query them: every id a registration has
//! returned must be readable at once, from every worker fork.
//!
//! A hang cannot be unwound out of a scoped worker pool, so a watchdog
//! thread exits the process with a failure if a shape has not drained in
//! [`WATCHDOG`]. Debug builds (tier-1) run a tenth of the release size;
//! `USJ_SEED` picks the traffic, and is printed for replay.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use usj_core::Algo;
use usj_datagen::rng::SmallRng;
use usj_geom::{Item, Rect, ITEM_BYTES};
use usj_io::{MachineConfig, SimEnv};
use usj_service::{
    Catalog, DatasetId, LiveConfig, QueryRequest, QueryStatus, Service, ServiceConfig,
    ServiceReport, Session,
};

const WATCHDOG: Duration = Duration::from_secs(30);
const WORKERS: usize = 4;
const SUBMITTERS: u64 = 2;

/// Selections per shape (joins are a tenth of it in the join mix).
const REQUESTS: u64 = if cfg!(debug_assertions) { 2_000 } else { 20_000 };

fn seed() -> u64 {
    let seed = std::env::var("USJ_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x5eed_cafe);
    println!("scheduler stress seed {seed} (replay: USJ_SEED={seed})");
    seed
}

/// The registered dataset every shape queries: a 20 × 20 grid of boxes.
fn grid() -> Vec<Item> {
    (0..400)
        .map(|i| {
            let (x, y) = ((i % 20) as f32 * 4.0, (i / 20) as f32 * 4.0);
            Item::new(Rect::from_coords(x, y, x + 3.0, y + 3.0), i)
        })
        .collect()
}

fn service_with(config: ServiceConfig) -> (Service, DatasetId) {
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut catalog = Catalog::new();
    let id = catalog.register(&mut env, "grid", &grid()).unwrap();
    (Service::new(env, catalog, config.with_workers(WORKERS)), id)
}

fn service(memory_limit: usize) -> (Service, DatasetId) {
    service_with(ServiceConfig::default().with_memory_limit(memory_limit))
}

/// Runs `f`; exits the process with a failure if it has not returned
/// within [`WATCHDOG`].
fn watched<T>(what: &'static str, f: impl FnOnce() -> T) -> T {
    let (done, hung) = mpsc::channel::<()>();
    let dog = std::thread::spawn(move || {
        if hung.recv_timeout(WATCHDOG) == Err(mpsc::RecvTimeoutError::Timeout) {
            eprintln!("scheduler stress: '{what}' did not drain within {WATCHDOG:?}: lost wake-up");
            std::process::exit(101);
        }
    });
    let out = f();
    drop(done);
    dog.join().unwrap();
    out
}

/// One open session: [`SUBMITTERS`] threads trickle `per_thread` requests
/// each (request `k` of thread `t` comes from `make`), yielding between
/// submissions so the workers keep running dry; then the session drains and
/// must hold no admission bytes.
fn trickle(
    service: &Service,
    seed: u64,
    per_thread: u64,
    make: impl Fn(&mut SmallRng, u64) -> QueryRequest + Sync,
) -> ServiceReport {
    let submitter = |session: &Session<'_>, thread: u64| {
        let mut rng = SmallRng::seed_from_u64(seed ^ thread.wrapping_mul(0xA24B_AED4_963E_E407));
        for k in 0..per_thread {
            session.submit(make(&mut rng, k));
            for _ in 0..rng.gen_range_usize(0, 4) {
                std::thread::yield_now();
            }
        }
    };
    let ((), report) = service.with_session(|session| {
        std::thread::scope(|scope| {
            for thread in 0..SUBMITTERS {
                scope.spawn(move || submitter(session, thread));
            }
        });
        while session.queue_depth() + session.running() > 0 {
            std::thread::yield_now();
        }
        assert_eq!(session.admission_bytes_in_use(), 0, "a drained session holds no grant");
    });
    assert_eq!(report.outcomes.len() as u64, SUBMITTERS * per_thread, "every request resolves");
    report
}

fn window(rng: &mut SmallRng, dataset: DatasetId) -> QueryRequest {
    let (x, y) = (rng.gen_range_f32(0.0, 70.0), rng.gen_range_f32(0.0, 70.0));
    QueryRequest::window(dataset, Rect::from_coords(x, y, x + 9.0, y + 9.0))
}

#[test]
fn trickled_selections_never_strand_a_parked_worker() {
    let seed = seed();
    let (service, dataset) = service(24 * 1024 * 1024);
    let report = watched("plain selections", || {
        trickle(&service, seed, REQUESTS / SUBMITTERS, |rng, _| window(rng, dataset))
    });
    assert_eq!(report.stats.completed, REQUESTS);
}

#[test]
fn queued_deadlines_keep_the_timed_wait_path_live() {
    let seed = seed();
    let limit = 8 * 1024 * 1024;
    let (service, dataset) = service(limit);
    // Every 256th request carries a (far) deadline, the lowest priority and
    // the whole budget: it lingers at the tail of the queue until the
    // service is idle, and while it does every park is the timed one.
    let report = watched("selections beside queued deadlines", || {
        trickle(&service, seed, REQUESTS / SUBMITTERS, |rng, k| {
            let request = window(rng, dataset);
            if k % 256 == 7 {
                request.with_deadline_us(u64::MAX / 2).with_memory_budget(limit)
            } else {
                request.with_priority(1)
            }
        })
    });
    assert_eq!(report.stats.completed, REQUESTS);
}

#[test]
fn oversubscribed_joins_wake_deferred_workers_on_release() {
    let seed = seed();
    // 3 MB joins under a 4 MB budget: one at a time, with room for one
    // selection beside it; every other worker that finds the head blocked
    // parks until a release. The joins come in adjacent pairs and the whole
    // mix is queued before the workers start (`Service::run`), so admitting
    // the first join leaves the second at the head with 1 MB of headroom: a
    // deferral whatever the threads' timing. Trickled arrivals only
    // oversubscribed when two joins happened to overlap in time.
    let (service, dataset) = service(4 * 1024 * 1024);
    let total = REQUESTS / 10;
    let mut rng = SmallRng::seed_from_u64(seed);
    let requests: Vec<QueryRequest> = (0..total)
        .map(|k| {
            if k % 8 < 2 {
                QueryRequest::join(dataset, dataset)
                    .with_algorithm(Algo::Sssj)
                    .with_memory_budget(3 * 1024 * 1024)
            } else {
                window(&mut rng, dataset).with_memory_budget(1024 * 1024)
            }
        })
        .collect();
    let report = watched("oversubscribed join mix", || service.run(requests));
    assert_eq!(report.stats.completed, total);
    assert!(report.stats.deferrals > 0, "the budget was never oversubscribed");
    assert!(report.stats.peak_admitted_bytes <= 4 * 1024 * 1024);
}

#[test]
fn registrations_racing_queries_are_readable_at_once() {
    const LIVE: usize = 8;
    let seed = seed();
    let config = ServiceConfig::default().with_background_maintenance(true);
    let (service, sealed) = service_with(config);
    // Scattered boxes, a few flushes and a compaction per dataset.
    let mut rng = SmallRng::seed_from_u64(seed);
    let data: Vec<Vec<Item>> = (0..LIVE as u32)
        .map(|k| {
            (0..600)
                .map(|i| {
                    let (x, y) = (rng.gen_range_f32(0.0, 78.0), rng.gen_range_f32(0.0, 78.0));
                    Item::new(Rect::from_coords(x, y, x + 2.0, y + 2.0), 10_000 * (k + 1) + i)
                })
                .collect()
        })
        .collect();
    let config = LiveConfig {
        flush_threshold_bytes: 96 * ITEM_BYTES,
        compact_after_deltas: 2,
    };
    let returned = Mutex::new(Vec::<DatasetId>::new());
    let registered = AtomicBool::new(false);
    let rounds = AtomicU64::new(0);
    let report = watched("registrations beside queries", || {
        let ((), report) = service.with_session(|session| {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for (k, items) in data.iter().enumerate() {
                        let name = format!("live{k}");
                        let id = service.register_live(&name, &items[..200], config).unwrap();
                        returned.lock().unwrap().push(id);
                        // Let queries naming the new id run before the
                        // appends, whose flushes publish pages of their own:
                        // a round that started after the push names it, and
                        // an idle session has run it.
                        let pushed = rounds.load(Ordering::Acquire);
                        while rounds.load(Ordering::Acquire) <= pushed + SUBMITTERS {
                            std::thread::yield_now();
                        }
                        let until = Instant::now() + Duration::from_millis(100);
                        while session.queue_depth() + session.running() > 0 && Instant::now() < until
                        {
                            std::thread::yield_now();
                        }
                        for chunk in items[200..].chunks(25) {
                            service.append_live(&name, chunk).unwrap();
                            std::thread::yield_now();
                        }
                    }
                    registered.store(true, Ordering::Release);
                });
                for thread in 0..SUBMITTERS {
                    let (returned, registered, rounds) = (&returned, &registered, &rounds);
                    scope.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(seed ^ (thread + 1));
                        let mut done = 0;
                        while done < 50 || !registered.load(Ordering::Acquire) {
                            // Back-pressure: a short queue keeps the rounds
                            // close to the registrations.
                            while session.queue_depth() > 32 {
                                std::thread::yield_now();
                            }
                            let live = returned.lock().unwrap().clone();
                            session.submit(window(&mut rng, sealed));
                            for &id in &live {
                                session.submit(window(&mut rng, id));
                            }
                            if let Some(&newest) = live.last().filter(|_| done % 4 == 0) {
                                session.submit(QueryRequest::join(newest, sealed));
                            }
                            done += 1;
                            rounds.fetch_add(1, Ordering::AcqRel);
                            std::thread::yield_now();
                        }
                    });
                }
            });
            while session.queue_depth() + session.running() > 0 {
                std::thread::yield_now();
            }
        });
        report
    });
    for outcome in &report.outcomes {
        assert!(
            matches!(outcome.status, QueryStatus::Completed(_)),
            "request #{}: {:?}",
            outcome.request,
            outcome.status
        );
    }
    let live = returned.into_inner().unwrap();
    assert_eq!(live.len(), LIVE);
    let peer = grid();
    for (k, (&id, items)) in live.iter().zip(&data).enumerate() {
        service.quiesce_live(&format!("live{k}")).unwrap();
        let report = service.run(vec![QueryRequest::join(id, sealed).collecting()]);
        let mut got = report.outcomes[0].pairs.clone().expect("a completed, collecting join");
        got.sort_unstable();
        let mut want: Vec<(u32, u32)> = items
            .iter()
            .flat_map(|a| peer.iter().filter(|b| a.rect.intersects(&b.rect)).map(|b| (a.id, b.id)))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "live{k} diverged from brute force after quiescing");
    }
}
