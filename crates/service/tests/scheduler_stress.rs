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
//! tight budget (deferral → park → wake on release).
//!
//! A hang cannot be unwound out of a scoped worker pool, so a watchdog
//! thread exits the process with a failure if a shape has not drained in
//! [`WATCHDOG`]. Debug builds (tier-1) run a tenth of the release size;
//! `USJ_SEED` picks the traffic, and is printed for replay.

use std::sync::mpsc;
use std::time::Duration;

use usj_core::Algo;
use usj_datagen::rng::SmallRng;
use usj_geom::{Item, Rect};
use usj_io::{MachineConfig, SimEnv};
use usj_service::{
    Catalog, DatasetId, QueryRequest, Service, ServiceConfig, ServiceReport, Session,
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

fn service(memory_limit: usize) -> (Service, DatasetId) {
    let items: Vec<Item> = (0..400)
        .map(|i| {
            let (x, y) = ((i % 20) as f32 * 4.0, (i / 20) as f32 * 4.0);
            Item::new(Rect::from_coords(x, y, x + 3.0, y + 3.0), i)
        })
        .collect();
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut catalog = Catalog::new();
    let id = catalog.register(&mut env, "grid", &items).unwrap();
    let config = ServiceConfig::default().with_workers(WORKERS).with_memory_limit(memory_limit);
    (Service::new(env, catalog, config), id)
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
    // parks until a release.
    let (service, dataset) = service(4 * 1024 * 1024);
    let total = REQUESTS / 10;
    let report = watched("oversubscribed join mix", || {
        trickle(&service, seed, total / SUBMITTERS, |rng, k| {
            if k % 4 == 0 {
                QueryRequest::join(dataset, dataset)
                    .with_algorithm(Algo::Sssj)
                    .with_memory_budget(3 * 1024 * 1024)
            } else {
                window(rng, dataset).with_memory_budget(1024 * 1024)
            }
        })
    });
    assert_eq!(report.stats.completed, total);
    assert!(report.stats.deferrals > 0, "the budget was never oversubscribed");
    assert!(report.stats.peak_admitted_bytes <= 4 * 1024 * 1024);
}
