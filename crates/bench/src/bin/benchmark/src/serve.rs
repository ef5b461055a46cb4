//! `serve_select` and `serve_mixed`: the query service under generated
//! traffic, closed loop for capacity and open loop for latency.
//!
//! The open loop submits on a seeded Poisson schedule whatever the service
//! does, times every request from the instant it was *due*, sends late
//! requests at once and never drops one, and reports how late the
//! generator itself ran.

use std::time::{Duration, Instant};

use usj_datagen::{Preset, WorkloadSpec};
use usj_geom::{Item, Rect};
use usj_io::{CostModel, CpuCounter, IoStats, MachineConfig, SimEnv};
use usj_service::{
    CancelToken, Catalog, DatasetId, QueryOutcome, QueryRequest, QueryStatus, Service,
    ServiceConfig, ServiceReport, ServiceStats,
};

use crate::common::{rounds_within, timed, us, window_probe, Ctx, InputPins, Report, Setups};
use crate::gen::{self, ReqKind, ReqSpec, Traffic};
use crate::oracle;
use crate::spans::{SpanId, Tracer};
use crate::stats::{fast_quartile, median, median_binned, percentile};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeWorkload {
    /// Selections only, 16 MB budget: the scheduler and the R-tree are the cost.
    Select,
    /// 10 % joins under a 5 MB budget: queueing behind joins is the cost.
    Mixed,
}

/// Open-loop rate of `serve_select`, requests per second.
const SELECT_RATE: f64 = 5_000.0;
/// The frozen rate ladder of `serve_mixed`; [`MIXED_RATE`] is the rung the
/// end-to-end latency is read at.
const MIXED_LADDER: [f64; 4] = [300.0, 600.0, 1_800.0, 2_400.0];
const MIXED_RATE: f64 = MIXED_LADDER[1];
/// Latency limits (from the due instant) and the drain limit.
const SELECT_LIMIT_US: f64 = 50_000.0;
const JOIN_LIMIT_US: f64 = 250_000.0;
const DRAIN_LIMIT_S: f64 = 1.0;
/// One request in this many is collected and checked against brute force.
const VERIFY_EVERY: usize = 100;
/// Closed waves whose charged work `sim_s` and `peak_mem_bytes` read.
const HEAD_WAVES: usize = 6;
/// Fewest waves of a closed pass of the traced run: the cold one and two
/// warm ones (one warm wave alone read a worker scaling of 1.05 to 2.08).
const TRACED_WAVES: usize = 3;
/// Share of `--seconds` the closed phase of the untraced run gets, whose
/// waves every gated timing is read from; the open loop, which decides what
/// counts as failed, gets the rest.
const CLOSED_SHARE: f64 = 0.7;
/// Length of one open-loop window: backlog growth and the latency limit
/// are judged window by window.
const OPEN_WINDOW_S: f64 = 0.5;

/// The catalog is frozen: the same generated datasets whatever `--seed`,
/// which decides the traffic (mix, windows, join positions, arrivals).
/// NY at scale 20 is small enough that where its clusters fall moves the
/// join's cost by a tenth from seed to seed (31 000–44 000 pairs), and that
/// was most of what ten seeds of `serve_mixed` disagreed about.
const CATALOG_SEED: u64 = 42;

fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

struct Fixture {
    roads: Vec<Item>,
    hydro: Vec<Item>,
    region: Rect,
    roads_id: DatasetId,
    hydro_id: DatasetId,
    /// `None` only while a fresh service is being built from its parts.
    service: Option<Service>,
    config: ServiceConfig,
    gen_ms: f64,
    register_ms: f64,
}

impl Fixture {
    fn service(&self) -> &Service {
        self.service.as_ref().expect("fixture holds a service")
    }

    /// Replaces the service by a fresh one over the same registered catalog
    /// (empty plan cache, zeroed metrics), optionally reconfigured.
    fn fresh_service(&mut self, config: ServiceConfig) {
        let (env, catalog) = self
            .service
            .take()
            .expect("fixture holds a service")
            .into_parts();
        self.service = Some(Service::new(env, catalog, config));
    }

    fn request(&self, spec: &ReqSpec, collect: bool) -> QueryRequest {
        let mut request = match spec.kind {
            ReqKind::Window(w) => QueryRequest::window(self.roads_id, w),
            ReqKind::Point(p) => QueryRequest::point(self.roads_id, p),
            ReqKind::Join(algo) => {
                QueryRequest::join(self.roads_id, self.hydro_id).with_algorithm(algo)
            }
        }
        .with_priority(spec.priority);
        if let Some(limit) = spec.limit {
            request = request.with_limit(limit);
        }
        if spec.cancelled {
            let token = CancelToken::new();
            token.cancel();
            request = request.with_cancel(token);
        }
        if collect {
            request = request.collecting();
        }
        request
    }

    fn requests(&self, specs: &[ReqSpec]) -> Vec<QueryRequest> {
        specs
            .iter()
            .enumerate()
            .map(|(i, s)| self.request(s, verified(i, s)))
            .collect()
    }
}

fn verified(index: usize, spec: &ReqSpec) -> bool {
    index.is_multiple_of(VERIFY_EVERY) && !spec.is_join() && !spec.cancelled
}

fn build(ctx: &Ctx, which: ServeWorkload, tr: &mut Tracer) -> Fixture {
    let scale = ctx.pick(20, 400);
    let span = tr.begin("datagen.generate");
    let (w, gen_ns) = timed(|| {
        WorkloadSpec::preset(Preset::NY)
            .with_scale(scale)
            .generate(CATALOG_SEED)
    });
    tr.end(span);

    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut catalog = Catalog::new();
    let span = tr.begin("service.register");
    let ((roads_id, hydro_id), register_ns) = timed(|| {
        env.unaccounted(|env| {
            (
                catalog
                    .register(env, "roads", &w.roads)
                    .expect("register roads"),
                catalog
                    .register(env, "hydro", &w.hydro)
                    .expect("register hydro"),
            )
        })
    });
    tr.end(span);
    // Mixed: two cold joins (3.08 MB estimated each) cannot co-run, a
    // selection (1 MB) can overtake one. Not 4 MB: there the warm PBSM and
    // ST grants sum to 3.99 MB, so whether two joins co-run hinges on a
    // selection holding its 1 MB at that instant and capacity turns chaotic
    // (spread 20-35 %). The tiny joins are floored at 2 MB each.
    let memory_kb = match which {
        ServeWorkload::Select => 16 * 1024,
        ServeWorkload::Mixed => ctx.pick(5 * 1024, 2_560),
    };
    let config = ServiceConfig::default()
        .with_workers(workers())
        .with_memory_limit(memory_kb * 1024);
    let span = tr.begin("service.new");
    let service = Service::new(env, catalog, config.clone());
    tr.end(span);
    Fixture {
        roads: w.roads,
        hydro: w.hydro,
        region: w.region,
        roads_id,
        hydro_id,
        service: Some(service),
        config,
        gen_ms: gen_ns / 1e6,
        register_ms: register_ns / 1e6,
    }
}

/// Checks how one request resolved; `Err` describes a failed operation.
fn check_outcome(
    fx: &Fixture,
    spec: &ReqSpec,
    outcome: &QueryOutcome,
    join_pairs: u64,
) -> Result<(), String> {
    let result = match &outcome.status {
        QueryStatus::Cancelled(None) if spec.cancelled => return Ok(()),
        QueryStatus::Completed(result) if !spec.cancelled => result,
        other => return Err(format!("{:?} resolved as {other:?}", spec.kind)),
    };
    let matches = match spec.kind {
        ReqKind::Join(_) => {
            return if result.pairs == join_pairs {
                Ok(())
            } else {
                Err(format!(
                    "{:?} found {} pairs, oracle {join_pairs}",
                    spec.kind, result.pairs
                ))
            }
        }
        ReqKind::Window(_) | ReqKind::Point(_) if outcome.pairs.is_none() => return Ok(()),
        ReqKind::Window(w) => oracle::window_ids(&fx.roads, &w),
        ReqKind::Point(p) => oracle::point_ids(&fx.roads, p),
    };
    let mut got: Vec<u32> = outcome.pairs.iter().flatten().map(|&(id, _)| id).collect();
    got.sort_unstable();
    let ok = match spec.limit {
        // A LIMIT answer is any `limit` of the matches.
        Some(limit) => {
            got.len() == matches.len().min(limit as usize)
                && got.iter().all(|id| matches.binary_search(id).is_ok())
        }
        None => got == matches,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{:?} returned {} ids, brute force {}",
            spec.kind,
            got.len(),
            matches.len()
        ))
    }
}

fn check_outcomes(
    fx: &Fixture,
    specs: &[ReqSpec],
    outcomes: &[QueryOutcome],
    join_pairs: u64,
    report: &mut Report,
) {
    report.attempted += specs.len() as u64;
    report.check(outcomes.len() == specs.len(), || {
        format!("{} of {} requests resolved", outcomes.len(), specs.len())
    });
    for (spec, outcome) in specs.iter().zip(outcomes) {
        if let Err(e) = check_outcome(fx, spec, outcome, join_pairs) {
            report.failed += 1;
            report.problems.push(e);
        }
    }
}

/// What traffic is driven: the seed, the join share, the requests per
/// closed wave, the oracle's count.
#[derive(Clone, Copy)]
struct Drive {
    seed: u64,
    join_share: f64,
    wave: usize,
    join_pairs: u64,
}

/// Closed-loop waves: `Service::run` on one seeded batch at a time, so only
/// one wave is ever outstanding (the pending queue's sorted insert is O(n)).
struct Waves {
    /// Wall seconds per wave.
    wall_s: Vec<f64>,
    /// Per wave, the service-side execution time (latency minus queue
    /// wait), µs, of the operation the workload's CPU goes to: the median
    /// selection, or with a join share the mean of the five algorithms'
    /// median joins.
    op_us: Vec<f64>,
    wave: usize,
    deferrals: u64,
    submitted: u64,
    /// Roll-up of wave 0, whose content depends on the seed alone.
    first: ServiceStats,
    /// Charged work and largest measured query peak of the first
    /// [`HEAD_WAVES`] waves: what `sim_s` and `peak_mem_bytes` read, exact
    /// for a seed and much steadier from seed to seed than wave 0 alone.
    head_io: IoStats,
    head_cpu: CpuCounter,
    head_peak_bytes: usize,
}

impl Waves {
    /// The waves after the first, which warms the plan cache and the
    /// workers' caches.
    fn warm<'a>(&self, per_wave: &'a [f64]) -> &'a [f64] {
        &per_wave[usize::from(per_wave.len() > 1)..]
    }

    /// Requests per second of a warm wave that took the fast-quartile time.
    fn rps(&self) -> f64 {
        self.wave as f64 / fast_quartile(self.warm(&self.wall_s))
    }

    /// Execution time of the workload's operation, µs: the fast quartile
    /// over the warm waves of each wave's median.
    fn op_us(&self) -> f64 {
        fast_quartile(self.warm(&self.op_us))
    }
}

impl Drive {
    /// Waves until `budget` is used, `at_least` of them; `between` runs
    /// after each.
    fn closed_waves(
        &self,
        fx: &Fixture,
        at_least: usize,
        budget: Duration,
        tr: &mut Tracer,
        report: &mut Report,
        between: &mut dyn FnMut(),
    ) -> Waves {
        let mut out = Waves {
            wall_s: Vec::new(),
            op_us: Vec::new(),
            wave: self.wave,
            deferrals: 0,
            submitted: 0,
            first: ServiceStats::default(),
            head_io: IoStats::default(),
            head_cpu: CpuCounter::default(),
            head_peak_bytes: 0,
        };
        let phase = tr.begin("phase.closed");
        rounds_within(budget, at_least, |k| {
            let specs =
                Traffic::new(self.seed, k as u64, fx.region, self.join_share).batch(self.wave);
            let requests = fx.requests(&specs);
            let op = tr.begin_op("service.run_wave");
            let t = Instant::now();
            let run = fx.service().run(requests);
            out.wall_s.push(t.elapsed().as_secs_f64());
            attach_traces(tr, op, &run.outcomes);
            tr.end(op);
            out.deferrals += run.stats.deferrals;
            out.submitted += run.stats.submitted;
            check_outcomes(fx, &specs, &run.outcomes, self.join_pairs, report);
            let samples: Vec<Sample> = specs
                .iter()
                .zip(&run.outcomes)
                .map(|(spec, outcome)| Sample::of(spec, 0.0, outcome))
                .collect();
            out.op_us.push(if self.join_share > 0.0 {
                join_exec_us(&samples).0
            } else {
                select_exec_us(&samples)
            });
            if k < HEAD_WAVES {
                out.head_io.merge(&run.stats.io);
                out.head_cpu.merge(&run.stats.cpu);
                out.head_peak_bytes = out.head_peak_bytes.max(run.stats.peak_query_bytes);
            }
            if k == 0 {
                out.first = run.stats;
            }
            between();
        });
        tr.end(phase);
        out
    }

    /// One open-loop run at `rate` for `seconds`, as consecutive
    /// [`OPEN_WINDOW_S`] windows.
    fn open_loop(
        &self,
        fx: &Fixture,
        lane: u64,
        rate: f64,
        seconds: f64,
        tr: &mut Tracer,
        report: &mut Report,
    ) -> OpenRun {
        let windows = (seconds / OPEN_WINDOW_S).round().max(1.0) as u64;
        let mut out = OpenRun::default();
        let phase = tr.begin("phase.open");
        for w in 0..windows {
            let lane = lane * 1_000 + w;
            out.absorb(self.open_window(fx, lane, rate, seconds / windows as f64, tr, report));
        }
        tr.end(phase);
        out
    }

    /// One uninterrupted open-loop window on the fixture's service.
    fn open_window(
        &self,
        fx: &Fixture,
        lane: u64,
        rate: f64,
        seconds: f64,
        tr: &mut Tracer,
        report: &mut Report,
    ) -> Window {
        let due = gen::poisson_arrivals(self.seed, lane, rate, seconds);
        let specs =
            Traffic::new(self.seed, 1_000_000 + lane, fx.region, self.join_share).batch(due.len());
        let requests = fx.requests(&specs);
        let mut late_us = Vec::with_capacity(due.len());
        let mut ops = Vec::with_capacity(if tr.is_on() { due.len() } else { 0 });
        let ((end_depth, drain_s), run) = fx.service().with_session(|session| {
            let start = Instant::now();
            for (request, &due_ns) in requests.into_iter().zip(&due) {
                // Sleep until the due instant; a request already late goes
                // out at once.
                let now = loop {
                    let now = start.elapsed().as_nanos() as u64;
                    if now >= due_ns {
                        break now;
                    }
                    std::thread::sleep(Duration::from_nanos(due_ns - now));
                };
                late_us.push((now - due_ns) as f64 / 1e3);
                let op = tr.begin_op("session.submit");
                session.submit(request);
                tr.end(op);
                if tr.is_on() {
                    ops.push(op);
                }
            }
            let end_depth = session.queue_depth() + session.running();
            while session.queue_depth() + session.running() > 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
            let last_due = due.last().copied().unwrap_or(0);
            let drain_s = (start.elapsed().as_nanos() as u64).saturating_sub(last_due) as f64 / 1e9;
            (end_depth, drain_s)
        });
        for (op, outcome) in ops.iter().zip(&run.outcomes) {
            if let Some(trace) = &outcome.stats.trace {
                tr.attach(*op, 1 + (outcome.request % 8) as u32, trace);
            }
        }
        check_outcomes(fx, &specs, &run.outcomes, self.join_pairs, report);
        Window {
            specs,
            late_us,
            end_depth,
            drain_s,
            run,
        }
    }
}

fn attach_traces(tr: &mut Tracer, parent: SpanId, outcomes: &[QueryOutcome]) {
    if !tr.is_on() {
        return;
    }
    for (i, outcome) in outcomes.iter().enumerate() {
        if let Some(trace) = &outcome.stats.trace {
            tr.attach(parent, 1 + (i % 8) as u32, trace);
        }
    }
}

/// What one open-loop window observed.
struct Window {
    specs: Vec<ReqSpec>,
    late_us: Vec<f64>,
    end_depth: usize,
    drain_s: f64,
    run: ServiceReport,
}

/// One request of an open-loop run.
struct Sample {
    spec: ReqSpec,
    /// Latency from the due instant (generator lateness + service latency).
    latency_us: f64,
    queue_wait_us: f64,
    exec_us: f64,
    completed: bool,
}

impl Sample {
    /// `late_us`: how late the generator submitted it (0 in a closed wave).
    fn of(spec: &ReqSpec, late_us: f64, outcome: &QueryOutcome) -> Sample {
        let q = &outcome.stats;
        Sample {
            spec: *spec,
            latency_us: late_us + us(q.latency),
            queue_wait_us: us(q.queue_wait),
            exec_us: us(q.latency.saturating_sub(q.queue_wait)),
            completed: outcome.is_completed(),
        }
    }
}

/// Median service-side execution time of a selection, µs. The service
/// reports whole microseconds, hence the grouped-data median.
fn select_exec_us(samples: &[Sample]) -> f64 {
    let exec: Vec<f64> = samples
        .iter()
        .filter(|s| !s.spec.is_join() && s.completed)
        .map(|s| s.exec_us)
        .collect();
    median_binned(&exec)
}

/// Service-side execution time of a join, µs, and the joins it is from. The
/// joins rotate five algorithms of different cost (8–18 ms), so the median
/// over all of them sits between two modes and jumps with the mix; this is
/// the mean of the per-algorithm medians.
fn join_exec_us(samples: &[Sample]) -> (f64, usize) {
    let mut joins = 0;
    let medians: Vec<f64> = gen::JOIN_ROTATION
        .iter()
        .filter_map(|algo| {
            let exec: Vec<f64> = samples
                .iter()
                .filter(|s| s.completed && s.spec.kind == ReqKind::Join(*algo))
                .map(|s| s.exec_us)
                .collect();
            joins += exec.len();
            (!exec.is_empty()).then(|| median(&exec))
        })
        .collect();
    (medians.iter().sum::<f64>() / medians.len() as f64, joins)
}

/// An open-loop run: its windows pooled.
#[derive(Default)]
struct OpenRun {
    samples: Vec<Sample>,
    late_us: Vec<f64>,
    /// Generator lateness p99 of each window.
    window_late_p99_us: Vec<f64>,
    /// Windows run, and how many of them missed the latency limit.
    windows: usize,
    windows_missed: usize,
    /// Requests queued or running when a window's last arrival had been
    /// sent (largest over the windows), and the longest drain after it.
    end_depth: usize,
    drain_s: f64,
    max_queue_depth: usize,
    peak_admitted_bytes: usize,
    submitted: u64,
    deferrals: u64,
    overtaken: u64,
    plan_cache_hits: u64,
    plan_cache_lookups: u64,
    traced_queries: usize,
    trace_spans: usize,
    trace_dropped: u64,
    /// Folded over the windows: equal between two runs of one schedule.
    replay_digest: u64,
}

impl OpenRun {
    fn absorb(&mut self, w: Window) {
        self.end_depth = self.end_depth.max(w.end_depth);
        self.drain_s = self.drain_s.max(w.drain_s);
        let stats = &w.run.stats;
        self.max_queue_depth = self.max_queue_depth.max(stats.max_queue_depth);
        self.peak_admitted_bytes = self.peak_admitted_bytes.max(stats.peak_admitted_bytes);
        self.submitted += stats.submitted;
        self.deferrals += stats.deferrals;
        self.plan_cache_hits += stats.plan_cache_hits;
        self.plan_cache_lookups += stats.plan_cache_hits + stats.plan_cache_misses;
        self.replay_digest = self.replay_digest.rotate_left(7) ^ stats.replay_digest();
        for ((spec, late), outcome) in w.specs.iter().zip(&w.late_us).zip(&w.run.outcomes) {
            let q = &outcome.stats;
            self.overtaken += q.overtaken;
            if let Some(trace) = &q.trace {
                self.traced_queries += 1;
                self.trace_spans += trace.span_count();
                self.trace_dropped += trace.dropped_events;
            }
            self.samples.push(Sample::of(spec, *late, outcome));
        }
        self.late_us.extend(&w.late_us);
        self.window_late_p99_us.push(percentile(&w.late_us, 0.99));
        let window = &self.samples[self.samples.len() - w.specs.len()..];
        // The window's own verdict on the latency limit: both p99s from the
        // due instant, the drain, and no backlog growth — the window did
        // not end with more than a fifth of its arrivals still queued or
        // running (a couple of joins in flight is not a backlog).
        let p99_within = |joins: bool, limit_us: f64| {
            let latencies: Vec<f64> = window
                .iter()
                .filter(|s| s.spec.is_join() == joins && s.completed)
                .map(|s| s.latency_us)
                .collect();
            latencies.is_empty() || percentile(&latencies, 0.99) <= limit_us
        };
        let backlog_grew = w.end_depth > 8 && 5 * w.end_depth > w.specs.len();
        let met = p99_within(false, SELECT_LIMIT_US)
            && p99_within(true, JOIN_LIMIT_US)
            && w.drain_s <= DRAIN_LIMIT_S
            && !backlog_grew;
        self.windows += 1;
        self.windows_missed += usize::from(!met);
    }

    fn join_exec_us(&self) -> (f64, usize) {
        join_exec_us(&self.samples)
    }

    fn pick(&self, joins: bool, f: fn(&Sample) -> f64) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.spec.is_join() == joins && s.completed)
            .map(f)
            .collect()
    }

    fn latencies(&self, joins: bool) -> Vec<f64> {
        self.pick(joins, |s| s.latency_us)
    }

    /// How late the generator ran: the lateness p99 of the typical window
    /// (the median over the windows, so that one hypervisor stall, which
    /// every latency from the due instant already contains, does not
    /// condemn the run).
    fn gen_late_p99_us(&self) -> f64 {
        median(&self.window_late_p99_us)
    }

    /// Validity of the run as an open loop at `rate`: lateness p99 may not
    /// exceed the schedule's own p99 inter-arrival gap, ln 100 mean gaps
    /// (0.9 ms at 5 000 req/s, 7.7 ms at 600). Past that the generator has
    /// bent the arrival process more than the process bends itself, and
    /// the latencies from the due instant measure it, not the service.
    /// (The issue's 20 % of the selection p50 is 3 µs; `sleep` alone
    /// returns 70 µs late here, and up to a 3 ms scheduler slice late while
    /// both vCPUs run joins.) An invalid run is reported, not failed: it is
    /// the host's doing, and nothing gated is timed from the due instant.
    fn report_generator(&self, rate: f64) {
        let (late, limit) = (self.gen_late_p99_us(), 100f64.ln() * 1e6 / rate);
        if late > limit {
            eprintln!(
                "  INVALID OPEN LOOP: generator lateness p99 {late:.0} us, limit {limit:.0} us at {rate} req/s"
            );
        }
    }

    /// The latency limit is met when it is met in three windows out of
    /// four: a rate the service cannot sustain misses in every window,
    /// while a hypervisor stall (one run in fifty has one of 50 ms or more)
    /// or a pile-up behind three close joins spoils one or two.
    fn meets_limit(&self) -> bool {
        4 * self.windows_missed <= self.windows
    }

    /// Failed by latency: when the run misses its limit, the requests
    /// beyond their limit count as failed.
    fn limit_misses(&self) -> u64 {
        if self.meets_limit() {
            return 0;
        }
        let limit = |s: &Sample| {
            if s.spec.is_join() {
                JOIN_LIMIT_US
            } else {
                SELECT_LIMIT_US
            }
        };
        self.samples
            .iter()
            .filter(|s| s.completed && s.latency_us > limit(s))
            .count() as u64
    }
}

pub fn run(ctx: &mut Ctx, which: ServeWorkload) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::new(ctx.trace);
    let workload = tr.begin(match which {
        ServeWorkload::Select => "workload.serve_select",
        ServeWorkload::Mixed => "workload.serve_mixed",
    });
    let (mut fx, mut setups) = Setups::begin(&mut tr, |tr| build(ctx, which, tr));
    let span = tr.begin("oracle.list_sweep");
    let join_pairs = oracle::join_digest(&fx.roads, &fx.hydro).count;
    tr.end(span);
    report.pins = InputPins {
        left_items: fx.roads.len() as u64,
        right_items: fx.hydro.len() as u64,
        input_digest: gen::input_digest(&[&fx.roads, &fx.hydro]),
        oracle_pairs: join_pairs,
    };
    if ctx.trace {
        traced_run(ctx, which, &mut fx, join_pairs, &mut tr, &mut report);
    } else {
        let shape = Shape::of(ctx, which);
        let drive = Drive {
            seed: ctx.seed,
            join_share: shape.join_share,
            wave: shape.wave,
            join_pairs,
        };
        let closed = drive.closed_waves(
            &fx,
            HEAD_WAVES,
            shape.closed_budget(CLOSED_SHARE),
            &mut tr,
            &mut report,
            &mut || setups.again(|| build(ctx, which, &mut Tracer::new(false))),
        );
        fx.fresh_service(fx.config.clone());
        let open_s = (0.95 - CLOSED_SHARE) * ctx.seconds;
        let open = drive.open_loop(&fx, 0, shape.rate, open_s, &mut tr, &mut report);
        report.failed += open.limit_misses();
        open.report_generator(shape.rate);
        let selections = open.latencies(false);
        // The end of the run has its set-up sample too.
        setups.again(|| build(ctx, which, &mut Tracer::new(false)));
        report
            .e2e
            .set("setup_s", setups.setup_s(), setups.seconds.len());
        report
            .e2e
            .set("throughput_per_s", closed.rps(), closed.submitted as usize);
        report
            .e2e
            .set("op_p50_us", closed.op_us(), closed.op_us.len());
        let cost =
            CostModel::new(MachineConfig::machine3()).observed(&closed.head_io, &closed.head_cpu);
        report.e2e.set("sim_s", cost.total_secs(), HEAD_WAVES);
        report
            .e2e
            .set("peak_mem_bytes", closed.head_peak_bytes as f64, HEAD_WAVES);
        eprintln!(
            "  open loop at {} req/s: select p50 {:.1} p99 {:.1} us from due, generator late p50 {:.1} p99 {:.1} us \
             (typical window {:.1}), end depth {}, drain {:.3} s",
            shape.rate,
            median(&selections),
            percentile(&selections, 0.99),
            percentile(&open.late_us, 0.5),
            percentile(&open.late_us, 0.99),
            open.gen_late_p99_us(),
            open.end_depth,
            open.drain_s
        );
    }
    tr.end(workload);
    ctx.tracer = tr;
    report
}

/// The traffic shape of a serve workload at the run's size.
struct Shape {
    join_share: f64,
    /// Open-loop rate the end-to-end latency is read at.
    rate: f64,
    /// Requests per closed wave.
    wave: usize,
    seconds: f64,
}

impl Shape {
    fn of(ctx: &Ctx, which: ServeWorkload) -> Shape {
        match which {
            ServeWorkload::Select => Shape {
                join_share: 0.0,
                rate: SELECT_RATE,
                wave: ctx.pick(2_000, 200),
                seconds: ctx.seconds,
            },
            ServeWorkload::Mixed => Shape {
                // The tiny burst is join-heavy so that it is sure to defer.
                join_share: ctx.pick(0.1, 0.5),
                rate: MIXED_RATE,
                wave: ctx.pick(800, 100),
                seconds: ctx.seconds,
            },
        }
    }

    fn closed_budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(share * self.seconds)
    }
}

/// `--trace 1`: the same phases untraced then traced, the ladder and
/// worker-scaling passes, and the R-tree probe.
fn traced_run(
    ctx: &mut Ctx,
    which: ServeWorkload,
    fx: &mut Fixture,
    join_pairs: u64,
    tr: &mut Tracer,
    report: &mut Report,
) {
    let (s, seed) = (ctx.seconds, ctx.seed);
    // Length of an open-loop run whose latencies are read.
    // The whole traced run fits `--seconds`: select has two such runs and
    // three closed passes, mixed three and two short rungs besides.
    let read_s = match which {
        ServeWorkload::Select => 0.25 * s,
        ServeWorkload::Mixed => 0.17 * s,
    };
    let closed_share = 0.08;
    let mut off = Tracer::new(false);
    let shape = Shape::of(ctx, which);
    let drive = Drive {
        seed,
        join_share: shape.join_share,
        wave: shape.wave,
        join_pairs,
    };

    // Untraced passes.
    let span = tr.begin("phase.untraced_pass");
    let plain_closed = drive.closed_waves(
        fx,
        TRACED_WAVES,
        shape.closed_budget(closed_share),
        &mut off,
        report,
        &mut || {},
    );
    let mut sustained = 0.0;
    let (mut deferrals, mut submitted) = (plain_closed.deferrals, plain_closed.submitted);
    let mut plain_open = None;
    match which {
        ServeWorkload::Select => {
            fx.fresh_service(fx.config.clone());
            plain_open = Some(drive.open_loop(fx, 0, shape.rate, read_s, &mut off, report));
        }
        ServeWorkload::Mixed => {
            // The ladder, each rung on a fresh service. Limit misses above
            // the sustained rate are the finding, not failed operations.
            let mut passing = true;
            for (lane, rung) in MIXED_LADDER.into_iter().enumerate() {
                fx.fresh_service(fx.config.clone());
                // A rung above the reading rate fails by backlog at once.
                let rung_s = if rung <= MIXED_RATE { read_s } else { 0.05 * s };
                let open = drive.open_loop(fx, lane as u64, rung, rung_s, &mut off, report);
                let ok = open.meets_limit();
                eprintln!(
                    "  rung {rung:>6} req/s: select p99 {:>9.1} us, join p99 {:>9.1} us, drain {:.3} s, \
                     end depth {}, deferrals {}, {} of {} windows miss -> {}",
                    percentile(&open.latencies(false), 0.99),
                    percentile(&open.latencies(true), 0.99),
                    open.drain_s,
                    open.end_depth,
                    open.deferrals,
                    open.windows_missed,
                    open.windows,
                    if ok { "meets the limit" } else { "misses the limit" }
                );
                passing &= ok;
                if passing {
                    sustained = rung;
                }
                deferrals += open.deferrals;
                submitted += open.submitted;
                if rung == MIXED_RATE {
                    report.failed += open.limit_misses();
                    plain_open = Some(open);
                }
            }
        }
    }
    tr.end(span);
    let plain_open = plain_open.expect("the end-to-end rate was run");

    // Traced passes: same waves, same schedule, tracing on.
    let traced_service = |fx: &mut Fixture, tr: &Tracer| {
        fx.fresh_service(fx.config.clone());
        fx.service().set_clock(tr.clock());
        fx.service().set_tracing(true);
    };
    traced_service(fx, tr);
    let traced_closed = drive.closed_waves(
        fx,
        TRACED_WAVES,
        shape.closed_budget(closed_share),
        tr,
        report,
        &mut || {},
    );
    traced_service(fx, tr);
    let lane = MIXED_LADDER
        .iter()
        .position(|r| *r == shape.rate)
        .unwrap_or(0) as u64;
    let traced_open = drive.open_loop(fx, lane, shape.rate, read_s, tr, report);
    let metrics = fx.service().metrics_snapshot();
    report.check(
        plain_open.replay_digest == traced_open.replay_digest
            && plain_closed.first.replay_digest() == traced_closed.first.replay_digest(),
        || "replay digest differs between the untraced and the traced run".to_string(),
    );
    // The service's own registry must have seen every request resolve.
    let resolved = ["queries.completed", "queries.cancelled", "queries.failed"]
        .iter()
        .map(|c| metrics.counter(c).unwrap_or(0))
        .sum::<u64>();
    report.check(
        metrics.counter("queries.submitted") == Some(traced_open.submitted)
            && resolved == traced_open.submitted,
        || {
            format!(
                "service metrics count {resolved} resolved of {} submitted",
                traced_open.submitted
            )
        },
    );

    // Worker scaling: the closed phase again with one worker.
    fx.fresh_service(fx.config.clone().with_workers(1));
    let span = tr.begin("phase.one_worker");
    let one = drive.closed_waves(
        fx,
        TRACED_WAVES,
        shape.closed_budget(closed_share),
        &mut off,
        report,
        &mut || {},
    );
    tr.end(span);

    let m = &mut report.layer;
    let selections = plain_open.latencies(false);
    m.set(
        "e2e.select_p99_us",
        percentile(&selections, 0.99),
        selections.len(),
    );
    if which == ServeWorkload::Mixed {
        let joins = plain_open.latencies(true);
        m.set("e2e.join_p50_ms", median(&joins) / 1e3, joins.len());
        m.set("e2e.sustained_rps", sustained, MIXED_LADDER.len());
    }

    // usj_service, from the traced window's QueryStats / ServiceStats.
    let n = traced_open.samples.len();
    let waits: Vec<f64> = traced_open
        .samples
        .iter()
        .map(|s| s.queue_wait_us)
        .collect();
    let exec_select = traced_open.pick(false, |s| s.exec_us);
    m.set("service.register_ms", fx.register_ms, 1);
    m.set("service.queue_wait_p50_us", median(&waits), n);
    m.set("service.queue_wait_p99_us", percentile(&waits, 0.99), n);
    m.set(
        "service.exec_select_p50_us",
        median(&exec_select),
        exec_select.len(),
    );
    let (exec_join_us, joins) = traced_open.join_exec_us();
    if which == ServeWorkload::Mixed {
        m.set("service.exec_join_p50_ms", exec_join_us / 1e3, joins);
    }
    m.set(
        "service.worker_scaling",
        plain_closed.rps() / one.rps(),
        one.wall_s.len(),
    );
    m.set(
        "service.deferral_rate",
        deferrals as f64 / submitted.max(1) as f64,
        submitted as usize,
    );
    m.set(
        "service.overtakes_per_req",
        traced_open.overtaken as f64 / n.max(1) as f64,
        n,
    );
    m.set(
        "service.plan_cache_hit_ratio",
        traced_open.plan_cache_hits as f64 / traced_open.plan_cache_lookups.max(1) as f64,
        traced_open.plan_cache_lookups as usize,
    );
    m.set(
        "service.peak_admitted_bytes",
        traced_open.peak_admitted_bytes as f64,
        1,
    );
    m.set(
        "service.max_queue_depth",
        traced_open.max_queue_depth as f64,
        1,
    );
    m.set("service.end_queue_depth", plain_open.end_depth as f64, 1);
    m.set(
        "service.gen_late_p99_us",
        plain_open.gen_late_p99_us(),
        plain_open.late_us.len(),
    );

    // The charged work of wave 0, in the layers' own counters.
    report.set_charged_work(&plain_closed.first.io, &plain_closed.first.cpu);
    report.set_datagen(fx.gen_ms);
    plain_open.report_generator(shape.rate);
    let m = &mut report.layer;

    // obs: what tracing cost — closed-wave wall on selections, join
    // execution time where joins own the CPU.
    let overhead = match which {
        ServeWorkload::Select => median(&traced_closed.wall_s) / median(&plain_closed.wall_s),
        ServeWorkload::Mixed => exec_join_us / plain_open.join_exec_us().0,
    };
    m.set("obs.trace_overhead", overhead, traced_closed.wall_s.len());
    m.set(
        "obs.events",
        2.0 * traced_open.trace_spans as f64,
        traced_open.traced_queries,
    );
    m.set(
        "obs.dropped",
        traced_open.trace_dropped as f64,
        traced_open.traced_queries,
    );

    // usj_rtree probe: seeded windows straight on the roads tree.
    let exec_select_p50 = median(&exec_select);
    let phase = tr.begin("phase.probes");
    let (env, catalog) = fx
        .service
        .take()
        .expect("fixture holds a service")
        .into_parts();
    let tree = catalog
        .get(fx.roads_id)
        .expect("roads are registered")
        .tree();
    let mut probe_env = env.fork_with_base(env.device.snapshot());
    let probed = window_probe(ctx, tr, report, tree, &mut probe_env, fx.region, &fx.roads);
    tr.end(phase);
    match probed {
        Ok(window_us) => report
            .layer
            .set("service.overhead_us", exec_select_p50 - window_us, 1),
        Err(e) => report.problems.push(format!("window probe failed: {e}")),
    }
    fx.service = Some(Service::new(env, catalog, fx.config.clone()));
}
