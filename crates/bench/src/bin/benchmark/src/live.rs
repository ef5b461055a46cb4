//! `live_ingest`: one client appends to two live (LSM) datasets and queries
//! them between appends — writes beside reads, inline maintenance, so flush
//! and compaction counts repeat exactly.

use std::time::{Duration, Instant};

use usj_core::Algo;
use usj_datagen::{Preset, WorkloadSpec};
use usj_geom::{Item, Rect, ITEM_BYTES};
use usj_io::{CostModel, CpuCounter, IoStats, MachineConfig, SimEnv, PAGE_SIZE};
use usj_live::{LiveConfig, LiveDataset, LiveStats};
use usj_service::{
    Catalog, LiveId, QueryOutcome, QueryRequest, QueryStatus, Service, ServiceConfig,
};

use crate::common::{ms, timed, us, Ctx, InputPins, Report};
use crate::gen::{self, Traffic};
use crate::oracle;
use crate::spans::Tracer;
use crate::stats::{fast_quartile, median, percentile, PairDigest};

const STEPS: usize = 32;
/// Items per `append_live` call.
const APPEND_BATCH: usize = 64;
const FIRST_K: u64 = 1_000;
const SELECTS_PER_STEP: usize = 16;
const NAMES: [&str; 2] = ["roads", "hydro"];

fn live_config() -> LiveConfig {
    LiveConfig {
        flush_threshold_bytes: 64 * 1024,
        compact_after_deltas: 4,
    }
}

struct Data {
    roads: Vec<Item>,
    hydro: Vec<Item>,
    region: Rect,
    gen_ms: f64,
}

fn generate(ctx: &Ctx) -> Data {
    let (seed, scale) = (ctx.seed, ctx.pick(40, 2_000));
    let (w, ns) = timed(|| {
        WorkloadSpec::preset(Preset::Disk1)
            .with_scale(scale)
            .generate(seed)
    });
    Data {
        roads: w.roads,
        hydro: w.hydro,
        region: w.region,
        gen_ms: ns / 1e6,
    }
}

struct Fixture {
    service: Service,
    ids: [LiveId; 2],
}

/// Set-up: a service with the first half of both datasets registered live.
fn build(data: &Data, background: bool, tr: &mut Tracer) -> Fixture {
    let env = SimEnv::new(MachineConfig::machine3());
    let workers = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2);
    let config = ServiceConfig::default()
        .with_workers(workers)
        .with_background_maintenance(background);
    let service = Service::new(env, Catalog::new(), config);
    let span = tr.begin("service.register_live");
    let ids = [&data.roads, &data.hydro].map(|items| items.as_slice());
    let ids = [0, 1].map(|k| {
        service
            .register_live(NAMES[k], &ids[k][..ids[k].len() / 2], live_config())
            .expect("register live")
    });
    tr.end(span);
    Fixture { service, ids }
}

/// Everything one pass (32 steps and the final quiesce) measured.
#[derive(Default)]
struct Pass {
    append_us: Vec<f64>,
    /// Time inside `append_live` per step, seconds.
    step_append_s: Vec<f64>,
    first_k_ms: Vec<f64>,
    stream_join_ms: Vec<f64>,
    select_us: Vec<f64>,
    backlog: Vec<usize>,
    quiesce_ms: f64,
    wall_s: f64,
    appended: u64,
    stats: [LiveStats; 2],
    /// Stored bytes per byte of live data, read before the final quiesce.
    space_amp: f64,
    /// Charged work and largest measured peak of every query of the pass.
    io: IoStats,
    cpu: CpuCounter,
    peak_query_bytes: usize,
    pages_requested: u64,
    final_join: PairDigest,
    obs_spans: usize,
    obs_dropped: u64,
}

impl Pass {
    fn sim_s(&self) -> f64 {
        CostModel::new(MachineConfig::machine3())
            .observed(&self.io, &self.cpu)
            .total_secs()
    }
}

/// One series of every pass, pooled.
fn pooled(passes: &[Pass], series: fn(&Pass) -> &Vec<f64>) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| series(p).iter().copied())
        .collect()
}

/// Runs one request alone and returns its wall time and outcome.
fn query(
    fx: &Fixture,
    request: QueryRequest,
    name: &'static str,
    p: &mut Pass,
    tr: &mut Tracer,
    report: &mut Report,
) -> (Duration, QueryOutcome) {
    let op = tr.begin_op(name);
    let t = Instant::now();
    let mut run = fx.service.run(vec![request]);
    let wall = t.elapsed();
    let outcome = run.outcomes.pop().expect("one outcome per request");
    if let Some(trace) = &outcome.stats.trace {
        p.obs_spans += trace.span_count();
        p.obs_dropped += trace.dropped_events;
        tr.attach(op, 1, trace);
    }
    tr.end(op);
    report.attempted += 1;
    match &outcome.status {
        QueryStatus::Completed(result) => {
            p.io.merge(&result.io);
            p.cpu.merge(&result.cpu);
            p.peak_query_bytes = p.peak_query_bytes.max(result.memory.peak_bytes);
            p.pages_requested += result.index_page_requests;
        }
        other => {
            report.failed += 1;
            report
                .problems
                .push(format!("{name} resolved as {other:?}"));
        }
    }
    (wall, outcome)
}

fn pass(ctx: &Ctx, data: &Data, fx: &Fixture, tr: &mut Tracer, report: &mut Report) -> Pass {
    let mut p = Pass::default();
    let phase = tr.begin("phase.steps");
    let sides = [&data.roads, &data.hydro];
    let mut windows = Traffic::new(ctx.seed, 0, data.region, 0.0);
    let [left, right] = fx.ids;
    let start = Instant::now();
    for step in 0..STEPS {
        let span = tr.begin("step");
        let calls_before = p.append_us.len();
        // The next slice of both datasets, 64 items per call.
        for (k, items) in sides.iter().enumerate() {
            let half = items.len() / 2;
            let slice = |s: usize| half + (items.len() - half) * s / STEPS;
            for batch in items[slice(step)..slice(step + 1)].chunks(APPEND_BATCH) {
                let op = tr.begin_op("service.append_live");
                let t = Instant::now();
                let appended = fx.service.append_live(NAMES[k], batch);
                p.append_us.push(us(t.elapsed()));
                tr.end(op);
                report.attempted += 1;
                match appended {
                    Ok(()) => p.appended += batch.len() as u64,
                    Err(e) => {
                        report.failed += 1;
                        report.problems.push(format!("append_live failed: {e}"));
                    }
                }
            }
        }
        p.step_append_s
            .push(p.append_us[calls_before..].iter().sum::<f64>() / 1e6);
        p.backlog.push(
            NAMES
                .iter()
                .map(|n| fx.service.live_backlog(n).unwrap_or(0))
                .sum(),
        );

        let request = QueryRequest::streaming_join(left, right).with_limit(FIRST_K);
        let (wall, outcome) = query(fx, request, "query.first_k", &mut p, tr, report);
        p.first_k_ms.push(ms(wall));
        // A LIMIT that comes back short when the full join has more pairs
        // missed its limit.
        let delivered = outcome.result().map_or(0, |r| r.pairs);
        if delivered != FIRST_K.min(report.pins.oracle_pairs) && step == STEPS - 1 {
            report.failed += 1;
            report
                .problems
                .push(format!("LIMIT {FIRST_K} delivered {delivered} pairs"));
        }
        if step % 4 == 3 {
            let request = QueryRequest::streaming_join(left, right).collecting();
            let (wall, outcome) = query(fx, request, "query.stream_join", &mut p, tr, report);
            p.stream_join_ms.push(ms(wall));
            if step == STEPS - 1 {
                for &(l, r) in outcome.pairs.iter().flatten() {
                    p.final_join.add(l, r);
                }
            }
        }
        for _ in 0..SELECTS_PER_STEP {
            let request = QueryRequest::live_window(left, windows.window());
            let (wall, _) = query(fx, request, "query.live_window", &mut p, tr, report);
            p.select_us.push(us(wall));
        }
        tr.end(span);
    }
    tr.end(phase);

    // Space: pages the tiers occupy per byte of live data, before quiesce
    // folds everything into one run.
    p.space_amp = fx.service.with_live(|live| {
        let (mut stored, mut data_bytes) = (0u64, 0u64);
        for ds in live.datasets() {
            let snap = ds.snapshot();
            stored +=
                snap.runs().iter().map(|r| r.stream().pages()).sum::<u64>() * PAGE_SIZE as u64;
            stored += snap
                .mem_runs()
                .iter()
                .map(|m| m.items().len())
                .sum::<usize>() as u64
                * ITEM_BYTES as u64;
            data_bytes += ds.len() * ITEM_BYTES as u64;
        }
        stored as f64 / data_bytes.max(1) as f64
    });
    let span = tr.begin_op("service.quiesce_live");
    let (quiesced, ns) = timed(|| NAMES.map(|name| fx.service.quiesce_live(name)));
    tr.end(span);
    for outcome in quiesced {
        if let Err(e) = outcome {
            report.problems.push(format!("quiesce_live failed: {e}"));
        }
    }
    p.quiesce_ms = ns / 1e6;
    p.wall_s = start.elapsed().as_secs_f64();
    p.stats = NAMES.map(|n| fx.service.live_stats(n).unwrap_or_default());
    p
}

/// Correctness of a finished pass: conservation, maintenance really
/// happened, and the last full streaming join equals both the oracle and an
/// offline SSSJ over the promoted datasets.
fn verify(
    ctx: &Ctx,
    data: &Data,
    p: &Pass,
    mut fx: Fixture,
    want: PairDigest,
    report: &mut Report,
) {
    let sent =
        (data.roads.len() - data.roads.len() / 2 + data.hydro.len() - data.hydro.len() / 2) as u64;
    let appended: u64 = p.stats.iter().map(|s| s.appended).sum();
    report.check(appended == sent && p.appended == sent, || {
        format!("LiveStats.appended {appended}, sent {sent}")
    });
    let flushes: u64 = p.stats.iter().map(|s| s.flushes).sum();
    let compactions: u64 = p.stats.iter().map(|s| s.compactions).sum();
    let (min_flushes, min_compactions) = ctx.pick((16, 6), (2, 1));
    report.check(
        flushes >= min_flushes && compactions >= min_compactions,
        || format!("only {flushes} flushes and {compactions} compactions happened"),
    );
    report.check(p.final_join == want, || {
        format!(
            "final streaming join {:?} differs from the oracle {want:?}",
            p.final_join
        )
    });
    let promoted = NAMES.map(|n| fx.service.promote_live(n));
    match promoted {
        [Ok(l), Ok(r)] => {
            let request = QueryRequest::join(l, r)
                .with_algorithm(Algo::Sssj)
                .collecting();
            let run = fx.service.run(vec![request]);
            let mut offline = PairDigest::default();
            for &(l, r) in run.outcomes[0].pairs.iter().flatten() {
                offline.add(l, r);
            }
            report.check(offline == p.final_join, || {
                format!("offline SSSJ over the promoted datasets found {offline:?}")
            });
        }
        other => report
            .problems
            .push(format!("promote_live failed: {other:?}")),
    }
}

/// Durability probe: what was manifested survives a crash, all of it.
fn durable_probe(data: &Data, tr: &mut Tracer, report: &mut Report) {
    let span = tr.begin_op("probe.live.durable_recover");
    let items = &data.hydro[..data.hydro.len().min(6_000)];
    let (base, rest) = items.split_at(items.len() / 3);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let outcome = (|| -> usj_live::Result<(Vec<u32>, Vec<u32>)> {
        let (mut ds, root) = LiveDataset::create_durable(&mut env, "probe", base, live_config())?;
        ds.append(&mut env, rest)?;
        ds.flush(&mut env)?;
        ds.write_manifest(&mut env)?;
        let mut manifested: Vec<u32> = ds
            .published_items(&mut env)?
            .iter()
            .map(|it| it.id)
            .collect();
        // Crash: every page survives, every in-memory structure is gone.
        let mut after = env.fork_with_base(env.device.snapshot());
        let (recovered, _) = LiveDataset::recover(&mut after, "probe", root, live_config())?;
        let mut got: Vec<u32> = recovered
            .published_items(&mut after)?
            .iter()
            .map(|it| it.id)
            .collect();
        manifested.sort_unstable();
        got.sort_unstable();
        Ok((manifested, got))
    })();
    tr.end(span);
    match outcome {
        Ok((manifested, got)) => {
            report.check(manifested == got && got.len() == items.len(), || {
                format!(
                    "recovered {} of {} manifested items",
                    got.len(),
                    manifested.len()
                )
            })
        }
        Err(e) => report.problems.push(format!("durable probe failed: {e}")),
    }
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::new(ctx.trace);
    let workload = tr.begin("workload.live_ingest");
    let span = tr.begin("datagen.generate");
    let data = generate(ctx);
    tr.end(span);
    let span = tr.begin("oracle.list_sweep");
    let want = oracle::join_digest(&data.roads, &data.hydro);
    tr.end(span);
    report.pins = InputPins {
        left_items: data.roads.len() as u64,
        right_items: data.hydro.len() as u64,
        input_digest: gen::input_digest(&[&data.roads, &data.hydro]),
        oracle_pairs: want.count,
    };
    durable_probe(&data, &mut tr, &mut report);

    // Every pass needs freshly registered datasets, so each pass's build is
    // one set-up sample; at least three builds either way.
    let budget = Duration::from_secs_f64(ctx.seconds * if ctx.trace { 0.3 } else { 1.0 });
    let mut off = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    let span = tr.begin("phase.untraced_pass");
    loop {
        let (fx, ns) = timed(|| build(&data, false, &mut off));
        setup_s.push(ns / 1e9 + data.gen_ms / 1e3);
        let elapsed = start.elapsed();
        if passes.is_empty() || elapsed + elapsed / (2 * passes.len() as u32) < budget {
            let p = pass(ctx, &data, &fx, &mut off, &mut report);
            if passes.is_empty() {
                // Later passes must repeat the first one's counts exactly,
                // so verifying the first verifies them all.
                verify(ctx, &data, &p, fx, want, &mut report);
            }
            passes.push(p);
        } else if setup_s.len() >= 3 {
            break;
        }
    }
    tr.end(span);
    for later in &passes[1..] {
        report.check(
            later.stats == passes[0].stats && later.io == passes[0].io,
            || "flush/compaction counts or charged I/O changed between passes".to_string(),
        );
    }

    let first = &passes[0];
    if !ctx.trace {
        // Step k of every pass appends the same items to the same tiers, and
        // so does the final quiesce: each at the fast quartile of its
        // passes, summed, is the ingest time of one pass.
        let over_passes = |f: &dyn Fn(&Pass) -> f64| {
            let samples: Vec<f64> = passes.iter().map(f).collect();
            fast_quartile(&samples)
        };
        let ingest_s = (0..STEPS)
            .map(|k| over_passes(&|p| p.step_append_s[k]))
            .sum::<f64>()
            + over_passes(&|p| p.quiesce_ms / 1e3);
        // The k-th full streaming join of every pass joins the same data
        // (they grow with the step): each at the fast quartile of its
        // passes, then the median over the steps.
        let joins_per_pass = first.stream_join_ms.len();
        let per_step: Vec<f64> = (0..joins_per_pass)
            .map(|k| over_passes(&|p| p.stream_join_ms[k]))
            .collect();
        report
            .e2e
            .set("setup_s", fast_quartile(&setup_s), setup_s.len());
        report.e2e.set(
            "throughput_per_s",
            first.appended as f64 / ingest_s,
            STEPS * passes.len(),
        );
        report.e2e.set(
            "op_p50_us",
            median(&per_step) * 1e3,
            joins_per_pass * passes.len(),
        );
        report.e2e.set("sim_s", first.sim_s(), 1);
        report
            .e2e
            .set("peak_mem_bytes", first.peak_query_bytes as f64, 1);
    } else {
        traced_run(ctx, &data, &passes, &mut tr, &mut report);
    }
    tr.end(workload);
    ctx.tracer = tr;
    report
}

/// `--trace 1`: one traced pass, one background-maintenance pass, and the
/// per-layer table.
fn traced_run(ctx: &Ctx, data: &Data, plain: &[Pass], tr: &mut Tracer, report: &mut Report) {
    let fx = build(data, false, tr);
    fx.service.set_clock(tr.clock());
    fx.service.set_tracing(true);
    let traced = pass(ctx, data, &fx, tr, report);
    let maintenance = fx.service.drain_background_trace();
    let span = tr.begin("live.maintenance");
    tr.attach(span, 2, &maintenance);
    tr.end(span);
    drop(fx);

    // The shared `tend_live` path on the background worker: same schedule.
    let span = tr.begin("phase.background_pass");
    let fx = build(data, true, &mut Tracer::new(false));
    let background = pass(ctx, data, &fx, &mut Tracer::new(false), report);
    drop(fx);
    tr.end(span);
    report.check(
        background.final_join == traced.final_join && traced.final_join == plain[0].final_join,
        || "the final join differs between inline, traced and background maintenance".to_string(),
    );

    let (append_us, first_k, stream_join) = (
        pooled(plain, |p| &p.append_us),
        pooled(plain, |p| &p.first_k_ms),
        pooled(plain, |p| &p.stream_join_ms),
    );
    let first = &plain[0];
    report.set_charged_work(&first.io, &first.cpu);
    report.set_datagen(data.gen_ms);
    let sum = |f: fn(&LiveStats) -> u64| first.stats.iter().map(f).sum::<u64>() as f64;
    let m = &mut report.layer;
    m.set(
        "e2e.append_p99_us",
        percentile(&append_us, 0.99),
        append_us.len(),
    );
    m.set("e2e.first_k_ms", median(&first_k), first_k.len());
    m.set(
        "e2e.stream_join_ms",
        median(&stream_join),
        stream_join.len(),
    );
    m.set("live.append_p50_us", median(&append_us), append_us.len());
    m.set("live.flushes", sum(|s| s.flushes), 1);
    m.set("live.compactions", sum(|s| s.compactions), 1);
    m.set(
        "live.write_amp",
        (sum(|s| s.flushed_items) + sum(|s| s.compacted_items)) / sum(|s| s.appended),
        1,
    );
    m.set("live.space_amp", first.space_amp, 1);
    let backlog: Vec<f64> = first.backlog.iter().map(|b| *b as f64).collect();
    m.set(
        "live.backlog_mean",
        backlog.iter().sum::<f64>() / backlog.len() as f64,
        backlog.len(),
    );
    m.set(
        "live.backlog_max",
        backlog.iter().copied().fold(0.0, f64::max),
        backlog.len(),
    );
    m.set(
        "live.quiesce_ms",
        median(&plain.iter().map(|p| p.quiesce_ms).collect::<Vec<_>>()),
        plain.len(),
    );
    m.set(
        "live.bg_append_p99_us",
        percentile(&background.append_us, 0.99),
        background.append_us.len(),
    );
    m.set("live.bg_quiesce_ms", background.quiesce_ms, 1);
    m.set("rtree.page_requests", first.pages_requested as f64, 1);
    let plain_wall = median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    m.set("obs.trace_overhead", traced.wall_s / plain_wall, 1);
    m.set(
        "obs.events",
        2.0 * (traced.obs_spans + maintenance.span_count()) as f64,
        1,
    );
    m.set(
        "obs.dropped",
        (traced.obs_dropped + maintenance.dropped_events) as f64,
        1,
    );
}
