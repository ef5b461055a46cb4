//! `join_tiger` and `join_spill`: the four algorithms, serial and closed
//! loop, on the paper's setting and on the adversarial spill setting.

use std::sync::Arc;
use std::time::Duration;

use usj_core::{Algo, JoinInput, JoinResult, PairSink, SpatialQuery};
use usj_datagen::{Preset, WorkloadSpec};
use usj_geom::{Item, Rect};
use usj_io::extsort::external_sort_by_lower_y;
use usj_io::sim::DEFAULT_MEMORY_LIMIT;
use usj_io::{CpuCounter, CpuOp, IoSimError, IoStats, ItemStream, MachineConfig, Page, SimEnv};
use usj_obs::{QueryTrace, RingCollector};
use usj_rtree::RTree;
use usj_sweep::{sweep_join, ForwardSweep, StripedSweep};

use crate::common::{rounds_within, timed, window_probe, Ctx, InputPins, Report, Setups};
use crate::gen;
use crate::oracle;
use crate::spans::Tracer;
use crate::stats::{fast_quartile, median, PairDigest};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinWorkload {
    /// `Preset::Disk1_6` under the paper's 24 MB: nothing spills.
    Tiger,
    /// The tall family under a few MB: sweeps spill, PBSM repartitions.
    Spill,
}

/// The four algorithms in the paper's Figure 3 order, on their natural
/// inputs: SSSJ and PBSM on the flat streams, PQ and ST on the R-trees.
pub const ALGOS: [(Algo, &str); 4] = [
    (Algo::Sssj, "sssj"),
    (Algo::Pbsm, "pbsm"),
    (Algo::Pq, "pq"),
    (Algo::St, "st"),
];

/// Event capacity of the recorder installed around one traced join.
const JOIN_TRACE_EVENTS: usize = 64 * 1024;

struct Fixture {
    env: SimEnv,
    /// Snapshot of the materialised inputs; every join runs on a fork over
    /// it, so scratch pages never accumulate and every round starts from
    /// the same device state (which is what makes the counts repeat).
    base: Arc<Vec<Page>>,
    left: Vec<Item>,
    right: Vec<Item>,
    region: Rect,
    left_tree: RTree,
    right_tree: RTree,
    left_stream: ItemStream,
    right_stream: ItemStream,
    gen_ms: f64,
    bulk_load_ms: f64,
}

impl Fixture {
    fn inputs(&self, algo: Algo) -> (JoinInput<'_>, JoinInput<'_>) {
        match algo {
            Algo::Sssj | Algo::Pbsm => (
                JoinInput::Stream(&self.left_stream),
                JoinInput::Stream(&self.right_stream),
            ),
            _ => (
                JoinInput::Indexed(&self.left_tree),
                JoinInput::Indexed(&self.right_tree),
            ),
        }
    }

    fn fork(&self, memory_limit: usize) -> SimEnv {
        let mut env = self.env.fork_with_base(Arc::clone(&self.base));
        env.set_memory_limit(memory_limit);
        env
    }

    fn input_pages(&self) -> u64 {
        self.left_stream.pages() + self.right_stream.pages()
    }
}

fn memory_limit(ctx: &Ctx, which: JoinWorkload) -> usize {
    match which {
        JoinWorkload::Tiger => DEFAULT_MEMORY_LIMIT,
        JoinWorkload::Spill => ctx.pick(3 * 1024, 768) * 1024,
    }
}

fn build(ctx: &Ctx, which: JoinWorkload, tr: &mut Tracer) -> Fixture {
    let (seed, tiger_scale) = (ctx.seed, ctx.pick(40, 2_000));
    let (tall_left, tall_right) = (ctx.pick(200_000, 12_000), ctx.pick(50_000, 3_000));
    // Tiny inputs fit the stream buffers whole, so only much taller
    // rectangles leave a resident set the sweep budget cannot hold.
    let heights = ctx.pick((20.0, 200.0), (90.0, 900.0));
    let limit = memory_limit(ctx, which);
    let span = tr.begin("datagen.generate");
    let ((left, right, region), gen_ns) = timed(|| match which {
        JoinWorkload::Tiger => {
            let w = WorkloadSpec::preset(Preset::Disk1_6)
                .with_scale(tiger_scale)
                .generate(seed);
            (w.roads, w.hydro, w.region)
        }
        JoinWorkload::Spill => {
            let (l, r) = gen::tall_family(seed, tall_left, tall_right, heights);
            (
                l,
                r,
                Rect::from_coords(0.0, 0.0, gen::TALL_REGION, gen::TALL_REGION),
            )
        }
    });
    tr.end(span);

    let mut env = SimEnv::new(MachineConfig::machine3()).with_memory_limit(limit);
    let span = tr.begin("rtree.bulk_load");
    let ((left_tree, right_tree), bulk_ns) = timed(|| {
        env.unaccounted(|env| {
            (
                RTree::bulk_load(env, &left).expect("bulk load left"),
                RTree::bulk_load(env, &right).expect("bulk load right"),
            )
        })
    });
    tr.end(span);
    let span = tr.begin("io.materialise_streams");
    let (left_stream, right_stream) = env.unaccounted(|env| {
        (
            ItemStream::from_items(env, &left).expect("left stream"),
            ItemStream::from_items(env, &right).expect("right stream"),
        )
    });
    let base = env.device.snapshot();
    tr.end(span);
    Fixture {
        env,
        base,
        left,
        right,
        region,
        left_tree,
        right_tree,
        left_stream,
        right_stream,
        gen_ms: gen_ns / 1e6,
        bulk_load_ms: bulk_ns / 1e6,
    }
}

/// One timed join on a fresh fork, through `SpatialQuery`, with the pair
/// digest taken from the sink; returns its wall milliseconds. Traced, the
/// join runs under a `RingCollector` and the repo's own spans nest under
/// the operation span.
fn timed_join(
    fx: &Fixture,
    algo: Algo,
    name: &'static str,
    limit: usize,
    tr: &mut Tracer,
    obs: &mut (u64, u64),
) -> (f64, Result<JoinResult, IoSimError>, PairDigest) {
    let op = tr.begin_op(name);
    let mut env = fx.fork(limit);
    let (left, right) = fx.inputs(algo);
    let mut digest = PairDigest::default();
    let mut sink = |l: u32, r: u32| digest.add(l, r);
    let sink: &mut dyn PairSink = &mut sink;
    let collector = tr
        .is_on()
        .then(|| Arc::new(RingCollector::new(JOIN_TRACE_EVENTS)));
    let guard = collector
        .as_ref()
        .map(|c| usj_obs::install(c.clone(), tr.clock()));
    let (result, ns) = timed(|| {
        SpatialQuery::new(left, right)
            .algorithm(algo)
            .execute(&mut env, sink)
    });
    drop(guard);
    if let Some(collector) = collector {
        let (events, dropped) = collector.drain();
        obs.0 += events.len() as u64;
        obs.1 += dropped;
        tr.attach(op, 0, &QueryTrace::from_events(&events, dropped));
    }
    tr.end(op);
    (ns / 1e6, result, digest)
}

/// What a pass of rounds measured.
#[derive(Default)]
struct Pass {
    round_ms: Vec<f64>,
    wall_ms: [Vec<f64>; 4],
    /// The first round's results in [`ALGOS`] order (a failed join leaves a
    /// default); later rounds must equal them exactly.
    results: [JoinResult; 4],
    obs_events: u64,
    obs_dropped: u64,
}

impl Pass {
    fn sim_s(&self) -> f64 {
        let m3 = MachineConfig::machine3();
        self.results
            .iter()
            .map(|r| r.observed_cost(&m3).total_secs())
            .sum()
    }

    fn peak_mem_bytes(&self) -> usize {
        self.results
            .iter()
            .map(|r| r.memory.peak_bytes)
            .max()
            .unwrap_or(0)
    }
}

/// Rounds of the four joins until `budget` is used; `between` runs after
/// each round.
fn pass(
    fx: &Fixture,
    limit: usize,
    budget: Duration,
    want: PairDigest,
    tr: &mut Tracer,
    report: &mut Report,
    between: &mut dyn FnMut(),
) -> Pass {
    let mut p = Pass::default();
    let phase = tr.begin("phase.rounds");
    rounds_within(budget, 1, |round| {
        let span = tr.begin("round");
        let mut round_ms = 0.0;
        for (k, (algo, name)) in ALGOS.into_iter().enumerate() {
            let mut obs = (0, 0);
            let (wall_ms, result, digest) = timed_join(fx, algo, name, limit, tr, &mut obs);
            round_ms += wall_ms;
            p.obs_events += obs.0;
            p.obs_dropped += obs.1;
            report.attempted += 1;
            match result {
                Err(e) => {
                    report.failed += 1;
                    report
                        .problems
                        .push(format!("{name} failed in round {round}: {e}"));
                }
                Ok(res) => {
                    p.wall_ms[k].push(wall_ms);
                    report.check(digest == want && res.pairs == want.count, || {
                        format!(
                            "{name} pairs {}/{:x} differ from the oracle's {}/{:x}",
                            digest.count, digest.sum, want.count, want.sum
                        )
                    });
                    if round == 0 {
                        p.results[k] = res;
                    } else {
                        report.check(p.results[k] == res, || {
                            format!("{name} accounting changed between round 0 and {round}")
                        });
                    }
                }
            }
        }
        p.round_ms.push(round_ms);
        tr.end(span);
        between();
    });
    tr.end(phase);
    p
}

pub fn run(ctx: &mut Ctx, which: JoinWorkload) -> Report {
    let mut report = Report::default();
    let limit = memory_limit(ctx, which);
    let mut tr = Tracer::new(ctx.trace);
    let workload = tr.begin(match which {
        JoinWorkload::Tiger => "workload.join_tiger",
        JoinWorkload::Spill => "workload.join_spill",
    });

    let (fx, mut setups) = Setups::begin(&mut tr, |tr| build(ctx, which, tr));
    let span = tr.begin("oracle.list_sweep");
    let want = oracle::join_digest(&fx.left, &fx.right);
    tr.end(span);
    report.pins = InputPins {
        left_items: fx.left.len() as u64,
        right_items: fx.right.len() as u64,
        input_digest: gen::input_digest(&[&fx.left, &fx.right]),
        oracle_pairs: want.count,
    };

    let budget = Duration::from_secs_f64(ctx.seconds);
    if !ctx.trace {
        let mut rebuild = || setups.again(|| build(ctx, which, &mut Tracer::new(false)));
        let p = pass(&fx, limit, budget, want, &mut tr, &mut report, &mut rebuild);
        // One round of the four joins, each at the fast quartile of its
        // own rounds: a burst of host noise slows single joins, not whole
        // rounds, and a join of seconds has few rounds to choose from.
        let joins: usize = p.wall_ms.iter().map(Vec::len).sum();
        let round_ms: f64 = p.wall_ms.iter().map(|w| fast_quartile(w)).sum();
        report
            .e2e
            .set("setup_s", setups.setup_s(), setups.seconds.len());
        report.e2e.set(
            "throughput_per_s",
            ALGOS.len() as f64 * 1e3 / round_ms,
            joins,
        );
        report
            .e2e
            .set("op_p50_us", round_ms * 1e3, p.round_ms.len());
        report.e2e.set("sim_s", p.sim_s(), 1);
        report
            .e2e
            .set("peak_mem_bytes", p.peak_mem_bytes() as f64, 1);
    } else {
        // Untraced and traced passes of the same rounds, then the probes.
        let span = tr.begin("phase.untraced_pass");
        let plain = pass(
            &fx,
            limit,
            budget.mul_f64(0.3),
            want,
            &mut Tracer::new(false),
            &mut report,
            &mut || {},
        );
        tr.end(span);
        let traced = pass(
            &fx,
            limit,
            budget.mul_f64(0.3),
            want,
            &mut tr,
            &mut report,
            &mut || {},
        );
        layer_metrics(&fx, &plain, &traced, &mut report);
        let algo_ms: Vec<f64> = plain.wall_ms.iter().map(|w| median(w)).collect();
        let phase = tr.begin("phase.probes");
        if let Err(e) = probes(ctx, &fx, limit, &algo_ms, &mut tr, &mut report) {
            report.problems.push(format!("layer probe failed: {e}"));
        }
        tr.end(phase);
    }
    tr.end(workload);
    ctx.tracer = tr;
    report
}

/// Per-layer metrics read off the `JoinResult`s of one round.
fn layer_metrics(fx: &Fixture, plain: &Pass, traced: &Pass, report: &mut Report) {
    let res = &plain.results;
    let (mut io, mut cpu) = (IoStats::default(), CpuCounter::default());
    for r in res {
        io.merge(&r.io);
        cpu.merge(&r.cpu);
    }
    report.set_charged_work(&io, &cpu);
    report.set_datagen(fx.gen_ms);
    let sum = |f: &dyn Fn(&JoinResult) -> u64| res.iter().map(f).sum::<u64>() as f64;
    let m = &mut report.layer;

    // The end-to-end numbers that only exist on the join workloads.
    for (k, name) in ["e2e.sssj_ms", "e2e.pbsm_ms", "e2e.pq_ms", "e2e.st_ms"]
        .into_iter()
        .enumerate()
    {
        m.set(name, median(&plain.wall_ms[k]), plain.wall_ms[k].len());
    }

    let worst_written = res.iter().map(|r| r.io.pages_written).max().unwrap_or(0);
    m.set(
        "io.write_amp",
        worst_written as f64 / fx.input_pages() as f64,
        1,
    );

    for (k, name) in [
        "sweep.rect_tests.sssj",
        "sweep.rect_tests.pbsm",
        "sweep.rect_tests.pq",
        "sweep.rect_tests.st",
    ]
    .into_iter()
    .enumerate()
    {
        m.set(name, res[k].cpu.get(CpuOp::RectTest) as f64, 1);
    }
    let rect_tests = sum(&|r| r.cpu.get(CpuOp::RectTest));
    m.set(
        "sweep.useful_test_ratio",
        sum(&|r| r.pairs) / rect_tests.max(1.0),
        1,
    );
    m.set(
        "sweep.max_resident",
        res.iter().map(|r| r.sweep.max_resident).max().unwrap_or(0) as f64,
        1,
    );
    m.set("sweep.spilled_items", sum(&|r| r.sweep.spilled_items), 1);
    m.set("sweep.spill_runs", sum(&|r| r.sweep.spill_runs), 1);
    m.set("rtree.page_requests", sum(&|r| r.index_page_requests), 1);
    // ST is the pooled traversal: requests its pool absorbed never reached the device.
    let st_hit = 1.0 - res[3].io.pages_read as f64 / res[3].index_page_requests.max(1) as f64;
    m.set("rtree.pool_hit_ratio", st_hit, 1);
    m.set("core.pbsm_pages_written", res[1].io.pages_written as f64, 1);

    m.set("rtree.bulk_load_ms", fx.bulk_load_ms, 1);
    m.set(
        "obs.trace_overhead",
        median(&traced.round_ms) / median(&plain.round_ms),
        traced.round_ms.len(),
    );
    m.set(
        "obs.events",
        traced.obs_events as f64,
        traced.round_ms.len(),
    );
    m.set(
        "obs.dropped",
        traced.obs_dropped as f64,
        traced.round_ms.len(),
    );
}

/// The layer probes: the benchmark calls one layer's public function
/// directly on the workload's own inputs.
fn probes(
    ctx: &mut Ctx,
    fx: &Fixture,
    limit: usize,
    algo_ms: &[f64],
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), IoSimError> {
    // usj_io: drain both streams through their readers.
    let span = tr.begin_op("probe.io.stream_scan");
    let mut env = fx.fork(limit);
    let (scanned, ns) = timed(|| -> Result<usize, IoSimError> {
        let mut scanned = 0;
        for stream in [&fx.left_stream, &fx.right_stream] {
            let mut reader = stream.reader();
            while let Some(view) = reader.next_view(&mut env)? {
                scanned += std::hint::black_box(view.len());
            }
        }
        Ok(scanned)
    });
    tr.end(span);
    let scanned = scanned?;
    report.layer.set("io.stream_scan_ms", ns / 1e6, 1);
    report.check(scanned == fx.left.len() + fx.right.len(), || {
        format!("stream scan delivered {scanned} items")
    });

    // usj_io: external sort of both streams under the workload's limit.
    let span = tr.begin_op("probe.io.extsort");
    let mut env = fx.fork(limit);
    let before = env.device.stats();
    let (sorted, ns) = timed(|| -> Result<u64, IoSimError> {
        let mut sorted = 0;
        for stream in [&fx.left_stream, &fx.right_stream] {
            sorted += external_sort_by_lower_y(&mut env, stream)?.len();
        }
        Ok(sorted)
    });
    tr.end(span);
    report.check(sorted? == scanned as u64, || {
        "external sort lost items".to_string()
    });
    report.layer.set("io.extsort_ms", ns / 1e6, 1);
    let io = env.device.stats().delta_since(&before);
    report.layer.set(
        "io.extsort_pages",
        (io.pages_read + io.pages_written) as f64,
        1,
    );

    // usj_sweep: the two in-memory kernels over the y-sorted inputs. The
    // forward kernel scans every resident per arrival, so it gets the first
    // eighth of each input (a y-prefix keeps the resident density).
    let (mut left, mut right) = (fx.left.clone(), fx.right.clone());
    left.sort_by(Item::cmp_by_lower_y);
    right.sort_by(Item::cmp_by_lower_y);
    let span = tr.begin_op("probe.sweep.striped_kernel");
    let (striped, ns) = timed(|| sweep_join::<StripedSweep, _>(&left, &right, |_, _| {}));
    tr.end(span);
    report.layer.set("sweep.kernel_ms", ns / 1e6, 1);
    let (left, right) = (&left[..left.len() / 8], &right[..right.len() / 8]);
    let span = tr.begin_op("probe.sweep.forward_kernel");
    let (forward, ns) = timed(|| sweep_join::<ForwardSweep, _>(left, right, |_, _| {}));
    tr.end(span);
    report.layer.set("sweep.forward_kernel_ms", ns / 1e6, 1);
    let prefix_pairs = oracle::join_digest(left, right).count;
    report.check(
        striped.pairs == report.pins.oracle_pairs && forward.pairs == prefix_pairs,
        || {
            format!(
                "kernel probes found {} / {} pairs",
                striped.pairs, forward.pairs
            )
        },
    );

    // usj_sweep: what spilling costs SSSJ — the same join with the paper's
    // 24 MB. At 24 MB the two configurations are the same one.
    let penalty = if limit < DEFAULT_MEMORY_LIMIT {
        let span = tr.begin("probe.sweep.spill_penalty");
        let (wall_ms, result, _) = timed_join(
            fx,
            Algo::Sssj,
            "sssj",
            DEFAULT_MEMORY_LIMIT,
            &mut Tracer::new(false),
            &mut (0, 0),
        );
        tr.end(span);
        result?;
        algo_ms[0] / wall_ms
    } else {
        1.0
    };
    report.layer.set("sweep.spill_penalty", penalty, 1);

    // usj_rtree: seeded window queries straight on the left tree.
    let mut env = fx.fork(limit);
    window_probe(
        ctx,
        tr,
        report,
        &fx.left_tree,
        &mut env,
        fx.region,
        &fx.left,
    )?;

    // usj_core: planning cost of Algo::Auto, and how its pick compares with
    // the best of the four.
    let (lt, rt) = fx.inputs(Algo::Pq);
    let query = SpatialQuery::new(lt, rt).algorithm(Algo::Auto);
    let mut env = fx.fork(limit);
    let span = tr.begin_op("probe.core.plan");
    let (plan, ns) = timed(|| query.plan(&mut env));
    tr.end(span);
    let plan = plan?;
    report.layer.set("core.plan_us", ns / 1e3, 1);
    let span = tr.begin_op("probe.core.auto_join");
    let (auto, ns) = timed(|| query.run_planned(&mut env, &plan));
    tr.end(span);
    report.check(auto?.pairs == report.pins.oracle_pairs, || {
        "Auto found other pairs".to_string()
    });
    let best = algo_ms.iter().copied().fold(f64::INFINITY, f64::min);
    report.layer.set("core.auto_regret", ns / 1e6 / best, 1);
    Ok(())
}
