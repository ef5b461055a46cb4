//! What every workload shares: the run context, the metric bag, the report.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use usj_geom::{Item, Rect};
use usj_io::{CostModel, CpuCounter, CpuOp, IoSimError, IoStats, MachineConfig, SimEnv};
use usj_rtree::{NodeStore, RTree};

use crate::spans::Tracer;
use crate::stats::{fast_quartile, median};
use crate::{gen, oracle};

/// Input sizing. The binary always runs `Full`, which every number in
/// README.md and `pins.json` is for; `Tiny` is what the unit tests run
/// (whole suite < 10 s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// One invocation's settings plus its span recorder.
pub struct Ctx {
    pub seed: u64,
    /// Measuring time of the invocation; phases take fixed shares of it.
    pub seconds: f64,
    pub size: Size,
    /// `--trace 1`: report per-layer metrics from an untraced pass, a traced
    /// pass and the layer probes, instead of the end-to-end metrics.
    pub trace: bool,
    pub tracer: Tracer,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, size: Size, trace: bool) -> Self {
        Ctx {
            seed,
            seconds,
            size,
            trace,
            tracer: Tracer::new(false),
        }
    }

    pub fn pick<T>(&self, full: T, tiny: T) -> T {
        match self.size {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// Named values with their sample counts.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub BTreeMap<&'static str, (f64, usize)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let previous = self.0.insert(name, (value, samples));
        debug_assert!(previous.is_none(), "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }
}

/// The counts the input-drift guard pins for seed 42.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InputPins {
    pub left_items: u64,
    pub right_items: u64,
    pub input_digest: u64,
    pub oracle_pairs: u64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations issued (joins, requests, append calls, selections).
    pub attempted: u64,
    /// Operations refused, failed or missing their latency limit.
    pub failed: u64,
    /// Correctness-gate violations; empty means correct.
    pub problems: Vec<String>,
    pub e2e: Metrics,
    pub layer: Metrics,
    pub pins: InputPins,
}

impl Report {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Per-layer: the charged work of one round / wave / pass in `usj_io`'s
    /// and `usj_core`'s own counters, priced on machine 3.
    pub fn set_charged_work(&mut self, io: &IoStats, cpu: &CpuCounter) {
        let cost = CostModel::new(MachineConfig::machine3()).observed(io, cpu);
        let m = &mut self.layer;
        m.set("io.pages_read", io.pages_read as f64, 1);
        m.set("io.pages_written", io.pages_written as f64, 1);
        m.set("io.seq_ops", (io.seq_read_ops + io.seq_write_ops) as f64, 1);
        m.set(
            "io.rand_ops",
            (io.rand_read_ops + io.rand_write_ops) as f64,
            1,
        );
        m.set("io.sim_io_s", cost.io_secs, 1);
        m.set("core.cpu_compare", cpu.get(CpuOp::Compare) as f64, 1);
        m.set("core.cpu_heap_op", cpu.get(CpuOp::HeapOp) as f64, 1);
        m.set("core.cpu_item_move", cpu.get(CpuOp::ItemMove) as f64, 1);
        m.set("core.sim_cpu_s", cost.cpu_secs, 1);
    }

    /// Per-layer: what generating the inputs took and their digest (its low
    /// 48 bits: exact in a JSON number).
    pub fn set_datagen(&mut self, gen_ms: f64) {
        self.layer.set("datagen.gen_ms", gen_ms, 1);
        let digest = self.pins.input_digest & ((1 << 48) - 1);
        self.layer.set("datagen.input_digest", digest as f64, 1);
    }
}

/// The `usj_rtree` probe: seeded window queries straight on `tree`, no
/// service. Sets `rtree.window_us` / `rtree.nodes_per_window`, checks the
/// first answers against a brute-force filter of `items`, and returns the
/// microseconds per window.
pub fn window_probe(
    ctx: &mut Ctx,
    tr: &mut Tracer,
    report: &mut Report,
    tree: &RTree,
    env: &mut SimEnv,
    region: Rect,
    items: &[Item],
) -> Result<f64, IoSimError> {
    let n = ctx.pick(1_000, 100);
    let mut rng = gen::rng_for(ctx.seed, gen::DOMAIN_PROBE, 0);
    let windows: Vec<Rect> = (0..n)
        .map(|_| gen::window_in(&mut rng, region, 0.005, 0.05))
        .collect();
    let mut store = NodeStore::with_capacity_bytes(1024 * 1024);
    let op = tr.begin_op("probe.rtree.window_query");
    let (found, ns) = timed(|| -> Result<Vec<usize>, IoSimError> {
        windows
            .iter()
            .map(|w| Ok(tree.window_query_pooled(env, &mut store, w)?.len()))
            .collect()
    });
    tr.end(op);
    let window_us = ns / 1e3 / n as f64;
    report.layer.set("rtree.window_us", window_us, n);
    report.layer.set(
        "rtree.nodes_per_window",
        store.stats().requests() as f64 / n as f64,
        n,
    );
    for (w, got) in windows.iter().zip(&found?).take(10) {
        let want = oracle::window_ids(items, w).len();
        report.check(want == *got, || {
            format!("window probe found {got}, brute force {want}")
        });
    }
    Ok(window_us)
}

/// Runs `round` until `budget` is used up: `at_least` times, and again only
/// while half a typical round still fits, so passes end near the budget
/// instead of a whole round past it.
pub fn rounds_within(budget: Duration, at_least: usize, mut round: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut done = 0;
    loop {
        round(done);
        done += 1;
        let elapsed = start.elapsed();
        if done >= at_least && elapsed + elapsed / (2 * done as u32) >= budget {
            return done;
        }
    }
}

/// The set-up samples of a run. The fixtures are built a few times before
/// measuring and again every so often while measuring (those builds are
/// dropped), so that `setup_s` sees the host over the whole run and not
/// only over its first half second: a burst of host noise that covers every
/// build of a run would otherwise move the metric by the burst's 1.5x.
pub struct Setups {
    pub seconds: Vec<f64>,
    last: Instant,
}

impl Setups {
    /// Builds until three builds are done, more (up to nine) while cheap,
    /// and keeps the last one to measure on.
    pub fn begin<F>(tr: &mut Tracer, mut build: impl FnMut(&mut Tracer) -> F) -> (F, Setups) {
        let phase = tr.begin("phase.setup");
        let mut setups = Setups {
            seconds: Vec::new(),
            last: Instant::now(),
        };
        let start = Instant::now();
        loop {
            let (fixture, ns) = timed(|| build(tr));
            setups.seconds.push(ns / 1e9);
            let cheap = start.elapsed() < Duration::from_millis(300);
            if setups.seconds.len() >= 9 || (setups.seconds.len() >= 3 && !cheap) {
                tr.end(phase);
                setups.last = Instant::now();
                return (fixture, setups);
            }
        }
    }

    /// Between two measured units: when one is due, another sample. It is
    /// the second of two builds in a row, like the samples of `begin`, so
    /// that all of them find the allocator and the caches as a build leaves
    /// them and not as a join does. Builds take about a tenth of the run
    /// and come at most once a second.
    pub fn again<F>(&mut self, mut build: impl FnMut() -> F) {
        let typical = Duration::from_secs_f64(median(&self.seconds));
        if self.last.elapsed() < (20 * typical).max(Duration::from_secs(1)) {
            return;
        }
        drop(build());
        let (fixture, ns) = timed(build);
        drop(fixture);
        self.seconds.push(ns / 1e9);
        self.last = Instant::now();
    }

    /// `setup_s`: the fast quartile of the builds.
    pub fn setup_s(&self) -> f64 {
        fast_quartile(&self.seconds)
    }
}

/// Runs `f`; its result and the wall nanoseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed().as_nanos() as f64)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
