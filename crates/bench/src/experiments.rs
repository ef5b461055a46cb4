//! The experiments: one function per table/figure of the paper.

use usj_core::{
    cost::crossover_fraction, Algo, CostEstimate, JoinAlgorithm, JoinInput, JoinOperator, JoinPlan,
    JoinResult, PbsmJoin, PqJoin, QueryPlan, SpatialQuery, SssjJoin, StJoin,
};
use usj_datagen::{Preset, Workload, WorkloadSpec};
use usj_geom::{Item, Rect};
use usj_io::{CostBreakdown, CpuCounter, IoStats, MachineConfig, SimEnv};
use usj_rtree::{bulk::bulk_load, BulkLoadConfig, RTree};
use usj_sweep::{sweep_join, ForwardSweep, StripedSweep};

use crate::setup::{ExperimentConfig, PreparedWorkload};

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Table 2: object counts, data size and R-tree size of every preset, plus
/// the output size of the road–hydro join.
pub fn table2(cfg: &ExperimentConfig) {
    println!("\n== Table 2: data sets (scale divisor {}) ==", cfg.scale);
    println!(
        "{:<10} {:>12} {:>10} {:>10} | {:>12} {:>10} {:>10} | {:>12}",
        "Data set",
        "Road objs",
        "Data MB",
        "Rtree MB",
        "Hydro objs",
        "Data MB",
        "Rtree MB",
        "Output"
    );
    for &preset in &cfg.presets {
        let mut p = PreparedWorkload::build(preset, cfg, MachineConfig::machine3());
        let output = p.run_indexed(&PqJoin::default()).pairs;
        println!(
            "{:<10} {:>12} {:>10.2} {:>10.2} | {:>12} {:>10.2} {:>10.2} | {:>12}",
            preset.name(),
            p.workload.roads.len(),
            mb(p.workload.road_stats().data_bytes),
            mb(p.roads_tree.size_bytes()),
            p.workload.hydro.len(),
            mb(p.workload.hydro_stats().data_bytes),
            mb(p.hydro_tree.size_bytes()),
            output,
        );
    }
    println!(
        "(paper, unscaled: NJ 414,442/50,853 objects, output 130,756 … DISK1-6 29,088,173/7,413,353, output 17,938,533)"
    );
}

/// Table 3: maximal memory usage of the PQ join — the priority queues
/// (including staged leaf buffers) and the sweep-line structure.
pub fn table3(cfg: &ExperimentConfig) {
    println!(
        "\n== Table 3: PQ memory usage in MB (scale divisor {}) ==",
        cfg.scale
    );
    println!(
        "{:<10} {:>16} {:>16} {:>10} {:>14}",
        "Data set", "Priority queue", "Sweep structure", "Total", "% of data"
    );
    for &preset in &cfg.presets {
        let mut p = PreparedWorkload::build(preset, cfg, MachineConfig::machine3());
        let res = p.run_indexed(&PqJoin::default());
        let data_bytes = p.workload.road_stats().data_bytes + p.workload.hydro_stats().data_bytes;
        let total = res.memory.priority_queue_bytes + res.memory.sweep_structure_bytes;
        println!(
            "{:<10} {:>16.3} {:>16.3} {:>10.3} {:>13.2}%",
            preset.name(),
            mb(res.memory.priority_queue_bytes as u64),
            mb(res.memory.sweep_structure_bytes as u64),
            mb(total as u64),
            100.0 * total as f64 / data_bytes as f64,
        );
    }
    println!(
        "(paper: PQ total grows from 0.41 MB on NJ to 5.19 MB on DISK1-6, always < 1% of the data)"
    );
}

/// One data set of Table 4.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Data set.
    pub preset: Preset,
    /// One request per node of both indexes.
    pub lower_bound: u64,
    /// Index pages PQ requested from disk.
    pub pq_requests: u64,
    /// Index pages ST requested from disk.
    pub st_requests: u64,
}

/// Computes Table 4: pages requested from disk by the two indexed joins,
/// against the lower bound of one request per index node.
pub fn table4_rows(cfg: &ExperimentConfig) -> Vec<Table4Row> {
    cfg.presets
        .iter()
        .map(|&preset| {
            let mut p = PreparedWorkload::build(preset, cfg, MachineConfig::machine3());
            let lower_bound = p.roads_tree.nodes() + p.hydro_tree.nodes();
            let pq = p.run_indexed(&PqJoin::default());
            p.reset();
            let st = p.run_indexed(&StJoin::default());
            Table4Row {
                preset,
                lower_bound,
                pq_requests: pq.index_page_requests,
                st_requests: st.index_page_requests,
            }
        })
        .collect()
}

/// Prints Table 4 ([`table4_rows`]).
pub fn table4(cfg: &ExperimentConfig) {
    println!(
        "\n== Table 4: page requests during joining (scale divisor {}) ==",
        cfg.scale
    );
    println!(
        "{:<10} {:>12} {:>12} {:>8} {:>12} {:>8}",
        "Data set", "Lower bound", "PQ total", "PQ avg", "ST total", "ST avg"
    );
    for row in table4_rows(cfg) {
        println!(
            "{:<10} {:>12} {:>12} {:>8.2} {:>12} {:>8.2}",
            row.preset.name(),
            row.lower_bound,
            row.pq_requests,
            row.pq_requests as f64 / row.lower_bound as f64,
            row.st_requests,
            row.st_requests as f64 / row.lower_bound as f64,
        );
    }
    println!("(paper: PQ always exactly 1.00x the lower bound; ST 1.00x on NJ/NY, 1.14-1.63x on the large sets)");
}

/// Figure 2: estimated (a–c) or observed (d–f) cost of the indexed joins on
/// the three machines.
pub fn fig2(cfg: &ExperimentConfig, observed: bool) {
    let label = if observed { "observed" } else { "estimated" };
    println!("\n== Figure 2 ({label}): PQ vs ST join cost in simulated seconds ==");
    for machine in MachineConfig::all() {
        println!("\n-- {} ({}) --", machine.name, machine.workstation);
        println!(
            "{:<10} {:>5} {:>10} {:>10} {:>10}   {:>5} {:>10} {:>10} {:>10}",
            "Data set", "", "PQ cpu", "PQ io", "PQ total", "", "ST cpu", "ST io", "ST total"
        );
        for &preset in &cfg.presets {
            let mut p = PreparedWorkload::build(preset, cfg, machine.clone());
            let pq = p.run_indexed(&PqJoin::default());
            p.reset();
            let st = p.run_indexed(&StJoin::default());
            let (pq_c, st_c) = if observed {
                (pq.observed_cost(&machine), st.observed_cost(&machine))
            } else {
                (pq.estimated_cost(&machine), st.estimated_cost(&machine))
            };
            println!(
                "{:<10} {:>5} {:>10.2} {:>10.2} {:>10.2}   {:>5} {:>10.2} {:>10.2} {:>10.2}",
                preset.name(),
                "PQ",
                pq_c.cpu_secs,
                pq_c.io_secs,
                pq_c.total_secs(),
                "ST",
                st_c.cpu_secs,
                st_c.io_secs,
                st_c.total_secs(),
            );
        }
    }
    if observed {
        println!("(paper: observed times diverge from the estimates — ST gains from the sequential layout of bulk-loaded trees, most visibly on Machine 3)");
    } else {
        println!(
            "(paper: under the all-random estimate there is no clear winner between PQ and ST)"
        );
    }
}

/// One data set of Figure 3 on one machine.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Data set.
    pub preset: Preset,
    /// Observed cost per algorithm, in [`JoinAlgorithm::all`] order
    /// (SSSJ, PBSM, PQ, ST).
    pub costs: [CostBreakdown; 4],
}

/// Computes one machine's panel of Figure 3: the observed cost of all four
/// algorithms on every preset.
pub fn fig3_rows(cfg: &ExperimentConfig, machine: &MachineConfig) -> Vec<Fig3Row> {
    cfg.presets
        .iter()
        .map(|&preset| Fig3Row {
            preset,
            costs: JoinAlgorithm::all().map(|alg| {
                let mut p = PreparedWorkload::build(preset, cfg, machine.clone());
                p.run_algorithm(alg).observed_cost(machine)
            }),
        })
        .collect()
}

/// Prints Figure 3 ([`fig3_rows`] on the three machines).
pub fn fig3(cfg: &ExperimentConfig) {
    println!("\n== Figure 3: observed join cost of SJ/PB/PQ/ST in simulated seconds ==");
    for machine in MachineConfig::all() {
        println!(
            "\n-- {} ({}, {:.1} ms avg read) --",
            machine.name, machine.workstation, machine.avg_read_ms
        );
        println!(
            "{:<10} {:>14} {:>14} {:>14} {:>14}",
            "Data set", "SJ (cpu+io)", "PB (cpu+io)", "PQ (cpu+io)", "ST (cpu+io)"
        );
        for row in fig3_rows(cfg, &machine) {
            let cells = row
                .costs
                .map(|c| format!("{:.1}+{:.1}", c.cpu_secs, c.io_secs));
            println!(
                "{:<10} {:>14} {:>14} {:>14} {:>14}",
                row.preset.name(),
                cells[0],
                cells[1],
                cells[2],
                cells[3]
            );
        }
    }
    println!("(paper: SSSJ wins almost everywhere on total time despite doing the most I/O, because its I/O is sequential; ST is closest on the slow-CPU Machine 1)");
}

/// Window fractions of the Section 6.3 experiment, widest first.
pub const CROSSOVER_WINDOWS: [f32; 6] = [1.0, 0.6, 0.4, 0.25, 0.1, 0.05];

/// The hydrography of `workload` that lies inside the square in the lower
/// left corner of its region covering `window_frac` of its area: the
/// Section 6.3 experiment's "hydrography of one state".
pub fn crossover_hydro(workload: &Workload, window_frac: f32) -> Vec<Item> {
    let region = workload.region;
    let side = region.width() * window_frac.sqrt();
    let window = Rect::from_coords(
        region.lo.x,
        region.lo.y,
        region.lo.x + side,
        region.lo.y + side,
    );
    workload
        .hydro
        .iter()
        .copied()
        .filter(|it| window.contains(&it.rect))
        .collect()
}

/// One window of the Section 6.3 experiment as it ran: the `Algo::Auto`
/// plan with what resolving it charged, and both strategies' runs with the
/// pairs each reported.
#[derive(Debug, Clone)]
pub struct CrossoverRun {
    /// Fraction of the region's area the hydrography is clipped to.
    pub window_frac: f32,
    /// The `Algo::Auto` plan of the join.
    pub plan: QueryPlan,
    /// I/O charged by resolving the plan (the directory probe).
    pub plan_io: IoStats,
    /// CPU charged by resolving the plan.
    pub plan_cpu: CpuCounter,
    /// The pruned PQ join (the indexed plan).
    pub pq: JoinResult,
    /// The pairs the pruned PQ join reported, in order.
    pub pq_pairs: Vec<(u32, u32)>,
    /// SSSJ on the same inputs (the non-indexed plan).
    pub sssj: JoinResult,
    /// The pairs SSSJ reported, in order.
    pub sssj_pairs: Vec<(u32, u32)>,
}

/// Runs Section 6.3 on `machine`: the cost-based decision between indexed
/// and non-indexed execution on a localized join (hydrography of one
/// "state" against the roads of the whole `preset`), one run per window
/// fraction from 100 % down to 5 %. Both trees are built unaccounted; each
/// window plans under `Algo::Auto`, then runs pruned PQ and SSSJ on the
/// same device.
pub fn crossover_runs(
    cfg: &ExperimentConfig,
    preset: Preset,
    machine: &MachineConfig,
) -> Vec<CrossoverRun> {
    let workload = WorkloadSpec::preset(preset)
        .with_scale(cfg.scale)
        .generate(cfg.seed);
    CROSSOVER_WINDOWS
        .iter()
        .map(|&window_frac| {
            let clipped = crossover_hydro(&workload, window_frac);
            let mut env = SimEnv::new(machine.clone());
            let (roads_tree, hydro_tree) = env.unaccounted(|env| {
                (
                    RTree::bulk_load(env, &workload.roads).unwrap(),
                    RTree::bulk_load(env, &clipped).unwrap(),
                )
            });
            let (left, right) = (
                JoinInput::Indexed(&roads_tree),
                JoinInput::Indexed(&hydro_tree),
            );

            // The builder's Auto planner is the Section 6.3 selector. Each
            // step starts with the disk head parked, as a fresh run would.
            env.device.reset_stats();
            let m = env.begin();
            let plan = SpatialQuery::new(left, right)
                .algorithm(Algo::Auto)
                .plan(&mut env)
                .expect("query plan");
            let (plan_io, plan_cpu) = env.since(&m);

            // Run both strategies to see what the right call was.
            let mut pq_pairs = Vec::new();
            env.device.reset_stats();
            let pq = PqJoin::default()
                .with_pruning()
                .run_with(&mut env, left, right, &mut |l, r| pq_pairs.push((l, r)))
                .expect("pq");
            let mut sssj_pairs = Vec::new();
            env.device.reset_stats();
            let sssj = SssjJoin::default()
                .run_with(&mut env, left, right, &mut |l, r| sssj_pairs.push((l, r)))
                .expect("sssj");
            assert_eq!(pq.pairs, sssj.pairs, "both strategies must agree");
            CrossoverRun {
                window_frac,
                plan,
                plan_io,
                plan_cpu,
                pq,
                pq_pairs,
                sssj,
                sssj_pairs,
            }
        })
        .collect()
}

/// One window of the Section 6.3 experiment.
#[derive(Debug, Clone)]
pub struct CrossoverRow {
    /// Fraction of the region's area the hydrography is clipped to.
    pub window_frac: f32,
    /// The `Algo::Auto` planner's estimate (its `plan()` is the decision).
    pub estimate: CostEstimate,
    /// What the pruned PQ join charged, in observed simulated seconds.
    pub pq: CostBreakdown,
    /// What SSSJ on the same inputs charged.
    pub sssj: CostBreakdown,
    /// `pq`'s total (`tests/paper_fidelity.rs` reads it).
    pub pq_secs: f64,
    /// `sssj`'s total (`tests/paper_fidelity.rs` reads it).
    pub sssj_secs: f64,
}

impl CrossoverRow {
    /// The chosen plan's charge over the cheaper plan's: 1 when
    /// `Algo::Auto` picked the plan that charged less.
    pub fn regret(&self) -> f64 {
        let [pq, sssj] = [self.pq, self.sssj].map(|c| c.total_secs());
        let chosen = match self.estimate.plan() {
            JoinPlan::Indexed => pq,
            JoinPlan::NonIndexed => sssj,
        };
        chosen / pq.min(sssj)
    }
}

/// [`crossover_runs`] on `machine`, one row per window.
pub fn crossover_rows_on(
    cfg: &ExperimentConfig,
    preset: Preset,
    machine: &MachineConfig,
) -> Vec<CrossoverRow> {
    crossover_runs(cfg, preset, machine)
        .into_iter()
        .map(|run| {
            let [pq, sssj] = [run.pq, run.sssj].map(|res| res.observed_cost(machine));
            CrossoverRow {
                window_frac: run.window_frac,
                estimate: run.plan.cost.expect("auto plans carry the cost estimate"),
                pq,
                sssj,
                pq_secs: pq.total_secs(),
                sssj_secs: sssj.total_secs(),
            }
        })
        .collect()
}

/// [`crossover_rows_on`] Machine 3.
pub fn crossover_rows(cfg: &ExperimentConfig, preset: Preset) -> Vec<CrossoverRow> {
    crossover_rows_on(cfg, preset, &MachineConfig::machine3())
}

/// Prints Section 6.3 ([`crossover_rows_on`] the last configured preset)
/// on Machines 3 and 1: per window and plan, the estimate and the charge
/// as CPU + I/O seconds, the plan `Algo::Auto` chose and its regret.
pub fn crossover(cfg: &ExperimentConfig) {
    println!("\n== Section 6.3: cost-based index/no-index decision ==");
    let preset = *cfg.presets.last().unwrap_or(&Preset::Disk1);
    println!(
        "Roads: full {} data set; hydrography clipped to a shrinking window.",
        preset.name()
    );
    let cell = |c: &CostBreakdown| format!("{:.2}+{:.2}", c.cpu_secs, c.io_secs);
    for machine in [MachineConfig::machine3(), MachineConfig::machine1()] {
        println!(
            "\n-- {}: crossover fraction {:.2} (the paper's formula; '~60%' under its 10x random/sequential assumption) --",
            machine.name,
            crossover_fraction(&machine)
        );
        println!(
            "{:>7} {:>8} | {:>11} {:>11} | {:>11} {:>11} | {:>10} {:>6}",
            "window", "touched", "PQ est", "PQ charged", "SSSJ est", "SSSJ chgd", "plan", "regret"
        );
        for row in crossover_rows_on(cfg, preset, &machine) {
            let est = &row.estimate;
            println!(
                "{:>6.0}% {:>8.2} | {:>11} {:>11} | {:>11} {:>11} | {:>10} {:>6.2}",
                row.window_frac * 100.0,
                est.touched_fraction,
                cell(&est.indexed),
                cell(&row.pq),
                cell(&est.non_indexed),
                cell(&row.sssj),
                format!("{:?}", est.plan()),
                row.regret(),
            );
        }
    }
    println!("(cpu+io simulated seconds; PQ is pruned. Paper: index-based execution only pays off when the join touches a small fraction of the index)");
}

/// Ablation: Striped-Sweep vs Forward-Sweep inside the sweep-based joins.
pub fn ablation_sweep(cfg: &ExperimentConfig) {
    println!("\n== Ablation: Striped-Sweep vs Forward-Sweep (Sec. 3.1) ==");
    println!(
        "{:<10} {:>14} {:>16} {:>16} {:>8}",
        "Data set", "pairs", "Forward tests", "Striped tests", "ratio"
    );
    for &preset in &cfg.presets {
        let workload = WorkloadSpec::preset(preset)
            .with_scale(cfg.scale)
            .generate(cfg.seed);
        let f = sweep_join::<ForwardSweep, _>(&workload.roads, &workload.hydro, |_, _| {});
        let s = sweep_join::<StripedSweep, _>(&workload.roads, &workload.hydro, |_, _| {});
        assert_eq!(f.pairs, s.pairs);
        println!(
            "{:<10} {:>14} {:>16} {:>16} {:>7.1}x",
            preset.name(),
            f.pairs,
            f.rect_tests,
            s.rect_tests,
            f.rect_tests as f64 / s.rect_tests.max(1) as f64
        );
    }
    println!("(SSSJ paper: Striped-Sweep is 2-5x faster than Forward-Sweep on real data)");
}

/// Ablation: ST page requests as the buffer pool shrinks.
pub fn ablation_buffer(cfg: &ExperimentConfig) {
    println!("\n== Ablation: ST buffer-pool size (Sec. 6.2) ==");
    let preset = *cfg.presets.last().unwrap_or(&Preset::Disk1);
    println!("data set: {}", preset.name());
    println!(
        "{:>12} {:>14} {:>14} {:>10}",
        "pool", "page requests", "lower bound", "ratio"
    );
    for pool_mb in [22.0f64, 4.0, 1.0, 0.25, 0.0625] {
        let mut p = PreparedWorkload::build(preset, cfg, MachineConfig::machine3());
        let lower = p.roads_tree.nodes() + p.hydro_tree.nodes();
        let res = p.run_indexed(
            &StJoin::default().with_buffer_pool_bytes((pool_mb * 1024.0 * 1024.0) as usize),
        );
        println!(
            "{:>9.2} MB {:>14} {:>14} {:>9.2}x",
            pool_mb,
            res.index_page_requests,
            lower,
            res.index_page_requests as f64 / lower as f64
        );
    }
    println!(
        "(paper: once the trees exceed the pool, every page is requested 1.14-1.63x on average)"
    );
}

/// Ablation: PBSM tile-grid resolution (32x32 vs 128x128).
pub fn ablation_tiles(cfg: &ExperimentConfig) {
    println!("\n== Ablation: PBSM tile grid (Sec. 3.2) ==");
    let preset = *cfg.presets.last().unwrap_or(&Preset::Disk1);
    println!("data set: {}", preset.name());
    println!(
        "{:>8} {:>12} {:>18} {:>14}",
        "tiles", "pairs", "max partition MB", "pages written"
    );
    for tiles in [32usize, 64, 128] {
        let mut p = PreparedWorkload::build(preset, cfg, MachineConfig::machine3());
        let region = p.workload.region;
        let res = p.run_streams(
            &PbsmJoin::default()
                .with_tiles_per_side(tiles)
                .with_region(region),
        );
        println!(
            "{:>5}x{:<3} {:>12} {:>18.3} {:>14}",
            tiles,
            tiles,
            res.pairs,
            mb(res.memory.other_bytes as u64),
            res.io.pages_written
        );
    }
    println!("(paper: 32x32 tiles produced overfull partitions on TIGER data; 128x128 fixed it)");
}

/// Ablation: R-tree packing policy (75 % + 20 % area rule vs 100 % packing).
pub fn ablation_packing(cfg: &ExperimentConfig) {
    println!("\n== Ablation: R-tree packing policy (Sec. 3.3 / 7) ==");
    let preset = *cfg.presets.first().unwrap_or(&Preset::NJ);
    let workload = WorkloadSpec::preset(preset)
        .with_scale(cfg.scale)
        .generate(cfg.seed);
    println!("data set: {}", preset.name());
    println!(
        "{:>14} {:>10} {:>12} {:>16} {:>16}",
        "policy", "nodes", "leaf fill", "ST requests", "PQ requests"
    );
    for (name, bulk_cfg) in [
        ("75% + 20% area", BulkLoadConfig::default()),
        ("fully packed", BulkLoadConfig::fully_packed()),
    ] {
        let mut env = SimEnv::new(MachineConfig::machine3());
        let (rt, ht) = env.unaccounted(|env| {
            (
                bulk_load(env, &workload.roads, bulk_cfg).unwrap(),
                bulk_load(env, &workload.hydro, bulk_cfg).unwrap(),
            )
        });
        env.device.reset_stats();
        let st = StJoin::default()
            .run(&mut env, JoinInput::Indexed(&rt), JoinInput::Indexed(&ht))
            .expect("st");
        env.device.reset_stats();
        env.cpu = usj_io::CpuCounter::new();
        let pq = PqJoin::default()
            .run(&mut env, JoinInput::Indexed(&rt), JoinInput::Indexed(&ht))
            .expect("pq");
        assert_eq!(st.pairs, pq.pairs);
        println!(
            "{:>14} {:>10} {:>11.0}% {:>16} {:>16}",
            name,
            rt.nodes() + ht.nodes(),
            100.0 * rt.stats().avg_leaf_fill,
            st.index_page_requests,
            pq.index_page_requests
        );
    }
    println!("(paper: tightly packed, space-efficient structures perform better, at some risk of overlap)");
}

/// Runs every table, figure and ablation in sequence.
pub fn run_all(cfg: &ExperimentConfig) {
    table2(cfg);
    table3(cfg);
    table4(cfg);
    fig2(cfg, false);
    fig2(cfg, true);
    fig3(cfg);
    crossover(cfg);
    ablation_sweep(cfg);
    ablation_buffer(cfg);
    ablation_tiles(cfg);
    ablation_packing(cfg);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The experiments must at least run end-to-end on a tiny configuration;
    /// their numeric claims are covered by the per-crate tests and
    /// `tests/paper_fidelity.rs`.
    #[test]
    fn all_experiments_run_on_a_tiny_configuration() {
        let cfg = ExperimentConfig {
            scale: 2_000,
            seed: 7,
            presets: vec![Preset::NJ, Preset::NY],
        };
        run_all(&cfg);
    }
}
