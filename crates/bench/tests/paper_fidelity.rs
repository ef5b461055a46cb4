//! The paper's Section 6 outcomes as assertions.
//!
//! Everything here is in simulated seconds and page counts at the `repro`
//! default (scale 200, seed 42), so the numbers are exact and repeatable:
//! a refactor that changes who wins, or where the index stops paying off,
//! fails here instead of silently drifting away from the source. What the
//! reduced scale does *not* reproduce is listed in KNOWN_FAILURES.md.

use usj_bench::{crossover_rows, fig3_rows, table4_rows, ExperimentConfig, Fig3Row};
use usj_core::{cost::crossover_fraction, JoinPlan};
use usj_datagen::Preset;
use usj_io::MachineConfig;

// Positions in `Fig3Row::costs` (`JoinAlgorithm::all()` order).
const SSSJ: usize = 0;
const ST: usize = 3;

fn config(presets: &[Preset]) -> ExperimentConfig {
    ExperimentConfig {
        scale: 200,
        seed: 42,
        presets: presets.to_vec(),
    }
}

#[test]
fn table4_pq_requests_every_index_page_exactly_once() {
    for row in table4_rows(&config(&Preset::all())) {
        assert_eq!(
            row.pq_requests, row.lower_bound,
            "{}: PQ must request each index node exactly once",
            row.preset
        );
        assert!(
            row.st_requests >= row.lower_bound,
            "{}: ST cannot beat one request per node ({} < {})",
            row.preset,
            row.st_requests,
            row.lower_bound
        );
    }
}

fn st_over_sssj(row: &Fig3Row) -> f64 {
    row.costs[ST].total_secs() / row.costs[SSSJ].total_secs()
}

#[test]
fn fig3_sssj_wins_on_sequential_io_and_st_is_closest_on_the_slow_cpu() {
    let cfg = config(&[Preset::Disk1, Preset::Disk1_6]);
    let machine1 = fig3_rows(&cfg, &MachineConfig::machine1());
    let machine3 = fig3_rows(&cfg, &MachineConfig::machine3());

    for (machine, rows) in [
        ("machine 2", &fig3_rows(&cfg, &MachineConfig::machine2())),
        ("machine 3", &machine3),
    ] {
        for row in rows {
            // SSSJ strictly lowest also means PBSM wins on neither data set.
            let sssj = row.costs[SSSJ];
            for (other, cost) in row.costs.iter().enumerate().filter(|&(i, _)| i != SSSJ) {
                assert!(
                    sssj.total_secs() < cost.total_secs(),
                    "{machine} {}: SSSJ {:.3} s is not below algorithm #{other}'s {:.3} s",
                    row.preset,
                    sssj.total_secs(),
                    cost.total_secs()
                );
                assert!(
                    sssj.io_secs <= cost.io_secs,
                    "{machine} {}: SSSJ's sequential I/O ({:.3} s) costs more than algorithm \
                     #{other}'s ({:.3} s)",
                    row.preset,
                    sssj.io_secs,
                    cost.io_secs
                );
            }
        }
    }

    for (slow_cpu, fast_cpu) in machine1.iter().zip(&machine3) {
        let (m1, m3) = (st_over_sssj(slow_cpu), st_over_sssj(fast_cpu));
        assert!(
            (m1 - 1.0).abs() < (m3 - 1.0).abs(),
            "{}: ST/SSSJ is {m1:.2} on machine 1 and {m3:.2} on machine 3 — ST should be \
             closest on the slow CPU",
            slow_cpu.preset
        );
    }
}

#[test]
fn section_6_3_indexes_pay_off_only_on_a_small_touched_fraction() {
    let fraction = crossover_fraction(&MachineConfig::machine1());
    assert!(
        fraction > 0.5 && fraction < 0.65,
        "machine 1 crossover fraction {fraction:.3} is not the paper's ~60 %"
    );

    let rows = crossover_rows(&config(&[Preset::Disk1]), Preset::Disk1);
    let plans: Vec<JoinPlan> = rows.iter().map(|r| r.estimate.plan()).collect();
    assert_eq!(plans.first(), Some(&JoinPlan::NonIndexed), "100 % window");
    assert_eq!(plans.last(), Some(&JoinPlan::Indexed), "5 % window");
    let flips = plans.windows(2).filter(|w| w[0] != w[1]).count();
    assert_eq!(flips, 1, "the plan must flip exactly once along {plans:?}");

    for row in &rows {
        let pct = row.window_frac * 100.0;
        if row.window_frac <= 0.1 {
            assert!(
                row.pq_secs < row.sssj_secs,
                "{pct:.0} % window: pruned PQ {:.3} s should beat SSSJ {:.3} s",
                row.pq_secs,
                row.sssj_secs
            );
        }
        if row.window_frac >= 0.4 {
            assert!(
                row.pq_secs > row.sssj_secs,
                "{pct:.0} % window: SSSJ {:.3} s should beat pruned PQ {:.3} s",
                row.sssj_secs,
                row.pq_secs
            );
        }
    }
}
