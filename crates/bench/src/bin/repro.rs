//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--scale N] [--seed N] [--presets NJ,NY,...]
//!
//! experiments:
//!   table2 table3 table4 fig2-estimated fig2-observed fig3 crossover
//!   ablation-sweep ablation-buffer ablation-tiles ablation-packing
//!   faults all
//! ```
//!
//! Everything is printed in simulated currency and every experiment asserts
//! its own invariants; nothing is written to disk.

use usj_bench::*;
use usj_datagen::Preset;

fn parse_config(args: &[String]) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                cfg.scale = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale expects a positive integer"));
            }
            "--seed" => {
                i += 1;
                cfg.seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed expects an integer"));
            }
            "--presets" => {
                i += 1;
                let list = args
                    .get(i)
                    .unwrap_or_else(|| die("--presets expects a list"));
                cfg.presets = list
                    .split(',')
                    .map(|name| {
                        Preset::parse(name)
                            .unwrap_or_else(|| die(&format!("unknown preset '{name}'")))
                    })
                    .collect();
            }
            other => die(&format!("unknown option '{other}'")),
        }
        i += 1;
    }
    cfg
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: repro <experiment> [--scale N] [--seed N] [--presets NJ,NY,...]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(experiment) = args.first() else {
        die("missing experiment name");
    };
    let cfg = parse_config(&args[1..]);
    println!(
        "# unified-spatial-join repro — experiment '{}', scale 1/{}, seed {}",
        experiment, cfg.scale, cfg.seed
    );
    match experiment.as_str() {
        "table2" => table2(&cfg),
        "table3" => table3(&cfg),
        "table4" => table4(&cfg),
        "fig2-estimated" => fig2(&cfg, false),
        "fig2-observed" => fig2(&cfg, true),
        "fig2" => {
            fig2(&cfg, false);
            fig2(&cfg, true);
        }
        "fig3" => fig3(&cfg),
        "crossover" => crossover(&cfg),
        "ablation-sweep" => ablation_sweep(&cfg),
        "ablation-buffer" => ablation_buffer(&cfg),
        "ablation-tiles" => ablation_tiles(&cfg),
        "ablation-packing" => ablation_packing(&cfg),
        "faults" => {
            faults_bench(&cfg);
        }
        "all" => {
            run_all(&cfg);
            faults_bench(&cfg);
        }
        other => die(&format!("unknown experiment '{other}'")),
    }
}
