//! Experiment harness for the EDBT 2000 evaluation.
//!
//! The `repro` binary in this crate regenerates every table and figure of the
//! paper's experimental section on the simulated substrate:
//!
//! | Command | Paper artefact |
//! |---|---|
//! | `repro table2` | Table 2 — data-set statistics |
//! | `repro table3` | Table 3 — PQ memory usage |
//! | `repro table4` | Table 4 — page requests of the indexed joins |
//! | `repro fig2-estimated` | Figure 2(a)–(c) — estimated PQ/ST cost |
//! | `repro fig2-observed` | Figure 2(d)–(f) — observed PQ/ST cost |
//! | `repro fig3` | Figure 3 — all four algorithms on all machines |
//! | `repro crossover` | Section 6.3 — cost-based index/no-index decision |
//! | `repro ablation-sweep` | Striped- vs Forward-Sweep (Sec. 3.1) |
//! | `repro ablation-buffer` | ST page requests vs buffer-pool size (Sec. 6.2) |
//! | `repro ablation-tiles` | PBSM 32×32 vs 128×128 tiles (Sec. 3.2) |
//! | `repro ablation-packing` | 75 %+20 % packing vs full packing (Sec. 7) |
//! | `repro faults` | chaos (not in the paper): the mixed service batch under seeded fault injection with bounded retry, panic/deadline probes, and a crash/recover durability loop |
//! | `repro all` | everything above |
//!
//! Every experiment accepts `--scale <divisor>` (default 200) which divides
//! the paper's object counts, `--seed <u64>` for the deterministic data
//! generator and `--presets <list>`. Absolute numbers therefore differ from
//! the paper; the *shape* of every comparison (who wins, by what factor,
//! where the crossover falls) is what the harness reproduces and what
//! `tests/paper_fidelity.rs` pins.
//!
//! `repro` prints simulated-currency tables and asserts its invariants
//! in-process; it writes no files. Wall-clock, machine-readable numbers come
//! from the repo benchmark only (`crates/bench/src/bin/benchmark`, declared
//! by `/BENCHMARK.json`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod experiments;
pub mod faults_exp;
pub mod quick;
pub mod setup;

pub use experiments::*;
pub use faults_exp::{faults_bench, FaultsBenchRow};
pub use quick::{BenchReport, QuickBench};
pub use setup::{ExperimentConfig, PreparedWorkload};
