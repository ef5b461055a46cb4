//! The repo benchmark. See README.md beside this package and
//! `/BENCHMARK.json`, which declares what this binary must print.
//!
//! `benchmark --workload NAME --seed N --seconds S --trace 0|1` runs one
//! workload and prints, as the last line of stdout, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of the traced run with
//! `--trace 1`. Human-readable detail goes to stderr.

mod common;
mod compare;
mod gen;
mod joins;
mod json;
mod live;
mod oracle;
mod serve;
mod spans;
mod spec;
mod stats;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use common::{Ctx, Report, Size};

const USAGE: &str = "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
[--out DIR]\n       benchmark --check-repeat DIR...\n       \
benchmark --compare DIR_A DIR_B\n\
workloads: join_tiger join_spill serve_select serve_mixed live_ingest";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `--out DIR`: append the result to `DIR/results.jsonl` (a result set for
    /// `--check-repeat` / `--compare`) and write the trace file there.
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: spec::declared().run_seconds,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !spec::declared().workloads.contains(&args.workload) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

/// Runs one workload at the given settings.
pub fn run_workload(name: &str, ctx: &mut Ctx) -> Report {
    match name {
        "join_tiger" => joins::run(ctx, joins::JoinWorkload::Tiger),
        "join_spill" => joins::run(ctx, joins::JoinWorkload::Spill),
        "serve_select" => serve::run(ctx, serve::ServeWorkload::Select),
        "serve_mixed" => serve::run(ctx, serve::ServeWorkload::Mixed),
        "live_ingest" => live::run(ctx),
        other => unreachable!("workload '{other}' was validated against BENCHMARK.json"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--check-repeat") => return compare::check_repeat(&argv[1..]),
        Some("--compare") => return compare::compare(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut ctx = Ctx::new(args.seed, args.seconds, Size::Full, args.trace);
    let mut report = run_workload(&args.workload, &mut ctx);

    // Input-drift guard: refuse to report numbers for inputs that moved.
    if let Err(e) = spec::check_pins(&args.workload, args.seed, &report.pins) {
        eprintln!("benchmark: input drift on {}: {e}", args.workload);
        return ExitCode::from(3);
    }

    let declared = spec::declared();
    let (decls, values) = if args.trace {
        (&declared.per_layer, &report.layer)
    } else {
        (&declared.end_to_end, &report.e2e)
    };
    for name in values.0.keys() {
        if !decls.iter().any(|d| d.name == *name) {
            report
                .problems
                .push(format!("metric {name} is not declared in BENCHMARK.json"));
        }
    }
    eprintln!(
        "{} seed {} ({} s, trace {}):",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let pins = &report.pins;
    eprintln!(
        "  inputs: {} x {} items, digest {:016x}, oracle {} pairs",
        pins.left_items, pins.right_items, pins.input_digest, pins.oracle_pairs
    );
    let mut fields = Vec::new();
    for d in decls {
        // A layer the workload never enters reports 0 in the per-layer
        // table; an end-to-end metric must have been measured.
        let (value, samples) = match values.0.get(d.name.as_str()) {
            Some(&(v, n)) => (v, n),
            None if args.trace => (0.0, 0),
            None => {
                report
                    .problems
                    .push(format!("end-to-end metric {} was not measured", d.name));
                (f64::NAN, 0)
            }
        };
        if !value.is_finite() {
            report
                .problems
                .push(format!("metric {} is not a finite number", d.name));
        }
        eprintln!(
            "  {:<28} {:>16.4} {:<6} (n = {samples})",
            d.name, value, d.unit
        );
        let number = if value.is_finite() {
            value.to_string()
        } else {
            "null".to_string()
        };
        fields.push(format!(
            "\"{}\": {{\"value\": {number}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }

    if args.trace {
        for row in ctx.tracer.self_times().iter().take(24) {
            eprintln!(
                "  self {:<34} {:>10.3} ms of {:>10.3} ms in {} spans",
                row.name,
                row.self_ns as f64 / 1e6,
                row.total_ns as f64 / 1e6,
                row.count
            );
        }
        let dir = args
            .out
            .clone()
            .unwrap_or_else(|| PathBuf::from(".bench_out"));
        let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, ctx.tracer.chrome_json()));
        match written {
            Ok(()) => eprintln!(
                "  trace: {} ({} spans)",
                path.display(),
                ctx.tracer.span_count()
            ),
            Err(e) => report
                .problems
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }

    for p in report.problems.iter().take(12) {
        eprintln!("  PROBLEM: {p}");
    }
    if report.problems.len() > 12 {
        eprintln!("  ... and {} more problems", report.problems.len() - 12);
    }
    let correct = report.problems.is_empty();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    if let Some(dir) = &args.out {
        let line =
            compare::result_line(&args.workload, args.seed, args.seconds, args.trace, &result);
        let appended = std::fs::create_dir_all(dir).and_then(|()| {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join(compare::RESULTS_FILE))?;
            writeln!(file, "{line}")
        });
        if let Err(e) = appended {
            eprintln!("benchmark: cannot append to {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    // The result line is last on stdout; a wrong run also exits non-zero.
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests;
