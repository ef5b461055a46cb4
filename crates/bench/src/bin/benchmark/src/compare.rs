//! `--check-repeat DIR…` and `--compare A B`: read result sets written with
//! `--out DIR` and judge them by the rules the acceptance checks use.
//!
//! A result set is `DIR/results.jsonl`: one line per run, holding the
//! workload, seed, trace flag and the result object the run printed.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::spec::{self, MetricDecl};
use crate::stats::{median, quartiles};

pub const RESULTS_FILE: &str = "results.jsonl";

/// One line of a result set.
pub fn result_line(workload: &str, seed: u64, seconds: f64, trace: bool, result: &str) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \"result\": {result}}}",
        trace as u8
    )
}

/// `(workload, metric) -> [(seed, value)]` in run order.
type Samples = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn load(dir: &str) -> Result<Samples, String> {
    let path = Path::new(dir).join(RESULTS_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut samples = Samples::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("{}:{}: no '{key}'", path.display(), n + 1))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_f64().unwrap_or_default() as u64;
        let metrics = field("result")?
            .get("metrics")
            .map(Value::as_obj)
            .unwrap_or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                samples
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push((seed, v));
            }
        }
    }
    Ok(samples)
}

struct Summary {
    n: usize,
    median: f64,
    q1: f64,
    q3: f64,
    min: f64,
    max: f64,
}

impl Summary {
    fn of(values: &[(u64, f64)]) -> Summary {
        let v: Vec<f64> = values.iter().map(|(_, v)| *v).collect();
        let (q1, q3) = if v.len() >= 2 {
            quartiles(&v)
        } else {
            (v[0], v[0])
        };
        Summary {
            n: v.len(),
            median: median(&v),
            q1,
            q3,
            min: v.iter().copied().fold(f64::INFINITY, f64::min),
            max: v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    fn share_of_median(&self, distance: f64) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            distance / self.median.abs()
        }
    }

    /// Inter-quartile distance as a share of the median: the spread the
    /// pipeline's acceptance check judges.
    fn spread(&self) -> f64 {
        self.share_of_median(self.q3 - self.q1)
    }

    /// (max − min) as a share of the median: the spread ISSUE 14's
    /// demotion rule names.
    fn range(&self) -> f64 {
        self.share_of_median(self.max - self.min)
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(decl: &MetricDecl, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if decl.higher_is_better {
        -change
    } else {
        change
    }
}

/// Same-seed runs of an exact-count metric must agree to the bit.
fn exact_mismatch(name: &str, values: &[(u64, f64)]) -> bool {
    const EXACT: [&str; 2] = ["sim_s", "peak_mem_bytes"];
    let exact = EXACT.contains(&name)
        || name.starts_with("io.pages")
        || name.starts_with("sweep.spill")
        || name.starts_with("sweep.rect_tests")
        || name == "datagen.input_digest";
    exact
        && values.iter().any(|(seed, v)| {
            values
                .iter()
                .any(|(s2, v2)| s2 == seed && v2.to_bits() != v.to_bits())
        })
}

/// `--check-repeat DIR…`: per metric × workload the median and quartiles of
/// each set with both spreads — inter-quartile and (max − min), each over
/// the median — flagging either one above the declared bound, an
/// exact-count metric that differs between same-seed runs, and — between
/// consecutive sets — a median that got worse by more than the bound.
/// Capital flags fail the check; `range>bound` (one outlying run in a set
/// of different seeds) is shown but does not.
pub fn check_repeat(dirs: &[String]) -> ExitCode {
    if dirs.is_empty() {
        eprintln!("--check-repeat needs at least one result directory");
        return ExitCode::from(2);
    }
    let mut sets = Vec::new();
    for dir in dirs {
        match load(dir) {
            Ok(samples) => sets.push(samples),
            Err(e) => {
                eprintln!("benchmark: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let declared = spec::declared();
    let mut flagged = 0;
    println!(
        "{:<13} {:<26} {:>3} {:>3} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}  flags",
        "workload", "metric", "set", "n", "q1", "median", "q3", "iqr", "range", "bound"
    );
    for key in sets[0].keys() {
        let Some(decl) = declared.metric(&key.1) else {
            continue;
        };
        let mut previous: Option<f64> = None;
        for (k, set) in sets.iter().enumerate() {
            let Some(values) = set.get(key) else { continue };
            let s = Summary::of(values);
            let mut flags = Vec::new();
            if let Some(bound) = decl.bound {
                // setup_s is judged on its median only, like the driver does.
                if s.n >= 2 && key.1 != "setup_s" {
                    if s.spread() > bound {
                        flags.push(format!("IQR>{bound}"));
                    } else if s.spread() > bound / 3.0 {
                        flags.push("iqr>bound/3".to_string());
                    }
                    if s.range() > bound {
                        flags.push("range>bound".to_string());
                    }
                }
                if let Some(first) = previous {
                    let worse = worsening(decl, first, s.median);
                    if worse > bound {
                        flags.push(format!("MEDIAN WORSE BY {:.1}%", 100.0 * worse));
                    }
                }
            }
            if exact_mismatch(&key.1, values) {
                flags.push("EXACT COUNT DIFFERS".to_string());
            }
            flagged += flags
                .iter()
                .filter(|f| f.starts_with(char::is_uppercase))
                .count();
            println!(
                "{:<13} {:<26} {:>3} {:>3} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>6}  {}",
                key.0,
                key.1,
                k + 1,
                s.n,
                s.q1,
                s.median,
                s.q3,
                100.0 * s.spread(),
                100.0 * s.range(),
                decl.bound
                    .map_or("-".to_string(), |b| format!("{:.0}%", 100.0 * b)),
                flags.join(" ")
            );
            previous = Some(s.median);
        }
    }
    if flagged == 0 {
        println!("repeatability: every bounded metric within its bound");
        ExitCode::SUCCESS
    } else {
        println!("repeatability: {flagged} flag(s)");
        ExitCode::from(1)
    }
}

/// `--compare A B`: A is the parent, B the change. Runs pair up in order.
/// A gain needs B to win at least nine tenths of the pairs (ties count for
/// neither) *and* the medians to differ by more than A's own inter-quartile
/// distance; a regression is a median worse by more than the bound.
pub fn compare(dirs: &[String]) -> ExitCode {
    let [a, b] = dirs else {
        eprintln!("--compare needs exactly two result directories");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let declared = spec::declared();
    let mut regressions = 0;
    println!(
        "{:<13} {:<26} {:>5} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "pairs", "median A", "median B", "change", "B wins"
    );
    for (key, va) in &a {
        let (Some(vb), Some(decl)) = (b.get(key), declared.metric(&key.1)) else {
            continue;
        };
        let (sa, sb) = (Summary::of(va), Summary::of(vb));
        let pairs = va.len().min(vb.len());
        let wins = va
            .iter()
            .zip(vb)
            .filter(|((_, x), (_, y))| worsening(decl, *x, *y) < 0.0)
            .count();
        let worse = worsening(decl, sa.median, sb.median);
        let verdict = match decl.bound {
            Some(bound) if worse > bound && sa.spread() > bound => "unresolved (spread > bound)",
            Some(bound) if worse > bound => {
                regressions += 1;
                "REGRESSION"
            }
            _ if 10 * wins >= 9 * pairs
                && pairs >= 10
                && (sb.median - sa.median).abs() > sa.q3 - sa.q1 =>
            {
                "gain"
            }
            _ => "no change shown",
        };
        println!(
            "{:<13} {:<26} {:>5} {:>14.4} {:>14.4} {:>7.2}% {:>4}/{:<2}  {}",
            key.0,
            key.1,
            pairs,
            sa.median,
            sb.median,
            -100.0 * worse,
            wins,
            pairs,
            verdict
        );
    }
    if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_the_direction() {
        let lower = MetricDecl {
            name: "x".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound: Some(0.1),
        };
        let higher = MetricDecl {
            higher_is_better: true,
            ..lower.clone()
        };
        assert!((worsening(&lower, 100.0, 120.0) - 0.2).abs() < 1e-12);
        assert!((worsening(&higher, 100.0, 120.0) + 0.2).abs() < 1e-12);
        assert!(exact_mismatch("sim_s", &[(1, 2.0), (1, 2.5)]));
        assert!(!exact_mismatch("sim_s", &[(1, 2.0), (2, 2.5), (1, 2.0)]));
        assert!(!exact_mismatch("op_p50_us", &[(1, 2.0), (1, 2.5)]));
    }

    #[test]
    fn result_lines_round_trip() {
        let line = result_line(
            "join_tiger",
            7,
            2.0,
            true,
            "{\"metrics\": {\"sim_s\": {\"value\": 1.5, \"unit\": \"s\"}}}",
        );
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("seed").and_then(Value::as_f64), Some(7.0));
        let v = doc
            .get("result")
            .unwrap()
            .get("metrics")
            .unwrap()
            .get("sim_s")
            .unwrap()
            .get("value");
        assert_eq!(v.and_then(Value::as_f64), Some(1.5));
    }
}
