//! What `/BENCHMARK.json` declares and what `pins.json` pins, both compiled
//! in, so the binary cannot disagree with the files a reader sees.

use std::sync::OnceLock;

use crate::common::InputPins;
use crate::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");
const PINS_JSON: &str = include_str!("../pins.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Declared {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Declared {
    pub fn metric(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|d| d.name == name)
    }
}

fn metric_decls(list: &Value) -> Vec<MetricDecl> {
    let text = |m: &Value, key: &str| {
        m.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("metric lacks '{key}'"))
            .to_string()
    };
    list.as_arr()
        .iter()
        .map(|m| MetricDecl {
            name: text(m, "name"),
            unit: text(m, "unit"),
            higher_is_better: text(m, "better") == "higher",
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

pub fn declared() -> &'static Declared {
    static DECLARED: OnceLock<Declared> = OnceLock::new();
    DECLARED.get_or_init(|| {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let section = |key: &str| {
            doc.get(key)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks '{key}'"))
        };
        Declared {
            run_seconds: section("run_seconds")
                .as_f64()
                .expect("run_seconds is a number"),
            workloads: section("workloads")
                .as_arr()
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Value::as_str)
                        .expect("workload name")
                        .to_string()
                })
                .collect(),
            end_to_end: metric_decls(section("end_to_end")),
            per_layer: metric_decls(section("per_layer")),
        }
    })
}

/// The pinned inputs of `workload` for `seed`, if that seed is pinned.
pub fn pinned(workload: &str, seed: u64) -> Option<InputPins> {
    let doc = json::parse(PINS_JSON).expect("pins.json parses");
    if doc.get("seed").and_then(Value::as_f64) != Some(seed as f64) {
        return None;
    }
    let w = doc.get("workloads")?.get(workload)?;
    let count = |key: &str| w.get(key).and_then(Value::as_f64).expect("pinned count") as u64;
    let digest = w
        .get("input_digest")
        .and_then(Value::as_str)
        .expect("pinned digest");
    Some(InputPins {
        left_items: count("left_items"),
        right_items: count("right_items"),
        input_digest: u64::from_str_radix(digest, 16).expect("pinned digest is hex"),
        oracle_pairs: count("oracle_pairs"),
    })
}

/// Input-drift guard: for a pinned seed the generated inputs and the oracle
/// pair count must be the pinned ones, or a later `usj_datagen` or predicate
/// change has silently moved every number.
pub fn check_pins(workload: &str, seed: u64, got: &InputPins) -> Result<(), String> {
    match pinned(workload, seed) {
        Some(want) if want != *got => Err(format!(
            "pins.json has {want:?}, this build generated {got:?} \
             (input_digest {:016x}); re-pin only in a change that means to move the inputs",
            got.input_digest
        )),
        _ => Ok(()),
    }
}
