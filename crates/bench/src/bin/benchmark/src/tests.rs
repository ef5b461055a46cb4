//! Whole-workload tests at the tiny size: what each workload emits, that it
//! replays from its seed, and that it stresses what it claims to.

use std::collections::BTreeSet;

use crate::common::{Ctx, Report, Size};
use crate::json::{self, Value};
use crate::{run_workload, spec};

fn tiny(workload: &str, seed: u64, trace: bool) -> Report {
    let mut ctx = Ctx::new(seed, 0.3, Size::Tiny, trace);
    let report = run_workload(workload, &mut ctx);
    assert_eq!(
        report.problems,
        Vec::<String>::new(),
        "{workload} (trace {trace}) is incorrect"
    );
    // The tests share two vCPUs with each other, and a stall of 50 ms
    // inside a 0.1 s open-loop window is a missed latency limit, not a
    // wrong answer: only the serial workloads must be failure-free here.
    if !workload.starts_with("serve_") {
        assert_eq!(report.failed, 0, "{workload} had failed operations");
    }
    assert!(report.attempted > 0);
    if trace {
        assert!(ctx.tracer.span_count() > 10, "{workload} recorded spans");
        json::parse(&ctx.tracer.chrome_json()).expect("the Chrome trace is valid JSON");
    }
    report
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let declared = spec::declared();
    let end_to_end: BTreeSet<&str> = declared
        .end_to_end
        .iter()
        .map(|d| d.name.as_str())
        .collect();
    let per_layer: BTreeSet<&str> = declared.per_layer.iter().map(|d| d.name.as_str()).collect();
    let mut layer_seen = BTreeSet::new();
    for workload in &declared.workloads {
        // Dense by contract: every workload measures every end-to-end
        // metric, and none of them reads zero.
        let report = tiny(workload, 7, false);
        let got: BTreeSet<&str> = report.e2e.0.keys().copied().collect();
        assert_eq!(got, end_to_end, "{workload} end-to-end metrics");
        for (name, (value, samples)) in &report.e2e.0 {
            assert!(
                value.is_finite() && *value > 0.0 && *samples > 0,
                "{workload} {name} = {value}"
            );
        }
        assert!(report.layer.0.is_empty());

        // Per layer a workload reports only layers it enters (the rest
        // print as 0), and never an undeclared name.
        let report = tiny(workload, 7, true);
        assert!(report.e2e.0.is_empty());
        for (name, (value, _)) in &report.layer.0 {
            assert!(
                per_layer.contains(name),
                "{workload} emits undeclared {name}"
            );
            assert!(value.is_finite(), "{workload} {name} = {value}");
            layer_seen.insert(*name);
        }
        let overhead = report
            .layer
            .get("obs.trace_overhead")
            .expect("trace overhead is reported");
        assert!(overhead > 0.0, "{workload} trace overhead {overhead}");
    }
    assert_eq!(
        layer_seen, per_layer,
        "every declared per-layer metric has a workload that measures it"
    );
}

#[test]
fn same_seed_replays_inputs_and_exact_counts_and_another_seed_does_not() {
    const EXACT: [&str; 8] = [
        "io.pages_read",
        "io.pages_written",
        "io.seq_ops",
        "io.rand_ops",
        "sweep.spilled_items",
        "sweep.spill_runs",
        "sweep.rect_tests.pbsm",
        "datagen.input_digest",
    ];
    for workload in ["join_spill", "live_ingest"] {
        let (a, b, c) = (
            tiny(workload, 11, false),
            tiny(workload, 11, false),
            tiny(workload, 12, false),
        );
        assert_eq!(a.pins, b.pins, "{workload} inputs replay");
        assert_ne!(
            a.pins.input_digest, c.pins.input_digest,
            "{workload} inputs follow the seed"
        );
        for exact in ["sim_s", "peak_mem_bytes"] {
            assert_eq!(
                a.e2e.get(exact).map(f64::to_bits),
                b.e2e.get(exact).map(f64::to_bits),
                "{workload} {exact}"
            );
        }
    }
    let (a, b) = (tiny("join_spill", 11, true), tiny("join_spill", 11, true));
    for exact in EXACT {
        assert_eq!(a.layer.get(exact), b.layer.get(exact), "join_spill {exact}");
    }
    // The schedule of the serve workloads is the seed's too.
    let (a, b) = (
        tiny("serve_select", 11, false),
        tiny("serve_select", 11, false),
    );
    assert_eq!(a.pins, b.pins);
    assert_eq!(
        a.e2e.get("sim_s").map(f64::to_bits),
        b.e2e.get("sim_s").map(f64::to_bits)
    );
}

#[test]
fn tiny_workloads_stress_what_they_claim() {
    let tiger = tiny("join_tiger", 5, true);
    assert_eq!(tiger.layer.get("sweep.spilled_items"), Some(0.0));
    assert_eq!(tiger.layer.get("sweep.spill_penalty"), Some(1.0));

    let spill = tiny("join_spill", 5, true);
    assert!(
        spill.layer.get("sweep.spilled_items").unwrap() > 0.0,
        "the tiny join_spill really spills"
    );
    assert!(
        spill.layer.get("sweep.spill_runs").unwrap() >= 2.0,
        "SSSJ and PQ both spill"
    );
    assert!(spill.layer.get("io.write_amp").unwrap() > 1.0);

    let select = tiny("serve_select", 5, true);
    assert_eq!(select.layer.get("service.deferral_rate"), Some(0.0));
    let mixed = tiny("serve_mixed", 5, true);
    if std::thread::available_parallelism().map_or(1, usize::from) >= 2 {
        // One worker never finds the gauge taken; two do.
        assert!(
            mixed.layer.get("service.deferral_rate").unwrap() > 0.0,
            "the tiny serve_mixed really defers"
        );
    }

    let live = tiny("live_ingest", 5, true);
    assert!(live.layer.get("live.flushes").unwrap() >= 2.0);
    assert!(live.layer.get("live.compactions").unwrap() >= 1.0);
    assert!(live.layer.get("live.write_amp").unwrap() > 1.0);
}

/// `BENCHMARK.json` stays inside the limits its contract sets.
#[test]
fn benchmark_json_is_within_its_contract() {
    let text = include_str!("../../../../../../BENCHMARK.json");
    assert!(text.len() <= 64 * 1024);
    let doc = json::parse(text).unwrap();
    let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.as_bytes()[0].is_ascii_alphanumeric()
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    };
    let text_of = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();
    let mut names = BTreeSet::new();

    let command = doc.get("command").unwrap().as_arr();
    assert!(!command.is_empty() && command.len() <= 32);
    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .as_arr()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["crates/bench/src/bin/benchmark"]);
    for arg in command.iter().filter_map(Value::as_str) {
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        assert!(
            !arg.contains('/') || arg.starts_with(paths[0]),
            "{arg} names a file outside paths"
        );
    }
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let workloads = doc.get("workloads").unwrap().as_arr();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(w.as_obj().len(), 2);
        let (name, why) = (text_of(w, "name"), text_of(w, "why"));
        assert!(name_ok(&name) && names.insert(name));
        assert!(why.chars().count() <= 200 && !why.contains('\n'), "{why}");
    }
    let end_to_end = doc.get("end_to_end").unwrap().as_arr();
    assert!((1..=16).contains(&end_to_end.len()));
    for m in end_to_end {
        assert_eq!(m.as_obj().len(), 4);
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = end_to_end
        .iter()
        .find(|m| text_of(m, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(
        (text_of(setup, "unit"), text_of(setup, "better")),
        ("s".to_string(), "lower".to_string())
    );
    let per_layer = doc.get("per_layer").unwrap().as_arr();
    assert!((1..=128).contains(&per_layer.len()));
    for m in end_to_end.iter().chain(per_layer) {
        let name = text_of(m, "name");
        assert!(name_ok(&name), "{name}");
        assert!(names.insert(name.clone()), "{name} is used twice");
        assert!(unit_ok(&text_of(m, "unit")), "{name} unit");
        assert!(["higher", "lower"].contains(&text_of(m, "better").as_str()));
    }
    assert!(per_layer.iter().all(|m| m.as_obj().len() == 3));

    // The drift guard pins every workload for the default seed.
    for w in &spec::declared().workloads {
        assert!(spec::pinned(w, 42).is_some(), "{w} is pinned for seed 42");
        assert!(spec::pinned(w, 43).is_none());
    }
}
