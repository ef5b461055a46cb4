//! Differential proof that observability never perturbs execution.
//!
//! Every small preset × every algorithm runs twice — once under a
//! *recording* span collector, once under the no-op recorder — and must
//! deliver **byte-identical** pair sequences, charged [`IoStats`] and
//! measured peak memory. The recording run must additionally produce a
//! non-trivial span tree (the whole point), and the no-op recorder must
//! stay within a few percent of the uninstrumented wall time on the
//! hot-path kernel (the "tracing off is free" contract).

use std::sync::Arc;
use std::time::{Duration, Instant};

use usj_bench::setup::{ExperimentConfig, PreparedWorkload};
use usj_core::{CollectSink, JoinAlgorithm, JoinInput, JoinOperator, SpatialQuery, SssjJoin};
use usj_datagen::{Preset, WorkloadSpec};
use usj_io::{IoStats, ItemStream, MachineConfig, SimEnv};
use usj_live::{LiveConfig, LiveDataset};
use usj_obs::{NoopRecorder, QueryTrace, Recorder, RingCollector, TraceSpan};
use usj_rtree::RTree;
use usj_sweep::SweepJoinStats;

const ALGORITHMS: [JoinAlgorithm; 4] = [
    JoinAlgorithm::Sssj,
    JoinAlgorithm::Pbsm,
    JoinAlgorithm::Pq,
    JoinAlgorithm::St,
];

/// What a recorder must not move: the pairs in emission order, the charged
/// I/O and the measured peak memory.
type Observed = (Vec<(u32, u32)>, IoStats, usize);

/// Runs `alg` on a freshly built `preset` workload, collecting every pair.
fn run_collect(preset: Preset, alg: JoinAlgorithm) -> Observed {
    use JoinAlgorithm as A;
    let cfg = ExperimentConfig::quick();
    let mut p = PreparedWorkload::build(preset, &cfg, MachineConfig::machine3());
    let (left, right) = match alg {
        A::Pq | A::St => (
            JoinInput::Indexed(&p.roads_tree),
            JoinInput::Indexed(&p.hydro_tree),
        ),
        A::Sssj | A::Pbsm => (
            JoinInput::Stream(&p.roads_stream),
            JoinInput::Stream(&p.hydro_stream),
        ),
    };
    let mut sink = CollectSink::default();
    let result = SpatialQuery::new(left, right)
        .algorithm(alg.into())
        .execute(&mut p.env, &mut sink)
        .expect("join");
    (sink.pairs, result.io, result.memory.peak_bytes)
}

/// Spans named `name` anywhere in the trace.
fn span_count(trace: &QueryTrace, name: &str) -> usize {
    fn walk(span: &TraceSpan, name: &str) -> usize {
        usize::from(span.name == name) + span.children.iter().map(|c| walk(c, name)).sum::<usize>()
    }
    trace.roots.iter().map(|r| walk(r, name)).sum()
}

#[test]
fn recording_and_noop_runs_are_byte_identical_for_every_preset_and_algorithm() {
    for preset in Preset::small() {
        for alg in ALGORITHMS {
            // Baseline: no recorder installed at all.
            let bare = run_collect(preset, alg);

            // Recording run: spans land in a ring, execution must not move.
            let ring = Arc::new(RingCollector::new(64 * 1024));
            let recorded = {
                let _g = usj_obs::install(
                    Arc::clone(&ring) as Arc<dyn Recorder>,
                    Arc::new(usj_obs::HostClock::new()),
                );
                run_collect(preset, alg)
            };
            let (events, dropped) = ring.drain();
            let trace = QueryTrace::from_events(&events, dropped);

            // No-op run: recorder installed but discarding.
            let noop = {
                let _g = usj_obs::install(
                    Arc::new(NoopRecorder) as Arc<dyn Recorder>,
                    Arc::new(usj_obs::HostClock::new()),
                );
                run_collect(preset, alg)
            };

            assert_eq!(
                bare, recorded,
                "{preset:?}/{alg:?}: recording changed pairs, I/O or peak memory"
            );
            assert_eq!(
                bare, noop,
                "{preset:?}/{alg:?}: the no-op recorder changed pairs, I/O or peak memory"
            );
            // Every operator records its phases — one span each per join,
            // never one per item — so a traced run attributes its time.
            let phases: &[&str] = match alg {
                JoinAlgorithm::Sssj => &["sssj.sort", "sssj.sweep"],
                JoinAlgorithm::Pbsm => &["pbsm.partition", "pbsm.join"],
                JoinAlgorithm::Pq => &["pq.sweep"],
                JoinAlgorithm::St => &["st.traverse"],
            };
            for phase in phases {
                assert_eq!(
                    span_count(&trace, phase),
                    1,
                    "{preset:?}/{alg:?}: one `{phase}` span per join, got {}",
                    trace.shape()
                );
            }
            // The phases that read their input say so.
            for phase in ["sssj.sort", "pbsm.partition", "pq.sweep", "st.traverse"] {
                if let Some(span) = trace.find(phase) {
                    assert!(
                        span.io.pages_read > 0,
                        "{preset:?}: {phase} reads its input"
                    );
                }
            }
            // SSSJ and PQ run the spilling sweep, which marks expiry once at
            // close — never per push — and closes both sides, so every item
            // pushed expires. Nothing spills here: no fix-up epoch.
            if matches!(alg, JoinAlgorithm::Sssj | JoinAlgorithm::Pq) {
                let cfg = ExperimentConfig::quick();
                let w = WorkloadSpec::preset(preset)
                    .with_scale(cfg.scale)
                    .generate(cfg.seed);
                let pushed = (w.roads.len() + w.hydro.len()) as u64;
                assert_eq!(
                    trace.mark_values("sweep.expire"),
                    [pushed],
                    "{preset:?}/{alg:?}"
                );
                assert!(trace.mark_values("sweep.fixup_epoch").is_empty());
            }
        }
    }
}

/// Ingests both sides of NJ/10 into live datasets (half registered, half
/// appended through flushes and compactions) and joins their snapshots with
/// SSSJ, which merges each side's runs as it sweeps.
fn run_streaming() -> Observed {
    let w = WorkloadSpec::preset(Preset::NJ).with_scale(10).generate(42);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let config = LiveConfig {
        flush_threshold_bytes: 32 * 1024,
        compact_after_deltas: 3,
    };
    let [l, r] = [("roads", &w.roads), ("hydro", &w.hydro)].map(|(name, items)| {
        let (base, rest) = items.split_at(items.len() / 2);
        let mut ds = LiveDataset::create(&mut env, name, base, config).unwrap();
        ds.append(&mut env, rest).unwrap();
        ds
    });
    let (l, r) = (l.snapshot(), r.snapshot());
    let mut sink = CollectSink::default();
    let result = SssjJoin::default()
        .run_with(
            &mut env,
            JoinInput::Cataloged(l.cataloged()),
            JoinInput::Cataloged(r.cataloged()),
            &mut sink,
        )
        .expect("streaming join");
    assert_eq!(result.sweep.spill_runs, 0, "ample memory: nothing spills");
    (sink.pairs, result.io, result.memory.peak_bytes)
}

#[test]
fn a_recorded_streaming_join_is_byte_identical_and_fits_a_query_ring() {
    // The service gives each traced query a 16 Ki-event ring (its
    // `QUERY_TRACE_EVENTS`). This join pushes ~46 000 items and nearly every
    // push expires a resident: marked per push that alone overflows the
    // ring, and since a ring keeps the newest events it is the join's own
    // opening spans that fall off.
    let bare = run_streaming();
    let ring = Arc::new(RingCollector::new(16 * 1024));
    let recorded = {
        let _g = usj_obs::install(
            Arc::clone(&ring) as Arc<dyn Recorder>,
            Arc::new(usj_obs::HostClock::new()),
        );
        run_streaming()
    };
    assert_eq!(
        bare, recorded,
        "recording changed pairs, I/O or peak memory"
    );

    let (events, dropped) = ring.drain();
    assert_eq!(dropped, 0, "{} events kept", events.len());
    let trace = QueryTrace::from_events(&events, dropped);
    assert!(trace.orphan_marks.is_empty());
    for phase in ["live.flush", "live.compaction", "sssj.sweep", "sssj.fixup"] {
        assert!(
            trace.find(phase).is_some(),
            "{phase} missing: {}",
            trace.shape()
        );
    }
    // Every compaction is a merge of the tiers, then the tree's rebuild. The
    // rebuild re-sorts the base only when appends grow its box; the half of
    // NJ registered first already spans the region, so none does.
    let compactions: Vec<&TraceSpan> = trace
        .roots
        .iter()
        .filter(|s| s.name == "live.compaction")
        .collect();
    assert!(!compactions.is_empty());
    for c in &compactions {
        let phases: Vec<&str> = c.children.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(phases, ["live.compaction.merge", "live.compaction.index"]);
    }
    assert_eq!(trace.mark_values("live.compaction.resort"), [0u64; 0]);
    // One `sweep.expire` mark, at driver close, carrying every expiry: both
    // sides close, so every record pushed expires.
    let expired = trace.mark_values("sweep.expire");
    let pushed = WorkloadSpec::preset(Preset::NJ).with_scale(10).generate(42);
    assert_eq!(expired, [(pushed.roads.len() + pushed.hydro.len()) as u64]);
}

/// Runs SSSJ (on two-page-block streams) or PQ (on the R-trees) over
/// DISK1/200 under 128 KB, where both sweeps spill. Returns what a recorder
/// must not move, then the items pushed and the sweep's statistics.
fn run_spilling(alg: JoinAlgorithm) -> (Observed, u64, SweepJoinStats) {
    let w = WorkloadSpec::preset(Preset::Disk1)
        .with_scale(200)
        .generate(42);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let (roads, hydro) = env.unaccounted(|env| {
        let stream = |env: &mut SimEnv, items| ItemStream::from_items_with_block(env, items, 2);
        (
            stream(env, &w.roads).unwrap(),
            stream(env, &w.hydro).unwrap(),
        )
    });
    let (roads_tree, hydro_tree) = env.unaccounted(|env| {
        (
            RTree::bulk_load(env, &w.roads).unwrap(),
            RTree::bulk_load(env, &w.hydro).unwrap(),
        )
    });
    let (left, right) = match alg {
        JoinAlgorithm::Pq => (
            JoinInput::Indexed(&roads_tree),
            JoinInput::Indexed(&hydro_tree),
        ),
        _ => (JoinInput::Stream(&roads), JoinInput::Stream(&hydro)),
    };
    env.set_memory_limit(128 * 1024);
    let mut sink = CollectSink::default();
    let result = SpatialQuery::new(left, right)
        .algorithm(alg.into())
        .execute(&mut env, &mut sink)
        .expect("join");
    let pushed = (w.roads.len() + w.hydro.len()) as u64;
    (
        (sink.pairs, result.io, result.memory.peak_bytes),
        pushed,
        result.sweep,
    )
}

#[test]
fn a_recorded_spilling_join_marks_each_fixup_epoch_and_is_byte_identical() {
    for alg in [JoinAlgorithm::Sssj, JoinAlgorithm::Pq] {
        let bare = run_spilling(alg);
        let ring = Arc::new(RingCollector::new(64 * 1024));
        let recorded = {
            let _g = usj_obs::install(
                Arc::clone(&ring) as Arc<dyn Recorder>,
                Arc::new(usj_obs::HostClock::new()),
            );
            run_spilling(alg)
        };
        assert_eq!(bare, recorded, "{alg:?}: recording changed the join");

        let (events, dropped) = ring.drain();
        assert_eq!(dropped, 0, "{alg:?}: {} events kept", events.len());
        let trace = QueryTrace::from_events(&events, dropped);
        let (_, pushed, sweep) = recorded;
        assert!(
            sweep.spill_runs > 0,
            "{alg:?}: 128 KB must spill: {sweep:?}"
        );
        // One mark per closed epoch, carrying its batches: every batch is
        // fixed up exactly once.
        let epochs = trace.mark_values("sweep.fixup_epoch");
        assert!(!epochs.is_empty(), "{alg:?}");
        assert_eq!(epochs.iter().sum::<u64>(), sweep.spill_runs, "{alg:?}");
        // At most one expiry mark per epoch plus one at close; together they
        // carry every item the sweep did not spill.
        let expire = trace.mark_values("sweep.expire");
        assert!(expire.len() <= epochs.len() + 1, "{alg:?}: {expire:?}");
        assert_eq!(
            expire.iter().sum::<u64>(),
            pushed - sweep.spilled_items,
            "{alg:?}"
        );
        // Beside each epoch's mark, one carrying the arrivals it kept out
        // of its shadow logs: some, and never more than were pushed.
        let skipped = trace.mark_values("sweep.log_skipped");
        assert_eq!(skipped.len(), epochs.len(), "{alg:?}: {skipped:?}");
        let skipped: u64 = skipped.iter().sum();
        assert!(
            skipped > 0 && skipped < pushed,
            "{alg:?}: {skipped} of {pushed}"
        );
    }
}

/// Wall time of one SSSJ join on a prepared workload.
fn sssj_wall(p: &mut PreparedWorkload) -> Duration {
    p.reset();
    let left = JoinInput::Stream(&p.roads_stream);
    let right = JoinInput::Stream(&p.hydro_stream);
    let started = Instant::now();
    let mut sink = CollectSink::default();
    SpatialQuery::new(left, right)
        .algorithm(usj_core::Algo::Sssj)
        .execute(&mut p.env, &mut sink)
        .expect("join");
    assert!(!sink.pairs.is_empty());
    started.elapsed()
}

#[test]
fn noop_recorder_overhead_on_the_hotpath_is_marginal() {
    // Minimum-of-samples on both sides absorbs scheduler noise, and the
    // samples alternate so that a burst of load from the tests running
    // beside this one hits both sides alike; the bound is 5 % plus a small
    // absolute grace for timer jitter on very fast kernels.
    let cfg = ExperimentConfig {
        scale: 200,
        ..ExperimentConfig::quick()
    };
    let mut p = PreparedWorkload::build(Preset::NJ, &cfg, MachineConfig::machine3());
    let (mut bare, mut noop) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        bare = bare.min(sssj_wall(&mut p));
        let _g = usj_obs::install(
            Arc::new(NoopRecorder) as Arc<dyn Recorder>,
            Arc::new(usj_obs::HostClock::new()),
        );
        noop = noop.min(sssj_wall(&mut p));
    }
    let bound = bare.mul_f64(1.05) + Duration::from_millis(2);
    assert!(
        noop <= bound,
        "no-op recorder cost {noop:?} exceeds {bound:?} (bare {bare:?})"
    );
}
