//! Deterministic concurrency harness for live-dataset maintenance.
//!
//! Real thread interleavings cannot be replayed, so this harness explores
//! them *virtually*: a seeded scheduler drives the exact phase APIs the
//! service's background worker uses — `append_buffered` / `freeze` /
//! `begin_flush` → `run_flush` → `publish_flush` and `begin_compaction` →
//! `run_compaction` → `publish_compaction` / `abort_compaction` — as
//! individually schedulable steps on one thread, holding claimed work in
//! flight across arbitrary numbers of other steps (including queries and
//! steps on the other dataset). Every history is a pure function of its
//! 64-bit seed, so any failure replays exactly from the printed seed.
//!
//! Invariants asserted while a history unfolds:
//!
//! * **Differential pair sets** — at every query step, the streaming
//!   symmetric join over the two snapshots produces exactly the pair set
//!   of the offline SSSJ over the materialised snapshots, and exactly the
//!   brute-force pair set of the shadow models (plain `Vec<Item>` mirrors
//!   of everything appended).
//! * **Snapshot immutability** — snapshots taken mid-history are re-joined
//!   at the end, after every flush and compaction published, and must
//!   reproduce their original answer byte for byte.
//! * **Conservation** — no tier transition loses or duplicates records:
//!   every snapshot holds exactly the shadow model's items.

use std::collections::{BTreeSet, VecDeque};
use std::ops::ControlFlow;

use usj_core::{JoinInput, JoinOperator, PairSink, SssjJoin};
use usj_geom::{Item, Rect};
use usj_io::{ItemStream, MachineConfig, PageId, SimEnv};
use usj_live::{CompactionPlan, FlushJob, LiveConfig, LiveDataset, LiveSnapshot};
use usj_proptest::Gen;

/// Steps per generated history.
const STEPS: usize = 160;

/// Mid-history snapshots retained for the immutability check (bounded so
/// a history cannot hoard unbounded memory).
const RETAINED_SNAPSHOTS: usize = 4;

struct Collect(Vec<(u32, u32)>);

impl PairSink for Collect {
    fn emit(&mut self, left: u32, right: u32) -> ControlFlow<()> {
        self.0.push((left, right));
        ControlFlow::Continue(())
    }
}

/// One live dataset under test plus its shadow model and any claimed
/// in-flight maintenance work.
struct Actor {
    ds: LiveDataset,
    shadow: Vec<Item>,
    /// A flush claimed via `begin_flush` whose publish is still pending.
    inflight_flush: Option<FlushJob>,
    /// A compaction claimed via `begin_compaction`, not yet resolved.
    inflight_compaction: Option<CompactionPlan>,
    next_id: u32,
}

impl Actor {
    fn new(env: &mut SimEnv, name: &str, g: &mut Gen, id_base: u32) -> Self {
        let base: Vec<Item> = (0..g.usize_in(8, 48))
            .map(|i| random_item(g, id_base + i as u32))
            .collect();
        let config = LiveConfig {
            // Small enough that histories cross it repeatedly.
            flush_threshold_bytes: 24 * usj_geom::ITEM_BYTES,
            // The scheduler drives compaction explicitly; disable the
            // threshold so claims happen exactly where the seed says.
            compact_after_deltas: 0,
        };
        let ds = LiveDataset::create(env, name, &base, config).expect("create dataset");
        Actor {
            ds,
            shadow: base,
            inflight_flush: None,
            inflight_compaction: None,
            next_id: id_base + 10_000,
        }
    }
}

fn random_item(g: &mut Gen, id: u32) -> Item {
    let x = g.f32_in(0.0, 90.0);
    let y = g.f32_in(0.0, 90.0);
    let w = g.f32_in(0.1, 8.0);
    let h = g.f32_in(0.1, 8.0);
    Item::new(Rect::from_coords(x, y, x + w, y + h), id)
}

fn brute_pairs(a: &[Item], b: &[Item]) -> BTreeSet<(u32, u32)> {
    let mut out = BTreeSet::new();
    for x in a {
        for y in b {
            if x.rect.intersects(&y.rect) {
                out.insert((x.id, y.id));
            }
        }
    }
    out
}

/// A snapshot as a join input: its base with the other runs as tiers.
fn input(snap: &LiveSnapshot) -> JoinInput<'_> {
    JoinInput::Cataloged(snap.cataloged())
}

/// A snapshot materialised as one sorted stream.
fn materialise(env: &mut SimEnv, snap: &LiveSnapshot) -> ItemStream {
    input(snap)
        .to_sorted_stream(env, None)
        .expect("materialise")
        .0
}

/// Streams SSSJ over two snapshots' merged runs and returns its pair set.
fn streaming_pairs(env: &mut SimEnv, l: &LiveSnapshot, r: &LiveSnapshot) -> BTreeSet<(u32, u32)> {
    let mut sink = Collect(Vec::new());
    SssjJoin::default()
        .run_with(env, input(l), input(r), &mut sink)
        .expect("streaming join");
    sink.0.into_iter().collect()
}

/// Materialises both snapshots and runs the offline SSSJ, returning its
/// pair set — the paper-baseline oracle.
fn offline_pairs(env: &mut SimEnv, l: &LiveSnapshot, r: &LiveSnapshot) -> BTreeSet<(u32, u32)> {
    let sl = materialise(env, l);
    let sr = materialise(env, r);
    let (_, pairs) = SssjJoin::default()
        .run_collect(env, JoinInput::Stream(&sl), JoinInput::Stream(&sr))
        .expect("offline SSSJ");
    pairs.into_iter().collect()
}

/// Every item a snapshot holds, read back across all tiers.
fn snapshot_ids(env: &mut SimEnv, snap: &LiveSnapshot) -> BTreeSet<u32> {
    let items = materialise(env, snap).read_all(env).expect("read snapshot");
    let mut out = BTreeSet::new();
    for item in items {
        assert!(out.insert(item.id), "snapshot duplicated item {}", item.id);
    }
    out
}

/// Runs one seeded history and returns the number of query steps checked.
fn run_history(seed: u64) -> usize {
    let mut g = Gen::new(seed);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut left = Actor::new(&mut env, "left", &mut g, 0);
    let mut right = Actor::new(&mut env, "right", &mut g, 1_000_000);
    // (snapshot pair, expected pair set) retained for the end-of-history
    // immutability sweep.
    type Retained = (LiveSnapshot, LiveSnapshot, BTreeSet<(u32, u32)>);
    let mut retained: Vec<Retained> = Vec::new();
    let mut queries = 0usize;

    for _ in 0..STEPS {
        let actor = if g.bool_with(0.5) {
            &mut left
        } else {
            &mut right
        };
        match g.usize_in(0, 10) {
            // Append a small batch (memtable only; freezes past threshold).
            0..=2 => {
                let batch: Vec<Item> = (0..g.usize_in(1, 12))
                    .map(|_| {
                        let id = actor.next_id;
                        actor.next_id += 1;
                        random_item(&mut g, id)
                    })
                    .collect();
                actor.ds.append_buffered(&batch).expect("append");
                actor.shadow.extend_from_slice(&batch);
            }
            // Freeze whatever the memtable holds.
            3 => {
                actor.ds.freeze();
            }
            // Claim a flush (single actor: only if none is in flight).
            4 => {
                if actor.inflight_flush.is_none() {
                    actor.inflight_flush = actor.ds.begin_flush();
                }
            }
            // Finish the claimed flush: run its I/O, publish the delta run.
            5 => {
                if let Some(job) = actor.inflight_flush.take() {
                    let run = LiveDataset::run_flush(&mut env, &job).expect("run flush");
                    actor.ds.publish_flush(job, run);
                }
            }
            // Claim a merge compaction over the current base + deltas.
            6 => {
                if actor.inflight_compaction.is_none() {
                    actor.inflight_compaction = actor.ds.begin_compaction();
                }
            }
            // Finish the claimed compaction.
            7 => {
                if let Some(plan) = actor.inflight_compaction.take() {
                    let out = LiveDataset::run_compaction(&mut env, &plan).expect("run compaction");
                    actor.ds.publish_compaction(out);
                }
            }
            // Abandon the claimed compaction (the failure path).
            8 => {
                if actor.inflight_compaction.take().is_some() {
                    actor.ds.abort_compaction();
                }
            }
            // Query step: snapshot both sides, check every oracle.
            _ => {
                let (sl, sr) = (left.ds.snapshot(), right.ds.snapshot());
                // Conservation: each snapshot holds exactly the shadow set,
                // whatever tier each record currently sits in.
                let expect_l: BTreeSet<u32> = left.shadow.iter().map(|i| i.id).collect();
                let expect_r: BTreeSet<u32> = right.shadow.iter().map(|i| i.id).collect();
                assert_eq!(
                    snapshot_ids(&mut env, &sl),
                    expect_l,
                    "left snapshot lost items"
                );
                assert_eq!(
                    snapshot_ids(&mut env, &sr),
                    expect_r,
                    "right snapshot lost items"
                );

                let expected = brute_pairs(&left.shadow, &right.shadow);
                let streamed = streaming_pairs(&mut env, &sl, &sr);
                assert_eq!(
                    streamed, expected,
                    "streaming join diverged from shadow model"
                );
                let offline = offline_pairs(&mut env, &sl, &sr);
                assert_eq!(
                    streamed, offline,
                    "streaming join diverged from offline SSSJ"
                );
                queries += 1;

                if retained.len() < RETAINED_SNAPSHOTS {
                    retained.push((sl, sr, expected));
                }
            }
        }
    }

    // Drain every claim and all pending tiers, then re-check the retained
    // snapshots: generations published after a snapshot must never change
    // what it reads (the device is append-only; runs are immutable).
    for actor in [&mut left, &mut right] {
        if let Some(job) = actor.inflight_flush.take() {
            let run = LiveDataset::run_flush(&mut env, &job).expect("drain flush");
            actor.ds.publish_flush(job, run);
        }
        if let Some(plan) = actor.inflight_compaction.take() {
            let out = LiveDataset::run_compaction(&mut env, &plan).expect("drain compaction");
            actor.ds.publish_compaction(out);
        }
        actor.ds.quiesce(&mut env).expect("quiesce");
        assert_eq!(actor.ds.delta_runs().len(), 0);
        assert_eq!(actor.ds.pending_flush_batches(), 0);
        assert_eq!(actor.ds.memtable_len(), 0);
        assert_eq!(actor.ds.len(), actor.shadow.len() as u64);
    }
    let final_expected = brute_pairs(&left.shadow, &right.shadow);
    let (fl, fr) = (left.ds.snapshot(), right.ds.snapshot());
    assert_eq!(
        streaming_pairs(&mut env, &fl, &fr),
        final_expected,
        "post-quiesce join diverged"
    );
    for (i, (sl, sr, expected)) in retained.iter().enumerate() {
        assert_eq!(
            &streaming_pairs(&mut env, sl, sr),
            expected,
            "retained snapshot #{i} changed its answer after later maintenance"
        );
    }
    queries
}

/// Runs a history and reports how to replay it on failure.
fn check_seed(seed: u64) {
    println!("concurrency history seed {seed:#018x} (replay: USJ_SEED={seed})");
    let queries = run_history(seed);
    assert!(
        queries > 0,
        "seed {seed:#x}: history never hit a query step"
    );
}

#[test]
fn seeded_history_0x5eed_0001() {
    check_seed(0x5eed_0001);
}

#[test]
fn seeded_history_0xdecaf_c0ffee() {
    check_seed(0xdecaf_c0ffee);
}

#[test]
fn seeded_history_0x0dds_and_ends() {
    check_seed(0x0dd5_a11d_e4d5);
}

/// Under a recording collector and a virtual clock, a seeded history is a
/// pure function of its seed all the way down to the *trace* it emits: two
/// replays must produce identical span trees (shape, nesting and order),
/// and the tree must contain the maintenance and operator-phase spans the
/// history exercised. The virtual clock never advances, so no host-timer
/// jitter can leak into the comparison.
#[test]
fn seeded_history_trace_shape_is_deterministic() {
    use std::sync::Arc;
    use usj_obs::{QueryTrace, Recorder, RingCollector, VirtualClock};

    let traced_run = |seed: u64| {
        let ring = Arc::new(RingCollector::new(1 << 20));
        let guard = usj_obs::install(
            Arc::clone(&ring) as Arc<dyn Recorder>,
            Arc::new(VirtualClock::new()),
        );
        let queries = run_history(seed);
        drop(guard);
        let (events, dropped) = ring.drain();
        assert_eq!(dropped, 0, "ring sized for a full history");
        (queries, QueryTrace::from_events(&events, dropped))
    };

    let seed = 0x5eed_0001;
    let (queries_a, trace_a) = traced_run(seed);
    let (queries_b, trace_b) = traced_run(seed);
    assert_eq!(queries_a, queries_b);
    assert_eq!(
        trace_a.shape(),
        trace_b.shape(),
        "same seed, same virtual clock — the span tree must replay exactly"
    );
    // The history crossed every instrumented path at least once.
    for span in [
        "live.flush",
        "live.compaction",
        "live.compaction.merge",
        "live.compaction.index",
        "sssj.sort",
        "sssj.sweep",
    ] {
        assert!(
            trace_a.find(span).is_some(),
            "seed {seed:#x} never recorded a `{span}` span"
        );
    }
    // Both ways of rebuilding the tree: early appends grow the base's box and
    // re-sort it, later ones land inside and merge the old leaves.
    let compactions = trace_a
        .roots
        .iter()
        .filter(|s| s.name == "live.compaction")
        .count();
    let resorts = trace_a.mark_values("live.compaction.resort").len();
    assert!(
        0 < resorts && resorts < compactions,
        "{resorts} of {compactions} re-sorted"
    );
}

/// CI passes a run-unique seed through `USJ_SEED` (and prints it with
/// `--nocapture`, so a red run's log carries its replay handle). Without
/// the variable this covers one more fixed seed.
#[test]
fn seeded_history_from_env() {
    let seed = std::env::var("USJ_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xfa11_bacc);
    check_seed(seed);
}

// ---------------------------------------------------------------------------
// Crash histories: durable datasets under process-crash simulation.
//
// Same seeded-scheduler idea as above, but both datasets are durable
// (checksummed manifests behind a root pointer) and the step alphabet
// gains `write_manifest` and CRASH. A crash drops *every* in-memory
// structure — memtables, frozen batches, claimed flushes/compactions,
// the dataset handles themselves — and restarts from a read-only device
// snapshot via `LiveDataset::recover`. The invariant proven at every
// crash point: recovery returns exactly the record set covered by the
// last committed manifest — nothing acknowledged-and-published is lost,
// nothing is fabricated — and the history then *continues* on the
// recovered datasets, so later joins and retained-snapshot sweeps keep
// holding across an arbitrary number of crashes. Beside the two live
// datasets sits a sealed one, built the way a registered dataset is and
// never appended to: every crash recovers it too, with exactly its records.
// ---------------------------------------------------------------------------

/// Tuning shared by every durable actor: explicit freezes only (a huge
/// threshold keeps `append_buffered` from splitting batches at
/// gauge-dependent points, so the model knows exactly which ids each
/// flush publishes) and scheduler-driven compaction.
fn crash_config() -> LiveConfig {
    LiveConfig {
        flush_threshold_bytes: 1 << 30,
        compact_after_deltas: 0,
    }
}

/// A durable dataset under test plus a tier-accurate shadow model.
struct DurableActor {
    name: &'static str,
    ds: LiveDataset,
    /// Current root-pointer page (recovery re-homes it, so it moves).
    root: PageId,
    /// Every item currently alive (pruned to the durable set on crash).
    shadow: Vec<Item>,
    /// Ids sitting in the memtable (volatile).
    mem: Vec<u32>,
    /// Frozen flush batches awaiting their device write (volatile).
    frozen: VecDeque<Vec<u32>>,
    /// Ids persisted in published runs (base + deltas).
    published: BTreeSet<u32>,
    /// `published` as of the last committed manifest — what a crash at
    /// this instant must recover, no more and no less.
    durable: BTreeSet<u32>,
    inflight_flush: Option<FlushJob>,
    inflight_compaction: Option<CompactionPlan>,
    next_id: u32,
}

impl DurableActor {
    fn new(env: &mut SimEnv, name: &'static str, g: &mut Gen, id_base: u32) -> Self {
        let base: Vec<Item> = (0..g.usize_in(8, 48))
            .map(|i| random_item(g, id_base + i as u32))
            .collect();
        let (ds, root) = LiveDataset::create_durable(env, name, &base, crash_config())
            .expect("create durable dataset");
        let published: BTreeSet<u32> = base.iter().map(|i| i.id).collect();
        DurableActor {
            name,
            ds,
            root,
            shadow: base,
            mem: Vec::new(),
            frozen: VecDeque::new(),
            durable: published.clone(),
            published,
            inflight_flush: None,
            inflight_compaction: None,
            next_id: id_base + 10_000,
        }
    }

    /// The model's view of every live id, tier by tier. Must equal what
    /// a snapshot reads at all times.
    fn model_ids(&self) -> BTreeSet<u32> {
        let mut out = self.published.clone();
        out.extend(self.frozen.iter().flatten().copied());
        out.extend(self.mem.iter().copied());
        out
    }

    /// Finishes a claimed flush, cross-checking the written run against
    /// the model's oldest frozen batch before publishing it.
    fn finish_flush(&mut self, env: &mut SimEnv) {
        if let Some(job) = self.inflight_flush.take() {
            let run = LiveDataset::run_flush(env, &job).expect("run flush");
            let written: BTreeSet<u32> = run
                .read_all(env)
                .expect("read flushed run")
                .iter()
                .map(|i| i.id)
                .collect();
            let batch = self
                .frozen
                .pop_front()
                .expect("model missed the claimed batch");
            assert_eq!(
                written,
                batch.iter().copied().collect::<BTreeSet<u32>>(),
                "flushed run diverged from the claimed batch"
            );
            self.ds.publish_flush(job, run);
            self.published.extend(batch);
        }
    }

    /// Commits a manifest: everything currently published becomes the
    /// set a crash must recover.
    fn commit_manifest(&mut self, env: &mut SimEnv) {
        self.ds.write_manifest(env).expect("write manifest");
        self.durable = self.published.clone();
    }
}

/// A sealed durable dataset: built once from a stream of default-size
/// blocks through `LiveDataset::from_stream`, as a registered dataset is,
/// and never appended to.
struct SealedActor {
    root: PageId,
    items: Vec<Item>,
}

impl SealedActor {
    const NAME: &'static str = "sealed";

    fn new(env: &mut SimEnv, g: &mut Gen) -> Self {
        let items: Vec<Item> = (0..g.usize_in(200, 600))
            .map(|i| random_item(g, 2_000_000 + i as u32))
            .collect();
        let stream = ItemStream::from_items(env, &items).expect("write sealed stream");
        let mut ds = LiveDataset::from_stream(env, Self::NAME, &stream, crash_config())
            .expect("build sealed dataset");
        let root = ds
            .enable_durability(env)
            .expect("make sealed dataset durable");
        SealedActor { root, items }
    }

    /// Recovers the sealed dataset on a restarted environment: its
    /// published records must be exactly the ones it was built from, in
    /// one run that kept its block size.
    fn recover(&mut self, env: &mut SimEnv) {
        let (ds, report) = LiveDataset::recover(env, Self::NAME, self.root, crash_config())
            .expect("recover sealed dataset");
        assert_eq!((report.verified_runs, report.dropped_deltas), (1, 0));
        let mut got = ds.published_items(env).expect("read sealed dataset");
        got.sort_unstable_by_key(|i| i.id);
        assert_eq!(
            got, self.items,
            "recovery of the sealed dataset changed its records"
        );
        let run = ds.snapshot().runs()[0].stream().clone();
        assert_eq!(
            run.pages_per_block(),
            usj_io::stream::DEFAULT_PAGES_PER_BLOCK
        );
        self.root = ds.durable_root().expect("recovered dataset is durable");
    }
}

/// Simulates a process crash and restart for both actors and the sealed
/// dataset at once (they share the device, as datasets of one service
/// process would). Every in-memory structure is dropped; a fresh
/// environment is built on the device snapshot (old pages readable but
/// immutable); each actor recovers from its root pointer and must see
/// exactly its durable set.
fn crash_and_recover(env: &mut SimEnv, actors: [&mut DurableActor; 2], sealed: &mut SealedActor) {
    let mut revived = env.fork_with_base(env.device.snapshot());
    sealed.recover(&mut revived);
    for actor in actors {
        let (ds, report) =
            LiveDataset::recover(&mut revived, actor.name, actor.root, crash_config())
                .expect("recover from crash");
        assert_eq!(
            report.dropped_deltas, 0,
            "clean crash must not drop verified deltas"
        );
        let got = snapshot_ids(&mut revived, &ds.snapshot());
        assert_eq!(
            got, actor.durable,
            "recovery of '{}' lost or fabricated manifested records",
            actor.name
        );
        actor.ds = ds;
        actor.root = actor
            .ds
            .durable_root()
            .expect("recovered dataset is durable");
        let durable = &actor.durable;
        actor.shadow.retain(|i| durable.contains(&i.id));
        actor.mem.clear();
        actor.frozen.clear();
        actor.published = actor.durable.clone();
        actor.inflight_flush = None;
        actor.inflight_compaction = None;
    }
    *env = revived;
}

/// Runs one seeded crash history; returns (query steps, crash steps).
fn run_crash_history(seed: u64) -> (usize, usize) {
    let mut g = Gen::new(seed);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut left = DurableActor::new(&mut env, "left", &mut g, 0);
    let mut right = DurableActor::new(&mut env, "right", &mut g, 1_000_000);
    // Its own generator, so the live histories stay those of their seeds.
    let mut sealed = SealedActor::new(&mut env, &mut Gen::new(!seed));
    type Retained = (LiveSnapshot, LiveSnapshot, BTreeSet<(u32, u32)>);
    let mut retained: Vec<Retained> = Vec::new();
    let (mut queries, mut crashes) = (0usize, 0usize);

    for _ in 0..STEPS {
        let pick_left = g.bool_with(0.5);
        let step = g.usize_in(0, 12);
        // Whole-process steps first (they need both actors).
        if step == 10 {
            crash_and_recover(&mut env, [&mut left, &mut right], &mut sealed);
            crashes += 1;
            continue;
        }
        if step >= 11 {
            // Query step: conservation + model self-consistency + every
            // pair-set oracle, exactly as in the volatile histories.
            let (sl, sr) = (left.ds.snapshot(), right.ds.snapshot());
            for (actor, snap) in [(&left, &sl), (&right, &sr)] {
                let expect: BTreeSet<u32> = actor.shadow.iter().map(|i| i.id).collect();
                assert_eq!(expect, actor.model_ids(), "shadow and tier model diverged");
                assert_eq!(
                    snapshot_ids(&mut env, snap),
                    expect,
                    "'{}' snapshot lost items",
                    actor.name
                );
            }
            let expected = brute_pairs(&left.shadow, &right.shadow);
            let streamed = streaming_pairs(&mut env, &sl, &sr);
            assert_eq!(
                streamed, expected,
                "streaming join diverged from shadow model"
            );
            assert_eq!(
                streamed,
                offline_pairs(&mut env, &sl, &sr),
                "streaming join diverged from offline SSSJ"
            );
            queries += 1;
            if retained.len() < RETAINED_SNAPSHOTS {
                retained.push((sl, sr, expected));
            }
            continue;
        }

        let actor = if pick_left { &mut left } else { &mut right };
        match step {
            // Append a small batch (memtable only; threshold never trips).
            0..=2 => {
                let batch: Vec<Item> = (0..g.usize_in(1, 12))
                    .map(|_| {
                        let id = actor.next_id;
                        actor.next_id += 1;
                        random_item(&mut g, id)
                    })
                    .collect();
                actor.ds.append_buffered(&batch).expect("append");
                actor.mem.extend(batch.iter().map(|i| i.id));
                actor.shadow.extend_from_slice(&batch);
            }
            // Freeze the memtable into one flush batch.
            3 => {
                if actor.ds.freeze() {
                    actor.frozen.push_back(std::mem::take(&mut actor.mem));
                }
            }
            4 => {
                if actor.inflight_flush.is_none() {
                    actor.inflight_flush = actor.ds.begin_flush();
                }
            }
            5 => actor.finish_flush(&mut env),
            6 => {
                if actor.inflight_compaction.is_none() {
                    actor.inflight_compaction = actor.ds.begin_compaction();
                }
            }
            // Compaction rewrites published runs without changing the set.
            7 => {
                if let Some(plan) = actor.inflight_compaction.take() {
                    let out = LiveDataset::run_compaction(&mut env, &plan).expect("run compaction");
                    actor.ds.publish_compaction(out);
                }
            }
            8 => {
                if actor.inflight_compaction.take().is_some() {
                    actor.ds.abort_compaction();
                }
            }
            // Commit point: everything published becomes durable.
            _ => actor.commit_manifest(&mut env),
        }
    }

    // Drain: publish every tier, commit, then one last crash — after
    // which *every* acknowledged record must survive.
    for actor in [&mut left, &mut right] {
        actor.finish_flush(&mut env);
        if let Some(plan) = actor.inflight_compaction.take() {
            let out = LiveDataset::run_compaction(&mut env, &plan).expect("drain compaction");
            actor.ds.publish_compaction(out);
        }
        actor.ds.quiesce(&mut env).expect("quiesce");
        actor.mem.clear();
        actor.frozen.clear();
        actor.published = actor.shadow.iter().map(|i| i.id).collect();
        actor.commit_manifest(&mut env);
    }
    crash_and_recover(&mut env, [&mut left, &mut right], &mut sealed);
    crashes += 1;
    assert_eq!(
        left.shadow.len() as u64,
        left.ds.len(),
        "post-crash length mismatch"
    );
    assert_eq!(
        right.shadow.len() as u64,
        right.ds.len(),
        "post-crash length mismatch"
    );

    let final_expected = brute_pairs(&left.shadow, &right.shadow);
    let (fl, fr) = (left.ds.snapshot(), right.ds.snapshot());
    assert_eq!(
        streaming_pairs(&mut env, &fl, &fr),
        final_expected,
        "post-recovery join diverged"
    );
    // Old snapshots still answer identically: the crash snapshot keeps
    // every persisted page readable, and memtable copies live in the
    // snapshot itself.
    for (i, (sl, sr, expected)) in retained.iter().enumerate() {
        assert_eq!(
            &streaming_pairs(&mut env, sl, sr),
            expected,
            "retained snapshot #{i} changed its answer after crashes"
        );
    }
    (queries, crashes)
}

/// Runs a crash history and reports how to replay it on failure.
fn check_crash_seed(seed: u64) {
    println!("crash history seed {seed:#018x} (replay: USJ_SEED={seed})");
    let (queries, crashes) = run_crash_history(seed);
    assert!(
        queries > 0,
        "seed {seed:#x}: crash history never hit a query step"
    );
    assert!(
        crashes > 1,
        "seed {seed:#x}: crash history never crashed mid-run"
    );
}

#[test]
fn crash_history_0x5eed_0002() {
    check_crash_seed(0x5eed_0002);
}

#[test]
fn crash_history_0xbad_c0ffee() {
    check_crash_seed(0x0bad_c0ffee);
}

#[test]
fn crash_history_0xc4a5_4df0() {
    check_crash_seed(0xc4a5_4df0);
}

/// CI's run-unique seed covers a fresh crash history every run; the
/// printed line is the replay handle.
#[test]
fn crash_history_from_env() {
    let seed = std::env::var("USJ_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xcafe_fa11);
    check_crash_seed(seed);
}
