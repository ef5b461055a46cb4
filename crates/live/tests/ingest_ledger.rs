//! The ledger of one inline ingest pass: what maintenance charged and built.
//!
//! The repo benchmark's `live_ingest` workload appends the second half of
//! two DISK1 datasets to live datasets registered with the first half, in
//! 32 equal slices of 64-record calls, and quiesces at the end. With inline
//! maintenance every flush and compaction of that pass runs inside
//! [`LiveDataset::append`] and [`LiveDataset::quiesce`], so the whole
//! pass's charged work is maintenance. This test replays the pass on the
//! benchmark's seed-42 data (DISK1 at scale 40: 45 flushes and 12
//! compactions, as the benchmark's CI pins count them) and pins in
//! `ledgers/ingest_ledger.ledger`: the charged CPU counters and page I/O of
//! the pass, each dataset's flush and compaction counts, a digest of each
//! final base run and its tree's nodes per level. A host-side rewrite of
//! the maintenance path must not move any of them.

use usj_datagen::{Preset, WorkloadSpec};
use usj_geom::ITEM_BYTES;
use usj_io::ledger::{self, Fnv1a, Row};
use usj_io::{MachineConfig, SimEnv};
use usj_live::{LiveConfig, LiveDataset};

/// Equal slices the appended half is cut into, as in the benchmark.
const STEPS: usize = 32;
/// Records per `append` call, as in the benchmark.
const APPEND_BATCH: usize = 64;

/// The benchmark's live configuration: 64 KiB memtables, compaction after
/// four delta runs.
fn live_config() -> LiveConfig {
    LiveConfig {
        flush_threshold_bytes: 64 * 1024,
        compact_after_deltas: 4,
    }
}

#[test]
fn an_inline_ingest_pass_charges_and_builds_what_is_pinned() {
    let w = WorkloadSpec::preset(Preset::Disk1)
        .with_scale(40)
        .generate(42);
    let sides = [&w.roads, &w.hydro];
    let names = ["roads", "hydro"];
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut live: Vec<LiveDataset> = sides
        .iter()
        .zip(names)
        .map(|(items, name)| {
            LiveDataset::create(&mut env, name, &items[..items.len() / 2], live_config()).unwrap()
        })
        .collect();

    let m = env.begin();
    for step in 0..STEPS {
        for (ds, items) in live.iter_mut().zip(sides) {
            let half = items.len() / 2;
            let slice = |s: usize| half + (items.len() - half) * s / STEPS;
            for batch in items[slice(step)..slice(step + 1)].chunks(APPEND_BATCH) {
                ds.append(&mut env, batch).unwrap();
            }
        }
    }
    for ds in &mut live {
        ds.quiesce(&mut env).unwrap();
    }
    let (io, cpu) = env.since(&m);

    let mut got = vec![Row::new("pass").cpu(&cpu).io(&io)];
    for ((ds, items), name) in live.iter().zip(sides).zip(names) {
        assert_eq!(ds.len(), items.len() as u64);
        assert!(ds.delta_runs().is_empty());
        let mut base = Fnv1a::default();
        let mut buf = [0; ITEM_BYTES];
        for it in env.unaccounted(|env| ds.published_items(env).unwrap()) {
            it.encode(&mut buf);
            base.write(&buf);
        }
        let mut row = Row::new(name)
            .with("flushes", ds.stats().flushes)
            .with("compactions", ds.stats().compactions)
            .with("base", base.finish());
        for (level, &nodes) in ds.tree().level_counts().iter().enumerate() {
            row = row.with(format!("level.{level}"), nodes);
        }
        got.push(row);
    }
    ledger::check(include_str!("ledgers/ingest_ledger.ledger"), &got);
}
