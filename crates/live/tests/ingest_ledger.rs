//! The ledger of one inline ingest pass: what maintenance charged and built.
//!
//! The repo benchmark's `live_ingest` workload appends the second half of
//! two DISK1 datasets to live datasets registered with the first half, in
//! 32 equal slices of 64-record calls, and quiesces at the end. With inline
//! maintenance every flush and compaction of that pass runs inside
//! [`LiveDataset::append`] and [`LiveDataset::quiesce`], so the whole
//! pass's charged work is maintenance. This test replays the pass on the
//! benchmark's seed-42 data (DISK1 at scale 40: 45 flushes and 12
//! compactions, as the benchmark's CI pins count them) and pins: the
//! charged CPU counters and page I/O of the pass, each dataset's flush and
//! compaction counts, a digest of each final base run and its tree's nodes
//! per level.
//!
//! The numbers were recorded against the maintenance path as it stood
//! before the merge heap and the device's page writes were rebuilt for
//! speed; a host-side rewrite of either must not move any of them. On a
//! mismatch the failure message prints the observed ledger in the literal
//! syntax below.

use usj_datagen::{Preset, WorkloadSpec};
use usj_geom::Item;
use usj_io::{CpuOp, MachineConfig, SimEnv};
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

/// What one dataset ended the pass with.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Dataset {
    flushes: u64,
    compactions: u64,
    /// FNV-1a over the final base run's records, in run order.
    base: u64,
    level_counts: Vec<u64>,
}

/// What the whole pass charged and built.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Ledger {
    /// `Compare`, `HeapOp`, `RectTest`, `ItemMove`, `OutputPair`.
    cpu: [u64; 5],
    /// Pages read, pages written, then sequential and random read
    /// operations, sequential and random write operations.
    io: [u64; 6],
    datasets: Vec<Dataset>,
}

fn fnv(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(items: &[Item]) -> u64 {
    let mut d = 0xcbf2_9ce4_8422_2325;
    for it in items {
        for f in [it.rect.lo.x, it.rect.lo.y, it.rect.hi.x, it.rect.hi.y] {
            fnv(&mut d, &f.to_bits().to_le_bytes());
        }
        fnv(&mut d, &it.id.to_le_bytes());
    }
    d
}

fn observed() -> Ledger {
    let w = WorkloadSpec::preset(Preset::Disk1).with_scale(40).generate(42);
    let sides = [&w.roads, &w.hydro];
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut live: Vec<LiveDataset> = sides
        .iter()
        .zip(["roads", "hydro"])
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

    let datasets = live
        .iter()
        .zip(sides)
        .map(|(ds, items)| {
            assert_eq!(ds.len(), items.len() as u64);
            assert!(ds.delta_runs().is_empty());
            let base = env.unaccounted(|env| ds.published_items(env).unwrap());
            Dataset {
                flushes: ds.stats().flushes,
                compactions: ds.stats().compactions,
                base: digest(&base),
                level_counts: ds.tree().level_counts().to_vec(),
            }
        })
        .collect();
    Ledger {
        cpu: CpuOp::all().map(|op| cpu.get(op)),
        io: [
            io.pages_read,
            io.pages_written,
            io.seq_read_ops,
            io.rand_read_ops,
            io.seq_write_ops,
            io.rand_write_ops,
        ],
        datasets,
    }
}

fn dataset(flushes: u64, compactions: u64, base: u64, level_counts: &[u64]) -> Dataset {
    Dataset {
        flushes,
        compactions,
        base,
        level_counts: level_counts.to_vec(),
    }
}

#[test]
fn an_inline_ingest_pass_charges_and_builds_what_is_pinned() {
    #[rustfmt::skip]
    let want = Ledger {
        cpu: [8055345, 2499644, 310323, 5182245, 0],
        io: [6280, 6474, 3010, 1592, 3360, 1457],
        datasets: vec![
            dataset(37, 10, 17301582739546918199, &[378, 1]),
            dataset(8, 2, 1681120600867871472, &[73, 1]),
        ],
    };
    let got = observed();
    let table = format!(
        "        cpu: {:?},\n        io: {:?},\n        datasets: vec![\n{}        ],\n",
        got.cpu,
        got.io,
        got.datasets
            .iter()
            .map(|d| format!(
                "            dataset({}, {}, {}, &{:?}),\n",
                d.flushes, d.compactions, d.base, d.level_counts
            ))
            .collect::<String>()
    );
    assert!(got == want, "ingest ledger mismatch; observed:\n{table}");
}
