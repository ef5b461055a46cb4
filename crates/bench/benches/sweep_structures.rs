//! Forward-Sweep vs Striped-Sweep on a TIGER-like workload (the
//! factor-2-to-5 claim of Section 3.1), plus the naive pre-optimization
//! list kernel as the wall-clock baseline, plus the shape ST feeds the
//! kernels: thousands of node-pair batches of a couple of hundred entries.

use std::hint::black_box;
use usj_bench::QuickBench;
use usj_datagen::{Preset, WorkloadSpec};
use usj_geom::{hilbert::hilbert_value, Item};
use usj_sweep::{batch_join, sweep_join, ForwardSweep, ListSweep, StripedSweep, SweepJoinStats};

/// Entries per batch side: two of them are the 183-entry node pair ST
/// averages on the repo benchmark's `join_tiger`.
const NODE_ENTRIES: usize = 92;

fn main() {
    let workload = WorkloadSpec::preset(Preset::NJ)
        .with_scale(400)
        .generate(42);
    println!(
        "sweep_structures ({} x {} MBRs)",
        workload.roads.len(),
        workload.hydro.len()
    );
    let harness = QuickBench::new();
    harness.bench("list_sweep_baseline", || {
        let stats = sweep_join::<ListSweep, _>(
            black_box(&workload.roads),
            black_box(&workload.hydro),
            |_, _| {},
        );
        black_box(stats.pairs)
    });
    harness.bench("forward_sweep", || {
        let stats = sweep_join::<ForwardSweep, _>(
            black_box(&workload.roads),
            black_box(&workload.hydro),
            |_, _| {},
        );
        black_box(stats.pairs)
    });
    harness.bench("striped_sweep", || {
        let stats = sweep_join::<StripedSweep, _>(
            black_box(&workload.roads),
            black_box(&workload.hydro),
            |_, _| {},
        );
        black_box(stats.pairs)
    });

    // Node-pair batches: both relations in Hilbert order (what bulk loading
    // packs leaves from), cut into node-sized runs, each run of roads paired
    // with the run of hydrography at the same relative position.
    let workload = WorkloadSpec::preset(Preset::Disk1)
        .with_scale(100)
        .generate(42);
    let region = workload.region;
    let hilbert_runs = |items: &[Item]| -> Vec<Vec<Item>> {
        let mut sorted = items.to_vec();
        sorted.sort_by_key(|it| {
            let c = it.rect.center();
            hilbert_value(c.x, c.y, &region)
        });
        sorted.chunks(NODE_ENTRIES).map(<[Item]>::to_vec).collect()
    };
    let (roads, hydro) = (hilbert_runs(&workload.roads), hilbert_runs(&workload.hydro));
    let node_pairs: Vec<(Vec<Item>, Vec<Item>)> = roads
        .iter()
        .enumerate()
        .map(|(i, run)| (run.clone(), hydro[i * hydro.len() / roads.len()].clone()))
        .collect();
    println!(
        "node_pair_batches ({} pairs of {NODE_ENTRIES} + {NODE_ENTRIES})",
        node_pairs.len()
    );
    harness.bench("node_pairs_forward_driver", || {
        let mut pairs = 0;
        for (a, b) in &node_pairs {
            pairs += sweep_join::<ForwardSweep, _>(black_box(a), black_box(b), |_, _| {}).pairs;
        }
        black_box(pairs)
    });
    harness.bench("node_pairs_batch_join", || {
        let mut total = SweepJoinStats::default();
        for (a, b) in &node_pairs {
            // The batches are sorted in place; ST's are fresh per node pair.
            let (mut a, mut b) = (a.clone(), b.clone());
            batch_join(black_box(&mut a), black_box(&mut b), &mut total, |_, _| {});
        }
        black_box(total.pairs)
    });
}
