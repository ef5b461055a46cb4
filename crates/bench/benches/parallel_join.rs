//! Thread-scaling of the parallel partitioned executor: the same sharded
//! PQ join at 1, 2, 4 and 8 worker threads, against the serial baseline.
//!
//! The shard count is held fixed so every configuration does identical
//! work; only the fan-out across workers changes. Expect near-linear
//! scaling up to the physical core count, then a plateau.

use std::hint::black_box;
use usj_bench::QuickBench;
use usj_core::parallel::ParallelJoin;
use usj_core::{JoinInput, JoinOperator, PqJoin};
use usj_datagen::{Preset, WorkloadSpec};
use usj_io::{ItemStream, MachineConfig, SimEnv};

fn main() {
    let workload = WorkloadSpec::preset(Preset::NJ).with_scale(50).generate(42);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let (roads, hydro) = env.unaccounted(|e| {
        (
            ItemStream::from_items(e, &workload.roads).unwrap(),
            ItemStream::from_items(e, &workload.hydro).unwrap(),
        )
    });
    println!(
        "parallel_join_nj ({} x {} MBRs, 16 shards, host cores: {})",
        workload.roads.len(),
        workload.hydro.len(),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    let harness = QuickBench::new();

    let serial = harness.bench("serial_pq", || {
        let res = PqJoin::default()
            .run(
                &mut env,
                JoinInput::Stream(&roads),
                JoinInput::Stream(&hydro),
            )
            .unwrap();
        black_box(res.pairs)
    });

    let mut baseline = None;
    for threads in [1usize, 2, 4, 8] {
        let join = ParallelJoin::new(PqJoin::default())
            .with_threads(threads)
            .with_shards(16);
        let report = harness.bench(&format!("parallel_pq_{threads}_threads"), || {
            let res = join
                .run(
                    &mut env,
                    JoinInput::Stream(&roads),
                    JoinInput::Stream(&hydro),
                )
                .unwrap();
            black_box(res.pairs)
        });
        let base = *baseline.get_or_insert(report.median_secs());
        println!(
            "    speedup vs 1 thread: {:.2}x   vs serial PQ: {:.2}x",
            base / report.median_secs(),
            serial.median_secs() / report.median_secs()
        );
    }
}
