//! The parallel partitioned executor: cut a TIGER-like join into strips and
//! fan it out across a worker pool, with exact serial-equivalent results —
//! all through the `SpatialQuery` builder.
//!
//! ```text
//! cargo run --release --example parallel_join
//! ```

use std::time::Instant;

use unified_spatial_join::join::parallel::ParallelJoin;
use unified_spatial_join::prelude::*;

fn main() {
    // 1. Generate a New-Jersey-like workload and materialise both relations
    //    as flat streams on the simulated disk.
    let workload = WorkloadSpec::preset(Preset::NJ).with_scale(50).generate(42);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let (roads, hydro) = env.unaccounted(|e| {
        (
            unified_spatial_join::io::ItemStream::from_items(e, &workload.roads).unwrap(),
            unified_spatial_join::io::ItemStream::from_items(e, &workload.hydro).unwrap(),
        )
    });
    println!(
        "workload {}: {} roads x {} hydro MBRs",
        workload.name,
        workload.roads.len(),
        workload.hydro.len()
    );

    // 2. Serial baseline: the paper's PQ join.
    let serial_query = SpatialQuery::new(JoinInput::Stream(&roads), JoinInput::Stream(&hydro))
        .algorithm(Algo::Pq);
    let t = Instant::now();
    let serial = serial_query.run(&mut env).expect("serial PQ join");
    println!(
        "serial PQ:      {:>8} pairs  {:>8.1?}  ({} simulated I/Os)",
        serial.pairs,
        t.elapsed(),
        serial.io.total_ops()
    );

    // 3. The same join, cut into 16 strips across 1..=8 worker threads. The
    //    pair count is identical at every thread count.
    for threads in [1usize, 2, 4, 8] {
        let query = serial_query.execution(Execution::Parallel {
            threads,
            shards: 16,
        });
        let t = Instant::now();
        let run = query.run(&mut env).expect("parallel join");
        assert_eq!(run.pairs, serial.pairs, "parallel must equal serial");
        println!(
            "parallel x{threads}:    {:>8} pairs  {:>8.1?}  ({} simulated I/Os)",
            run.pairs,
            t.elapsed(),
            run.io.total_ops(),
        );
    }

    // 4. Per-shard breakdown over four strips: the coordinator's share is
    //    reading the inputs and writing the strips, each worker's is reading
    //    its strip back and joining it.
    //    (`ParallelJoin::run_detailed` exposes what the builder aggregates.)
    let join = ParallelJoin::new(PqJoin::default())
        .with_threads(4)
        .with_shards(4);
    let run = join
        .run_detailed(
            &mut env,
            JoinInput::Stream(&roads),
            JoinInput::Stream(&hydro),
            &mut CountSink::default(),
        )
        .expect("strip-sharded join");
    println!(
        "4 strips: coordinator {:>6} I/O ops, {:>9} CPU ops",
        run.coordinator.io.total_ops(),
        run.coordinator.cpu.total()
    );
    for (i, shard) in run.shards.iter().enumerate() {
        println!(
            "  shard {i}: {:>7} pairs, {:>6} I/O ops, {:>9} CPU ops",
            shard.pairs,
            shard.io.total_ops(),
            shard.cpu.total()
        );
    }
    assert_eq!(run.total.pairs, serial.pairs);
    println!("all configurations reported exactly {} pairs", serial.pairs);
}
