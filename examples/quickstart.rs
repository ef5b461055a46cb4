//! Quickstart: generate a TIGER-like workload, build R-trees on the simulated
//! disk and run the paper's PQ join through the `SpatialQuery` builder.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use unified_spatial_join::prelude::*;

fn main() {
    // 1. Generate a small New-Jersey-like workload (roads + hydrography MBRs).
    let workload = WorkloadSpec::preset(Preset::NJ)
        .with_scale(100)
        .generate(42);
    println!(
        "workload {}: {} road MBRs, {} hydrography MBRs",
        workload.name,
        workload.roads.len(),
        workload.hydro.len()
    );

    // 2. Create the simulated machine (DEC Alpha 500 / Cheetah, Table 1) and
    //    bulk load both relations into packed R-trees.
    let mut env = SimEnv::new(MachineConfig::machine3());
    let roads_tree = RTree::bulk_load(&mut env, &workload.roads).expect("bulk load roads");
    let hydro_tree = RTree::bulk_load(&mut env, &workload.hydro).expect("bulk load hydro");
    println!(
        "indexes: roads {} nodes ({} levels), hydro {} nodes",
        roads_tree.nodes(),
        roads_tree.height(),
        hydro_tree.nodes()
    );
    env.device.reset_stats();

    // 3. Describe the join once and run it. `Algo::Pq` forces the paper's
    //    Priority-Queue-Driven Traversal; `Algo::Auto` would let the §6.3
    //    cost model decide.
    let query = SpatialQuery::new(
        JoinInput::Indexed(&roads_tree),
        JoinInput::Indexed(&hydro_tree),
    )
    .algorithm(Algo::Pq);
    let result = query.run(&mut env).expect("PQ join");

    // 4. Report what the paper's tables report.
    println!("\nPQ join results");
    println!("  intersecting pairs      : {}", result.pairs);
    println!(
        "  index page requests     : {} (lower bound {})",
        result.index_page_requests,
        roads_tree.nodes() + hydro_tree.nodes()
    );
    println!(
        "  priority queue memory   : {:.3} MB",
        result.memory.priority_queue_bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "  sweep structure memory  : {:.3} MB",
        result.memory.sweep_structure_bytes as f64 / (1024.0 * 1024.0)
    );
    let cost = result.observed_cost(&env.machine);
    println!(
        "  simulated time          : {:.2} s CPU + {:.2} s I/O = {:.2} s",
        cost.cpu_secs,
        cost.io_secs,
        cost.total_secs()
    );
}
