//! Multi-way joins with PQ: because PQ produces its output in sweep order, a
//! 3-way intersection join can cascade two sweeps without re-sorting the
//! intermediate result (Section 4 of the paper).
//!
//! The scenario: find (road, hydrography, administrative-zone) triples whose
//! MBRs mutually overlap — e.g. every river/road crossing inside a flood
//! zone.
//!
//! ```text
//! cargo run --release --example multiway_join
//! ```

use unified_spatial_join::datagen::generator::{GeneratorConfig, TigerLikeGenerator};
use unified_spatial_join::io::ItemStream;
use unified_spatial_join::prelude::*;

fn main() {
    // Roads and hydrography from the standard generator.
    let workload = WorkloadSpec::preset(Preset::NJ)
        .with_scale(200)
        .generate(42);

    // A third relation: coarse administrative "zones" covering parts of the
    // region (generated as large lake-like boxes).
    let mut gen = TigerLikeGenerator::new(
        7,
        workload.region,
        workload.roads.len() as u64,
        GeneratorConfig::default(),
    );
    let zones = gen.hydro(workload.hydro.len() as u64 / 4, 0x6000_0000);

    let mut env = SimEnv::new(MachineConfig::machine3());
    let (roads_tree, hydro_tree, zones_stream) = env.unaccounted(|env| {
        (
            RTree::bulk_load(env, &workload.roads).unwrap(),
            RTree::bulk_load(env, &workload.hydro).unwrap(),
            ItemStream::from_items(env, &zones).unwrap(),
        )
    });
    env.device.reset_stats();

    println!(
        "inputs: {} roads (indexed), {} hydro (indexed), {} zones (non-indexed stream)",
        workload.roads.len(),
        workload.hydro.len(),
        zones.len()
    );

    let mut sample = Vec::new();
    let result = MultiwayJoin
        .run_with(
            &mut env,
            JoinInput::Indexed(&roads_tree),
            JoinInput::Indexed(&hydro_tree),
            JoinInput::Stream(&zones_stream),
            &mut |road: u32, hydro: u32, zone: u32| {
                if sample.len() < 5 {
                    sample.push((road, hydro, zone));
                }
            },
        )
        .expect("3-way join");

    println!("\n3-way join (roads ⋈ hydro) ⋈ zones");
    println!(
        "  intermediate road-hydro pairs : {}",
        result.intermediate_pairs
    );
    println!("  final triples                 : {}", result.triples);
    println!(
        "  index page requests           : {}",
        result.index_page_requests
    );
    println!(
        "  working memory                : {:.3} MB",
        result.memory.total_bytes() as f64 / (1024.0 * 1024.0)
    );
    println!("  first triples                 : {sample:?}");
}
