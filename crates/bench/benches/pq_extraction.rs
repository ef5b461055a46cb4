//! Extracting an R-tree in sorted order with the PQ index adapter versus
//! externally sorting the flat file (the two ways PQ/SSSJ can obtain a
//! sorted input).

use std::hint::black_box;
use usj_bench::QuickBench;
use usj_datagen::{Preset, WorkloadSpec};
use usj_io::{extsort, ItemStream, MachineConfig, SimEnv};
use usj_rtree::RTree;

fn main() {
    let workload = WorkloadSpec::preset(Preset::NJ)
        .with_scale(400)
        .generate(42);
    println!("sorted_access ({} road MBRs)", workload.roads.len());
    let harness = QuickBench::new();

    harness.bench("pq_index_adapter", || {
        let mut env = SimEnv::new(MachineConfig::machine3());
        let tree = env.unaccounted(|e| RTree::bulk_load(e, &workload.roads).unwrap());
        let mut ex = usj_core::pq::PqExtractor::new(&mut env, &tree, None);
        let mut n = 0u64;
        while ex.next(&mut env).unwrap().is_some() {
            n += 1;
        }
        black_box(n)
    });

    harness.bench("external_sort", || {
        let mut env = SimEnv::new(MachineConfig::machine3());
        let stream = env.unaccounted(|e| ItemStream::from_items(e, &workload.roads).unwrap());
        let sorted = extsort::external_sort_by_lower_y(&mut env, &stream).unwrap();
        black_box(sorted.len())
    });
}
