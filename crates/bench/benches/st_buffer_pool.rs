//! The ST join with the paper's 22 MB buffer pool versus a starved pool
//! (the buffer-pool sensitivity discussed in Section 6.2), and the read path
//! of a service selection: one fresh gauged node store per window query.

use std::hint::black_box;
use std::ops::ControlFlow;
use usj_bench::{ExperimentConfig, PreparedWorkload, QuickBench};
use usj_core::StJoin;
use usj_datagen::rng::SmallRng;
use usj_datagen::{Preset, WorkloadSpec};
use usj_geom::Rect;
use usj_io::{MachineConfig, SimEnv};
use usj_rtree::{NodeStore, RTree};
use usj_service::service::SELECTION_BUDGET;

fn main() {
    let cfg = ExperimentConfig {
        scale: 400,
        seed: 42,
        presets: vec![Preset::NY],
    };
    println!("st_buffer_pool_ny (scale {})", cfg.scale);
    let harness = QuickBench::new();
    for (name, bytes) in [
        ("pool_22mb", 22usize * 1024 * 1024),
        ("pool_256kb", 256 * 1024),
        ("pool_64kb", 64 * 1024),
    ] {
        harness.bench(name, || {
            let mut p = PreparedWorkload::build(Preset::NY, &cfg, MachineConfig::machine3());
            let res = p.run_indexed(&StJoin::default().with_buffer_pool_bytes(bytes));
            black_box((res.pairs, res.index_page_requests))
        });
    }

    selection_per_request(&harness);
}

/// 1 000 seeded windows over NY's roads at scale 20, each through a fresh
/// store gauged against a 1 MB environment, as the service runs a selection
/// it admitted with its default budget.
fn selection_per_request(harness: &QuickBench) {
    let w = WorkloadSpec::preset(Preset::NY).with_scale(20).generate(42);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let tree = env.unaccounted(|env| RTree::bulk_load(env, &w.roads).unwrap());
    env.set_memory_limit(SELECTION_BUDGET);
    let space = tree.bbox();
    let mut rng = SmallRng::seed_from_u64(42);
    let windows: Vec<Rect> = (0..1_000)
        .map(|_| {
            let w = space.width() * rng.gen_range_f32(0.005, 0.05);
            let h = space.height() * rng.gen_range_f32(0.005, 0.05);
            let x = space.lo.x + rng.gen_f32() * (space.width() - w);
            let y = space.lo.y + rng.gen_f32() * (space.height() - h);
            Rect::from_coords(x, y, x + w, y + h)
        })
        .collect();
    println!("selection_ny (scale 20, {} windows)", windows.len());
    harness.bench("fresh_store_per_window", || {
        let mut found = 0u64;
        for window in &windows {
            let mut store = NodeStore::with_capacity_bytes_gauged(SELECTION_BUDGET, &env.memory);
            tree.window_query_via(&mut env, &mut store, window, &mut |_| {
                found += 1;
                ControlFlow::Continue(())
            })
            .unwrap();
        }
        found
    });
}
