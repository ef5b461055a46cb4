//! The Section 6.3 scenario: joining a *localized* relation (hydrography of
//! one "state") against a country-wide relation (all roads). `Algo::Auto`
//! decides whether to traverse the indexes or to ignore them and sort — the
//! paper's point being that "index available" does not imply "index fastest".
//!
//! ```text
//! cargo run --release --example cost_based_selection
//! ```

use unified_spatial_join::geom::Rect;
use unified_spatial_join::join::cost::crossover_fraction;
use unified_spatial_join::prelude::*;

fn main() {
    let workload = WorkloadSpec::preset(Preset::Disk1)
        .with_scale(200)
        .generate(7);
    let region = workload.region;
    println!(
        "country-wide roads: {} MBRs; machine 3 crossover fraction: {:.2}",
        workload.roads.len(),
        crossover_fraction(&MachineConfig::machine3())
    );
    println!(
        "\n{:>10} {:>10} {:>12} {:>14} {:>14} {:>12}",
        "window", "hydro", "touched frac", "est indexed s", "est sorted s", "chosen plan"
    );

    for window_frac in [1.0f32, 0.5, 0.25, 0.1, 0.02] {
        // Clip the hydrography to a corner window covering `window_frac` of
        // the country's area — the "Minnesota vs the whole US" situation.
        let side = region.width() * window_frac.sqrt();
        let window = Rect::from_coords(
            region.lo.x,
            region.lo.y,
            region.lo.x + side,
            region.lo.y + side,
        );
        let local_hydro: Vec<_> = workload
            .hydro
            .iter()
            .copied()
            .filter(|it| window.contains(&it.rect))
            .collect();

        let mut env = SimEnv::new(MachineConfig::machine3());
        let (roads_tree, hydro_tree) = env.unaccounted(|env| {
            (
                RTree::bulk_load(env, &workload.roads).unwrap(),
                RTree::bulk_load(env, &local_hydro).unwrap(),
            )
        });
        env.device.reset_stats();

        // The builder lowers Algo::Auto to an inspectable plan (which
        // strategy, and why) and then executes it.
        let query = SpatialQuery::new(
            JoinInput::Indexed(&roads_tree),
            JoinInput::Indexed(&hydro_tree),
        )
        .algorithm(Algo::Auto);
        let plan = query.plan(&mut env).expect("query plan");
        let estimate = plan.cost.expect("auto plans carry the estimate");
        // `run_planned` reuses the plan instead of re-pricing the estimate.
        let result = query.run_planned(&mut env, &plan).expect("cost-based join");
        println!(
            "{:>9.0}% {:>10} {:>12.2} {:>14.2} {:>14.2} {:>12}",
            window_frac * 100.0,
            local_hydro.len(),
            estimate.touched_fraction,
            estimate.indexed.total_secs(),
            estimate.non_indexed.total_secs(),
            format!(
                "{:?} ({} pairs)",
                plan.chosen.expect("auto plan"),
                result.pairs
            )
        );
    }
    println!("\n(Small windows touch a small fraction of the road index, so the indexed plan wins; country-wide joins fall back to the sort-based SSSJ.)");
}
