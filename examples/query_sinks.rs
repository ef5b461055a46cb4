//! Pluggable predicates and streaming sinks: the query shapes the callback
//! API could not express.
//!
//! * an ε-distance join ("every hydrography feature within ε of a road"),
//! * a containment join,
//! * a `LIMIT n` query that stops the join — and its I/O — early,
//! * a sampled preview of a large result.
//!
//! ```text
//! cargo run --release --example query_sinks
//! ```

use unified_spatial_join::prelude::*;

fn main() {
    let workload = WorkloadSpec::preset(Preset::NJ)
        .with_scale(100)
        .generate(42);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let (roads_tree, hydro_tree) = env.unaccounted(|env| {
        (
            RTree::bulk_load(env, &workload.roads).unwrap(),
            RTree::bulk_load(env, &workload.hydro).unwrap(),
        )
    });
    env.device.reset_stats();
    let query = SpatialQuery::new(
        JoinInput::Indexed(&roads_tree),
        JoinInput::Indexed(&hydro_tree),
    )
    .algorithm(Algo::Pq);

    // 1. The plain intersection join as the baseline.
    let base = query.run(&mut env).expect("intersection join");
    println!(
        "intersects           : {:>8} pairs ({} index page requests)",
        base.pairs, base.index_page_requests
    );

    // 2. ε-distance join: grow ε and watch the result widen. All four
    //    algorithms support this through the same ε-expanded sweep.
    for frac in [0.001f32, 0.005, 0.02] {
        let eps = workload.region.width() * frac;
        let n = query
            .predicate(Predicate::WithinDistance(eps))
            .count(&mut env)
            .expect("distance join");
        println!(
            "within eps={:<8.1} : {:>8} pairs (+{} near misses)",
            eps,
            n,
            n - base.pairs
        );
    }

    // 3. Containment: roads whose MBR swallows a hydrography MBR entirely.
    let contained = query
        .predicate(Predicate::Contains)
        .count(&mut env)
        .expect("containment join");
    println!("contains             : {:>8} pairs", contained);

    // 4. LIMIT: ask for the first 100 pairs. The sink stops the priority
    //    queue traversal, so most index pages are never requested.
    let (limited, first_pairs) = query.first(&mut env, 100).expect("limited join");
    println!(
        "limit 100            : {:>8} pairs, {} of {} index page requests",
        first_pairs.len(),
        limited.index_page_requests,
        base.index_page_requests
    );

    // 5. A 1-in-64 systematic sample of the output, streamed through a
    //    custom sink stack.
    let mut sample = SampleSink::new(CollectSink::default(), 64);
    query.execute(&mut env, &mut sample).expect("sampled join");
    println!(
        "sample 1/64          : {:>8} of {} pairs kept",
        sample.kept(),
        sample.seen()
    );
}
