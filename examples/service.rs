//! Register-once / query-many: the dataset catalog and the concurrent
//! query service.
//!
//! ```text
//! cargo run --release --example service
//! ```
//!
//! The example registers the NJ workload's two relations in a [`Catalog`]
//! (paying the sort + bulk-load preparation exactly once), shows the
//! per-query saving against uncataloged inputs, then stands up a
//! [`Service`] and pushes a mixed batch of join and window/point selection
//! queries through it under a 16 MB shared memory budget. Last, a live
//! dataset — still taking appends — is queried through the same three
//! query kinds as the registered ones.

use unified_spatial_join::prelude::*;

fn main() {
    let machine = MachineConfig::machine3();
    let workload = WorkloadSpec::preset(Preset::NJ)
        .with_scale(400)
        .generate(42);
    let region = workload.region;

    // ---- Register once -------------------------------------------------
    let mut env = SimEnv::new(machine);
    let mut catalog = Catalog::new();
    let m = env.begin();
    let roads = catalog
        .register(&mut env, "roads", &workload.roads)
        .unwrap();
    let hydro = catalog
        .register(&mut env, "hydro", &workload.hydro)
        .unwrap();
    let (reg_io, _) = env.since(&m);
    println!(
        "registered {} + {} objects: {} pages written once (sorted runs + R-trees)",
        workload.roads.len(),
        workload.hydro.len(),
        reg_io.pages_written
    );

    // ---- The per-query saving ------------------------------------------
    // The same ST join, uncataloged (bulk-loads throwaway trees) vs
    // cataloged (reads the persisted ones).
    let mut scratch = SimEnv::new(MachineConfig::machine3());
    let (rs, hs) = scratch.unaccounted(|env| {
        (
            unified_spatial_join::io::ItemStream::from_items(env, &workload.roads).unwrap(),
            unified_spatial_join::io::ItemStream::from_items(env, &workload.hydro).unwrap(),
        )
    });
    let uncat = StJoin::default()
        .run(&mut scratch, JoinInput::Stream(&rs), JoinInput::Stream(&hs))
        .unwrap();
    let cat = StJoin::default()
        .run(
            &mut env,
            JoinInput::Cataloged(catalog.get(roads).unwrap().cataloged()),
            JoinInput::Cataloged(catalog.get(hydro).unwrap().cataloged()),
        )
        .unwrap();
    assert_eq!(cat.pairs, uncat.pairs);
    println!(
        "ST join ({} pairs): uncataloged {} pages charged, cataloged {} — the index build is gone",
        cat.pairs,
        uncat.io.pages_read + uncat.io.pages_written,
        cat.io.pages_read + cat.io.pages_written,
    );

    // ---- Query many, concurrently --------------------------------------
    let service = Service::new(
        env,
        catalog,
        ServiceConfig::default()
            .with_workers(4)
            .with_memory_limit(16 * 1024 * 1024),
    );
    let window = Rect::from_coords(
        region.lo.x,
        region.lo.y,
        region.lo.x + region.width() * 0.4,
        region.lo.y + region.height() * 0.4,
    );
    let mut requests = vec![
        // A heavy, high-priority analytical join...
        QueryRequest::join(roads, hydro)
            .with_algorithm(Algo::St)
            .with_memory_budget(12 * 1024 * 1024)
            .with_priority(3),
    ];
    for _ in 0..3 {
        // ...repeat Auto joins (the 2nd and 3rd hit the plan cache)...
        requests.push(QueryRequest::join(roads, hydro).with_memory_budget(6 * 1024 * 1024));
    }
    // ...an ε-distance join, a LIMITed selection, and a point lookup.
    requests.push(
        QueryRequest::join(roads, hydro)
            .with_algorithm(Algo::Pq)
            .with_predicate(Predicate::WithinDistance(0.001))
            .with_memory_budget(6 * 1024 * 1024),
    );
    requests.push(
        QueryRequest::window(roads, window)
            .with_limit(25)
            .collecting(),
    );
    requests.push(QueryRequest::point(roads, region.center()).collecting());

    let report = service.run(requests);
    println!("\nservice batch: {}", report.stats);
    for outcome in &report.outcomes {
        let result = outcome.result().expect("all queries complete");
        println!(
            "  query {}: {:>8} pairs, {:>5} pages read, peak {:>7} B of {:>8} B granted, \
             waited {:?}, deferred {}x",
            outcome.request,
            result.pairs,
            result.io.pages_read,
            result.memory.peak_bytes,
            outcome.stats.admitted_bytes,
            outcome.stats.queue_wait,
            outcome.stats.deferrals,
        );
    }
    assert_eq!(report.stats.completed, report.stats.submitted);
    assert!(
        report.stats.plan_cache_hits >= 2,
        "repeat Auto joins hit the plan cache"
    );
    assert!(report.stats.peak_admitted_bytes <= 16 * 1024 * 1024);

    // Identical Auto joins agree.
    let auto_pairs: Vec<u64> = report.outcomes[1..4]
        .iter()
        .map(|o| o.result().unwrap().pairs)
        .collect();
    assert!(auto_pairs.windows(2).all(|w| w[0] == w[1]));
    println!(
        "\nall {} queries served from one registration — register once, query many.",
        report.stats.completed
    );

    // ---- Live data, the same three query kinds --------------------------
    // A live dataset is a base run + R-tree plus unindexed tiers; it shares
    // the registered datasets' id space and request kinds. A join over its
    // tiers runs the streaming sweep, a window reads the tree, then each
    // tier.
    let half = workload.roads.len() / 2;
    let live = service
        .register_live("roads_live", &workload.roads[..half], LiveConfig::default())
        .unwrap();
    service
        .append_live("roads_live", &workload.roads[half..])
        .unwrap();
    let live_report = service.run(vec![
        QueryRequest::join(live, hydro),
        QueryRequest::window(live, window),
        QueryRequest::point(live, region.center()),
    ]);
    let live_pairs: Vec<u64> = live_report
        .outcomes
        .iter()
        .map(|o| o.result().expect("live queries complete").pairs)
        .collect();
    // The live copy of roads answers exactly like the registered one.
    assert_eq!(live_pairs[0], auto_pairs[0]);
    println!(
        "live dataset #{} (appends still open): join {} pairs, window {} items, point {} items",
        live.0, live_pairs[0], live_pairs[1], live_pairs[2]
    );
}
