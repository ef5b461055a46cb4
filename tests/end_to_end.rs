//! Workspace-level integration tests: the full pipeline from workload
//! generation through index construction to every join algorithm, exercised
//! through the facade crate's public API only.

use unified_spatial_join::io::ItemStream;
use unified_spatial_join::join::{cost, multiway::three_way_join, JoinAlgorithm};
use unified_spatial_join::prelude::*;

fn prepare(
    preset: Preset,
    scale: u64,
    seed: u64,
) -> (
    SimEnv,
    unified_spatial_join::datagen::Workload,
    RTree,
    RTree,
    ItemStream,
    ItemStream,
) {
    let workload = WorkloadSpec::preset(preset)
        .with_scale(scale)
        .generate(seed);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let (rt, ht, rs, hs) = env.unaccounted(|env| {
        (
            RTree::bulk_load(env, &workload.roads).unwrap(),
            RTree::bulk_load(env, &workload.hydro).unwrap(),
            ItemStream::from_items(env, &workload.roads).unwrap(),
            ItemStream::from_items(env, &workload.hydro).unwrap(),
        )
    });
    env.device.reset_stats();
    (env, workload, rt, ht, rs, hs)
}

#[test]
fn full_pipeline_all_algorithms_agree_with_the_reference_join() {
    let (mut env, workload, rt, ht, rs, hs) = prepare(Preset::NJ, 300, 1);
    let expected = workload.reference_join_size();
    assert!(expected > 0);

    for alg in JoinAlgorithm::all() {
        let result = match alg {
            JoinAlgorithm::Pq | JoinAlgorithm::St => alg
                .run(&mut env, JoinInput::Indexed(&rt), JoinInput::Indexed(&ht))
                .unwrap(),
            _ => alg
                .run(&mut env, JoinInput::Stream(&rs), JoinInput::Stream(&hs))
                .unwrap(),
        };
        assert_eq!(result.pairs, expected, "{} disagrees", alg.name());
        env.device.reset_stats();
    }
}

#[test]
fn pq_is_optimal_in_page_requests_and_small_in_memory() {
    let (mut env, workload, rt, ht, _rs, _hs) = prepare(Preset::NY, 300, 2);
    let result = PqJoin::default()
        .run(&mut env, JoinInput::Indexed(&rt), JoinInput::Indexed(&ht))
        .unwrap();
    // Table 4: exactly one request per node of either index.
    assert_eq!(result.index_page_requests, rt.nodes() + ht.nodes());
    // Table 3: the priority queue working set is far smaller than the indexes
    // it traverses (at the paper's unscaled sizes it is below 1 % of the
    // data; at this tiny test scale the leaf staging dominates, so the bound
    // checked here is the index size).
    let _ = &workload;
    let index_bytes = (rt.size_bytes() + ht.size_bytes()) as usize;
    assert!(result.memory.priority_queue_bytes < index_bytes / 2);
    // Figure 2: the cost model produces non-trivial CPU and I/O components.
    let cost = result.observed_cost(&MachineConfig::machine3());
    assert!(cost.cpu_secs > 0.0 && cost.io_secs > 0.0);
    assert!(result.estimated_cost(&MachineConfig::machine3()).io_secs >= cost.io_secs * 0.99);
}

#[test]
fn mixed_representation_joins_are_supported_by_pq_only_path() {
    // The defining feature of the unified algorithm: one side indexed, one
    // side a flat file, without building a new index.
    let (mut env, _w, rt, _ht, _rs, hs) = prepare(Preset::NJ, 500, 3);
    let mixed = PqJoin::default()
        .run(&mut env, JoinInput::Indexed(&rt), JoinInput::Stream(&hs))
        .unwrap();
    env.device.reset_stats();
    let indexed_only_left = PqJoin::default()
        .run(&mut env, JoinInput::Stream(&hs), JoinInput::Indexed(&rt))
        .unwrap();
    assert_eq!(mixed.pairs, indexed_only_left.pairs);
    assert!(mixed.pairs > 0);
}

#[test]
fn cost_based_selector_picks_a_plan_and_returns_correct_results() {
    let (mut env, workload, rt, ht, _rs, _hs) = prepare(Preset::NJ, 300, 4);
    let (left, right) = (JoinInput::Indexed(&rt), JoinInput::Indexed(&ht));
    let estimate = cost::estimate(&mut env, &left, &right).unwrap();
    let query = SpatialQuery::new(left, right);
    let plan = query.plan(&mut env).unwrap().chosen.unwrap();
    assert_eq!(plan, estimate.plan());
    // Each run starts with the disk head parked, so Auto's run and the
    // operator it names read and seek alike.
    env.device.reset_stats();
    let result = query.run(&mut env).unwrap();
    assert_eq!(result.pairs, workload.reference_join_size());
    // Road and hydro cover the same region, so the whole index participates.
    assert!(estimate.touched_fraction > 0.5);
    // Auto runs the operator its plan names, and that plan is the one that
    // charges less. At this size (six index pages) that is pruned PQ:
    // SSSJ's dumps and sorts cost more than reading every node once.
    env.device.reset_stats();
    let pq = PqJoin::default()
        .with_pruning()
        .run(&mut env, left, right)
        .unwrap();
    env.device.reset_stats();
    let sssj = SssjJoin::default().run(&mut env, left, right).unwrap();
    let (chosen, other) = match plan {
        JoinPlan::Indexed => (&pq, &sssj),
        JoinPlan::NonIndexed => (&sssj, &pq),
    };
    assert_eq!(&result, chosen);
    let [chosen_secs, other_secs] =
        [chosen, other].map(|r| r.observed_cost(&MachineConfig::machine3()).total_secs());
    assert!(
        chosen_secs <= other_secs,
        "{plan:?} charged {chosen_secs} s, the other {other_secs} s"
    );
}

#[test]
fn three_way_join_runs_through_the_facade() {
    let (mut env, workload, rt, ht, _rs, _hs) = prepare(Preset::NJ, 800, 5);
    let zones_stream = env.unaccounted(|env| {
        // Use the hydro MBRs shifted as a third relation.
        let zones: Vec<_> = workload
            .hydro
            .iter()
            .map(|it| unified_spatial_join::geom::Item::new(it.rect, it.id ^ 0x2000_0000))
            .collect();
        ItemStream::from_items(env, &zones).unwrap()
    });
    let mut triples = 0u64;
    let res = three_way_join(
        &mut env,
        JoinInput::Indexed(&rt),
        JoinInput::Indexed(&ht),
        JoinInput::Stream(&zones_stream),
        &mut |_, _, _| triples += 1,
    )
    .unwrap();
    assert_eq!(res.triples, triples);
    // Each (road, hydro) pair intersects the zone equal to that hydro MBR, so
    // there is at least one triple per pair.
    assert!(res.triples >= res.intermediate_pairs);
}

#[test]
fn observed_costs_preserve_the_papers_machine_ordering() {
    // The same join is more expensive on the slow-CPU Machine 1 than on
    // Machine 3, and the random-heavy PQ suffers more on the slow-seek
    // Machine 2 than on Machine 3.
    let (mut env, _w, rt, ht, _rs, _hs) = prepare(Preset::NY, 300, 6);
    let result = PqJoin::default()
        .run(&mut env, JoinInput::Indexed(&rt), JoinInput::Indexed(&ht))
        .unwrap();
    let m1 = result.observed_cost(&MachineConfig::machine1());
    let m2 = result.observed_cost(&MachineConfig::machine2());
    let m3 = result.observed_cost(&MachineConfig::machine3());
    assert!(m1.cpu_secs > m3.cpu_secs);
    assert!(m2.io_secs > m3.io_secs);
    assert!(m1.total_secs() > m3.total_secs());
}
