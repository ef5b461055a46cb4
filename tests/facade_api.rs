//! Smoke tests for the facade crate: the re-exports and the prelude expose
//! everything a downstream user needs, with the documented names.

use unified_spatial_join::prelude::*;

#[test]
fn prelude_types_are_usable_together() {
    let rect = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
    let interval: Interval = rect.x_interval();
    assert!(interval.overlaps(&Interval::new(0.5, 2.0)));
    let p = Point::new(0.5, 0.5);
    assert!(rect.contains_point(p));

    let machine = MachineConfig::machine1();
    assert_eq!(machine.cpu_mhz, 50.0);
    let env = SimEnv::new(machine);
    assert_eq!(env.device.stats(), IoStats::default());
}

#[test]
fn sweep_structures_are_reexported() {
    use unified_spatial_join::geom::Item;
    let mut fw = ForwardSweep::with_extent(0.0, 10.0);
    let mut st = StripedSweep::with_extent(0.0, 10.0);
    let it = Item::new(Rect::from_coords(0.0, 0.0, 1.0, 1.0), 1);
    fw.insert(it);
    st.insert(it);
    assert_eq!(fw.len(), 1);
    assert_eq!(st.len(), 1);
}

#[test]
fn workload_presets_are_reachable_through_the_facade() {
    let spec = WorkloadSpec::preset(Preset::NJ).with_scale(2_000);
    let w: Workload = spec.generate(9);
    assert_eq!(w.preset, Preset::NJ);
    assert!(!w.roads.is_empty() && !w.hydro.is_empty());
}

#[test]
fn join_algorithms_and_results_are_reachable_through_the_facade() {
    use unified_spatial_join::join::JoinAlgorithm;
    assert_eq!(JoinAlgorithm::all().len(), 4);
    let spec = WorkloadSpec::preset(Preset::NJ).with_scale(2_000);
    let w = spec.generate(10);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let tree = RTree::bulk_load(&mut env, &w.roads).unwrap();
    let hydro_tree = RTree::bulk_load(&mut env, &w.hydro).unwrap();

    // `JoinOperator` is object-safe, so the four concrete joins erase
    // directly — no adapter trait needed.
    for joiner in [
        &PqJoin::default() as &dyn JoinOperator,
        &StJoin::default(),
        &SssjJoin::default(),
        &PbsmJoin::default(),
    ] {
        let result: JoinResultAlias = joiner
            .run(
                &mut env,
                JoinInput::Indexed(&tree),
                JoinInput::Indexed(&hydro_tree),
            )
            .unwrap();
        assert_eq!(result.pairs, w.reference_join_size());
    }
}

#[test]
fn query_builder_and_sinks_are_reachable_through_the_facade() {
    let w = WorkloadSpec::preset(Preset::NJ).with_scale(2_000).generate(10);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let tree = RTree::bulk_load(&mut env, &w.roads).unwrap();
    let hydro_tree = RTree::bulk_load(&mut env, &w.hydro).unwrap();
    let (result, pairs) = SpatialQuery::new(
        JoinInput::Indexed(&tree),
        JoinInput::Indexed(&hydro_tree),
    )
    .algorithm(Algo::Auto)
    .predicate(Predicate::Intersects)
    .collect(&mut env)
    .unwrap();
    assert_eq!(result.pairs, w.reference_join_size());
    assert_eq!(pairs.len() as u64, result.pairs);

    // The memory report and the selectivity histogram are exported too.
    let stats: MemoryStats = result.memory;
    assert!(stats.total_bytes() > 0);
    let hist = GridHistogram::from_items(w.region, 16, &w.roads);
    assert!(hist.total() > 0);

    // Multi-way joins are reachable without digging into submodules.
    let zones = RTree::bulk_load(&mut env, &w.hydro).unwrap();
    let res = MultiwayJoin
        .run(
            &mut env,
            JoinInput::Indexed(&tree),
            JoinInput::Indexed(&hydro_tree),
            JoinInput::Indexed(&zones),
        )
        .unwrap();
    assert!(res.triples > 0);
}

/// Type alias proving `JoinResult` is exported with its documented name.
type JoinResultAlias = unified_spatial_join::join::JoinResult;

/// Closure callbacks keep working against `JoinOperator` now that the
/// deprecated `SpatialJoin` shim has been removed (closures are sinks).
#[test]
fn closure_sinks_replace_the_removed_spatial_join_shim() {
    let w = WorkloadSpec::preset(Preset::NJ).with_scale(4_000).generate(1);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let tree = RTree::bulk_load(&mut env, &w.roads).unwrap();
    let hydro_tree = RTree::bulk_load(&mut env, &w.hydro).unwrap();
    let mut n = 0u64;
    let res = JoinOperator::run_with(
        &PqJoin::default(),
        &mut env,
        JoinInput::Indexed(&tree),
        JoinInput::Indexed(&hydro_tree),
        &mut |_, _| n += 1,
    )
    .unwrap();
    assert_eq!(res.pairs, n);
}
