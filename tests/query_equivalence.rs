//! The query-builder acceptance suite.
//!
//! Three properties gate the `SpatialQuery` redesign:
//!
//! 1. **Equivalence** — for every algorithm and two workload presets, the
//!    builder produces a byte-identical `JoinResult` (every I/O, CPU and
//!    memory counter) and the identical pair sequence as the direct
//!    `JoinOperator` entry points, and `Algo::Auto` picks
//!    exactly the plan `CostBasedJoin` picks.
//! 2. **Predicates** — `WithinDistance` agrees with a brute-force oracle on
//!    all four algorithms.
//! 3. **Early termination** — a LIMIT sink stops the join's I/O short of a
//!    full run, and every algorithm × predicate × sink
//!    combination is constructible and consistent.

use unified_spatial_join::io::ItemStream;
use unified_spatial_join::join::JoinAlgorithm;
use unified_spatial_join::prelude::*;

type Prepared = (SimEnv, Workload, RTree, RTree, ItemStream, ItemStream);

fn prepare(preset: Preset, scale: u64, seed: u64) -> Prepared {
    let workload = WorkloadSpec::preset(preset).with_scale(scale).generate(seed);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let (roads_tree, hydro_tree, roads_stream, hydro_stream) = env.unaccounted(|env| {
        (
            RTree::bulk_load(env, &workload.roads).unwrap(),
            RTree::bulk_load(env, &workload.hydro).unwrap(),
            ItemStream::from_items(env, &workload.roads).unwrap(),
            ItemStream::from_items(env, &workload.hydro).unwrap(),
        )
    });
    env.device.reset_stats();
    (env, workload, roads_tree, hydro_tree, roads_stream, hydro_stream)
}

/// The natural input representation of an algorithm, as in the paper's setup.
fn inputs_for<'a>(
    alg: JoinAlgorithm,
    roads_tree: &'a RTree,
    hydro_tree: &'a RTree,
    roads_stream: &'a ItemStream,
    hydro_stream: &'a ItemStream,
) -> (JoinInput<'a>, JoinInput<'a>) {
    match alg {
        JoinAlgorithm::Pq | JoinAlgorithm::St => (
            JoinInput::Indexed(roads_tree),
            JoinInput::Indexed(hydro_tree),
        ),
        _ => (
            JoinInput::Stream(roads_stream),
            JoinInput::Stream(hydro_stream),
        ),
    }
}

#[test]
fn builder_is_byte_identical_to_the_legacy_serial_api() {
    for (preset, scale) in [(Preset::NJ, 400), (Preset::NY, 800)] {
        for alg in JoinAlgorithm::all() {
            // Each path runs on its own freshly prepared environment (the
            // generator is deterministic, so the data and disk layout are
            // identical) — the simulated disk head is stateful, and a shared
            // device would misclassify one sequential/random read between
            // back-to-back runs.
            let (mut env, workload, rt, ht, rs, hs) = prepare(preset, scale, 11);
            let (left, right) = inputs_for(alg, &rt, &ht, &rs, &hs);

            // Legacy path: the concrete structs driven directly through
            // `JoinOperator` (closures implement `PairSink`).
            let mut legacy_pairs = Vec::new();
            let legacy: JoinResult = match alg {
                JoinAlgorithm::Sssj => JoinOperator::run_with(
                    &SssjJoin::default(),
                    &mut env,
                    left,
                    right,
                    &mut |a, b| legacy_pairs.push((a, b)),
                ),
                JoinAlgorithm::Pbsm => JoinOperator::run_with(
                    &PbsmJoin::default(),
                    &mut env,
                    left,
                    right,
                    &mut |a, b| legacy_pairs.push((a, b)),
                ),
                JoinAlgorithm::Pq => JoinOperator::run_with(
                    &PqJoin::default(),
                    &mut env,
                    left,
                    right,
                    &mut |a, b| legacy_pairs.push((a, b)),
                ),
                JoinAlgorithm::St => JoinOperator::run_with(
                    &StJoin::default(),
                    &mut env,
                    left,
                    right,
                    &mut |a, b| legacy_pairs.push((a, b)),
                ),
            }
            .unwrap();

            // Builder path, clean-room environment.
            let (mut env2, _w2, rt2, ht2, rs2, hs2) = prepare(preset, scale, 11);
            let (left2, right2) = inputs_for(alg, &rt2, &ht2, &rs2, &hs2);
            let (result, pairs) = SpatialQuery::new(left2, right2)
                .algorithm(alg.into())
                .collect(&mut env2)
                .unwrap();

            assert_eq!(result, legacy, "{preset:?}/{}: JoinResult drift", alg.name());
            assert_eq!(pairs, legacy_pairs, "{preset:?}/{}: pair drift", alg.name());
            assert_eq!(result.pairs, workload.reference_join_size());
        }
    }
}

#[test]
fn auto_picks_the_same_plan_as_cost_based_join() {
    for (preset, scale) in [(Preset::NJ, 400), (Preset::NY, 800)] {
        let (mut env, _workload, rt, ht, _rs, _hs) = prepare(preset, scale, 3);
        let (legacy_plan, legacy_est, legacy_res) = CostBasedJoin::default()
            .run(&mut env, JoinInput::Indexed(&rt), JoinInput::Indexed(&ht))
            .unwrap();

        // Clean-room environment for the builder path (see the serial test).
        let (mut env2, _w2, rt2, ht2, _rs2, _hs2) = prepare(preset, scale, 3);
        let q = SpatialQuery::new(JoinInput::Indexed(&rt2), JoinInput::Indexed(&ht2));
        let plan = q.plan(&mut env2).unwrap();
        assert_eq!(plan.chosen, Some(legacy_plan), "{preset:?}");
        assert_eq!(plan.cost, Some(legacy_est), "{preset:?}");

        let (mut env3, _w3, rt3, ht3, _rs3, _hs3) = prepare(preset, scale, 3);
        let result = SpatialQuery::new(JoinInput::Indexed(&rt3), JoinInput::Indexed(&ht3))
            .run(&mut env3)
            .unwrap();
        assert_eq!(result, legacy_res, "{preset:?}: auto execution drift");
    }
}

/// Brute-force oracle for the ε-distance predicate: Chebyshev (L∞) distance
/// between MBRs at most ε, implemented independently of the library's
/// expansion machinery.
fn brute_within(
    left: &[unified_spatial_join::geom::Item],
    right: &[unified_spatial_join::geom::Item],
    eps: f32,
) -> Vec<(u32, u32)> {
    let dist_1d = |lo_a: f32, hi_a: f32, lo_b: f32, hi_b: f32| -> f32 {
        (lo_b - hi_a).max(lo_a - hi_b).max(0.0)
    };
    let mut out = Vec::new();
    for a in left {
        for b in right {
            let dx = dist_1d(a.rect.lo.x, a.rect.hi.x, b.rect.lo.x, b.rect.hi.x);
            let dy = dist_1d(a.rect.lo.y, a.rect.hi.y, b.rect.lo.y, b.rect.hi.y);
            if dx.max(dy) <= eps {
                out.push((a.id, b.id));
            }
        }
    }
    out.sort_unstable();
    out
}

#[test]
fn within_distance_matches_the_brute_force_oracle_on_all_algorithms() {
    let (mut env, workload, rt, ht, rs, hs) = prepare(Preset::NJ, 1_500, 21);
    let eps = workload.region.width() * 0.01;
    let expected = brute_within(&workload.roads, &workload.hydro, eps);
    let intersecting = workload.reference_join_size() as usize;
    assert!(
        expected.len() > intersecting,
        "ε must add near-miss pairs ({} vs {intersecting})",
        expected.len()
    );

    for alg in JoinAlgorithm::all() {
        let (left, right) = inputs_for(alg, &rt, &ht, &rs, &hs);
        let (_, mut pairs) = SpatialQuery::new(left, right)
            .algorithm(alg.into())
            .predicate(Predicate::WithinDistance(eps))
            .collect(&mut env)
            .unwrap();
        pairs.sort_unstable();
        assert_eq!(pairs, expected, "{}", alg.name());
    }
}

#[test]
fn limit_sink_stops_io_short_of_a_full_run() {
    let (mut env, _workload, rt, ht, _rs, _hs) = prepare(Preset::NY, 60, 5);
    let q = SpatialQuery::new(
        JoinInput::Indexed(&rt),
        JoinInput::Indexed(&ht),
    )
    .algorithm(Algo::Pq);

    let full = q.run(&mut env).unwrap();
    assert!(full.pairs > 100);
    assert!(full.index_page_requests > 20);

    let (limited, pairs) = q.first(&mut env, 25).unwrap();
    assert_eq!(pairs.len(), 25);
    assert_eq!(limited.pairs, 25);
    assert!(
        limited.index_page_requests < full.index_page_requests / 2,
        "LIMIT 25 must stop the traversal early ({} of {} page requests)",
        limited.index_page_requests,
        full.index_page_requests
    );
    assert!(
        limited.io.pages_read < full.io.pages_read,
        "LIMIT must save read I/O ({} of {})",
        limited.io.pages_read,
        full.io.pages_read
    );
}

/// Every (algorithm × predicate × sink) combination is
/// constructible through the builder and internally consistent: collect
/// agrees with count, and limit truncates the same stream.
#[test]
fn every_combination_is_constructible_and_consistent() {
    let (mut env, workload, rt, ht, rs, hs) = prepare(Preset::NJ, 1_200, 9);
    let eps = workload.region.width() * 0.005;

    for alg in JoinAlgorithm::all() {
        let (left, right) = inputs_for(alg, &rt, &ht, &rs, &hs);
        for predicate in [Predicate::Intersects, Predicate::WithinDistance(eps)] {
            let q = SpatialQuery::new(left, right)
                .algorithm(alg.into())
                .predicate(predicate);
            let label = format!("{}/{predicate:?}", alg.name());

            // count sink
            let count = q.count(&mut env).unwrap();
            assert!(count > 0, "{label}: empty result");
            // collect sink
            let (res, pairs) = q.collect(&mut env).unwrap();
            assert_eq!(pairs.len() as u64, count, "{label}: collect/count drift");
            assert_eq!(res.pairs, count, "{label}: result counter drift");
            // limit sink
            let limit = (count / 2).max(1);
            let (res_lim, lim_pairs) = q.first(&mut env, limit).unwrap();
            assert_eq!(lim_pairs.len() as u64, limit, "{label}: limit size");
            assert_eq!(res_lim.pairs, limit, "{label}: limit counter");
            assert_eq!(
                lim_pairs.as_slice(),
                &pairs[..limit as usize],
                "{label}: limit must be a prefix of the full stream"
            );
        }
    }
}

#[test]
fn contains_predicate_is_a_subset_of_intersects_everywhere() {
    let (mut env, workload, rt, ht, rs, hs) = prepare(Preset::NJ, 2_000, 13);
    for alg in JoinAlgorithm::all() {
        let (left, right) = inputs_for(alg, &rt, &ht, &rs, &hs);
        let (_, mut contains) = SpatialQuery::new(left, right)
            .algorithm(alg.into())
            .predicate(Predicate::Contains)
            .collect(&mut env)
            .unwrap();
        contains.sort_unstable();
        let expected: Vec<(u32, u32)> = {
            let mut v: Vec<(u32, u32)> = workload
                .roads
                .iter()
                .flat_map(|a| {
                    workload
                        .hydro
                        .iter()
                        .filter(|b| a.rect.contains(&b.rect))
                        .map(|b| (a.id, b.id))
                        .collect::<Vec<_>>()
                })
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(contains, expected, "{}", alg.name());
    }
}
