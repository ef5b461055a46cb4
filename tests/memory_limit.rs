//! The memory-governor invariant suite.
//!
//! The paper's evaluation is entirely about behaviour under a *bounded
//! internal memory*; these tests make `SimEnv::memory_limit` a hard, tested
//! invariant:
//!
//! * every algorithm × limit × distribution combination reports
//!   a measured `memory.peak_bytes` within the limit and the exact pair set;
//! * a pathologically skewed dataset (every rectangle inside *one* PBSM
//!   tile) is recursively repartitioned under a tiny limit and still matches
//!   the brute-force oracle byte for byte;
//! * the acceptance matrix: the NJ preset at a 4 MB limit, all algorithm ×
//!   predicate combinations, byte-identical to the
//!   unlimited-memory run.

use unified_spatial_join::prelude::*;
use usj_datagen::rng::SmallRng;
use usj_datagen::{Preset, WorkloadSpec};
use usj_geom::{Item, Rect};
use usj_io::{ItemStream, MachineConfig, SimEnv};

const MB: usize = 1024 * 1024;

fn env_with(limit: usize) -> SimEnv {
    SimEnv::new(MachineConfig::machine3()).with_memory_limit(limit)
}

/// Uniformly distributed boxes over `region`.
fn uniform(n: u32, region: Rect, seed: u64, id_base: u32) -> Vec<Item> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let x = rng.gen_range_f32(region.lo.x, region.hi.x);
            let y = rng.gen_range_f32(region.lo.y, region.hi.y);
            let w = rng.gen_range_f32(0.1, region.width() * 0.01);
            let h = rng.gen_range_f32(0.1, region.height() * 0.01);
            Item::new(Rect::from_coords(x, y, x + w, y + h), id_base + i)
        })
        .collect()
}

/// Every rectangle inside `cluster` — with a large `region` hint this is
/// "all data in one PBSM tile".
fn skewed(n: u32, cluster: Rect, seed: u64, id_base: u32) -> Vec<Item> {
    uniform(n, cluster, seed, id_base)
}

fn brute_pairs(a: &[Item], b: &[Item], predicate: Predicate) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = a
        .iter()
        .flat_map(|x| {
            b.iter()
                .filter(|y| predicate.matches(&x.rect, &y.rect))
                .map(|y| (x.id, y.id))
                .collect::<Vec<_>>()
        })
        .collect();
    out.sort_unstable();
    out
}

fn collect_sorted(
    env: &mut SimEnv,
    left: &ItemStream,
    right: &ItemStream,
    algo: Algo,
    predicate: Predicate,
    region: Rect,
) -> (JoinResult, Vec<(u32, u32)>) {
    let (res, mut pairs) = SpatialQuery::new(JoinInput::Stream(left), JoinInput::Stream(right))
        .algorithm(algo)
        .predicate(predicate)
        .region_hint(region)
        .collect(env)
        .unwrap_or_else(|e| panic!("{algo:?}/{predicate:?} failed: {e}"));
    pairs.sort_unstable();
    (res, pairs)
}

/// Satellite: `memory.peak_bytes <= memory_limit` for all 4 algorithms ×
/// {4 MB, 16 MB, 64 MB} × {uniform, skewed}, with the exact pair set every
/// time.
#[test]
fn peak_memory_respects_the_limit_across_the_matrix() {
    let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    let cluster = Rect::from_coords(100.0, 100.0, 104.0, 104.0);
    let datasets = [
        ("uniform", uniform(1500, region, 7, 0), uniform(1500, region, 8, 1_000_000)),
        ("skewed", skewed(1500, cluster, 9, 0), skewed(1500, cluster, 10, 1_000_000)),
    ];
    for (name, left, right) in &datasets {
        let expected = brute_pairs(left, right, Predicate::Intersects);
        for limit in [4 * MB, 16 * MB, 64 * MB] {
            let mut env = env_with(limit);
            let sl = ItemStream::from_items_with_block(&mut env, left, 8).unwrap();
            let sr = ItemStream::from_items_with_block(&mut env, right, 8).unwrap();
            for algo in [Algo::Sssj, Algo::Pbsm, Algo::Pq, Algo::St] {
                let (res, pairs) =
                    collect_sorted(&mut env, &sl, &sr, algo, Predicate::Intersects, region);
                assert_eq!(
                    pairs, expected,
                    "{name}/{algo:?} @ {} MB: wrong pair set",
                    limit / MB
                );
                assert!(res.memory.peak_bytes > 0, "peak must be measured");
                assert!(
                    res.memory.peak_bytes <= limit,
                    "{name}/{algo:?} @ {} MB: peak {} exceeds the limit",
                    limit / MB,
                    res.memory.peak_bytes
                );
            }
        }
    }
}

/// Satellite: the differential skew test. Every rectangle lives in one PBSM
/// tile of a much larger hinted region, the memory limit is tiny, and the
/// recursive repartitioning must still produce byte-identical pairs vs the
/// brute-force oracle (and vs an unlimited-memory run).
#[test]
fn one_tile_skew_is_repartitioned_recursively_and_exactly() {
    // Region 1000×1000 with a 128×128 tile grid → tiles are 7.8 wide; the
    // cluster spans 4 units inside tile (12, 12): one tile holds everything.
    let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    let cluster = Rect::from_coords(100.0, 100.0, 104.0, 104.0);
    let left = skewed(2500, cluster, 21, 0);
    let right = skewed(2500, cluster, 22, 1_000_000);
    let oracle = brute_pairs(&left, &right, Predicate::Intersects);
    assert!(!oracle.is_empty());

    // 2500 items/side = 100 KB of data; 3× envelope ≈ 300 KB per partition.
    // A 160 KB limit cannot fit that, so the single overfull partition must
    // split recursively over the cluster's own bounding box.
    let tiny = 160 * 1024;
    let mut env = env_with(tiny);
    env.memory.begin_phase();
    let sl = ItemStream::from_items_with_block(&mut env, &left, 2).unwrap();
    let sr = ItemStream::from_items_with_block(&mut env, &right, 2).unwrap();
    let (limited, mut pairs) = PbsmJoin::default()
        .with_region(region)
        .run_collect(&mut env, JoinInput::Stream(&sl), JoinInput::Stream(&sr))
        .unwrap();
    pairs.sort_unstable();
    assert_eq!(pairs, oracle, "skewed PBSM must match the brute-force oracle");
    assert!(
        limited.memory.peak_bytes <= tiny,
        "peak {} exceeds the tiny limit",
        limited.memory.peak_bytes
    );

    // Unlimited run for the byte-identical comparison.
    let mut big = env_with(256 * MB);
    let bl = ItemStream::from_items_with_block(&mut big, &left, 2).unwrap();
    let br = ItemStream::from_items_with_block(&mut big, &right, 2).unwrap();
    let (unlimited, mut upairs) = PbsmJoin::default()
        .with_region(region)
        .run_collect(&mut big, JoinInput::Stream(&bl), JoinInput::Stream(&br))
        .unwrap();
    upairs.sort_unstable();
    assert_eq!(pairs, upairs);
    assert_eq!(limited.pairs, unlimited.pairs);
    // The limited run paid for the repartitioning in extra I/O.
    assert!(
        limited.io.pages_written > unlimited.io.pages_written,
        "recursive repartitioning must rewrite the overfull partition ({} vs {})",
        limited.io.pages_written,
        unlimited.io.pages_written
    );
}

/// Identical rectangles cannot be separated by any grid: the chunked
/// fallback must bound memory and still report the full cross product.
#[test]
fn indivisible_identical_rectangles_fall_back_to_chunked_join() {
    let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    let same = Rect::from_coords(50.0, 50.0, 51.0, 51.0);
    let left: Vec<Item> = (0..1200).map(|i| Item::new(same, i)).collect();
    let right: Vec<Item> = (0..1200).map(|i| Item::new(same, 1_000_000 + i)).collect();

    let tiny = 128 * 1024;
    let mut env = env_with(tiny);
    env.memory.begin_phase();
    let sl = ItemStream::from_items_with_block(&mut env, &left, 2).unwrap();
    let sr = ItemStream::from_items_with_block(&mut env, &right, 2).unwrap();
    let res = PbsmJoin::default()
        .with_region(region)
        .run(&mut env, JoinInput::Stream(&sl), JoinInput::Stream(&sr))
        .unwrap();
    assert_eq!(res.pairs, 1200 * 1200);
    assert!(res.memory.peak_bytes <= tiny);
}

/// The spilling sweep engages end-to-end: SSSJ under a small limit on dense
/// long-lived rectangles spills, charges the I/O, and stays exact.
#[test]
fn sssj_spills_under_pressure_and_stays_exact() {
    // All rectangles alive at the same sweep position.
    let tall = |n: u32, base: u32| -> Vec<Item> {
        (0..n)
            .map(|i| {
                let x = (i % 41) as f32;
                Item::new(
                    Rect::from_coords(x, i as f32 * 0.01, x + 2.0, i as f32 * 0.01 + 100.0),
                    base + i,
                )
            })
            .collect()
    };
    let left = tall(2200, 0);
    let right = tall(2200, 1_000_000);
    let expected = brute_pairs(&left, &right, Predicate::Intersects);

    let limit = 192 * 1024;
    let mut env = env_with(limit);
    env.memory.begin_phase();
    let sl = ItemStream::from_items_with_block(&mut env, &left, 2).unwrap();
    let sr = ItemStream::from_items_with_block(&mut env, &right, 2).unwrap();
    let (res, mut pairs) = SssjJoin::default()
        .run_collect(&mut env, JoinInput::Stream(&sl), JoinInput::Stream(&sr))
        .unwrap();
    pairs.sort_unstable();
    assert_eq!(pairs, expected);
    assert!(res.sweep.spill_runs > 0, "the sweep must have spilled: {:?}", res.sweep);
    assert!(res.sweep.spilled_items > 0);
    assert!(res.memory.peak_bytes <= limit, "peak {}", res.memory.peak_bytes);
}

/// The acceptance matrix: every algorithm × predicate combination completes on the NJ preset under a 4 MB limit with
/// `memory.peak_bytes <= memory_limit` and pairs byte-identical to the
/// unlimited-memory run.
#[test]
fn nj_preset_at_4mb_matches_the_unlimited_run_for_every_combination() {
    let workload = WorkloadSpec::preset(Preset::NJ).with_scale(500).generate(42);
    let region = workload.region;
    let eps = region.width() * 0.002;
    let limit = 4 * MB;

    let mut small = env_with(limit);
    let s_roads = ItemStream::from_items(&mut small, &workload.roads).unwrap();
    let s_hydro = ItemStream::from_items(&mut small, &workload.hydro).unwrap();
    let mut big = env_with(256 * MB);
    let b_roads = ItemStream::from_items(&mut big, &workload.roads).unwrap();
    let b_hydro = ItemStream::from_items(&mut big, &workload.hydro).unwrap();

    for algo in [Algo::Sssj, Algo::Pbsm, Algo::Pq, Algo::St] {
        for predicate in [
            Predicate::Intersects,
            Predicate::WithinDistance(eps),
            Predicate::Contains,
        ] {
            let (res, pairs) =
                collect_sorted(&mut small, &s_roads, &s_hydro, algo, predicate, region);
            let (_, expected) = collect_sorted(&mut big, &b_roads, &b_hydro, algo, predicate, region);
            assert_eq!(
                pairs, expected,
                "{algo:?}/{predicate:?}: 4 MB run diverged from unlimited"
            );
            assert!(
                res.memory.peak_bytes <= limit,
                "{algo:?}/{predicate:?}: peak {} exceeds 4 MB",
                res.memory.peak_bytes
            );
        }
    }
}

/// ST at a quarter-megabyte limit with trees larger than the pool: the pool
/// fills, sheds pages and keeps going — the node-pair slack may not be
/// starved by the pool (regression test for the review finding that the
/// traversal could strand behind a full pool).
#[test]
fn st_completes_with_a_full_buffer_pool_at_a_quarter_megabyte() {
    let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    let left = uniform(8_000, region, 31, 0);
    let right = uniform(8_000, region, 32, 1_000_000);
    let limit = 256 * 1024;

    let mut small = env_with(limit);
    let tl = usj_rtree::RTree::bulk_load(&mut small, &left).unwrap();
    let tr = usj_rtree::RTree::bulk_load(&mut small, &right).unwrap();
    let res = StJoin::default()
        .run(&mut small, JoinInput::Indexed(&tl), JoinInput::Indexed(&tr))
        .unwrap();
    assert!(res.memory.peak_bytes <= limit, "peak {}", res.memory.peak_bytes);

    let mut big = env_with(256 * MB);
    let bl = usj_rtree::RTree::bulk_load(&mut big, &left).unwrap();
    let br = usj_rtree::RTree::bulk_load(&mut big, &right).unwrap();
    let unlimited = StJoin::default()
        .run(&mut big, JoinInput::Indexed(&bl), JoinInput::Indexed(&br))
        .unwrap();
    assert_eq!(res.pairs, unlimited.pairs);
    // A starved pool may only ever pay *more* page requests, never fewer (on
    // this locality-friendly bulk-loaded layout the DFS working set happens
    // to fit, so the counts can be equal).
    assert!(
        res.index_page_requests >= unlimited.index_page_requests,
        "{} vs {}",
        res.index_page_requests,
        unlimited.index_page_requests
    );
}

/// The multiway cascade has no spilling mode, but it is still governed: on
/// inputs whose sweep state outgrows a tiny limit it fails loudly with
/// `MemoryLimitExceeded` instead of silently overcommitting, and succeeds
/// unchanged with ample memory.
#[test]
fn multiway_join_is_governed_not_silently_overcommitted() {
    let tall = |n: u32, base: u32| -> Vec<Item> {
        (0..n)
            .map(|i| {
                let x = (i % 29) as f32;
                Item::new(
                    Rect::from_coords(x, i as f32 * 0.01, x + 2.0, i as f32 * 0.01 + 100.0),
                    base + i,
                )
            })
            .collect()
    };
    let a = tall(400, 0);
    let b = tall(400, 1_000_000);
    let c = tall(400, 2_000_000);

    let mut big = env_with(256 * MB);
    let (sa, sb, sc) = (
        ItemStream::from_items_with_block(&mut big, &a, 2).unwrap(),
        ItemStream::from_items_with_block(&mut big, &b, 2).unwrap(),
        ItemStream::from_items_with_block(&mut big, &c, 2).unwrap(),
    );
    let ok = MultiwayJoin
        .run(
            &mut big,
            JoinInput::Stream(&sa),
            JoinInput::Stream(&sb),
            JoinInput::Stream(&sc),
        )
        .unwrap();
    assert!(ok.triples > 0);
    assert!(ok.memory.peak_bytes > 0);

    let mut tiny = env_with(72 * 1024);
    let (ta, tb, tc) = (
        ItemStream::from_items_with_block(&mut tiny, &a, 2).unwrap(),
        ItemStream::from_items_with_block(&mut tiny, &b, 2).unwrap(),
        ItemStream::from_items_with_block(&mut tiny, &c, 2).unwrap(),
    );
    let err = MultiwayJoin
        .run(
            &mut tiny,
            JoinInput::Stream(&ta),
            JoinInput::Stream(&tb),
            JoinInput::Stream(&tc),
        )
        .unwrap_err();
    assert!(
        matches!(err, usj_io::IoSimError::MemoryLimitExceeded { .. }),
        "expected MemoryLimitExceeded, got {err}"
    );
}

/// The plan reports its memory expectations up front, and they move in the
/// right direction as the limit shrinks.
#[test]
fn query_plans_report_partition_depth_and_spill_estimates() {
    let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    let left = uniform(4000, region, 3, 0);
    let right = uniform(4000, region, 4, 1_000_000);

    let plan_for = |limit: usize, algo: Algo| -> MemoryPlan {
        let mut env = env_with(limit);
        let sl = ItemStream::from_items_with_block(&mut env, &left, 2).unwrap();
        let sr = ItemStream::from_items_with_block(&mut env, &right, 2).unwrap();
        SpatialQuery::new(JoinInput::Stream(&sl), JoinInput::Stream(&sr))
            .algorithm(algo)
            .region_hint(region)
            .plan(&mut env)
            .unwrap()
            .memory
    };

    // Ample memory: no repartitioning, no spill.
    let ample = plan_for(64 * MB, Algo::Pbsm);
    assert_eq!(ample.memory_limit, 64 * MB);
    assert_eq!(ample.partition_depth, 0);
    assert_eq!(ample.spill_estimate_bytes, 0);

    // A limit far below the 3× envelope of one partition: depth must rise.
    let tiny = plan_for(64 * 1024, Algo::Pbsm);
    assert!(tiny.partition_depth > 0, "{tiny:?}");

    // The sweep algorithms estimate spill volume instead, and it shrinks as
    // memory grows.
    let sweep_tiny = plan_for(64 * 1024, Algo::Sssj);
    let sweep_ample = plan_for(64 * MB, Algo::Sssj);
    assert!(sweep_tiny.spill_estimate_bytes > 0);
    assert!(sweep_ample.spill_estimate_bytes < sweep_tiny.spill_estimate_bytes);
    // The plan renders its memory clause.
    let mut env = env_with(64 * 1024);
    let sl = ItemStream::from_items_with_block(&mut env, &left, 2).unwrap();
    let sr = ItemStream::from_items_with_block(&mut env, &right, 2).unwrap();
    let plan = SpatialQuery::new(JoinInput::Stream(&sl), JoinInput::Stream(&sr))
        .algorithm(Algo::Pbsm)
        .region_hint(region)
        .plan(&mut env)
        .unwrap();
    let text = format!("{plan}");
    assert!(text.contains("repartitioning"), "{text}");
}
