//! Exactness of the parallel executor across strip boundaries.
//!
//! The executor cuts the data space into one strip per shard and reports a
//! pair only in the strip holding its reference point, telling that strip by
//! which of the pair's rectangles entered the shard from an earlier one. The
//! coordinate-edge families of `crates/sweep/tests/families/mod.rs` (the one
//! definition, by `#[path]`) and a lattice built to put reference points on
//! strip edges go through every algorithm × predicate × shard count × thread
//! count here: the pair set must be the same algorithm's serial one, and the
//! pair order must not depend on the thread count.

use unified_spatial_join::join::JoinAlgorithm;
use unified_spatial_join::prelude::*;
use usj_geom::Item;
use usj_io::ItemStream;

#[allow(dead_code)]
#[path = "../crates/sweep/tests/families/mod.rs"]
mod families;

/// Enough for every family's character; the parallel runs are many.
const CAP: usize = 600;

/// ε of the distance predicate. The lattice spans [0, 420] in x and the
/// strips are columns, so at ε = 0.5 the grid covers [−0.5, 420.5] and
/// two shards meet at x = 210, a lattice line: ε-grown left rectangles end
/// on it, cross it, and right rectangles start on it. Without ε, 420 is cut
/// at multiples of 210, 140 and 60 — all lattice lines.
const EPS: f32 = 0.5;

/// Tall rectangles on an integer lattice: edges, and so reference points,
/// fall on every strip edge the shard counts below cut.
fn lattice(n: u32, step: u32, first_id: u32) -> Vec<Item> {
    (0..n)
        .map(|i| {
            let x = ((i * step) % 420) as f32;
            let y = ((i * 13) % 40) as f32;
            let w = (i % 3) as f32;
            families::item(x, y, x + w, y + 60.0, first_id + i)
        })
        .collect()
}

fn sorted(mut pairs: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    pairs.sort_unstable();
    pairs
}

#[test]
fn parallel_pair_sets_equal_serial_across_strip_edges() {
    let mut all = families::families();
    all.push(families::Family {
        name: "strip_edges",
        left: lattice(300, 7, 0),
        right: lattice(300, 11, 1000),
        nan: false,
    });
    let predicates = [
        Predicate::Intersects,
        Predicate::WithinDistance(EPS),
        Predicate::Contains,
    ];
    for mut f in all {
        f.left.truncate(CAP);
        f.right.truncate(CAP);
        let mut env = SimEnv::new(MachineConfig::machine3());
        let left_stream = ItemStream::from_items(&mut env, &f.left).unwrap();
        let right_stream = ItemStream::from_items(&mut env, &f.right).unwrap();
        let left_tree = RTree::bulk_load(&mut env, &f.left).unwrap();
        let right_tree = RTree::bulk_load(&mut env, &f.right).unwrap();
        for alg in JoinAlgorithm::all() {
            // Each algorithm on its natural inputs: the executor streams
            // flat inputs into the strips and dumps indexed ones.
            let (l, r) = match alg {
                JoinAlgorithm::Sssj | JoinAlgorithm::Pbsm => (
                    JoinInput::Stream(&left_stream),
                    JoinInput::Stream(&right_stream),
                ),
                _ => (
                    JoinInput::Indexed(&left_tree),
                    JoinInput::Indexed(&right_tree),
                ),
            };
            for predicate in predicates {
                let query = SpatialQuery::new(l, r)
                    .algorithm(alg.into())
                    .predicate(predicate);
                if f.nan {
                    // NaN is out of scope (KNOWN_FAILURES.md): nothing may
                    // panic, whatever is reported.
                    for shards in [1, 2, 3, 7] {
                        let parallel = Execution::Parallel { threads: 4, shards };
                        let _ = query.execution(parallel).collect(&mut env);
                    }
                    continue;
                }
                let (_, serial) = query.collect(&mut env).unwrap();
                let serial = sorted(serial);
                for shards in [1, 2, 3, 7] {
                    let mut orders = Vec::new();
                    for threads in [1, 4] {
                        let what = format!(
                            "{} / {} / {} / {shards} shards / {threads} threads",
                            f.name,
                            alg.name(),
                            predicate.name()
                        );
                        let (res, pairs) = query
                            .execution(Execution::Parallel { threads, shards })
                            .collect(&mut env)
                            .unwrap_or_else(|e| panic!("{what}: {e}"));
                        assert_eq!(res.pairs, pairs.len() as u64, "{what}");
                        let set = sorted(pairs.clone());
                        assert!(
                            set == serial,
                            "{what}: {} pairs, serial {}",
                            set.len(),
                            serial.len()
                        );
                        orders.push(pairs);
                    }
                    assert!(
                        orders[0] == orders[1],
                        "{} / {} / {}: the pair order depends on the thread count",
                        f.name,
                        alg.name(),
                        predicate.name()
                    );
                }
            }
        }
    }
}
