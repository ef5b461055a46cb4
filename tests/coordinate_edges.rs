//! Coordinate-edge fuzz through every operator (ROADMAP 3(f)).
//!
//! The coordinate-edge families of `crates/sweep/tests/families/mod.rs` (the
//! one definition, by `#[path]`) and a lattice whose rectangles meet on
//! integer lines go through SSSJ and PBSM on flat streams and PQ, ST and
//! `Auto` on bulk-loaded trees, for all three predicates, at an ample and a
//! tight memory limit, as they are and mirrored at the diagonal. Every run
//! must report the brute-force pair set of [`Predicate::matches`] and stay
//! within the limit. NaN is out of scope (KNOWN_FAILURES.md): the `nan`
//! family only has to run without a panic, whatever it reports.

use unified_spatial_join::prelude::*;
use usj_geom::Item;
use usj_io::ItemStream;

#[allow(dead_code)]
#[path = "../crates/sweep/tests/families/mod.rs"]
mod families;

/// Enough for every family's character; the oracle is quadratic.
const CAP: usize = 600;

const KB: usize = 1024;

/// Ample, and below the larger families' working sets.
const LIMITS: [usize; 2] = [16 * 1024 * KB, 192 * KB];

/// ε of the distance predicate: grown lattice edges land on half-lines.
const EPS: f32 = 0.5;

/// Tall rectangles on an integer lattice: lower and upper edges, and so the
/// reference points of their intersections, coincide on whole lines.
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

fn oracle(predicate: Predicate, left: &[Item], right: &[Item]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for a in left {
        for b in right.iter().filter(|b| predicate.matches(&a.rect, &b.rect)) {
            out.push((a.id, b.id));
        }
    }
    out.sort_unstable();
    out
}

#[test]
fn every_algorithm_matches_brute_force_on_the_edge_families() {
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
        for mirrored in [false, true] {
            if mirrored {
                for it in f.left.iter_mut().chain(&mut f.right) {
                    *it = it.transposed();
                }
            }
            let wants = predicates.map(|p| oracle(p, &f.left, &f.right));
            for limit in LIMITS {
                let mut env = SimEnv::new(MachineConfig::machine3());
                let left_stream = ItemStream::from_items(&mut env, &f.left).unwrap();
                let right_stream = ItemStream::from_items(&mut env, &f.right).unwrap();
                let left_tree = RTree::bulk_load(&mut env, &f.left).unwrap();
                let right_tree = RTree::bulk_load(&mut env, &f.right).unwrap();
                env.set_memory_limit(limit);
                for algo in [Algo::Sssj, Algo::Pbsm, Algo::Pq, Algo::St, Algo::Auto] {
                    let (l, r) = match algo {
                        Algo::Sssj | Algo::Pbsm => (
                            JoinInput::Stream(&left_stream),
                            JoinInput::Stream(&right_stream),
                        ),
                        _ => (
                            JoinInput::Indexed(&left_tree),
                            JoinInput::Indexed(&right_tree),
                        ),
                    };
                    for (predicate, want) in predicates.iter().zip(&wants) {
                        let query = SpatialQuery::new(l, r)
                            .algorithm(algo)
                            .predicate(*predicate);
                        if f.nan {
                            let _ = query.collect(&mut env);
                            continue;
                        }
                        let what = format!(
                            "{} (mirrored: {mirrored}) / {algo:?} / {} @ {} KB",
                            f.name,
                            predicate.name(),
                            limit / KB
                        );
                        let (res, mut got) = query
                            .collect(&mut env)
                            .unwrap_or_else(|e| panic!("{what}: {e}"));
                        got.sort_unstable();
                        assert!(
                            got == *want,
                            "{what}: {} pairs, oracle {}",
                            got.len(),
                            want.len()
                        );
                        assert_eq!(res.pairs, want.len() as u64, "{what}");
                        assert!(
                            res.memory.peak_bytes <= limit,
                            "{what}: peak {} exceeds the limit",
                            res.memory.peak_bytes
                        );
                    }
                }
            }
        }
    }
}
