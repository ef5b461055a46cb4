//! Coordinate-edge fuzz through ST (ROADMAP 4(f)).
//!
//! `crates/sweep/tests/differential.rs` holds the sweep *kernels* to brute
//! force on its `*_killer` families: both zeroes, zero-area rectangles,
//! relations that only touch, the extremes of the format, NaN, identical,
//! tall and wide rectangles. ST adds layers of its own on top of a kernel —
//! directory rectangles, the restriction of every node pair to the window
//! its two nodes share, and since PR 24 a sweep axis chosen per node pair —
//! so the same families (the one definition, by `#[path]`) go through
//! [`StJoin`] here, on bulk-loaded trees, for all three predicates, as they
//! are and mirrored at the diagonal: the axis rule must be total and the
//! refined pair set exact whichever axis a node pair sweeps along.

use unified_spatial_join::prelude::*;
use unified_spatial_join::rtree::{bulk, BulkLoadConfig, MAX_FANOUT};
use usj_geom::Item;

#[allow(dead_code)]
#[path = "../crates/sweep/tests/families/mod.rs"]
mod families;

/// Enough for several levels at the small fan-out; the oracle is quadratic.
const CAP: usize = 1_500;

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
fn st_matches_brute_force_on_the_killer_families_and_their_mirror_images() {
    let predicates = [
        Predicate::Intersects,
        Predicate::WithinDistance(0.75),
        Predicate::Contains,
    ];
    for mut f in families::families() {
        f.left.truncate(CAP);
        f.right.truncate(CAP);
        for mirrored in [false, true] {
            if mirrored {
                for it in f.left.iter_mut().chain(&mut f.right) {
                    *it = it.transposed();
                }
            }
            let wants = predicates.map(|p| oracle(p, &f.left, &f.right));
            assert!(!wants[0].is_empty(), "{}: the family must join", f.name);
            // The paper's fan-out (a root or two levels) and one small
            // enough for internal node pairs and trees of unequal height.
            for fanout in [MAX_FANOUT, 6] {
                let config = BulkLoadConfig {
                    max_fanout: fanout,
                    fill_target: fanout * 3 / 4,
                    area_slack: 0.2,
                };
                let mut env = SimEnv::new(MachineConfig::machine3());
                let left = bulk::bulk_load(&mut env, &f.left, config).unwrap();
                let right = bulk::bulk_load(&mut env, &f.right, config).unwrap();
                for (predicate, want) in predicates.iter().zip(&wants) {
                    let (res, mut got) = StJoin::default()
                        .with_predicate(*predicate)
                        .run_collect(
                            &mut env,
                            JoinInput::Indexed(&left),
                            JoinInput::Indexed(&right),
                        )
                        .unwrap();
                    got.sort_unstable();
                    assert!(
                        got == *want,
                        "{} (mirrored: {mirrored}, fan-out {fanout}, {}): {} pairs, oracle {}",
                        f.name,
                        predicate.name(),
                        got.len(),
                        want.len()
                    );
                    assert_eq!(res.pairs, want.len() as u64);
                }
            }
        }
    }
}
