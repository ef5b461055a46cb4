//! The cost model that decides between indexed and non-indexed execution.
//!
//! The central practical conclusion of the paper (Section 6.3) is that using
//! an index whenever one is available is *not* always fastest: the
//! sort-based SSSJ reads and writes the data strictly sequentially, while an
//! index traversal pays a (mostly) random access per node. With the paper's
//! back-of-the-envelope figures — a random read costs about ten sequential
//! reads, a sequential write about 1.5 — SSSJ costs the equivalent of `6n`
//! sequential page reads while the index-based PQ costs `10·f·n`, where `f`
//! is the fraction of the index the join actually has to touch. The index
//! therefore wins only when `f` is below roughly 60 %.
//!
//! [`estimate`] reproduces that decision: it estimates `f` from the index
//! directory (a non-indexed side is assumed fully touched: PQ sorts or
//! reads all of it) and prices both strategies with the machine's actual
//! parameters. `SpatialQuery` under `Algo::Auto` runs the cheaper one — PQ
//! with subtree pruning on the indexed path, SSSJ on the sorted path.

use usj_geom::ITEM_BYTES;
use usj_io::{MachineConfig, Result, SimEnv, PAGE_SIZE};

use crate::input::JoinInput;

/// The execution strategy chosen by the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPlan {
    /// Traverse the available indexes with the (pruned) PQ join.
    Indexed,
    /// Ignore the indexes and run the sort-based SSSJ.
    NonIndexed,
}

/// The two estimated costs and the quantities they were derived from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated seconds for the indexed (PQ) strategy.
    pub indexed_secs: f64,
    /// Estimated seconds for the non-indexed (SSSJ) strategy.
    pub non_indexed_secs: f64,
    /// Estimated fraction of the indexes' pages the join must touch.
    pub touched_fraction: f64,
    /// Break-even fraction for this machine (the paper's "~60 %" figure).
    pub crossover_fraction: f64,
}

impl CostEstimate {
    /// The plan implied by the estimate.
    pub fn plan(&self) -> JoinPlan {
        if self.indexed_secs <= self.non_indexed_secs {
            JoinPlan::Indexed
        } else {
            JoinPlan::NonIndexed
        }
    }
}

/// Break-even leaf fraction for a machine: the fraction of the index below
/// which the indexed strategy is expected to win against the sort-based one.
///
/// With the paper's Section 6.3 model (SSSJ ≈ `6n` sequential page reads,
/// indexed ≈ `f·n` random page reads) the crossover is
/// `f* = 6·t_seq / t_rand`, which lands around 0.6 for the disks of Table 1.
pub fn crossover_fraction(machine: &MachineConfig) -> f64 {
    let seq = machine.read_transfer_secs(PAGE_SIZE as u64);
    let rand = machine.random_access_secs() + seq;
    (6.0 * seq / rand).min(1.0)
}

/// Estimates the indexed and the non-indexed strategy for joining `left`
/// with `right`.
///
/// The estimate itself is cheap: for indexed inputs it inspects only the
/// directory levels of the trees (`leaves_intersecting`), for non-indexed
/// inputs it assumes the whole relation participates.
///
/// # Example
///
/// A localized probe set touches only a fraction of the big index's
/// leaves, and `Algo::Auto` runs the plan the estimate names.
///
/// ```
/// use usj_core::{cost, JoinInput, SpatialQuery};
/// use usj_geom::{Item, Rect};
/// use usj_io::{MachineConfig, SimEnv};
/// use usj_rtree::RTree;
///
/// let mut env = SimEnv::new(MachineConfig::machine3());
/// let grid: Vec<Item> = (0..2500)
///     .map(|i| {
///         let (x, y) = ((i % 50) as f32, (i / 50) as f32);
///         Item::new(Rect::from_coords(x, y, x + 0.9, y + 0.9), i)
///     })
///     .collect();
/// let probes = vec![Item::new(Rect::from_coords(0.1, 0.1, 1.5, 1.5), 9000)];
///
/// let left = RTree::bulk_load(&mut env, &grid).unwrap();
/// let right = RTree::bulk_load(&mut env, &probes).unwrap();
/// let (l, r) = (JoinInput::Indexed(&left), JoinInput::Indexed(&right));
/// let estimate = cost::estimate(&mut env, &l, &r).unwrap();
/// assert!(estimate.touched_fraction < 1.0);
/// let query = SpatialQuery::new(l, r);
/// assert_eq!(query.plan(&mut env).unwrap().chosen, Some(estimate.plan()));
/// // The probe overlaps the 2x2 block of cells (0..=1, 0..=1).
/// assert_eq!(query.count(&mut env).unwrap(), 4);
/// ```
pub fn estimate(
    env: &mut SimEnv,
    left: &JoinInput<'_>,
    right: &JoinInput<'_>,
) -> Result<CostEstimate> {
    let machine = env.machine.clone();
    let seq_page = machine.read_transfer_secs(PAGE_SIZE as u64);
    let rand_page = machine.random_access_secs() + seq_page;

    // Non-indexed strategy: sort both relations and sweep. Following
    // Section 6.3: three read passes and two write passes over the raw
    // data, all sequential. A side that is *already* sorted (a
    // `SortedStream`, or a cataloged relation whose sorted run is
    // persisted) skips the sort entirely and pays only the sweep's one
    // read pass. The figure stays the paper's even where the sort runs
    // fewer passes (a single run, or a last merge the sweep reads): priced
    // as run, single-run sorts make SSSJ the cheaper plan down to §6.3's
    // 5 % window, and the plan no longer flips where the paper's does.
    let data_pages = |input: &JoinInput<'_>| -> f64 {
        (input.len() as f64 * ITEM_BYTES as f64 / PAGE_SIZE as f64).ceil()
    };
    let sorted_side_secs = |input: &JoinInput<'_>| -> f64 {
        let pages = data_pages(input);
        match input {
            JoinInput::SortedStream(_) | JoinInput::Cataloged(_) => pages * seq_page,
            _ => 3.0 * pages * seq_page + 2.0 * pages * seq_page * machine.write_penalty,
        }
    };
    let non_indexed_secs = sorted_side_secs(left) + sorted_side_secs(right);

    // Indexed strategy: every index page the join touches costs a random
    // read. The touched fraction is estimated from the directory
    // rectangles; a non-indexed side — or a cataloged one with tiers,
    // whose tree covers only its base — is charged a full sort instead.
    let mut indexed_secs = 0.0;
    let mut touched_pages = 0.0;
    let mut total_pages = 0.0;
    for (input, other) in [(left, right), (right, left)] {
        let tree = match input {
            JoinInput::Indexed(tree) => Some(*tree),
            JoinInput::Cataloged(c) if !c.has_tiers() => Some(c.tree),
            _ => None,
        };
        match tree {
            Some(tree) => {
                let frac = match other.known_bbox() {
                    Some(bbox) => {
                        let touched = tree.leaves_intersecting(env, &bbox)? as f64;
                        (touched / tree.num_leaves().max(1) as f64).clamp(0.0, 1.0)
                    }
                    // Without knowledge of the other side, assume the
                    // whole index participates (the conservative choice).
                    None => 1.0,
                };
                let pages = frac * tree.nodes() as f64;
                indexed_secs += pages * rand_page;
                touched_pages += pages;
                total_pages += tree.nodes() as f64;
            }
            None => {
                // This side has no index: PQ sorts it exactly as SSSJ
                // would (or reads it straight if it is already sorted).
                let pages = data_pages(input);
                indexed_secs += sorted_side_secs(input);
                touched_pages += pages;
                total_pages += pages;
            }
        }
    }
    let touched_fraction = if total_pages > 0.0 {
        touched_pages / total_pages
    } else {
        0.0
    };

    Ok(CostEstimate {
        indexed_secs,
        non_indexed_secs,
        touched_fraction,
        crossover_fraction: crossover_fraction(&machine),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JoinOperator, PqJoin, SpatialQuery, SssjJoin};
    use usj_geom::{Item, Rect};
    use usj_io::{ItemStream, MachineConfig};
    use usj_rtree::RTree;

    fn env() -> SimEnv {
        SimEnv::new(MachineConfig::machine3())
    }

    fn grid(n: u32, cell: f32, offset: f32, id_base: u32) -> Vec<Item> {
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let x = offset + i as f32 * cell;
                let y = offset + j as f32 * cell;
                out.push(Item::new(
                    Rect::from_coords(x, y, x + cell * 0.7, y + cell * 0.7),
                    id_base + i * n + j,
                ));
            }
        }
        out
    }

    #[test]
    fn crossover_matches_the_papers_model() {
        for m in MachineConfig::all() {
            let f = crossover_fraction(&m);
            assert!(
                (0.05..=1.0).contains(&f),
                "{}: implausible crossover {f}",
                m.name
            );
        }
        // The paper's "use the index below ~60 % of the leaves" figure comes
        // from its assumption that a random read costs about 10 sequential
        // reads — which is exactly the ratio of Machine 1's disk (8 ms seek
        // vs 0.8 ms for an 8 KiB page at 10 MB/s). The faster disks of
        // Machines 2 and 3 have much higher random/sequential ratios, so
        // their crossover is lower.
        let f1 = crossover_fraction(&MachineConfig::machine1());
        assert!((0.4..0.8).contains(&f1), "machine 1 crossover {f1}");
        let f3 = crossover_fraction(&MachineConfig::machine3());
        assert!(f3 < f1);
    }

    #[test]
    fn overlapping_relations_prefer_the_sort_based_plan() {
        let mut env = env();
        let a = grid(60, 3.0, 0.0, 0);
        let b = grid(30, 6.0, 0.0, 100_000);
        let ta = RTree::bulk_load(&mut env, &a).unwrap();
        let tb = RTree::bulk_load(&mut env, &b).unwrap();
        let est = estimate(&mut env, &JoinInput::Indexed(&ta), &JoinInput::Indexed(&tb)).unwrap();
        // Both relations cover the same region, so the join touches
        // essentially the whole index and the sequential strategy wins.
        assert!(est.touched_fraction > 0.9);
        assert_eq!(est.plan(), JoinPlan::NonIndexed);
    }

    #[test]
    fn localized_join_prefers_the_indexed_plan() {
        let mut env = env();
        // Country-wide roads, but hydrography restricted to one small corner
        // (the paper's "hydrography of Minnesota vs roads of the US" case).
        let a = grid(80, 3.0, 0.0, 0);
        let b = grid(8, 3.0, 0.0, 100_000);
        let ta = RTree::bulk_load(&mut env, &a).unwrap();
        let tb = RTree::bulk_load(&mut env, &b).unwrap();
        let est = estimate(&mut env, &JoinInput::Indexed(&ta), &JoinInput::Indexed(&tb)).unwrap();
        assert!(
            est.touched_fraction < 0.5,
            "fraction {}",
            est.touched_fraction
        );
        assert_eq!(est.plan(), JoinPlan::Indexed);

        // `Algo::Auto` runs the operator the plan names, and it is right.
        let (l, r) = (JoinInput::Indexed(&ta), JoinInput::Indexed(&tb));
        let res = SpatialQuery::new(l, r).run(&mut env).unwrap();
        let pq = PqJoin::default()
            .with_pruning()
            .run(&mut env, l, r)
            .unwrap();
        assert_eq!(res, pq);
        let brute: u64 = a
            .iter()
            .map(|x| b.iter().filter(|y| x.rect.intersects(&y.rect)).count() as u64)
            .sum();
        assert_eq!(res.pairs, brute);
    }

    #[test]
    fn the_operators_of_both_plans_agree_on_results() {
        let mut env = env();
        let a = grid(25, 4.0, 0.0, 0);
        let b = grid(25, 4.0, 1.0, 100_000);
        let ta = RTree::bulk_load(&mut env, &a).unwrap();
        let tb = RTree::bulk_load(&mut env, &b).unwrap();
        let (l, r) = (JoinInput::Indexed(&ta), JoinInput::Indexed(&tb));
        let indexed = PqJoin::default()
            .with_pruning()
            .run(&mut env, l, r)
            .unwrap();
        let sorted = SssjJoin::default().run(&mut env, l, r).unwrap();
        assert_eq!(indexed.pairs, sorted.pairs);
    }

    #[test]
    fn non_indexed_inputs_are_priced_as_sorts_on_both_sides() {
        let mut env = env();
        let a = grid(30, 4.0, 0.0, 0);
        let sa = ItemStream::from_items(&mut env, &a).unwrap();
        let b = grid(30, 4.0, 1.0, 100_000);
        let sb = ItemStream::from_items(&mut env, &b).unwrap();
        let est = estimate(&mut env, &JoinInput::Stream(&sa), &JoinInput::Stream(&sb)).unwrap();
        // With no index anywhere, both strategies degenerate to the same
        // sort-based cost.
        assert!((est.indexed_secs - est.non_indexed_secs).abs() < 1e-9);
        assert!((est.touched_fraction - 1.0).abs() < 1e-9);
    }
}
