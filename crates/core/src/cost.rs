//! The cost model that decides between indexed and non-indexed execution.
//!
//! The central practical conclusion of the paper (Section 6.3) is that using
//! an index whenever one is available is *not* always fastest: the
//! sort-based SSSJ reads and writes the data strictly sequentially, while an
//! index traversal pays a (mostly) random access per node. The index
//! therefore wins only below a machine-dependent fraction of the index the
//! join touches ([`crossover_fraction`], the paper's formula).
//!
//! [`estimate`] makes that decision for one join. It predicts the I/O and
//! CPU counters each plan's passes will charge, asking the functions the
//! operators run, and prices both with [`CostModel::observed`], the function
//! that prices the charge. `SpatialQuery` under `Algo::Auto` runs the
//! cheaper one: PQ with subtree pruning on the indexed path, SSSJ on the
//! sorted path.

use usj_io::stream::ITEMS_PER_PAGE;
use usj_io::{Charges, CostBreakdown, CostModel, MachineConfig, Result, SimEnv, PAGE_SIZE};

use crate::input::JoinInput;
use crate::pq::{PqExtractor, PqJoin};
use crate::query::SweepPlan;
use crate::JoinAlgorithm;

/// The execution strategy chosen by the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPlan {
    /// Traverse the available indexes with the (pruned) PQ join.
    Indexed,
    /// Ignore the indexes and run the sort-based SSSJ.
    NonIndexed,
}

/// The two plans' predicted costs and the touched fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Predicted cost of the indexed (pruned PQ) plan.
    pub indexed: CostBreakdown,
    /// Predicted cost of the non-indexed (SSSJ) plan.
    pub non_indexed: CostBreakdown,
    /// Predicted fraction of the indexes' pages the indexed plan reads
    /// (a side read as sorted runs counts whole).
    pub touched_fraction: f64,
}

impl CostEstimate {
    /// The plan implied by the estimate.
    pub fn plan(&self) -> JoinPlan {
        if self.indexed.total_secs() <= self.non_indexed.total_secs() {
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

/// Predicts what SSSJ and pruned PQ would charge joining `left` with
/// `right` under `env`'s machine and memory limit, and prices both.
///
/// Each side is priced from the function its operator runs or plans
/// with: which sorts stream their last merge from `query::SweepPlan`; a
/// side read as sorted runs (dumped and sorted by SSSJ, sorted when a
/// stream, read once when sorted or cataloged) from
/// `JoinInput::sweep_charges`, over the sort's levels of
/// `usj_io::extsort::SortPlan`; a side PQ traverses from
/// `PqExtractor::sweep_charges`, over the nodes the directory probe
/// ([`RTree::probe`](usj_rtree::RTree::probe)) counts, and
/// `PqExtractor::sequential_reads` says which node reads need no seek. A
/// tree traversed whole, beside a side without a bounding box, is not
/// probed, so each of its node reads is priced as a seek.
/// The probe, the only I/O the estimate charges, reads each tree's
/// internal nodes that meet the other side's bounding box, as PQ's
/// pruning would.
///
/// Rectangle tests of the sweep and output pairs are not priced: they
/// depend on the data, which the estimate does not read, and both plans
/// sweep the same pairs. Tiers are not priced either: `Algo::Auto` runs a
/// relation with tiers as SSSJ without an estimate.
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
    let limit = env.memory_limit;
    let [sssj_streams, pq_streams] = [JoinAlgorithm::Sssj, JoinAlgorithm::Pq]
        .map(|alg| SweepPlan::new(alg, limit, [left, right]).streamed);
    let (mut sssj, mut pq) = (Charges::default(), Charges::default());
    let (mut touched, mut total) = (0, 0);
    let mut reads = Vec::new();
    for (side, (input, other)) in [(left, right), (right, left)].into_iter().enumerate() {
        sssj.merge(&input.sweep_charges(limit, sssj_streams[side]));
        let prune = other.known_bbox();
        // The directory probe reads every tree PQ could traverse.
        let probe = match (input, prune) {
            (JoinInput::Indexed(tree), Some(window)) => Some(tree.probe(env, &window)?),
            (JoinInput::Cataloged(c), Some(window)) if !c.has_tiers() => {
                Some(c.tree.probe(env, &window)?)
            }
            _ => None,
        };
        match PqJoin::index_of(input, prune) {
            Some((tree, _)) => {
                let probe = probe.unwrap_or_else(|| tree.whole());
                reads.extend_from_slice(&probe.reads);
                touched += probe.internal + probe.leaves;
                total += tree.nodes();
                pq.merge(&PqExtractor::sweep_charges(tree, &probe, prune.is_some()));
            }
            None => {
                let pages = input.len().div_ceil(ITEMS_PER_PAGE as u64);
                (touched, total) = (touched + pages, total + pages);
                pq.merge(&input.sweep_charges(limit, pq_streams[side]));
            }
        }
    }
    let sequential = PqExtractor::sequential_reads(reads);
    pq.io.rand_read_ops -= sequential;
    pq.io.seq_read_ops += sequential;
    let model = CostModel::new(env.machine.clone());
    let price = |c: &Charges| model.observed(&c.io, &c.cpu);
    Ok(CostEstimate {
        indexed: price(&pq),
        non_indexed: price(&sssj),
        touched_fraction: touched as f64 / total.max(1) as f64,
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
        assert_eq!(est.indexed, est.non_indexed);
        assert!((est.touched_fraction - 1.0).abs() < 1e-9);
    }
}
