//! Synchronized R-tree Traversal (ST).
//!
//! ST (Brinkhoff, Kriegel & Seeger, SIGMOD 1993 — Section 3.3 of the paper)
//! joins two R-trees by a synchronized depth-first traversal: for every pair
//! of nodes whose directory rectangles intersect, the intersecting pairs of
//! child entries are computed (with the forward sweep, restricted to entries
//! overlapping the intersection of the two node rectangles) and the traversal
//! recurses into them; pairs of leaf entries are reported as results.
//!
//! ## The sweep axis of a node pair
//!
//! Neither paper says along which axis a node pair is swept, and it matters:
//! a sweep tests every arrival against everything still alive on the other
//! side, so entries that are long *along* the sweep axis are all alive at
//! once and the sweep degenerates into the nested loop it replaced (tall
//! rectangles swept along y: 117 M rectangle tests on the benchmark's
//! `join_spill` where the other operators make 6–12 M). Each node pair is
//! therefore swept along the axis its restricted entries are relatively
//! narrower on — `Σ extent ÷ extent of their bounding box`, the rule PBSM's
//! tile grids use ([`usj_geom::Extents::cmp_x_to_y`]), measured in the
//! restriction pass that touches every entry anyway; a tie sweeps along y.
//! [`usj_sweep::batch_join_oriented`] does the rest by transposing the two
//! entry vectors, so the sweep kernel, the predicate and the sink know one
//! direction only. The axis changes the *order* in which a node pair's
//! matches come out — the emission order of a leaf pair, the order children
//! go on the stack at an internal pair — never the set.
//!
//! Because the traversal revisits nodes, ST runs on top of a generous LRU
//! buffer pool (22 MB in the paper's configuration). Its page requests and
//! its largely *sequential* access pattern on bulk-loaded trees (children are
//! laid out consecutively, and DFS visits all leaves of a parent in a row)
//! are exactly what Table 4 and Figure 2 examine.

use usj_geom::{Extents, Item};
use usj_io::{CpuOp, PageId, Result, SimEnv};
use usj_rtree::{NodeKind, NodeStore, RTree};
use usj_sweep::{batch_join_oriented, SweepJoinStats};

use crate::input::JoinInput;
use crate::predicate::Predicate;
use crate::result::{JoinResult, MemoryStats};
use crate::sink::PairSink;
use crate::JoinOperator;

/// Configuration of the ST join.
///
/// # Example
///
/// ST traverses two R-trees in lockstep through an LRU buffer pool; its
/// I/O accounting reports the index page requests of Table 4.
///
/// ```
/// use usj_core::{JoinInput, JoinOperator, StJoin};
/// use usj_geom::{Item, Rect};
/// use usj_io::{MachineConfig, SimEnv};
/// use usj_rtree::RTree;
///
/// let mut env = SimEnv::new(MachineConfig::machine3());
/// let boxes: Vec<Item> = (0..100)
///     .map(|i| {
///         let (x, y) = ((i % 10) as f32, (i / 10) as f32);
///         Item::new(Rect::from_coords(x, y, x + 0.9, y + 0.9), i)
///     })
///     .collect();
/// let probes = vec![Item::new(Rect::from_coords(2.2, 2.2, 3.8, 3.8), 500)];
///
/// let left = RTree::bulk_load(&mut env, &boxes).unwrap();
/// let right = RTree::bulk_load(&mut env, &probes).unwrap();
/// let result = StJoin::default()
///     .with_buffer_pool_bytes(1 << 20)
///     .run(&mut env, JoinInput::Indexed(&left), JoinInput::Indexed(&right))
///     .unwrap();
/// // The probe overlaps the 2x2 block of cells (2..=3, 2..=3).
/// assert_eq!(result.pairs, 4);
/// assert!(result.index_page_requests > 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StJoin {
    /// Size of the LRU buffer pool in bytes (the paper gives ST 22 MB of the
    /// 24 MB of free memory).
    pub buffer_pool_bytes: usize,
    /// The pair-selection predicate (default: MBR intersection).
    pub predicate: Predicate,
}

impl Default for StJoin {
    fn default() -> Self {
        StJoin {
            buffer_pool_bytes: 22 * 1024 * 1024,
            predicate: Predicate::default(),
        }
    }
}

impl StJoin {
    /// Sets the buffer-pool size (builder style).
    pub fn with_buffer_pool_bytes(mut self, bytes: usize) -> Self {
        self.buffer_pool_bytes = bytes.max(usj_io::PAGE_SIZE);
        self
    }

    /// Sets the join predicate (builder style).
    pub fn with_predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = predicate;
        self
    }
}

impl JoinOperator for StJoin {
    fn name(&self) -> &'static str {
        "ST"
    }

    fn run_with(
        &self,
        env: &mut SimEnv,
        left: JoinInput<'_>,
        right: JoinInput<'_>,
        sink: &mut dyn PairSink,
    ) -> Result<JoinResult> {
        let measurement = env.begin();
        env.memory.begin_phase();
        let predicate = self.predicate;
        let eps = predicate.epsilon();

        // ST is an index join: non-indexed inputs are bulk-loaded first (the
        // equivalent of the on-the-fly index construction the paper's related
        // work discusses); the construction cost is part of this run's
        // accounting so the comparison stays honest.
        let built_left;
        let built_right;
        let left_tree: &RTree = match left {
            JoinInput::Indexed(t) => t,
            JoinInput::Cataloged(c) => c.tree,
            JoinInput::Stream(s) | JoinInput::SortedStream(s) => {
                built_left = RTree::bulk_load_stream(env, s)?;
                &built_left
            }
        };
        let right_tree: &RTree = match right {
            JoinInput::Indexed(t) => t,
            JoinInput::Cataloged(c) => c.tree,
            JoinInput::Stream(s) | JoinInput::SortedStream(s) => {
                built_right = RTree::bulk_load_stream(env, s)?;
                &built_right
            }
        };

        // The pool is governed: its configured size is clamped to the memory
        // headroom minus a slack for the per-node-pair entry vectors — 1/12
        // of the headroom (the paper's 22 MB pool is exactly 24 MB minus
        // that slack, so the default configuration is unchanged), but never
        // below the worst-case envelope of one node pair (two full-fanout
        // nodes × the 3× sweep factor), so small-limit runs cannot strand
        // the traversal behind a full pool that only sheds pages for its own
        // inserts.
        let headroom = env.memory.headroom();
        let node_pair_envelope = 3 * 2 * usj_rtree::node::MAX_FANOUT * std::mem::size_of::<Item>();
        let slack = (headroom / 12).max(node_pair_envelope);
        let pool_budget = self
            .buffer_pool_bytes
            .min(headroom.saturating_sub(slack).max(usj_io::PAGE_SIZE));
        let mut store = NodeStore::with_capacity_bytes_gauged(pool_budget, &env.memory);
        let mut sweep_total = SweepJoinStats::default();
        let mut max_node_pair_bytes = 0usize;

        // Explicit DFS stack of node pairs whose directory rectangles
        // intersect. Left directory rectangles are ε-expanded throughout: an
        // expanded parent MBR covers its expanded children, so the traversal
        // is exact for the distance predicate too.
        let mut pairs = 0u64;
        let mut done = false;
        let traverse_phase = env.obs_phase("st.traverse");
        let mut stack: Vec<(PageId, PageId)> = Vec::new();
        env.charge(CpuOp::RectTest, 1);
        if left_tree.bbox().expanded(eps).intersects(&right_tree.bbox()) {
            stack.push((left_tree.root(), right_tree.root()));
        }
        // The entry vectors and the match list of a node pair, reused by
        // every one of the thousands a traversal visits.
        let mut a_entries: Vec<Item> = Vec::new();
        let mut b_entries: Vec<Item> = Vec::new();
        let mut matches: Vec<(u32, u32)> = Vec::new();
        while let Some((pa, pb)) = stack.pop() {
            if done {
                break;
            }
            let node_a = store.read(env, pa)?;
            let node_b = store.read(env, pb)?;

            // Restrict both entry sets to the intersection of the two node
            // rectangles (Brinkhoff et al.'s search-space restriction). The
            // same pass measures the survivors: their extents decide the
            // axis of this node pair's sweep.
            env.charge(CpuOp::RectTest, 1);
            let Some(common) = node_a.mbr().expanded(eps).intersection(&node_b.mbr()) else {
                continue;
            };
            let mut data = Extents::empty();
            a_entries.clear();
            b_entries.clear();
            for e in &node_a.entries {
                let expanded = e.rect.expanded(eps);
                if expanded.intersects(&common) {
                    data.add(&expanded);
                    a_entries.push(Item::new(expanded, e.as_item().id));
                }
            }
            for e in &node_b.entries {
                if e.rect.intersects(&common) {
                    data.add(&e.rect);
                    b_entries.push(e.as_item());
                }
            }
            env.charge(
                CpuOp::RectTest,
                (node_a.entries.len() + node_b.entries.len()) as u64,
            );
            max_node_pair_bytes = max_node_pair_bytes
                .max((a_entries.len() + b_entries.len()) * std::mem::size_of::<Item>());
            // Three times the entry vectors, which the sweep sorts in place
            // (the envelope dates from a sweep that kept sorted copies and
            // active lists; what is claimed decides what fits, so it stays).
            let _node_claim = env.memory.try_reserve(
                3 * (a_entries.len() + b_entries.len()) * std::mem::size_of::<Item>(),
            )?;

            // Intersecting pairs of entries, in the order of a forward sweep
            // along the node pair's narrower axis, computed on the two entry
            // vectors themselves. At the leaf level the candidates are
            // additionally refined with the predicate (containment is a
            // data-rectangle test — applying it to directory rectangles
            // would wrongly prune subtrees).
            let leaf_level = node_a.kind == NodeKind::Leaf && node_b.kind == NodeKind::Leaf;
            matches.clear();
            let tests = batch_join_oriented(
                &mut a_entries,
                &mut b_entries,
                &data,
                &mut sweep_total,
                |a, b| {
                    if !leaf_level || predicate.accepts(&a.rect, &b.rect) {
                        matches.push((a.id, b.id));
                    }
                },
            );
            env.charge(CpuOp::RectTest, tests);
            env.charge(
                CpuOp::Compare,
                (a_entries.len() + b_entries.len()) as u64,
            );

            match (node_a.kind, node_b.kind) {
                (NodeKind::Leaf, NodeKind::Leaf) => {
                    for &(a, b) in &matches {
                        if sink.emit(a, b).is_break() {
                            done = true;
                            break;
                        }
                        pairs += 1;
                    }
                }
                (NodeKind::Internal, NodeKind::Internal) => {
                    // Depth-first: children pushed in reverse so the first
                    // match is explored first.
                    for &(a, b) in matches.iter().rev() {
                        stack.push((PageId::from(a), PageId::from(b)));
                    }
                }
                (NodeKind::Leaf, NodeKind::Internal) => {
                    // Trees of different heights: descend only the internal
                    // side. Several leaf entries may match the same child, so
                    // deduplicate the children before recursing.
                    let mut children: Vec<u32> = matches.iter().map(|&(_, b)| b).collect();
                    children.sort_unstable();
                    children.dedup();
                    for b in children.into_iter().rev() {
                        stack.push((pa, PageId::from(b)));
                    }
                }
                (NodeKind::Internal, NodeKind::Leaf) => {
                    let mut children: Vec<u32> = matches.iter().map(|&(a, _)| a).collect();
                    children.sort_unstable();
                    children.dedup();
                    for a in children.into_iter().rev() {
                        stack.push((PageId::from(a), pb));
                    }
                }
            }
        }
        env.obs_close(traverse_phase);
        env.charge(CpuOp::OutputPair, pairs);
        sweep_total.pairs = pairs;

        let (io, cpu) = env.since(&measurement);
        Ok(JoinResult {
            pairs,
            io,
            cpu,
            index_page_requests: store.stats().misses,
            sweep: sweep_total,
            memory: MemoryStats {
                priority_queue_bytes: 0,
                sweep_structure_bytes: sweep_total.max_structure_bytes,
                other_bytes: max_node_pair_bytes
                    + store.resident_pages() * usj_io::PAGE_SIZE,
                peak_bytes: env.memory.peak(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_geom::Rect;
    use usj_io::MachineConfig;

    fn env() -> SimEnv {
        SimEnv::new(MachineConfig::machine3())
    }

    fn grid(n: u32, cell: f32, id_base: u32) -> Vec<Item> {
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let x = i as f32 * cell;
                let y = j as f32 * cell;
                out.push(Item::new(
                    Rect::from_coords(x, y, x + cell * 0.6, y + cell * 0.6),
                    id_base + i * n + j,
                ));
            }
        }
        out
    }

    fn brute(a: &[Item], b: &[Item]) -> u64 {
        a.iter()
            .map(|x| b.iter().filter(|y| x.rect.intersects(&y.rect)).count() as u64)
            .sum()
    }

    #[test]
    fn matches_brute_force_on_offset_grids() {
        let mut env = env();
        let a = grid(30, 10.0, 0);
        let b: Vec<Item> = grid(30, 10.0, 100_000)
            .into_iter()
            .map(|mut it| {
                it.rect = Rect::from_coords(
                    it.rect.lo.x + 3.0,
                    it.rect.lo.y + 3.0,
                    it.rect.hi.x + 3.0,
                    it.rect.hi.y + 3.0,
                );
                it
            })
            .collect();
        let ta = RTree::bulk_load(&mut env, &a).unwrap();
        let tb = RTree::bulk_load(&mut env, &b).unwrap();
        let res = StJoin::default()
            .run(&mut env, JoinInput::Indexed(&ta), JoinInput::Indexed(&tb))
            .unwrap();
        assert_eq!(res.pairs, brute(&a, &b));
        assert!(res.pairs > 0);
        assert!(res.index_page_requests > 0);
    }

    #[test]
    fn small_trees_fit_in_the_pool_and_are_read_once() {
        let mut env = env();
        let a = grid(25, 5.0, 0);
        let b = grid(25, 5.0, 100_000);
        let ta = RTree::bulk_load(&mut env, &a).unwrap();
        let tb = RTree::bulk_load(&mut env, &b).unwrap();
        env.device.reset_stats();
        let res = StJoin::default()
            .run(&mut env, JoinInput::Indexed(&ta), JoinInput::Indexed(&tb))
            .unwrap();
        // With a 22 MB pool both small trees fit, so no page is requested
        // from disk more than once.
        assert!(res.index_page_requests <= ta.nodes() + tb.nodes());
    }

    #[test]
    fn tiny_buffer_pool_causes_repeated_page_requests() {
        let mut env = env();
        let a = grid(45, 5.0, 0);
        let b = grid(45, 5.0, 100_000);
        let ta = RTree::bulk_load(&mut env, &a).unwrap();
        let tb = RTree::bulk_load(&mut env, &b).unwrap();
        let big = StJoin::default()
            .run(&mut env, JoinInput::Indexed(&ta), JoinInput::Indexed(&tb))
            .unwrap();
        let small = StJoin::default()
            .with_buffer_pool_bytes(4 * usj_io::PAGE_SIZE)
            .run(&mut env, JoinInput::Indexed(&ta), JoinInput::Indexed(&tb))
            .unwrap();
        assert_eq!(big.pairs, small.pairs);
        assert!(
            small.index_page_requests > big.index_page_requests,
            "a starved pool must request more pages ({} vs {})",
            small.index_page_requests,
            big.index_page_requests
        );
    }

    #[test]
    fn disjoint_trees_touch_almost_nothing() {
        let mut env = env();
        let a = grid(20, 5.0, 0);
        let b: Vec<Item> = grid(20, 5.0, 100_000)
            .into_iter()
            .map(|mut it| {
                it.rect = Rect::from_coords(
                    it.rect.lo.x + 10_000.0,
                    it.rect.lo.y,
                    it.rect.hi.x + 10_000.0,
                    it.rect.hi.y,
                );
                it
            })
            .collect();
        let ta = RTree::bulk_load(&mut env, &a).unwrap();
        let tb = RTree::bulk_load(&mut env, &b).unwrap();
        let res = StJoin::default()
            .run(&mut env, JoinInput::Indexed(&ta), JoinInput::Indexed(&tb))
            .unwrap();
        assert_eq!(res.pairs, 0);
        assert!(res.index_page_requests <= 2, "only the roots may be touched");
    }

    #[test]
    fn non_indexed_inputs_are_bulk_loaded_first() {
        let mut env = env();
        let a = grid(15, 5.0, 0);
        let b = grid(15, 5.0, 100_000);
        let sa = usj_io::ItemStream::from_items(&mut env, &a).unwrap();
        let tb = RTree::bulk_load(&mut env, &b).unwrap();
        let res = StJoin::default()
            .run(&mut env, JoinInput::Stream(&sa), JoinInput::Indexed(&tb))
            .unwrap();
        assert_eq!(res.pairs, brute(&a, &b));
        // Bulk loading writes pages, which shows up in the I/O accounting.
        assert!(res.io.pages_written > 0);
    }
}
