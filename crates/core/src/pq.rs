//! Priority-Queue-Driven Traversal (PQ) — the paper's new algorithm.
//!
//! PQ unifies the indexed and non-indexed approaches. A non-indexed input is
//! handled exactly as in SSSJ: sorted by lower y-coordinate and fed to the
//! plane sweep. An indexed input is *not* re-sorted; instead an **index
//! adapter** extracts its rectangles in sorted order directly from the
//! R-tree:
//!
//! * a priority queue, ordered by lower y-coordinate, initially holds the
//!   bounding rectangle of the root;
//! * extracting the minimum either returns a data rectangle (which is fed to
//!   the sweep) or an internal node, whose children are read from disk and
//!   inserted into the queue.
//!
//! Every node of the tree is touched at most once, so the adapter performs
//! the "optimal" number of page requests (Table 4). Following the paper's
//! implementation section, two queues are maintained — one for internal
//! nodes (storing only `(y, page)`) and one for data rectangles — and when a
//! leaf is loaded its rectangles are sorted and staged so that only one of
//! them sits in the data queue at a time.
//!
//! The optional *pruned* variant only descends into subtrees that can
//! intersect the other input (Section 4 mentions this modification; it
//! matters only for localized joins such as the Section 6.3 example and is
//! exercised by the cost-model experiment).

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::ops::ControlFlow;

use usj_geom::{Item, Rect};
use usj_io::merge::Run;
use usj_io::sim::Measurement;
use usj_io::{Charges, CpuCounter, CpuOp, MemoryReservation, PageId, Result, SimEnv};
use usj_rtree::{NodeKind, NodeView, Probe, RTree};
use usj_sweep::merge_sweep;

use crate::input::{sweep_merge, JoinInput, SweepMerge};
use crate::predicate::Predicate;
use crate::query::SweepPlan;
use crate::result::{JoinResult, MemoryStats};
use crate::sink::PairSink;
use crate::{JoinAlgorithm, JoinOperator};

/// Total order wrapper for `f32` priority-queue keys.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF32(f32);

impl Eq for OrdF32 {}

impl PartialOrd for OrdF32 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF32 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Entry of the internal-node queue: lower y-coordinate and page number only
/// (12 bytes of payload, as in the paper's space optimisation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct InternalEntry {
    y: OrdF32,
    page: u64,
}

/// Entry of the data queue: the staged head rectangle of one loaded leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct LeafHead {
    y: OrdF32,
    buffer: usize,
}

/// Bytes charged per queue entry when accounting memory usage (Table 3).
const INTERNAL_ENTRY_BYTES: usize = 12; // y + page id
const LEAF_HEAD_BYTES: usize = 24; // four coordinates + id + buffer index

/// The index adapter: extracts the data rectangles of an R-tree in ascending
/// lower-y order, touching each node at most once.
#[derive(Debug)]
pub struct PqExtractor<'a> {
    tree: &'a RTree,
    internal: BinaryHeap<Reverse<InternalEntry>>,
    heads: BinaryHeap<Reverse<LeafHead>>,
    /// Staged leaf contents: `(sorted items, cursor)`.
    buffers: Vec<(Vec<Item>, usize)>,
    free_buffers: Vec<usize>,
    prune: Option<Rect>,
    nodes_read: u64,
    staged_bytes: usize,
    max_bytes: usize,
    /// Gauge claim on the queues and staged leaf buffers, kept in sync with
    /// `current_bytes` — the PQ working set is governed like every other.
    reservation: MemoryReservation,
}

impl<'a> PqExtractor<'a> {
    /// Creates an extractor over `tree`. When `prune` is given, subtrees whose
    /// directory rectangle does not intersect it are never visited.
    pub fn new(env: &mut SimEnv, tree: &'a RTree, prune: Option<Rect>) -> Self {
        let mut internal = BinaryHeap::new();
        env.charge(CpuOp::HeapOp, 1);
        internal.push(Reverse(InternalEntry {
            y: OrdF32(tree.bbox().lo.y),
            page: tree.root(),
        }));
        let mut ex = PqExtractor {
            tree,
            internal,
            heads: BinaryHeap::new(),
            buffers: Vec::new(),
            free_buffers: Vec::new(),
            prune,
            nodes_read: 0,
            staged_bytes: 0,
            max_bytes: 0,
            reservation: env.memory.reserve_empty(),
        };
        // The initial state is one 12-byte root entry; if even that fails to
        // reserve, the first `next` call re-checks and surfaces the error.
        let _ = ex.note_bytes();
        ex
    }

    /// What an extractor over `tree` charges until the sweep has taken
    /// every record, for `probe` the nodes it reads and `pruned` whether it
    /// tests their entries against a window: one read (a seek, unless
    /// [`sequential_reads`](PqExtractor::sequential_reads)) and a push
    /// and a pop per node, a record move (and a test) per entry, each
    /// leaf's sort, and per record staged a move, a push and a pop, a
    /// compare of the two queues' heads and a compare of the sweep's two
    /// sources (both at most one per step). The leaves read hold their
    /// share of the tree's records (all of them when every leaf is read),
    /// each staged whole, which overcounts where the window cuts leaves;
    /// every leaf's sort ([`leaf_sort_cpu`]) is priced at their average.
    pub(crate) fn sweep_charges(tree: &RTree, probe: &Probe, pruned: bool) -> Charges {
        let nodes = probe.internal + probe.leaves;
        let records = tree.num_items() * probe.leaves / tree.num_leaves().max(1);
        let entries = probe.internal_entries + records;
        let mut charges = Charges::default();
        (charges.io.pages_read, charges.io.rand_read_ops) = (nodes, nodes);
        let cpu = &mut charges.cpu;
        cpu.add(CpuOp::ItemMove, entries + records);
        cpu.add(CpuOp::RectTest, if pruned { entries } else { 0 });
        cpu.add(CpuOp::HeapOp, 2 * (nodes + records));
        let per_leaf = records / probe.leaves.max(1);
        let leaf_sort = leaf_sort_cpu(per_leaf).get(CpuOp::Compare);
        cpu.add(
            CpuOp::Compare,
            probe.leaves * leaf_sort + nodes + 2 * records,
        );
        charges
    }

    /// How many of the node `reads` (lower y and page) of one join's
    /// extractors need no seek: the extractors read their nodes in
    /// ascending lower y, so a node whose page follows the page of the
    /// node before it in that order is read sequentially.
    pub(crate) fn sequential_reads(mut reads: Vec<(f32, PageId)>) -> u64 {
        reads.sort_by(|a, b| a.0.total_cmp(&b.0));
        reads.windows(2).filter(|w| w[1].1 == w[0].1 + 1).count() as u64
    }

    /// Number of index pages read so far.
    pub fn nodes_read(&self) -> u64 {
        self.nodes_read
    }

    /// Largest combined size of the two queues plus the staged leaf buffers.
    pub fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    fn current_bytes(&self) -> usize {
        self.internal.len() * INTERNAL_ENTRY_BYTES
            + self.heads.len() * LEAF_HEAD_BYTES
            + self.staged_bytes
    }

    fn note_bytes(&mut self) -> Result<()> {
        let bytes = self.current_bytes();
        self.max_bytes = self.max_bytes.max(bytes);
        self.reservation.try_set(bytes)
    }

    /// Stages the data rectangles of a loaded leaf (those the prune window
    /// lets through), sorted, in a free buffer slot — whose allocation a
    /// drained leaf left behind — and queues the first of them.
    fn stage_leaf(&mut self, env: &mut SimEnv, leaf: &NodeView) {
        let slot = self.free_buffers.pop().unwrap_or_else(|| {
            self.buffers.push((Vec::new(), 0));
            self.buffers.len() - 1
        });
        let prune = self.prune;
        let items = &mut self.buffers[slot].0;
        items.extend(
            leaf.entries()
                .filter(|e| match &prune {
                    None => true,
                    Some(p) => {
                        env.cpu.bump(CpuOp::RectTest);
                        e.rect.intersects(p)
                    }
                })
                .map(|e| e.as_item()),
        );
        if items.is_empty() {
            self.free_buffers.push(slot);
            return;
        }
        env.cpu.merge(&leaf_sort_cpu(items.len() as u64));
        usj_geom::sort_by_lower_y(items);
        self.staged_bytes += items.len() * usj_geom::ITEM_BYTES;
        let first_y = items[0].rect.lo.y;
        env.charge(CpuOp::HeapOp, 1);
        self.heads.push(Reverse(LeafHead {
            y: OrdF32(first_y),
            buffer: slot,
        }));
    }

    /// Extract-Next-Item (Figure 1 of the paper): returns the next data
    /// rectangle in ascending lower-y order, or `None` when the tree is
    /// exhausted.
    pub fn next(&mut self, env: &mut SimEnv) -> Result<Option<Item>> {
        loop {
            let take_internal = match (self.internal.peek(), self.heads.peek()) {
                (Some(Reverse(i)), Some(Reverse(h))) => {
                    env.charge(CpuOp::Compare, 1);
                    i.y <= h.y
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return Ok(None),
            };
            if take_internal {
                env.charge(CpuOp::HeapOp, 1);
                let Reverse(entry) = self.internal.pop().expect("peeked above");
                let node = self.tree.read_node(env, entry.page)?;
                self.nodes_read += 1;
                match node.kind() {
                    NodeKind::Internal => {
                        for e in node.entries() {
                            if let Some(p) = &self.prune {
                                env.charge(CpuOp::RectTest, 1);
                                if !e.rect.intersects(p) {
                                    continue;
                                }
                            }
                            env.charge(CpuOp::HeapOp, 1);
                            self.internal.push(Reverse(InternalEntry {
                                y: OrdF32(e.rect.lo.y),
                                page: e.child_page(),
                            }));
                        }
                    }
                    NodeKind::Leaf => self.stage_leaf(env, &node),
                }
                self.note_bytes()?;
            } else {
                // Extracting a leaf's head and queueing its successor are
                // two heap operations to the cost model and one sift here:
                // the successor overwrites the top in place.
                let mut head = self.heads.peek_mut().expect("peeked above");
                let slot = head.0.buffer;
                let (items, cursor) = &mut self.buffers[slot];
                let item = items[*cursor];
                *cursor += 1;
                self.staged_bytes -= usj_geom::ITEM_BYTES;
                env.charge(CpuOp::HeapOp, 1);
                if let Some(next) = items.get(*cursor) {
                    env.charge(CpuOp::HeapOp, 1);
                    head.0.y = OrdF32(next.rect.lo.y);
                    drop(head);
                } else {
                    PeekMut::pop(head);
                    items.clear();
                    *cursor = 0;
                    self.free_buffers.push(slot);
                }
                self.note_bytes()?;
                return Ok(Some(item));
            }
        }
    }
}

/// The CPU counters of sorting a staged leaf of `n` records: `n` times the
/// bit length of `n` comparisons and `n` record moves.
fn leaf_sort_cpu(n: u64) -> CpuCounter {
    let mut cpu = CpuCounter::new();
    cpu.add(CpuOp::Compare, n * u64::from(64 - n.leading_zeros()));
    cpu.add(CpuOp::ItemMove, n);
    cpu
}

/// One sorted source feeding the sweep: an index adapter, a reader over an
/// already-sorted stream, or a merge of sorted runs.
pub(crate) enum SortedSource<'a> {
    /// The PQ index adapter over an R-tree.
    Extractor(PqExtractor<'a>),
    /// A reader over a stream that is already sorted by lower y-coordinate.
    Stream(usj_io::ItemStreamReader),
    /// The runs of a cataloged relation with tiers, or of a sort's last
    /// level, merged on the fly.
    Merge(SweepMerge<'a>),
}

impl<'a> SortedSource<'a> {
    /// `input` in sweep order without its index, plus its bounding box
    /// (`bbox_hint` when given): a cataloged relation's runs are read as
    /// they are — merged when it has tiers — and anything else goes
    /// through [`JoinInput::sorted_runs`], whose runs are merged when
    /// `last_merge_streams` left the sort's last merge to the sweep.
    pub(crate) fn sorted(
        env: &mut SimEnv,
        input: &JoinInput<'a>,
        bbox_hint: Option<Rect>,
        last_merge_streams: bool,
    ) -> Result<(Self, Rect)> {
        if let JoinInput::Cataloged(c) = input {
            if c.has_tiers() {
                return Ok((SortedSource::Merge(c.merge()), bbox_hint.unwrap_or(c.bbox)));
            }
        }
        let (mut runs, bbox) = input.sorted_runs(env, bbox_hint, last_merge_streams)?;
        let source = match runs.len() {
            1 => SortedSource::Stream(runs.pop().expect("one run").reader()),
            _ => SortedSource::Merge(sweep_merge(runs.iter().map(Run::device).collect())),
        };
        Ok((source, bbox))
    }

    pub(crate) fn next(&mut self, env: &mut SimEnv) -> Result<Option<Item>> {
        match self {
            SortedSource::Extractor(e) => e.next(env),
            SortedSource::Stream(r) => r.next(env),
            SortedSource::Merge(m) => m.next(env),
        }
    }

    pub(crate) fn nodes_read(&self) -> u64 {
        match self {
            SortedSource::Extractor(e) => e.nodes_read(),
            _ => 0,
        }
    }

    pub(crate) fn max_queue_bytes(&self) -> usize {
        match self {
            SortedSource::Extractor(e) => e.max_bytes(),
            _ => 0,
        }
    }
}

/// The one sweep over two sorted sources that SSSJ and PQ share, each
/// source with its bounding box: over `region_hint` (else the union of the
/// boxes, ε-expanded), left items are ε-expanded as they leave their
/// source, the memory-governed spilling driver sweeps both (evicting cold
/// state to the simulated device if it outgrows the budget), every accepted
/// pair streams into `sink`, and the pending spill epoch is fixed up — or
/// skipped, when the sink stopped the join. The merge runs in the trace
/// phase `phases[0]`, the fix-up in `phases[1]` (the same phase when both
/// names are equal). The result accounts everything charged since
/// `measurement`.
pub(crate) fn sweep_sources(
    env: &mut SimEnv,
    measurement: &Measurement,
    [(mut left, left_bbox), (mut right, right_bbox)]: [(SortedSource<'_>, Rect); 2],
    region_hint: Option<Rect>,
    predicate: Predicate,
    sink: &mut dyn PairSink,
    phases: [&'static str; 2],
) -> Result<JoinResult> {
    let region = region_hint
        .unwrap_or_else(|| left_bbox.union(&right_bbox))
        .expanded(predicate.epsilon());
    let sweep_phase = env.obs_phase(phases[0]);
    let (mut pairs, mut stopped) = (0u64, false);
    let mut emit = |a: &Item, b: &Item| {
        if !stopped && predicate.accepts(&a.rect, &b.rect) {
            stopped = sink.emit(a.id, b.id).is_break();
            pairs += u64::from(!stopped);
        }
        if stopped {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    };
    let (driver, flow) = merge_sweep(
        env,
        |env| Ok(left.next(env)?.map(|it| predicate.expand_left(it))),
        |env| right.next(env),
        (region.lo.x, region.hi.x),
        &mut emit,
    )?;
    let fixup_phase = if phases[1] == phases[0] {
        sweep_phase
    } else {
        env.obs_close(sweep_phase);
        env.obs_phase(phases[1])
    };
    let mut sweep = match flow {
        ControlFlow::Break(()) => driver.discard(),
        ControlFlow::Continue(()) => driver.finish(env, |a, b| {
            let _ = emit(a, b);
        })?,
    };
    env.obs_close(fixup_phase);
    sweep.pairs = pairs;
    env.charge(CpuOp::RectTest, sweep.rect_tests);
    env.charge(CpuOp::OutputPair, pairs);

    let (io, cpu) = env.since(measurement);
    Ok(JoinResult {
        pairs,
        io,
        cpu,
        index_page_requests: left.nodes_read() + right.nodes_read(),
        sweep,
        memory: MemoryStats {
            priority_queue_bytes: left.max_queue_bytes() + right.max_queue_bytes(),
            sweep_structure_bytes: sweep.max_structure_bytes,
            other_bytes: 0,
            peak_bytes: env.memory.peak(),
        },
    })
}

/// Configuration of the PQ join.
///
/// # Example
///
/// PQ is the unified algorithm: it accepts any mix of indexed and
/// non-indexed inputs. Here one side is an R-tree, the other a flat stream.
///
/// ```
/// use usj_core::{JoinInput, JoinOperator, PqJoin};
/// use usj_geom::{Item, Rect};
/// use usj_io::{ItemStream, MachineConfig, SimEnv};
/// use usj_rtree::RTree;
///
/// let mut env = SimEnv::new(MachineConfig::machine3());
/// let columns: Vec<Item> = (0..50)
///     .map(|i| Item::new(Rect::from_coords(i as f32, 0.0, i as f32 + 0.5, 10.0), i))
///     .collect();
/// let band = vec![Item::new(Rect::from_coords(0.0, 4.0, 50.0, 5.0), 1000)];
///
/// let tree = RTree::bulk_load(&mut env, &columns).unwrap();
/// let stream = ItemStream::from_items(&mut env, &band).unwrap();
/// let result = PqJoin::default()
///     .run(&mut env, JoinInput::Indexed(&tree), JoinInput::Stream(&stream))
///     .unwrap();
/// // The band crosses every column once.
/// assert_eq!(result.pairs, 50);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PqJoin {
    /// When `true`, the index adapters only visit subtrees that can intersect
    /// the other input's bounding rectangle. This is the modification the
    /// paper describes for sparse/localized joins; it has no effect when both
    /// inputs cover the same region.
    pub prune_to_other: bool,
    /// Optional data-space hint used to size the striped sweep structure.
    pub region_hint: Option<Rect>,
    /// The pair-selection predicate (default: MBR intersection).
    pub predicate: Predicate,
}

impl PqJoin {
    /// Enables subtree pruning against the other input's bounding box.
    pub fn with_pruning(mut self) -> Self {
        self.prune_to_other = true;
        self
    }

    /// Sets the region hint (builder style).
    pub fn with_region(mut self, region: Rect) -> Self {
        self.region_hint = Some(region);
        self
    }

    /// Sets the join predicate (builder style).
    pub fn with_predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = predicate;
        self
    }

    /// The sorted source PQ reads `input` through: the index adapter over
    /// an R-tree, and over a cataloged relation's tree when a prune window
    /// restricts the traversal to part of it — otherwise the relation's
    /// sorted run is the cheapest source. A cataloged relation with tiers
    /// is always read as the merge of its runs: its tree indexes only the
    /// first. A stream is sorted, and with `last_merge_streams` read as the
    /// merge of its sort's last level.
    pub(crate) fn make_source<'a>(
        &self,
        env: &mut SimEnv,
        input: &JoinInput<'a>,
        prune: Option<Rect>,
        last_merge_streams: bool,
    ) -> Result<(SortedSource<'a>, Rect)> {
        match Self::index_of(input, prune) {
            Some((tree, bbox)) => Ok((
                SortedSource::Extractor(PqExtractor::new(env, tree, prune)),
                bbox,
            )),
            None => SortedSource::sorted(env, input, self.region_hint, last_merge_streams),
        }
    }

    /// The tree (and the relation's bounding box) the index adapter of
    /// [`make_source`](PqJoin::make_source) traverses for `input` pruned to
    /// `prune`, or `None` when `input` is read as sorted runs.
    pub(crate) fn index_of<'a>(
        input: &JoinInput<'a>,
        prune: Option<Rect>,
    ) -> Option<(&'a RTree, Rect)> {
        match input {
            JoinInput::Indexed(tree) => Some((tree, tree.bbox())),
            JoinInput::Cataloged(c)
                if !c.has_tiers() && prune.is_some_and(|window| !window.contains(&c.bbox)) =>
            {
                Some((c.tree, c.bbox))
            }
            _ => None,
        }
    }
}

impl JoinOperator for PqJoin {
    fn name(&self) -> &'static str {
        "PQ"
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

        // Pruning rectangles: each side may restrict the other's traversal.
        // Under a distance predicate the prune windows grow by ε, so no
        // near-miss subtree is skipped.
        let (left_prune, right_prune) = if self.prune_to_other {
            (
                right.known_bbox().map(|b| predicate.expand_rect(b)),
                left.known_bbox().map(|b| predicate.expand_rect(b)),
            )
        } else {
            (None, None)
        };

        let streamed =
            SweepPlan::new(JoinAlgorithm::Pq, env.memory_limit, [&left, &right]).streamed;
        let left = self.make_source(env, &left, left_prune, streamed[0])?;
        let right = self.make_source(env, &right, right_prune, streamed[1])?;
        sweep_sources(
            env,
            &measurement,
            [left, right],
            self.region_hint,
            predicate,
            sink,
            ["pq.sweep"; 2],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_io::{ItemStream, MachineConfig};

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
                    Rect::from_coords(x, y, x + cell * 0.7, y + cell * 0.7),
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
    fn extractor_yields_items_in_sorted_order_touching_each_node_once() {
        let mut env = env();
        let items = grid(40, 3.0, 0);
        let tree = RTree::bulk_load(&mut env, &items).unwrap();
        env.device.reset_stats();
        let mut ex = PqExtractor::new(&mut env, &tree, None);
        let mut extracted = Vec::new();
        while let Some(it) = ex.next(&mut env).unwrap() {
            extracted.push(it);
        }
        assert_eq!(extracted.len(), items.len());
        assert!(extracted
            .windows(2)
            .all(|w| w[0].rect.lo.y <= w[1].rect.lo.y));
        // Optimal page requests: every node exactly once.
        assert_eq!(ex.nodes_read(), tree.nodes());
        assert_eq!(env.device.stats().pages_read, tree.nodes());
        assert!(ex.max_bytes() > 0);
        // All ids present.
        let mut ids: Vec<u32> = extracted.iter().map(|i| i.id).collect();
        ids.sort_unstable();
        let mut expected: Vec<u32> = items.iter().map(|i| i.id).collect();
        expected.sort_unstable();
        assert_eq!(ids, expected);
    }

    #[test]
    fn the_planned_traversal_charges_what_the_extractor_charges() {
        for side in [1, 7, 20, 45, 90, 200] {
            let mut env = env();
            let tree = RTree::bulk_load(&mut env, &grid(side, 3.0, 0)).unwrap();
            let what = format!("{side}x{side} grid");
            env.device.reset_stats();
            let m = env.begin();
            let mut ex = PqExtractor::new(&mut env, &tree, None);
            let mut records = 0;
            while ex.next(&mut env).unwrap().is_some() {
                records += 1;
            }
            let (io, cpu) = env.since(&m);
            let want = PqExtractor::sweep_charges(&tree, &tree.whole(), false);
            assert_eq!(records, tree.num_items(), "{what}");
            // A lone extractor reads its nodes in the order
            // `sequential_reads` assumes, so it predicts the seeks exactly.
            let all = tree.probe(&mut env, &tree.bbox()).unwrap();
            let sequential = PqExtractor::sequential_reads(all.reads);
            assert_eq!(io.seq_read_ops, sequential, "{what}");
            assert_eq!(io.pages_read, want.io.pages_read, "{what}");
            assert_eq!(io.read_ops(), want.io.read_ops(), "{what}");
            for op in [CpuOp::ItemMove, CpuOp::HeapOp, CpuOp::RectTest] {
                assert_eq!(cpu.get(op), want.cpu.get(op), "{what}: {op:?}");
            }
            // Compares: the estimate adds one per record for the sweep's
            // merge of its two sources, which the extractor alone skips.
            let compares = want.cpu.get(CpuOp::Compare) - records;
            assert!(cpu.get(CpuOp::Compare) <= compares, "{what}: {cpu:?}");

            // Pruned to a window, the extractor reads the nodes the
            // directory probe counts.
            let window = Rect::from_coords(0.0, 0.0, side as f32, side as f32 * 2.0);
            let probe = tree.probe(&mut env, &window).unwrap();
            let m = env.begin();
            let mut ex = PqExtractor::new(&mut env, &tree, Some(window));
            while ex.next(&mut env).unwrap().is_some() {}
            let (io, _) = env.since(&m);
            let want = PqExtractor::sweep_charges(&tree, &probe, true);
            assert_eq!(io.pages_read, want.io.pages_read, "{what}, pruned");
            assert_eq!(probe.reads.len() as u64, want.io.pages_read, "{what}");
        }
    }

    #[test]
    fn indexed_indexed_join_matches_brute_force() {
        let mut env = env();
        let a = grid(25, 4.0, 0);
        let b: Vec<Item> = grid(25, 4.0, 100_000)
            .into_iter()
            .map(|mut it| {
                it.rect = Rect::from_coords(
                    it.rect.lo.x + 1.5,
                    it.rect.lo.y + 1.5,
                    it.rect.hi.x + 1.5,
                    it.rect.hi.y + 1.5,
                );
                it
            })
            .collect();
        let ta = RTree::bulk_load(&mut env, &a).unwrap();
        let tb = RTree::bulk_load(&mut env, &b).unwrap();
        let res = PqJoin::default()
            .run(&mut env, JoinInput::Indexed(&ta), JoinInput::Indexed(&tb))
            .unwrap();
        assert_eq!(res.pairs, brute(&a, &b));
        assert_eq!(res.index_page_requests, ta.nodes() + tb.nodes());
        assert!(res.memory.priority_queue_bytes > 0);
    }

    #[test]
    fn mixed_indexed_and_non_indexed_inputs_agree() {
        let mut env = env();
        let a = grid(20, 4.0, 0);
        let b = grid(20, 5.0, 100_000);
        let expected = brute(&a, &b);

        let ta = RTree::bulk_load(&mut env, &a).unwrap();
        let sb = ItemStream::from_items(&mut env, &b).unwrap();
        let mixed = PqJoin::default()
            .run(&mut env, JoinInput::Indexed(&ta), JoinInput::Stream(&sb))
            .unwrap();
        assert_eq!(mixed.pairs, expected);

        let sa = ItemStream::from_items(&mut env, &a).unwrap();
        let both_streams = PqJoin::default()
            .run(&mut env, JoinInput::Stream(&sa), JoinInput::Stream(&sb))
            .unwrap();
        assert_eq!(both_streams.pairs, expected);
    }

    #[test]
    fn pruned_variant_reads_fewer_pages_on_localized_joins() {
        let mut env = env();
        // Left: a large country-wide relation. Right: a small localized one.
        let a = grid(60, 4.0, 0);
        let b: Vec<Item> = grid(8, 4.0, 100_000).to_vec();
        let ta = RTree::bulk_load(&mut env, &a).unwrap();
        let tb = RTree::bulk_load(&mut env, &b).unwrap();
        let expected = brute(&a, &b);

        let plain = PqJoin::default()
            .run(&mut env, JoinInput::Indexed(&ta), JoinInput::Indexed(&tb))
            .unwrap();
        let pruned = PqJoin::default()
            .with_pruning()
            .run(&mut env, JoinInput::Indexed(&ta), JoinInput::Indexed(&tb))
            .unwrap();
        assert_eq!(plain.pairs, expected);
        assert_eq!(pruned.pairs, expected);
        assert!(
            pruned.index_page_requests < plain.index_page_requests,
            "pruning should skip untouched subtrees ({} vs {})",
            pruned.index_page_requests,
            plain.index_page_requests
        );
    }

    #[test]
    fn empty_tree_joins_cleanly() {
        let mut env = env();
        let a = grid(10, 4.0, 0);
        let ta = RTree::bulk_load(&mut env, &a).unwrap();
        let tempty = RTree::bulk_load(&mut env, &[]).unwrap();
        let res = PqJoin::default()
            .run(
                &mut env,
                JoinInput::Indexed(&ta),
                JoinInput::Indexed(&tempty),
            )
            .unwrap();
        assert_eq!(res.pairs, 0);
    }

    #[test]
    fn priority_queue_stays_small_relative_to_the_data() {
        // Table 3's observation: the PQ working set is a tiny fraction of the
        // data set (< 1 % in the paper).
        let mut env = env();
        let a = grid(70, 3.0, 0); // 4900 items
        let b = grid(40, 5.0, 100_000); // 1600 items
        let ta = RTree::bulk_load(&mut env, &a).unwrap();
        let tb = RTree::bulk_load(&mut env, &b).unwrap();
        let res = PqJoin::default()
            .run(&mut env, JoinInput::Indexed(&ta), JoinInput::Indexed(&tb))
            .unwrap();
        let data_bytes = (a.len() + b.len()) * usj_geom::ITEM_BYTES;
        assert!(
            res.memory.priority_queue_bytes < data_bytes / 2,
            "queue {} bytes vs data {} bytes",
            res.memory.priority_queue_bytes,
            data_bytes
        );
    }
}
