//! Hilbert bulk loading.
//!
//! The trees are built exactly as in the paper's experimental setup
//! (Section 3.3): rectangles are sorted by the Hilbert value of their centre
//! point, leaves are packed in that order, and the upper levels are built
//! bottom-up from the leaf directory rectangles. Following DeWitt et al.,
//! nodes are not packed to 100 %: each node is filled to 75 % of the fanout
//! and additional rectangles are admitted only while they do not increase the
//! area already covered by the node by more than 20 %. Because nodes are
//! allocated in construction order, the children of every node end up laid
//! out consecutively on the simulated disk: every leaf, left to right, then
//! each internal level, the root last.
//!
//! A live compaction rebuilds its tree from a merge instead
//! ([`bulk_load_merged`]): while the box is unchanged, the old tree's leaves
//! already hold the old records in the loader's order, and only the added
//! records need sorting.

use std::cmp::Ordering;

use usj_geom::{hilbert, sort_by_key_then, Item, Rect};
use usj_io::{extsort, CpuOp, ItemStream, Result, SimEnv};

use crate::node::{Node, NodeEntry, NodeKind, NodeView, MAX_FANOUT};
use crate::tree::RTree;

/// Tuning parameters for bulk loading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BulkLoadConfig {
    /// Maximum entries per node (defaults to the paper's 400).
    pub max_fanout: usize,
    /// Entries packed unconditionally into each node (defaults to 75 % of the
    /// fanout).
    pub fill_target: usize,
    /// Additional entries are admitted while they grow the node's directory
    /// rectangle by at most this fraction of its current area (defaults to
    /// 20 %).
    pub area_slack: f64,
}

impl Default for BulkLoadConfig {
    fn default() -> Self {
        BulkLoadConfig {
            max_fanout: MAX_FANOUT,
            fill_target: MAX_FANOUT * 3 / 4,
            area_slack: 0.20,
        }
    }
}

impl BulkLoadConfig {
    /// A configuration that packs every node completely, used by the
    /// index-quality ablation (`repro -- ablation-packing`).
    pub fn fully_packed() -> Self {
        BulkLoadConfig {
            max_fanout: MAX_FANOUT,
            fill_target: MAX_FANOUT,
            area_slack: 0.0,
        }
    }

    /// Validates and clamps the configuration.
    fn normalized(mut self) -> Self {
        self.max_fanout = self.max_fanout.clamp(2, MAX_FANOUT);
        self.fill_target = self.fill_target.clamp(1, self.max_fanout);
        self.area_slack = self.area_slack.max(0.0);
        self
    }
}

/// Bulk loads an R-tree from an in-memory slice of items.
///
/// The items are sorted in memory (charged to the deterministic CPU model)
/// and the nodes are written to the simulated device level by level, leaves
/// first.
pub fn bulk_load(env: &mut SimEnv, items: &[Item], config: BulkLoadConfig) -> Result<RTree> {
    let config = config.normalized();
    let bbox = bounding_box(items.iter().map(|it| it.rect));
    let mut keyed: Vec<(u64, Item)> = items
        .iter()
        .map(|it| (hilbert_key(it, &bbox), *it))
        .collect();
    extsort::charge_sort(env, keyed.len() as u64);
    sort_by_key_then(&mut keyed, |e| e.0, |a, b| a.1.cmp_by_lower_y(&b.1));

    let mut leaves = Packer::new(NodeKind::Leaf, config);
    for (_, it) in &keyed {
        leaves.push(leaf_entry(it));
    }
    leaves.build_tree(env, items.len() as u64, bbox)
}

/// Bulk loads an R-tree from an item stream, using the external mergesort to
/// order the items by Hilbert value (one extra scan computes the bounding box
/// first, as a real loader would).
pub fn bulk_load_stream(
    env: &mut SimEnv,
    input: &ItemStream,
    config: BulkLoadConfig,
) -> Result<RTree> {
    // Bounding box of the data space.
    let mut bbox = Rect::empty();
    let mut reader = input.reader();
    while let Some(it) = reader.next(env)? {
        bbox = bbox.union(&it.rect);
        env.charge(CpuOp::RectTest, 1);
    }
    if bbox.is_empty() {
        bbox = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
    }
    bulk_load_stream_with_bbox(env, input, bbox, config)
}

/// [`bulk_load_stream`] for a caller that already knows the bounding box of
/// `input` and so saves the loader its first scan — a live compaction that
/// cannot reuse the old tree's order ([`bulk_load_merged`]), whose tiers
/// each carry their box. `bbox` must be non-empty
/// and cover every record; handing in exactly the union of the records'
/// rectangles builds the very tree [`bulk_load_stream`] does.
pub fn bulk_load_stream_with_bbox(
    env: &mut SimEnv,
    input: &ItemStream,
    bbox: Rect,
    config: BulkLoadConfig,
) -> Result<RTree> {
    let config = config.normalized();
    // External sort by Hilbert value of the centre point. The value
    // is the sort's u64 key, so the run sorts and the merge heap compare
    // precomputed keys instead of re-deriving the Hilbert curve position on
    // every comparison.
    let (sorted, _) = extsort::external_sort_by_key(
        env,
        input,
        move |it| hilbert_key(it, &bbox),
        Item::cmp_by_lower_y,
    )?;
    // Pack nodes from the sorted stream.
    let mut leaves = Packer::new(NodeKind::Leaf, config);
    let mut reader = sorted.reader();
    while let Some(view) = reader.next_view(env)? {
        for it in view.iter() {
            leaves.push(leaf_entry(&it));
        }
    }
    leaves.build_tree(env, input.len(), bbox)
}

/// How [`bulk_load_merged`] ordered the records of the tree it built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergedLoad {
    /// The old tree's leaves merged with the added records, sorted in
    /// memory: the old records were already in the loader's order.
    Merged,
    /// The external sort of the whole base, as
    /// [`bulk_load_stream_with_bbox`] does it: the box is not the old
    /// tree's, the old tree is empty, or the budget cannot hold the added
    /// records' sort buffer.
    Resorted,
}

/// Rebuilds the R-tree of `base`, whose records are those `old` indexes
/// plus those of the `added` runs, as [`bulk_load_stream_with_bbox`] builds
/// it over `base` and `bbox` — the tree of a live compaction.
///
/// A record's Hilbert key depends only on its centre and the box. So when
/// `bbox` is bit-equal to `old.bbox()` and `old` is non-empty, every record
/// of `old` keeps the key it was sorted by, and `old`'s leaves read in
/// construction order ([`RTree::leaf_cursor`]) are a sorted run of them.
/// Then only the added records are sorted — in memory, under a gauge
/// reservation, charged like the external sort's run formation plus one
/// comparison per merge step — and merged with that run. The merge *is* the
/// full sort, so the tree comes out identical, and neither `base` nor a
/// sort run is read or written. Otherwise, or when the reservation fails,
/// this is [`bulk_load_stream_with_bbox`] over `base`.
pub fn bulk_load_merged(
    env: &mut SimEnv,
    old: &RTree,
    base: &ItemStream,
    added: &[ItemStream],
    bbox: Rect,
    config: BulkLoadConfig,
) -> Result<(RTree, MergedLoad)> {
    let added_len: usize = added.iter().map(|run| run.len() as usize).sum();
    debug_assert_eq!(
        old.num_items() + added_len as u64,
        base.len(),
        "base = old ∪ added"
    );
    let same_box = rect_bits(&old.bbox()) == rect_bits(&bbox);
    let reservation = (same_box && old.num_items() > 0)
        .then(|| {
            env.memory
                .try_reserve(added_len * std::mem::size_of::<(u64, Item)>())
                .ok()
        })
        .flatten();
    let Some(_reservation) = reservation else {
        let tree = bulk_load_stream_with_bbox(env, base, bbox, config)?;
        return Ok((tree, MergedLoad::Resorted));
    };
    let config = config.normalized();
    let mut fresh: Vec<(u64, Item)> = Vec::with_capacity(added_len);
    for run in added {
        let mut reader = run.reader();
        while let Some(view) = reader.next_view(env)? {
            fresh.extend(view.iter().map(|it| (hilbert_key(&it, &bbox), it)));
        }
    }
    extsort::charge_sort(env, fresh.len() as u64);
    sort_by_key_then(&mut fresh, |e| e.0, |a, b| a.1.cmp_by_lower_y(&b.1));

    // Each old leaf is merged with the fresh records that fall inside it,
    // charged as the step-by-step merge is: one comparison per record
    // placed while both sides have one left. Only the old records that
    // decide where a fresh one goes are keyed (see `KeyedLeaf`).
    let step = probe_step(old.num_items(), fresh.len());
    let mut leaves = Packer::new(NodeKind::Leaf, config);
    let mut next = 0;
    let mut cursor = old.leaf_cursor();
    let mut leaf = KeyedLeaf::default();
    while let Some(old_leaf) = cursor.next_leaf(env)? {
        leaf.load(&old_leaf);
        let mut start = 0;
        let mut compares = 0;
        while let Some(f) = fresh.get(next) {
            let j = leaf.first_after(start, f, step, &bbox);
            for it in &leaf.items[start..j] {
                leaves.push(leaf_entry(it));
            }
            compares += (j - start) as u64;
            start = j;
            if j == leaf.items.len() {
                break;
            }
            leaves.push(leaf_entry(&f.1));
            compares += 1;
            next += 1;
        }
        // The fresh records ran out inside this leaf: the rest of it
        // follows uncompared.
        for it in &leaf.items[start..] {
            leaves.push(leaf_entry(it));
        }
        env.charge(CpuOp::Compare, compares);
    }
    for (_, it) in &fresh[next..] {
        leaves.push(leaf_entry(it));
    }
    let tree = leaves.build_tree(env, base.len(), bbox)?;
    Ok((tree, MergedLoad::Merged))
}

/// How far apart [`KeyedLeaf::first_after`] probes the old records for
/// `old` records merged with `fresh` ones. Probing every `s`-th record
/// keys about `old / (fresh · s) + log2 s` records per fresh one, least
/// near `s = ln 2 · old / fresh`.
fn probe_step(old: u64, fresh: usize) -> usize {
    ((old as f64 / fresh.max(1) as f64 * std::f64::consts::LN_2) as usize).max(1)
}

/// The records of one old leaf, in the loader's order, with their Hilbert
/// keys computed only on demand: [`bulk_load_merged`] places each fresh
/// record by a search over the leaf, so only the old records the search
/// probes are ever keyed.
#[derive(Default)]
struct KeyedLeaf {
    items: Vec<Item>,
    keys: Vec<Option<u64>>,
}

impl KeyedLeaf {
    /// Holds the records of `leaf`, none keyed yet.
    fn load(&mut self, leaf: &NodeView) {
        self.items.clear();
        self.items.extend(leaf.entries().map(|e| e.as_item()));
        self.keys.clear();
        self.keys.resize(self.items.len(), None);
    }

    /// Whether record `i` sorts after the keyed record `f`.
    fn after(&mut self, i: usize, f: &(u64, Item), bbox: &Rect) -> bool {
        let it = &self.items[i];
        let key = *self.keys[i].get_or_insert_with(|| hilbert_key(it, bbox));
        key.cmp(&f.0).then_with(|| it.cmp_by_lower_y(&f.1)) == Ordering::Greater
    }

    /// The first record at or past `start` that sorts after `f`, or the
    /// leaf's length when none does. The records are in the loader's
    /// order, so "sorts after `f`" holds from some record on: the search
    /// probes every `step`-th record from `start`, then bisects the step
    /// in which it starts to hold.
    fn first_after(&mut self, start: usize, f: &(u64, Item), step: usize, bbox: &Rect) -> usize {
        let (mut lo, mut hi) = (start, self.items.len());
        while lo + step <= hi {
            let probe = lo + step - 1;
            if self.after(probe, f, bbox) {
                hi = probe;
                break;
            }
            lo = probe + 1;
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.after(mid, f, bbox) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

/// The bulk loader's sort key: the Hilbert value of the rectangle's centre
/// within `space`.
fn hilbert_key(it: &Item, space: &Rect) -> u64 {
    let c = it.rect.center();
    hilbert::hilbert_value(c.x, c.y, space)
}

/// The bit patterns of a rectangle's corners: equal exactly when every
/// record keeps its Hilbert key from one box to the other.
fn rect_bits(r: &Rect) -> [u32; 4] {
    [r.lo.x, r.lo.y, r.hi.x, r.hi.y].map(f32::to_bits)
}

/// Smallest rectangle covering all rectangles of the iterator.
pub fn bounding_box(rects: impl Iterator<Item = Rect>) -> Rect {
    let bbox = rects.fold(Rect::empty(), |acc, r| acc.union(&r));
    if bbox.is_empty() {
        Rect::from_coords(0.0, 0.0, 1.0, 1.0)
    } else {
        bbox
    }
}

/// A record as the entry of a leaf.
fn leaf_entry(it: &Item) -> NodeEntry {
    NodeEntry {
        rect: it.rect,
        payload: it.id,
    }
}

/// Packs the entries of one level, pushed one at a time in order, into
/// nodes by the 75 % + 20 %-area rule: a node closes at the fanout, or at
/// the first entry past the fill target that would grow its directory
/// rectangle by more than the slack.
///
/// A closed node is encoded at once; its page is allocated, charged and
/// written when the level is [`finish`](Packer::finish)ed. The device so
/// sees a loader's reads of its input and then the writes of the level, in
/// the order and with the sequential / random classification they had when
/// a level was collected whole before it was packed; and a read that fails
/// mid-level leaves neither a page nor a packing charge behind.
struct Packer {
    config: BulkLoadConfig,
    /// The open node; its entry buffer is reused from node to node.
    node: Node,
    mbr: Rect,
    /// Slack tests made while the open node filled up.
    rect_tests: u64,
    closed: Vec<ClosedNode>,
}

/// A closed node: its page image, and what the level above and the cost
/// model need of it.
struct ClosedNode {
    page: Vec<u8>,
    mbr: Rect,
    entries: u64,
    rect_tests: u64,
}

impl Packer {
    fn new(kind: NodeKind, config: BulkLoadConfig) -> Self {
        Packer {
            config,
            node: Node::new(kind),
            mbr: Rect::empty(),
            rect_tests: 0,
            closed: Vec::new(),
        }
    }

    fn push(&mut self, e: NodeEntry) {
        let len = self.node.len();
        let grown = self.mbr.union(&e.rect);
        if len < self.config.fill_target {
            self.mbr = grown;
        } else if len == self.config.max_fanout {
            self.close();
            self.mbr = e.rect;
        } else {
            // Beyond the fill target, admit the entry only if it does not
            // grow the directory rectangle by more than the slack.
            self.rect_tests += 1;
            let area = self.mbr.area();
            let limit = if area > 0.0 {
                area * (1.0 + self.config.area_slack)
            } else {
                0.0
            };
            if grown.area() > limit {
                self.close();
                self.mbr = e.rect;
            } else {
                self.mbr = grown;
            }
        }
        self.node.entries.push(e);
    }

    /// Closes the open node; the next entry pushed opens a new one, whose
    /// directory rectangle starts as that entry's.
    fn close(&mut self) {
        self.closed.push(ClosedNode {
            page: self.node.encode(),
            mbr: self.mbr,
            entries: self.node.len() as u64,
            rect_tests: std::mem::take(&mut self.rect_tests),
        });
        self.node.entries.clear();
    }

    /// Closes the open node, then per node: charges its slack tests and
    /// entry moves, writes it to its own freshly allocated page, and returns
    /// its entry for the level above.
    fn finish(mut self, env: &mut SimEnv) -> Result<Vec<NodeEntry>> {
        if !self.node.is_empty() {
            self.close();
        }
        self.closed
            .iter()
            .map(|node| {
                env.charge(CpuOp::RectTest, node.rect_tests);
                env.charge(CpuOp::ItemMove, node.entries);
                let page = env.device.allocate(1);
                env.device.write_page(page, &node.page)?;
                assert!(
                    page <= u64::from(u32::MAX),
                    "simulated volume exceeds the 32-bit page-number space of the node format"
                );
                Ok(NodeEntry {
                    rect: node.mbr,
                    payload: page as u32,
                })
            })
            .collect()
    }

    /// Finishes this leaf level and packs the levels above it, each after
    /// the one below is complete, so every level's nodes lie on consecutive
    /// pages and the root is written last.
    fn build_tree(self, env: &mut SimEnv, num_items: u64, bbox: Rect) -> Result<RTree> {
        let config = self.config;
        let mut level = self.finish(env)?;
        if level.is_empty() {
            // Degenerate tree: a single empty leaf as root.
            let page = env.device.allocate(1);
            env.device
                .write_page(page, &Node::new(NodeKind::Leaf).encode())?;
            return Ok(RTree::from_build(page, 1, 0, vec![1], bbox));
        }
        let mut level_counts = vec![level.len() as u64];
        while level.len() > 1 {
            let mut packer = Packer::new(NodeKind::Internal, config);
            for e in level {
                packer.push(e);
            }
            level = packer.finish(env)?;
            level_counts.push(level.len() as u64);
        }
        let height = level_counts.len() as u32;
        Ok(RTree::from_build(
            level[0].child_page(),
            height,
            num_items,
            level_counts,
            bbox,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_io::MachineConfig;

    fn env() -> SimEnv {
        SimEnv::new(MachineConfig::machine3())
    }

    fn grid_items(n_side: u32) -> Vec<Item> {
        let mut out = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                let x = i as f32 * 10.0;
                let y = j as f32 * 10.0;
                out.push(Item::new(
                    Rect::from_coords(x, y, x + 5.0, y + 5.0),
                    i * n_side + j,
                ));
            }
        }
        out
    }

    #[test]
    fn default_config_matches_the_paper() {
        let c = BulkLoadConfig::default();
        assert_eq!(c.max_fanout, 400);
        assert_eq!(c.fill_target, 300);
        assert!((c.area_slack - 0.2).abs() < 1e-12);
    }

    #[test]
    fn small_input_builds_single_leaf_root() {
        let mut env = env();
        let items = grid_items(5); // 25 items, fits in one leaf
        let tree = bulk_load(&mut env, &items, BulkLoadConfig::default()).unwrap();
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.num_items(), 25);
        assert_eq!(tree.nodes(), 1);
    }

    #[test]
    fn larger_input_builds_multi_level_tree() {
        let mut env = env();
        let items = grid_items(40); // 1600 items -> several leaves + a root
        let tree = bulk_load(&mut env, &items, BulkLoadConfig::default()).unwrap();
        assert!(tree.height() >= 2);
        assert!(tree.num_leaves() >= 4);
        assert_eq!(tree.num_items(), 1600);
        // All leaves plus internals are counted.
        assert_eq!(tree.nodes(), tree.num_leaves() + tree.num_internal());
    }

    #[test]
    fn packing_ratio_is_around_ninety_percent() {
        let mut env = env();
        let items = grid_items(70); // 4900 items
        let tree = bulk_load(&mut env, &items, BulkLoadConfig::default()).unwrap();
        let ratio = tree.num_items() as f64 / (tree.num_leaves() as f64 * MAX_FANOUT as f64);
        assert!(
            ratio > 0.70 && ratio <= 1.0,
            "average leaf packing ratio {ratio} outside the expected range"
        );
    }

    #[test]
    fn fully_packed_config_uses_fewer_leaves() {
        let mut env = env();
        let items = grid_items(70);
        let packed = bulk_load(&mut env, &items, BulkLoadConfig::fully_packed()).unwrap();
        let default = bulk_load(&mut env, &items, BulkLoadConfig::default()).unwrap();
        assert!(packed.num_leaves() <= default.num_leaves());
        assert_eq!(packed.num_items(), default.num_items());
    }

    #[test]
    fn empty_input_builds_an_empty_tree() {
        let mut env = env();
        let tree = bulk_load(&mut env, &[], BulkLoadConfig::default()).unwrap();
        assert_eq!(tree.num_items(), 0);
        assert_eq!(tree.nodes(), 1);
        assert_eq!(tree.height(), 1);
    }

    #[test]
    fn stream_and_memory_loading_agree_on_shape() {
        let mut env = env();
        let items = grid_items(30);
        let from_memory = bulk_load(&mut env, &items, BulkLoadConfig::default()).unwrap();
        let stream = ItemStream::from_items(&mut env, &items).unwrap();
        let from_stream = bulk_load_stream(&mut env, &stream, BulkLoadConfig::default()).unwrap();
        assert_eq!(from_memory.num_items(), from_stream.num_items());
        assert_eq!(from_memory.num_leaves(), from_stream.num_leaves());
        assert_eq!(from_memory.height(), from_stream.height());
    }

    #[test]
    fn children_are_allocated_sequentially() {
        // The defining layout property: leaves are written to consecutive
        // pages, so reading them in construction order is sequential I/O.
        let mut env = env();
        let items = grid_items(40);
        let before = env.device.allocated_pages();
        let tree = bulk_load(&mut env, &items, BulkLoadConfig::default()).unwrap();
        let after = env.device.allocated_pages();
        assert_eq!(after - before, tree.nodes());
        // The root is the last node written.
        assert_eq!(tree.root(), after - 1);
    }

    /// Every leaf entry, through the leaf cursor.
    fn leaf_items(env: &mut SimEnv, tree: &RTree) -> Vec<Item> {
        let mut cursor = tree.leaf_cursor();
        let mut out = Vec::new();
        while let Some(leaf) = cursor.next_leaf(env).unwrap() {
            out.extend(leaf.entries().map(|e| e.as_item()));
        }
        out
    }

    #[test]
    fn the_leaf_cursor_reads_each_leaf_once_in_the_loaders_order() {
        let mut env = env();
        let items = grid_items(40);
        let tree = bulk_load(&mut env, &items, BulkLoadConfig::default()).unwrap();
        let mut want: Vec<(u64, Item)> = items
            .iter()
            .map(|it| (hilbert_key(it, &tree.bbox()), *it))
            .collect();
        want.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp_by_lower_y(&b.1)));
        // One leaf per call, one page read per leaf, the fill the loader
        // gave it.
        let mut cursor = tree.leaf_cursor();
        let mut got = Vec::new();
        let mut leaves = 0;
        loop {
            let before = env.device.stats().pages_read;
            let Some(leaf) = cursor.next_leaf(&mut env).unwrap() else {
                break;
            };
            assert!((1..=MAX_FANOUT).contains(&leaf.len()));
            got.extend(leaf.entries().map(|e| e.as_item()));
            assert_eq!(env.device.stats().pages_read - before, 1);
            leaves += 1;
        }
        assert_eq!(leaves, tree.num_leaves());
        assert_eq!(got, want.into_iter().map(|(_, it)| it).collect::<Vec<_>>());
        let empty = bulk_load(&mut env, &[], BulkLoadConfig::default()).unwrap();
        assert!(leaf_items(&mut env, &empty).is_empty());
    }

    #[test]
    fn a_merged_load_builds_the_full_sorts_tree_and_re_sorts_when_the_box_grows() {
        let mut env = env();
        let cfg = BulkLoadConfig::default();
        let all = grid_items(40);
        // The old tree holds both corners of the grid, so its box is the
        // base's.
        let (old_items, added): (Vec<Item>, Vec<Item>) = all.iter().partition(|it| it.id % 3 != 1);
        let old = bulk_load(&mut env, &old_items, cfg).unwrap();
        let base = ItemStream::from_items(&mut env, &all).unwrap();
        let runs = [
            ItemStream::from_items(&mut env, &added[..200]).unwrap(),
            ItemStream::from_items(&mut env, &added[200..]).unwrap(),
        ];
        let (merged, how) =
            bulk_load_merged(&mut env, &old, &base, &runs, old.bbox(), cfg).unwrap();
        assert_eq!(how, MergedLoad::Merged);
        let full = bulk_load_stream_with_bbox(&mut env, &base, old.bbox(), cfg).unwrap();
        assert_eq!(merged.level_counts(), full.level_counts());
        assert_eq!(leaf_items(&mut env, &merged), leaf_items(&mut env, &full));

        let grown = old.bbox().union(&Rect::from_coords(-1.0, -1.0, 0.0, 0.0));
        let (resorted, how) = bulk_load_merged(&mut env, &old, &base, &runs, grown, cfg).unwrap();
        assert_eq!(how, MergedLoad::Resorted);
        let full = bulk_load_stream_with_bbox(&mut env, &base, grown, cfg).unwrap();
        assert_eq!(leaf_items(&mut env, &resorted), leaf_items(&mut env, &full));
    }

    #[test]
    fn a_keyed_leaf_places_a_record_where_a_linear_scan_does() {
        let items = grid_items(12);
        let bbox = bounding_box(items.iter().map(|it| it.rect));
        let keyed = |it: &Item| (hilbert_key(it, &bbox), *it);
        let mut old: Vec<(u64, Item)> = items.iter().step_by(2).map(keyed).collect();
        old.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp_by_lower_y(&b.1)));
        let mut leaf = KeyedLeaf {
            items: old.iter().map(|e| e.1).collect(),
            keys: vec![None; old.len()],
        };
        // Fresh records between, equal to and beyond the old ones.
        let fresh = items
            .iter()
            .skip(1)
            .step_by(5)
            .chain(&items[..3])
            .map(keyed);
        for f in fresh {
            for start in [0, 1, old.len() / 2, old.len() - 1, old.len()] {
                let linear = (start..old.len())
                    .find(|&i| {
                        let o = &old[i];
                        o.0.cmp(&f.0).then_with(|| o.1.cmp_by_lower_y(&f.1)) == Ordering::Greater
                    })
                    .unwrap_or(old.len());
                for step in [1, 2, 3, 7, old.len(), old.len() + 5] {
                    assert_eq!(
                        leaf.first_after(start, &f, step, &bbox),
                        linear,
                        "step {step}"
                    );
                }
            }
        }
        // Only probed records were keyed, and each with its own key.
        for (key, o) in leaf.keys.iter().zip(&old) {
            assert!(key.map_or(true, |k| k == o.0));
        }
        assert_eq!(probe_step(60_000, 10_000), 4);
        assert_eq!(probe_step(10, 0), 6);
        assert_eq!(probe_step(1, 10_000), 1);
    }

    #[test]
    fn bounding_box_of_nothing_is_unit_square() {
        let bbox = bounding_box(std::iter::empty());
        assert_eq!(bbox, Rect::from_coords(0.0, 0.0, 1.0, 1.0));
    }
}
