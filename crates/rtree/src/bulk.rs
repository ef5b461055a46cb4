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
//! out consecutively on the simulated disk.

use usj_geom::{hilbert, Item, Rect};
use usj_io::{extsort, CpuOp, ItemStream, Result, SimEnv};

use crate::node::{Node, NodeEntry, NodeKind, MAX_FANOUT};
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
        .map(|it| {
            let c = it.rect.center();
            (hilbert::hilbert_value(c.x, c.y, &bbox), *it)
        })
        .collect();
    let n = keyed.len() as u64;
    if n > 1 {
        let log = (64 - n.leading_zeros()) as u64;
        env.charge(CpuOp::Compare, n * log);
        env.charge(CpuOp::ItemMove, n);
    }
    keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp_by_lower_y(&b.1)));

    let mut iter = keyed.iter().map(|(_, it)| *it);
    let mut next = move |_env: &mut SimEnv| -> Result<Option<Item>> { Ok(iter.next()) };
    pack_from_sorted(env, &mut next, items.len() as u64, bbox, config)
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
/// `input` and so saves the loader its first scan — the live catalog's
/// compaction, whose tiers each carry their box. `bbox` must be non-empty
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
    let space = bbox;
    let (sorted, _) = extsort::external_sort_by_key(
        env,
        input,
        move |it| {
            let c = it.rect.center();
            hilbert::hilbert_value(c.x, c.y, &space)
        },
        Item::cmp_by_lower_y,
    )?;
    // Pack nodes from the sorted stream.
    let mut sorted_reader = sorted.reader();
    let mut next = move |env: &mut SimEnv| -> Result<Option<Item>> { sorted_reader.next(env) };
    pack_from_sorted(env, &mut next, input.len(), bbox, config)
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

/// Packs one level of entries into nodes using the 75 % + 20 %-area rule and
/// writes each node to its own freshly allocated page.
fn pack_level(
    env: &mut SimEnv,
    entries: &[NodeEntry],
    kind: NodeKind,
    config: &BulkLoadConfig,
) -> Result<Vec<NodeEntry>> {
    let mut parents = Vec::new();
    let mut i = 0;
    while i < entries.len() {
        let mut node = Node::new(kind);
        let mut mbr = Rect::empty();
        while i < entries.len() && node.len() < config.max_fanout {
            let e = entries[i];
            if node.len() >= config.fill_target {
                // Beyond the fill target, admit the entry only if it does not
                // grow the directory rectangle by more than the slack.
                env.charge(CpuOp::RectTest, 1);
                let area = mbr.area();
                let grown = mbr.union(&e.rect).area();
                let limit = if area > 0.0 {
                    area * (1.0 + config.area_slack)
                } else {
                    0.0
                };
                if grown > limit {
                    break;
                }
            }
            mbr = mbr.union(&e.rect);
            node.entries.push(e);
            env.charge(CpuOp::ItemMove, 1);
            i += 1;
        }
        let page = env.device.allocate(1);
        env.device.write_page(page, &node.encode())?;
        assert!(
            page <= u64::from(u32::MAX),
            "simulated volume exceeds the 32-bit page-number space of the node format"
        );
        parents.push(NodeEntry {
            rect: mbr,
            payload: page as u32,
        });
    }
    Ok(parents)
}

fn pack_from_sorted(
    env: &mut SimEnv,
    next: &mut dyn FnMut(&mut SimEnv) -> Result<Option<Item>>,
    num_items: u64,
    bbox: Rect,
    config: BulkLoadConfig,
) -> Result<RTree> {
    // Leaf level: stream the sorted items straight into packed leaves.
    let mut leaf_entries: Vec<NodeEntry> = Vec::new();
    while let Some(it) = next(env)? {
        leaf_entries.push(NodeEntry {
            rect: it.rect,
            payload: it.id,
        });
    }
    if leaf_entries.is_empty() {
        // Degenerate tree: a single empty leaf as root.
        let page = env.device.allocate(1);
        env.device.write_page(page, &Node::new(NodeKind::Leaf).encode())?;
        return Ok(RTree::from_build(page, 1, 0, vec![1], bbox));
    }

    let mut level_counts = Vec::new();
    let mut level = pack_level(env, &leaf_entries, NodeKind::Leaf, &config)?;
    level_counts.push(level.len() as u64);
    let mut height = 1;
    while level.len() > 1 {
        level = pack_level(env, &level, NodeKind::Internal, &config)?;
        level_counts.push(level.len() as u64);
        height += 1;
    }
    let root = level[0].child_page();
    Ok(RTree::from_build(root, height, num_items, level_counts, bbox))
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
                out.push(Item::new(Rect::from_coords(x, y, x + 5.0, y + 5.0), i * n_side + j));
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

    #[test]
    fn bounding_box_of_nothing_is_unit_square() {
        let bbox = bounding_box(std::iter::empty());
        assert_eq!(bbox, Rect::from_coords(0.0, 0.0, 1.0, 1.0));
    }
}
