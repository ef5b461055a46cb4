//! Join inputs: indexed or non-indexed relations.
//!
//! A cataloged relation with tiers is read in sweep order as the
//! `usj_io::merge::Merge` of its runs, the same counted merge the external
//! sort uses: a live dataset's sorted runs need no sort, only a merge.

use std::cmp::Ordering;
use std::sync::Arc;

use usj_geom::{Item, Rect};
use usj_io::merge::{Merge, Run};
use usj_io::stream::{DEFAULT_PAGES_PER_BLOCK, ITEMS_PER_PAGE};
use usj_io::{extsort, CpuOp, ItemStream, ItemStreamWriter, Result, SimEnv};
use usj_rtree::{NodeKind, RTree};

/// A relation registered in a dataset catalog: *both* of its prepared
/// representations — the bulk-loaded R-tree and the y-sorted run — persisted
/// on the device, plus the known bounding box, and any **tiers** beside
/// them: sorted delta runs on the device and sorted in-memory runs.
///
/// This is what "register once, query many" buys: an algorithm that wants
/// the index uses [`tree`](CatalogedInput::tree) without bulk-loading, an
/// algorithm that wants sorted input uses [`sorted`](CatalogedInput::sorted)
/// without re-sorting, and nobody scans for the bounding box. A registered
/// dataset has no tiers; a live dataset mid-ingest has them, and then the
/// tree indexes `sorted` only, so the relation in sweep order is the merge
/// of `sorted` with every tier. The handle is produced by the service
/// crate's `Catalog` and the live crate's snapshots; it is a plain borrow so
/// the core crate stays independent of both.
#[derive(Debug, Clone, Copy)]
pub struct CatalogedInput<'a> {
    /// The persisted packed R-tree over `sorted`.
    pub tree: &'a RTree,
    /// The persisted stream of the relation's MBRs, sorted by lower
    /// y-coordinate (a live dataset's base run).
    pub sorted: &'a ItemStream,
    /// Bounding box of the relation, tiers included.
    pub bbox: Rect,
    /// Sorted delta runs on the device, oldest first.
    pub deltas: &'a [SnapshotRun],
    /// Sorted in-memory runs, oldest first.
    pub mem_runs: &'a [MemRun],
}

/// Sorted runs merged in sweep order: a cataloged relation's tiers, or
/// the last level of a sort.
pub(crate) type SweepMerge<'a> = Merge<'a, fn(&Item) -> u64, fn(&Item, &Item) -> Ordering>;

/// The merge of `runs`, each sorted in sweep order, in sweep order.
pub(crate) fn sweep_merge(runs: Vec<Run<'_>>) -> SweepMerge<'_> {
    Merge::new(runs, Item::sweep_key, Item::cmp_by_lower_y)
}

impl<'a> CatalogedInput<'a> {
    /// Whether anything beside `sorted` holds records: then the tree does
    /// not cover the relation, and reading it in sweep order merges runs.
    pub fn has_tiers(&self) -> bool {
        !self.deltas.is_empty() || !self.mem_runs.is_empty()
    }

    /// Number of records over `sorted` and every tier.
    pub(crate) fn len(&self) -> u64 {
        let deltas: u64 = self.deltas.iter().map(|d| d.stream.len()).sum();
        let mem: usize = self.mem_runs.iter().map(|m| m.items.len()).sum();
        self.sorted.len() + deltas + mem as u64
    }

    /// The relation in sweep order, without a sort: `usj_io`'s k-way merge
    /// of `sorted`, then the deltas, then the in-memory runs. Run pages are
    /// read (and charged) as the merge reaches them, and the merge charges
    /// its heap's work.
    pub(crate) fn merge(&self) -> SweepMerge<'a> {
        let deltas = self.deltas.iter().map(SnapshotRun::stream);
        let device = std::iter::once(self.sorted).chain(deltas).map(Run::device);
        let memory = self.mem_runs.iter().map(|m| Run::memory(m.items()));
        sweep_merge(device.chain(memory).collect())
    }
}

/// One persisted sweep-key-sorted run: its stream handle and bounding box
/// (the box prunes run scans in window/point selections).
#[derive(Debug, Clone)]
pub struct SnapshotRun {
    stream: ItemStream,
    bbox: Rect,
}

impl SnapshotRun {
    /// A persisted sorted run with the bounding box of its records.
    pub fn new(stream: ItemStream, bbox: Rect) -> Self {
        SnapshotRun { stream, bbox }
    }

    /// The persisted sorted run.
    pub fn stream(&self) -> &ItemStream {
        &self.stream
    }

    /// Bounding box of the run.
    pub fn bbox(&self) -> Rect {
        self.bbox
    }
}

/// One in-memory run (a frozen flush batch or a memtable copy):
/// sweep-key-sorted items plus their bounding box.
#[derive(Debug, Clone)]
pub struct MemRun {
    items: Arc<Vec<Item>>,
    bbox: Rect,
}

impl MemRun {
    /// Sweep-key-sorted items with their bounding box.
    pub fn new(items: Arc<Vec<Item>>, bbox: Rect) -> Self {
        MemRun { items, bbox }
    }

    /// The sorted items.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Bounding box of the run.
    pub fn bbox(&self) -> Rect {
        self.bbox
    }
}

/// One input relation of a spatial join.
///
/// The whole point of the PQ algorithm is that a relation may arrive either
/// with a spatial index or as a flat file; this enum is how callers express
/// that choice.
#[derive(Debug, Clone, Copy)]
pub enum JoinInput<'a> {
    /// The relation is indexed by a packed R-tree.
    Indexed(&'a RTree),
    /// The relation is a non-indexed stream of MBRs in arbitrary order.
    Stream(&'a ItemStream),
    /// The relation is a non-indexed stream already sorted by lower
    /// y-coordinate (for example the output of a previous sort), so a join
    /// can skip the sorting step.
    SortedStream(&'a ItemStream),
    /// The relation is registered in a dataset catalog, with a persisted
    /// index *and* a persisted sorted run: every algorithm skips its
    /// preparation I/O (no re-sort, no index build, no bbox scan). With
    /// tiers, the sweep-based algorithms merge the runs without sorting and
    /// the index-based ones index the merge.
    Cataloged(CatalogedInput<'a>),
}

impl<'a> JoinInput<'a> {
    /// Number of MBRs in the relation.
    pub fn len(&self) -> u64 {
        match self {
            JoinInput::Indexed(tree) => tree.num_items(),
            JoinInput::Stream(s) | JoinInput::SortedStream(s) => s.len(),
            JoinInput::Cataloged(c) => c.len(),
        }
    }

    /// Returns `true` if the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the relation is a cataloged one with tiers beside its
    /// indexed run (see [`CatalogedInput::has_tiers`]).
    pub fn has_tiers(&self) -> bool {
        matches!(self, JoinInput::Cataloged(c) if c.has_tiers())
    }

    /// Bounding box of the relation, if it is known without scanning
    /// (indexed inputs know it from the root directory rectangle, cataloged
    /// inputs from their registration record).
    pub fn known_bbox(&self) -> Option<Rect> {
        match self {
            JoinInput::Indexed(tree) => Some(tree.bbox()),
            JoinInput::Cataloged(c) => Some(c.bbox),
            _ => None,
        }
    }

    /// Materialises the relation as a y-sorted stream plus its bounding box.
    ///
    /// `bbox_hint` is honoured for *every* variant: a caller that already
    /// knows the data-space extent (a region-hinted join, an indexed input's
    /// root rectangle) gets it echoed back instead of the bbox folded during
    /// the sort, so downstream consumers see a consistent region.
    ///
    /// * A `SortedStream` is returned as-is (its bounding box is scanned
    ///   only if `bbox_hint` is absent).
    /// * A `Stream` is sorted with the external mergesort.
    /// * An `Indexed` relation is *dumped*: every node is read once in page
    ///   order (largely sequential I/O on a bulk-loaded tree), the leaf
    ///   rectangles are written to a scratch stream, and that stream is
    ///   sorted. This is what "SSSJ ignores the index" costs.
    /// * A `Cataloged` relation hands back its persisted run without any
    ///   I/O — the catalog's headline saving — or, with tiers, writes the
    ///   merge of its runs to a fresh stream.
    pub fn to_sorted_stream(
        &self,
        env: &mut SimEnv,
        bbox_hint: Option<Rect>,
    ) -> Result<(ItemStream, Rect)> {
        let (mut runs, bbox) = self.sorted_runs(env, bbox_hint, false)?;
        Ok((
            runs.pop().expect("a written last merge leaves one run"),
            bbox,
        ))
    }

    /// [`to_sorted_stream`](JoinInput::to_sorted_stream), except that with
    /// `last_merge_streams` a `Stream` or `Indexed` relation's sort stops
    /// at its last level ([`extsort::sort_to_runs`] with the merge fan-in):
    /// the relation in sweep order is then the merge of the runs returned.
    /// Any other relation is one run.
    pub(crate) fn sorted_runs(
        &self,
        env: &mut SimEnv,
        bbox_hint: Option<Rect>,
        last_merge_streams: bool,
    ) -> Result<(Vec<ItemStream>, Rect)> {
        match self {
            JoinInput::SortedStream(s) => {
                let bbox = match bbox_hint {
                    Some(b) => b,
                    None => scan_bbox(env, s)?,
                };
                Ok((vec![(*s).clone()], bbox))
            }
            JoinInput::Stream(s) => sort_runs(env, s, bbox_hint, last_merge_streams),
            JoinInput::Indexed(tree) => {
                let dumped = dump_tree(env, tree)?;
                sort_runs(env, &dumped, bbox_hint, last_merge_streams)
            }
            JoinInput::Cataloged(c) => {
                Ok((vec![cataloged_run(env, c)?], bbox_hint.unwrap_or(c.bbox)))
            }
        }
    }

    /// Materialises the relation as an *unsorted* stream (used by PBSM, which
    /// partitions rather than sorts).
    pub fn to_stream(&self, env: &mut SimEnv) -> Result<ItemStream> {
        match self {
            JoinInput::Stream(s) | JoinInput::SortedStream(s) => Ok((*s).clone()),
            JoinInput::Indexed(tree) => dump_tree(env, tree),
            // Sorted is a perfectly good unsorted stream too.
            JoinInput::Cataloged(c) => cataloged_run(env, c),
        }
    }
}

/// `s` sorted in sweep order into one run, or with `last_merge_streams`
/// into the runs of the sort's last merge, plus `bbox_hint` or the box the
/// sort gathered.
fn sort_runs(
    env: &mut SimEnv,
    s: &ItemStream,
    bbox_hint: Option<Rect>,
    last_merge_streams: bool,
) -> Result<(Vec<ItemStream>, Rect)> {
    let k = if last_merge_streams {
        extsort::merge_fan_in(env.memory_limit, s.pages_per_block())
    } else {
        1
    };
    let (runs, stats) = extsort::sort_to_runs(env, s, Item::sweep_key, Item::cmp_by_lower_y, k)?;
    Ok((runs, bbox_hint.unwrap_or(stats.bbox)))
}

/// A cataloged relation as one sorted stream: its persisted run, or with
/// tiers the merge of its runs written out (charged I/O), in blocks of the
/// default size or of the whole merge if that is smaller: the writer holds
/// a block's buffer from its first record on.
fn cataloged_run(env: &mut SimEnv, c: &CatalogedInput<'_>) -> Result<ItemStream> {
    if !c.has_tiers() {
        return Ok(c.sorted.clone());
    }
    let pages = c.len().div_ceil(ITEMS_PER_PAGE as u64);
    let out = ItemStreamWriter::new(env, pages.clamp(1, DEFAULT_PAGES_PER_BLOCK));
    c.merge().write(env, out)
}

/// Reads every leaf of a tree once, in page order, writing the data
/// rectangles to a fresh stream.
fn dump_tree(env: &mut SimEnv, tree: &RTree) -> Result<ItemStream> {
    let mut writer = ItemStreamWriter::with_default_block(env);
    // Nodes were bulk-loaded bottom-up, so every page from the first leaf to
    // the root belongs to the tree; visiting them in page order is the
    // sequential scan a real system would do. The root is the last page, so
    // the leaves come first.
    let first = tree.root() + 1 - tree.nodes();
    for page in first..=tree.root() {
        let node = tree.read_node(env, page)?;
        if node.kind() == NodeKind::Leaf {
            for e in node.entries() {
                env.charge(CpuOp::ItemMove, 1);
                writer.push(env, e.as_item())?;
            }
        }
    }
    writer.finish(env)
}

/// One sequential pass computing the bounding box of a stream.
fn scan_bbox(env: &mut SimEnv, s: &ItemStream) -> Result<Rect> {
    let mut bbox = Rect::empty();
    let mut r = s.reader();
    while let Some(it) = r.next(env)? {
        env.charge(CpuOp::RectTest, 1);
        bbox = bbox.union(&it.rect);
    }
    if bbox.is_empty() {
        bbox = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
    }
    Ok(bbox)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_io::MachineConfig;

    fn env() -> SimEnv {
        SimEnv::new(MachineConfig::machine3())
    }

    fn items(n: u32) -> Vec<Item> {
        (0..n)
            .map(|i| {
                let f = (i * 7 % 97) as f32;
                Item::new(Rect::from_coords(f, f * 0.5, f + 2.0, f * 0.5 + 2.0), i)
            })
            .collect()
    }

    #[test]
    fn stream_input_reports_len_and_tiers() {
        let mut env = env();
        let data = items(1000);
        let s = ItemStream::from_items(&mut env, &data).unwrap();
        let input = JoinInput::Stream(&s);
        assert_eq!(input.len(), 1000);
        assert!(!input.is_empty());
        assert!(!input.has_tiers());
        assert!(input.known_bbox().is_none());
    }

    #[test]
    fn indexed_input_reports_tree_properties() {
        let mut env = env();
        let data = items(1000);
        let tree = RTree::bulk_load(&mut env, &data).unwrap();
        let input = JoinInput::Indexed(&tree);
        assert_eq!(input.len(), 1000);
        assert_eq!(input.known_bbox(), Some(tree.bbox()));
    }

    #[test]
    fn to_sorted_stream_sorts_all_variants_identically() {
        let mut env = env();
        let data = items(2000);
        let s = ItemStream::from_items(&mut env, &data).unwrap();
        let tree = RTree::bulk_load(&mut env, &data).unwrap();

        let (from_stream, bbox1) = JoinInput::Stream(&s)
            .to_sorted_stream(&mut env, None)
            .unwrap();
        let (from_tree, bbox2) = JoinInput::Indexed(&tree)
            .to_sorted_stream(&mut env, None)
            .unwrap();

        let a = from_stream.read_all(&mut env).unwrap();
        let b = from_tree.read_all(&mut env).unwrap();
        assert_eq!(a.len(), data.len());
        assert_eq!(b.len(), data.len());
        assert!(a.windows(2).all(|w| w[0].rect.lo.y <= w[1].rect.lo.y));
        assert!(b.windows(2).all(|w| w[0].rect.lo.y <= w[1].rect.lo.y));
        // Same multiset of ids regardless of the source representation.
        let mut ia: Vec<u32> = a.iter().map(|i| i.id).collect();
        let mut ib: Vec<u32> = b.iter().map(|i| i.id).collect();
        ia.sort_unstable();
        ib.sort_unstable();
        assert_eq!(ia, ib);
        // Both bounding boxes cover all the data.
        for it in &data {
            assert!(bbox1.contains(&it.rect));
            assert!(bbox2.contains(&it.rect));
        }
    }

    #[test]
    fn bbox_hint_is_honoured_for_stream_and_indexed_variants() {
        let mut env = env();
        let data = items(300);
        let s = ItemStream::from_items(&mut env, &data).unwrap();
        let tree = RTree::bulk_load(&mut env, &data).unwrap();
        let hint = Rect::from_coords(-5.0, -5.0, 500.0, 500.0);
        let (_, b1) = JoinInput::Stream(&s)
            .to_sorted_stream(&mut env, Some(hint))
            .unwrap();
        let (_, b2) = JoinInput::Indexed(&tree)
            .to_sorted_stream(&mut env, Some(hint))
            .unwrap();
        assert_eq!(b1, hint);
        assert_eq!(b2, hint);
    }

    #[test]
    fn sorted_stream_passthrough_uses_hint_without_scanning() {
        let mut env = env();
        let mut data = items(500);
        data.sort_unstable_by(Item::cmp_by_lower_y);
        let s = ItemStream::from_items(&mut env, &data).unwrap();
        let hint = Rect::from_coords(-10.0, -10.0, 1000.0, 1000.0);
        let m = env.begin();
        let (out, bbox) = JoinInput::SortedStream(&s)
            .to_sorted_stream(&mut env, Some(hint))
            .unwrap();
        let (io, _) = env.since(&m);
        assert_eq!(io.pages_read, 0, "hinted pass-through must not re-scan");
        assert_eq!(bbox, hint);
        assert_eq!(out.len(), 500);
    }
}
