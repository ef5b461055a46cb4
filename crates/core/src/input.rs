//! Join inputs: indexed or non-indexed relations.

use usj_geom::Rect;
use usj_io::{extsort, CpuOp, ItemStream, ItemStreamWriter, Result, SimEnv};
use usj_rtree::{NodeKind, RTree};

/// A relation registered in a dataset catalog: *both* of its prepared
/// representations — the bulk-loaded R-tree and the y-sorted run — persisted
/// on the device, plus the known bounding box.
///
/// This is what "register once, query many" buys: an algorithm that wants
/// the index uses [`tree`](CatalogedInput::tree) without bulk-loading, an
/// algorithm that wants sorted input uses [`sorted`](CatalogedInput::sorted)
/// without re-sorting, and nobody scans for the bounding box. The handle is
/// produced by the service crate's `Catalog`; it is a plain borrow so the
/// core crate stays independent of the catalog implementation.
#[derive(Debug, Clone, Copy)]
pub struct CatalogedInput<'a> {
    /// The persisted packed R-tree over the relation.
    pub tree: &'a RTree,
    /// The persisted stream of the relation's MBRs, sorted by lower
    /// y-coordinate.
    pub sorted: &'a ItemStream,
    /// Bounding box of the relation, recorded at registration.
    pub bbox: Rect,
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
    /// preparation I/O (no re-sort, no index build, no bbox scan).
    Cataloged(CatalogedInput<'a>),
}

impl<'a> JoinInput<'a> {
    /// Number of MBRs in the relation.
    pub fn len(&self) -> u64 {
        match self {
            JoinInput::Indexed(tree) => tree.num_items(),
            JoinInput::Stream(s) | JoinInput::SortedStream(s) => s.len(),
            JoinInput::Cataloged(c) => c.sorted.len(),
        }
    }

    /// Returns `true` if the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if the relation has an R-tree.
    pub fn is_indexed(&self) -> bool {
        matches!(self, JoinInput::Indexed(_) | JoinInput::Cataloged(_))
    }

    /// Number of disk pages holding the relation's raw data (for indexed
    /// inputs this is the size of the index, the quantity the paper's cost
    /// comparison in Section 6.3 uses).
    pub fn pages(&self) -> u64 {
        match self {
            JoinInput::Indexed(tree) => tree.nodes(),
            JoinInput::Stream(s) | JoinInput::SortedStream(s) => s.pages(),
            JoinInput::Cataloged(c) => c.tree.nodes(),
        }
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
    pub fn to_sorted_stream(
        &self,
        env: &mut SimEnv,
        bbox_hint: Option<Rect>,
    ) -> Result<(ItemStream, Rect)> {
        match self {
            JoinInput::SortedStream(s) => {
                let bbox = match bbox_hint {
                    Some(b) => b,
                    None => scan_bbox(env, s)?,
                };
                Ok(((*s).clone(), bbox))
            }
            JoinInput::Stream(s) => {
                let (sorted, stats) = extsort::external_sort_by_key(env, s, usj_geom::Item::sweep_key, usj_geom::Item::cmp_by_lower_y)?;
                Ok((sorted, bbox_hint.unwrap_or(stats.bbox)))
            }
            JoinInput::Indexed(tree) => {
                let dumped = dump_tree(env, tree)?;
                let (sorted, stats) = extsort::external_sort_by_key(
                    env,
                    &dumped,
                    usj_geom::Item::sweep_key,
                    usj_geom::Item::cmp_by_lower_y,
                )?;
                Ok((sorted, bbox_hint.unwrap_or(stats.bbox)))
            }
            // The sorted run was persisted at registration: hand it back
            // without any I/O at all. This is the catalog's headline saving.
            JoinInput::Cataloged(c) => Ok((c.sorted.clone(), bbox_hint.unwrap_or(c.bbox))),
        }
    }

    /// Materialises the relation as an *unsorted* stream (used by PBSM, which
    /// partitions rather than sorts).
    pub fn to_stream(&self, env: &mut SimEnv) -> Result<ItemStream> {
        match self {
            JoinInput::Stream(s) | JoinInput::SortedStream(s) => Ok((*s).clone()),
            JoinInput::Indexed(tree) => dump_tree(env, tree),
            // Sorted is a perfectly good unsorted stream too, and it is
            // already on the device.
            JoinInput::Cataloged(c) => Ok(c.sorted.clone()),
        }
    }
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
    use usj_geom::Item;
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
    fn stream_input_reports_len_and_pages() {
        let mut env = env();
        let data = items(1000);
        let s = ItemStream::from_items(&mut env, &data).unwrap();
        let input = JoinInput::Stream(&s);
        assert_eq!(input.len(), 1000);
        assert!(!input.is_empty());
        assert!(!input.is_indexed());
        assert_eq!(input.pages(), s.pages());
        assert!(input.known_bbox().is_none());
    }

    #[test]
    fn indexed_input_reports_tree_properties() {
        let mut env = env();
        let data = items(1000);
        let tree = RTree::bulk_load(&mut env, &data).unwrap();
        let input = JoinInput::Indexed(&tree);
        assert_eq!(input.len(), 1000);
        assert!(input.is_indexed());
        assert_eq!(input.pages(), tree.nodes());
        assert_eq!(input.known_bbox(), Some(tree.bbox()));
    }

    #[test]
    fn to_sorted_stream_sorts_all_variants_identically() {
        let mut env = env();
        let data = items(2000);
        let s = ItemStream::from_items(&mut env, &data).unwrap();
        let tree = RTree::bulk_load(&mut env, &data).unwrap();

        let (from_stream, bbox1) = JoinInput::Stream(&s).to_sorted_stream(&mut env, None).unwrap();
        let (from_tree, bbox2) = JoinInput::Indexed(&tree).to_sorted_stream(&mut env, None).unwrap();

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
        let (_, b1) = JoinInput::Stream(&s).to_sorted_stream(&mut env, Some(hint)).unwrap();
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
