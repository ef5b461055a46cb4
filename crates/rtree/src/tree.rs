//! The [`RTree`] handle: node access, window queries and statistics.

use std::ops::ControlFlow;

use usj_geom::{Item, Point, Rect};
use usj_io::{CpuOp, IoSimError, PageId, Result, SimEnv, PAGE_SIZE};

use crate::node::{NodeKind, NodeView};
use crate::store::NodeStore;

/// A bulk-loaded, read-only R-tree stored on the simulated device.
///
/// The tree is immutable after bulk loading, matching the paper's setup
/// (packed trees built once per data set; Section 6.3 discusses separately
/// what repeated updates would do to the layout).
#[derive(Debug, Clone)]
pub struct RTree {
    root: PageId,
    height: u32,
    num_items: u64,
    /// Number of nodes on each level, leaves first.
    level_counts: Vec<u64>,
    bbox: Rect,
}

/// Summary statistics of a tree, used by Table 2 and the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RTreeStats {
    /// Total number of nodes (the "lower bound" page count of Table 4).
    pub nodes: u64,
    /// Number of leaf nodes.
    pub leaves: u64,
    /// Number of internal nodes.
    pub internal: u64,
    /// Height of the tree (1 for a single leaf).
    pub height: u32,
    /// Number of data items indexed.
    pub items: u64,
    /// Size of the index on disk in bytes.
    pub size_bytes: u64,
    /// Average leaf fill relative to the maximum fanout.
    pub avg_leaf_fill: f64,
}

impl RTree {
    /// Internal constructor used by the bulk loader.
    pub(crate) fn from_build(
        root: PageId,
        height: u32,
        num_items: u64,
        level_counts: Vec<u64>,
        bbox: Rect,
    ) -> Self {
        RTree {
            root,
            height,
            num_items,
            level_counts,
            bbox,
        }
    }

    /// Bulk loads a tree from an in-memory slice with the default
    /// configuration (convenience wrapper around [`crate::bulk::bulk_load`]).
    pub fn bulk_load(env: &mut SimEnv, items: &[Item]) -> Result<RTree> {
        crate::bulk::bulk_load(env, items, crate::bulk::BulkLoadConfig::default())
    }

    /// Bulk loads a tree from an item stream with the default configuration.
    pub fn bulk_load_stream(env: &mut SimEnv, input: &usj_io::ItemStream) -> Result<RTree> {
        crate::bulk::bulk_load_stream(env, input, crate::bulk::BulkLoadConfig::default())
    }

    /// Page number of the root node.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Height of the tree (a single-leaf tree has height 1).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of indexed items.
    pub fn num_items(&self) -> u64 {
        self.num_items
    }

    /// Number of leaf nodes.
    pub fn num_leaves(&self) -> u64 {
        self.level_counts.first().copied().unwrap_or(0)
    }

    /// Number of internal nodes.
    pub fn num_internal(&self) -> u64 {
        self.level_counts.iter().skip(1).sum()
    }

    /// Total number of nodes; this is the paper's "lower bound" on page
    /// requests for a dense join involving the whole tree.
    pub fn nodes(&self) -> u64 {
        self.level_counts.iter().sum()
    }

    /// Nodes per level, leaves first.
    pub fn level_counts(&self) -> &[u64] {
        &self.level_counts
    }

    /// Size of the index on disk, in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.nodes() * PAGE_SIZE as u64
    }

    /// Bounding box of the indexed data.
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// Summary statistics.
    pub fn stats(&self) -> RTreeStats {
        let leaves = self.num_leaves();
        RTreeStats {
            nodes: self.nodes(),
            leaves,
            internal: self.num_internal(),
            height: self.height,
            items: self.num_items,
            size_bytes: self.size_bytes(),
            avg_leaf_fill: if leaves == 0 {
                0.0
            } else {
                self.num_items as f64 / (leaves as f64 * crate::node::MAX_FANOUT as f64)
            },
        }
    }

    /// Reads a node directly from the device (one page request), in place.
    pub fn read_node(&self, env: &mut SimEnv, page: PageId) -> Result<NodeView> {
        read_node(env, page)
    }

    /// A cursor over the leaves in the order the bulk loader packed them —
    /// for a Hilbert-loaded tree, their entries read one leaf after the
    /// other are in `(Hilbert value of the centre in bbox,
    /// Item::cmp_by_lower_y)` order.
    ///
    /// The loader writes every leaf, left to right, on consecutive pages
    /// before any internal node and the root last, so the leaves are the
    /// [`num_leaves`](RTree::num_leaves) pages starting
    /// [`nodes`](RTree::nodes)` - 1` pages before the root: the cursor reads
    /// each of them once, in page order, and no internal node.
    pub fn leaf_cursor(&self) -> LeafCursor {
        let first = (self.root + 1).saturating_sub(self.nodes());
        LeafCursor {
            next: first,
            end: first + self.num_leaves(),
        }
    }

    /// Window query: returns every indexed item whose MBR intersects `window`.
    ///
    /// Performs a depth-first traversal reading only nodes whose directory
    /// rectangle intersects the window.
    pub fn window_query(&self, env: &mut SimEnv, window: &Rect) -> Result<Vec<Item>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            let node = self.read_node(env, page)?;
            env.charge(CpuOp::RectTest, node.len() as u64);
            for e in node.entries() {
                if !e.rect.intersects(window) {
                    continue;
                }
                match node.kind() {
                    NodeKind::Leaf => out.push(e.as_item()),
                    NodeKind::Internal => stack.push(e.child_page()),
                }
            }
        }
        Ok(out)
    }

    /// Window query through a [`NodeStore`], streaming every matching item
    /// into `visit` with [`ControlFlow`]-based early termination.
    ///
    /// This is the service-grade form of [`window_query`](RTree::window_query):
    /// node reads go through the store's buffer pool (repeat queries over a
    /// cataloged tree hit the cache instead of the device), and the consumer
    /// can stop the traversal — a `LIMIT`ed or cancelled selection stops
    /// paying I/O at the break point. Returns `true` when the traversal ran
    /// to completion, `false` when `visit` broke it off.
    pub fn window_query_via(
        &self,
        env: &mut SimEnv,
        store: &mut NodeStore,
        window: &Rect,
        visit: &mut dyn FnMut(Item) -> ControlFlow<()>,
    ) -> Result<bool> {
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            let node = store.read(env, page)?;
            // One rectangle test per entry, charged per node; a break
            // charges the entries tested up to it.
            for (tested, e) in node.entries().enumerate() {
                if !e.rect.intersects(window) {
                    continue;
                }
                match node.kind() {
                    NodeKind::Leaf => {
                        if visit(e.as_item()).is_break() {
                            env.charge(CpuOp::RectTest, tested as u64 + 1);
                            return Ok(false);
                        }
                    }
                    NodeKind::Internal => stack.push(e.child_page()),
                }
            }
            env.charge(CpuOp::RectTest, node.len() as u64);
        }
        Ok(true)
    }

    /// Window query through a [`NodeStore`], collecting the matching items.
    pub fn window_query_pooled(
        &self,
        env: &mut SimEnv,
        store: &mut NodeStore,
        window: &Rect,
    ) -> Result<Vec<Item>> {
        let mut out = Vec::new();
        self.window_query_via(env, store, window, &mut |it| {
            out.push(it);
            ControlFlow::Continue(())
        })?;
        Ok(out)
    }

    /// Point (stabbing) query through a [`NodeStore`]: every indexed item
    /// whose MBR contains `point`.
    pub fn point_query(
        &self,
        env: &mut SimEnv,
        store: &mut NodeStore,
        point: &Point,
    ) -> Result<Vec<Item>> {
        self.window_query_pooled(
            env,
            store,
            &Rect::from_coords(point.x, point.y, point.x, point.y),
        )
    }

    /// Counts, from the directory alone, what a traversal pruned to
    /// `window` reads: the root, every internal node whose directory
    /// rectangle intersects `window` (these are read and charged), their
    /// entries, and the leaves whose directory rectangle intersects
    /// `window` (counted, not read). The cost-based join selector prices
    /// the indexed plan from it.
    pub fn probe(&self, env: &mut SimEnv, window: &Rect) -> Result<Probe> {
        let mut probe = Probe {
            leaves: 1,
            reads: vec![(self.bbox.lo.y, self.root)],
            ..Probe::default()
        };
        if self.height <= 1 {
            return Ok(probe);
        }
        probe.leaves = 0;
        let mut stack = vec![(self.root, self.height)];
        while let Some((page, level)) = stack.pop() {
            let node = self.read_node(env, page)?;
            env.charge(CpuOp::RectTest, node.len() as u64);
            probe.internal += 1;
            probe.internal_entries += node.len() as u64;
            for e in node.entries() {
                if !e.rect.intersects(window) {
                    continue;
                }
                probe.reads.push((e.rect.lo.y, e.child_page()));
                if level == 2 {
                    // Children of this node are leaves.
                    probe.leaves += 1;
                } else {
                    stack.push((e.child_page(), level - 1));
                }
            }
        }
        Ok(probe)
    }

    /// What a traversal that prunes nothing reads: every node. Nothing is
    /// read to say so, so the nodes' positions are not listed.
    pub fn whole(&self) -> Probe {
        Probe {
            internal: self.num_internal(),
            internal_entries: self.nodes() - 1,
            leaves: self.num_leaves(),
            reads: Vec::new(),
        }
    }
}

/// The nodes of a tree a traversal pruned to a window reads
/// ([`RTree::probe`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Probe {
    /// Internal nodes read, the root first.
    pub internal: u64,
    /// Entries of those internal nodes.
    pub internal_entries: u64,
    /// Leaves read.
    pub leaves: u64,
    /// The lower y and the page of every node read (internal nodes and
    /// leaves alike), from the directory rectangles; empty for
    /// [`RTree::whole`], which reads no directory.
    pub reads: Vec<(f32, PageId)>,
}

/// Reads the node on `page` in place (one page request), charging one
/// `ItemMove` per entry.
fn read_node(env: &mut SimEnv, page: PageId) -> Result<NodeView> {
    let node = NodeView::new(env.device.read_page(page)?)?;
    env.charge(CpuOp::ItemMove, node.len() as u64);
    Ok(node)
}

/// Sequential reader of a tree's leaves; see [`RTree::leaf_cursor`].
#[derive(Debug)]
pub struct LeafCursor {
    next: PageId,
    end: PageId,
}

impl LeafCursor {
    /// The next leaf, or `None` past the last leaf. Each call reads (and
    /// charges) one leaf page, shared with the device rather than copied; a
    /// failed read leaves the cursor where it was.
    pub fn next_leaf(&mut self, env: &mut SimEnv) -> Result<Option<NodeView>> {
        if self.next == self.end {
            return Ok(None);
        }
        let leaf = read_node(env, self.next)?;
        if leaf.kind() != NodeKind::Leaf {
            return Err(IoSimError::CorruptRecord(
                "leaf cursor reached an internal node",
            ));
        }
        self.next += 1;
        Ok(Some(leaf))
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

    fn brute_query(items: &[Item], window: &Rect) -> Vec<u32> {
        let mut ids: Vec<u32> = items
            .iter()
            .filter(|it| it.rect.intersects(window))
            .map(|it| it.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn window_query_matches_brute_force() {
        let mut env = env();
        let items = grid_items(40);
        let tree = RTree::bulk_load(&mut env, &items).unwrap();
        for window in [
            Rect::from_coords(0.0, 0.0, 50.0, 50.0),
            Rect::from_coords(100.0, 100.0, 102.0, 300.0),
            Rect::from_coords(-10.0, -10.0, -1.0, -1.0),
            Rect::from_coords(0.0, 0.0, 400.0, 400.0),
        ] {
            let mut got: Vec<u32> = tree
                .window_query(&mut env, &window)
                .unwrap()
                .iter()
                .map(|it| it.id)
                .collect();
            got.sort_unstable();
            assert_eq!(got, brute_query(&items, &window), "window {window:?}");
        }
    }

    #[test]
    fn query_reads_fewer_pages_than_full_scan_for_small_windows() {
        let mut env = env();
        let items = grid_items(60);
        let tree = RTree::bulk_load(&mut env, &items).unwrap();
        env.device.reset_stats();
        let window = Rect::from_coords(0.0, 0.0, 30.0, 30.0);
        let _ = tree.window_query(&mut env, &window).unwrap();
        let pages = env.device.stats().pages_read;
        assert!(
            pages < tree.nodes(),
            "small window query should not touch all {} nodes (touched {pages})",
            tree.nodes()
        );
    }

    #[test]
    fn stats_are_consistent() {
        let mut env = env();
        let items = grid_items(50);
        let tree = RTree::bulk_load(&mut env, &items).unwrap();
        let s = tree.stats();
        assert_eq!(s.nodes, s.leaves + s.internal);
        assert_eq!(s.items, 2500);
        assert_eq!(s.size_bytes, s.nodes * PAGE_SIZE as u64);
        assert!(s.avg_leaf_fill > 0.5 && s.avg_leaf_fill <= 1.0);
        assert_eq!(s.height, tree.height());
        assert_eq!(tree.level_counts().len() as u32, tree.height());
    }

    #[test]
    fn pooled_reads_hit_the_buffer_pool() {
        let mut env = env();
        let items = grid_items(30);
        let tree = RTree::bulk_load(&mut env, &items).unwrap();
        let mut store = NodeStore::with_capacity_bytes(64 * PAGE_SIZE);
        env.device.reset_stats();
        let root = tree.root();
        let _ = store.read(&mut env, root).unwrap();
        let _ = store.read(&mut env, root).unwrap();
        let _ = store.read(&mut env, root).unwrap();
        assert_eq!(env.device.stats().pages_read, 1);
        assert_eq!(store.stats().hits, 2);
    }

    #[test]
    fn leaves_intersecting_bounds_the_join_extent() {
        let mut env = env();
        let items = grid_items(60);
        let tree = RTree::bulk_load(&mut env, &items).unwrap();
        let all = tree.probe(&mut env, &tree.bbox()).unwrap();
        let whole = tree.whole();
        assert_eq!(
            (all.internal, all.internal_entries, all.leaves),
            (whole.internal, whole.internal_entries, whole.leaves)
        );
        // Every node once, each with its own page.
        let mut pages: Vec<PageId> = all.reads.iter().map(|&(_, page)| page).collect();
        pages.sort_unstable();
        pages.dedup();
        assert_eq!(pages.len() as u64, tree.nodes());
        let some = tree
            .probe(&mut env, &Rect::from_coords(0.0, 0.0, 30.0, 30.0))
            .unwrap();
        assert!(some.leaves >= 1);
        assert!(some.leaves < all.leaves);
        assert_eq!(some.reads.len() as u64, some.internal + some.leaves);
        let none = tree
            .probe(&mut env, &Rect::from_coords(-100.0, -100.0, -50.0, -50.0))
            .unwrap();
        assert_eq!(none.leaves, 0);
        // The root is read whatever the window.
        assert_eq!(none.internal, 1);
    }

    #[test]
    fn pooled_window_query_matches_the_direct_one_and_caches_repeats() {
        let mut env = env();
        let items = grid_items(40);
        let tree = RTree::bulk_load(&mut env, &items).unwrap();
        let window = Rect::from_coords(55.0, 55.0, 180.0, 180.0);
        let mut store = NodeStore::with_capacity_bytes(1 << 20);

        let mut direct: Vec<u32> = tree
            .window_query(&mut env, &window)
            .unwrap()
            .iter()
            .map(|it| it.id)
            .collect();
        direct.sort_unstable();

        env.device.reset_stats();
        let mut pooled: Vec<u32> = tree
            .window_query_pooled(&mut env, &mut store, &window)
            .unwrap()
            .iter()
            .map(|it| it.id)
            .collect();
        pooled.sort_unstable();
        assert_eq!(pooled, direct);
        let first_pass = env.device.stats().pages_read;
        assert!(first_pass > 0);

        // The repeat query is served from the store.
        let again = tree
            .window_query_pooled(&mut env, &mut store, &window)
            .unwrap();
        assert_eq!(again.len(), pooled.len());
        assert_eq!(
            env.device.stats().pages_read,
            first_pass,
            "repeat must be all hits"
        );
    }

    #[test]
    fn window_query_via_stops_early_on_break() {
        let mut env = env();
        let items = grid_items(60);
        let tree = RTree::bulk_load(&mut env, &items).unwrap();
        let mut store = NodeStore::with_capacity_bytes(1 << 20);
        env.device.reset_stats();
        let mut seen = 0u32;
        let completed = tree
            .window_query_via(&mut env, &mut store, &tree.bbox(), &mut |_| {
                seen += 1;
                if seen >= 5 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
            .unwrap();
        assert!(!completed);
        assert_eq!(seen, 5);
        assert!(
            env.device.stats().pages_read < tree.nodes(),
            "a broken traversal must not touch the whole tree"
        );
    }

    #[test]
    fn point_query_matches_brute_force() {
        let mut env = env();
        let items = grid_items(30);
        let tree = RTree::bulk_load(&mut env, &items).unwrap();
        let mut store = NodeStore::with_capacity_bytes(1 << 20);
        for p in [
            Point::new(12.0, 42.0),
            Point::new(7.0, 7.0),
            Point::new(-3.0, 4.0),
        ] {
            let mut got: Vec<u32> = tree
                .point_query(&mut env, &mut store, &p)
                .unwrap()
                .iter()
                .map(|it| it.id)
                .collect();
            got.sort_unstable();
            let mut expected: Vec<u32> = items
                .iter()
                .filter(|it| it.rect.contains(&Rect::from_coords(p.x, p.y, p.x, p.y)))
                .map(|it| it.id)
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "point {p:?}");
        }
    }

    #[test]
    fn empty_tree_window_query_returns_nothing() {
        let mut env = env();
        let tree = RTree::bulk_load(&mut env, &[]).unwrap();
        let got = tree
            .window_query(&mut env, &Rect::from_coords(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        assert!(got.is_empty());
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.num_internal(), 0);
    }
}
