//! The buffer-pool-backed node store.
//!
//! A [`NodeStore`] packages an [`LruBufferPool`] and the node view into one
//! reusable component: a page-addressable node cache that any traversal —
//! the ST join, window and point selection queries, the catalog's repeated
//! service queries — reads through. Hits cost nothing; misses are one page
//! request on the device and show up in the I/O statistics, exactly like the
//! paper's 22 MB ST pool. Either way a read hands out the pool's page
//! shared, as a [`NodeView`], so a node visit copies and allocates nothing.
//!
//! A store can be *governed*: created against a [`MemoryGauge`], its resident
//! pages are charged to the environment's memory budget and shed under
//! pressure instead of overcommitting (see
//! [`LruBufferPool::with_capacity_bytes_gauged`]).

use usj_io::{CpuOp, LruBufferPool, MemoryGauge, PageId, Result, SimEnv};

use crate::node::NodeView;

/// A buffer-pool-backed, page-addressable R-tree node cache.
#[derive(Debug)]
pub struct NodeStore {
    pool: LruBufferPool,
}

impl NodeStore {
    /// Creates a store holding at most `bytes` of resident node pages
    /// (rounded down to whole pages, at least one).
    pub fn with_capacity_bytes(bytes: usize) -> Self {
        NodeStore {
            pool: LruBufferPool::with_capacity_bytes(bytes),
        }
    }

    /// Creates a store whose resident pages are charged to `gauge`; the
    /// capacity is clamped to the gauge's current headroom, so an oversized
    /// configuration degrades to more page requests instead of overcommitting
    /// the memory budget.
    pub fn with_capacity_bytes_gauged(bytes: usize, gauge: &MemoryGauge) -> Self {
        NodeStore {
            pool: LruBufferPool::with_capacity_bytes_gauged(bytes, gauge),
        }
    }

    /// Reads one node through the pool, charging one `ItemMove` per entry
    /// (the paper's cost of bringing the node's entries in, whether or not
    /// a scan reaches them all).
    pub fn read(&mut self, env: &mut SimEnv, page: PageId) -> Result<NodeView> {
        let node = NodeView::new(self.pool.get(&mut env.device, page)?)?;
        env.charge(CpuOp::ItemMove, node.len() as u64);
        Ok(node)
    }

    /// Hit/miss/eviction statistics of the underlying pool. The `misses`
    /// counter is the traversal's *page request* count (Table 4).
    pub fn stats(&self) -> usj_io::buffer::BufferPoolStats {
        self.pool.stats()
    }

    /// Number of node pages currently resident.
    pub fn resident_pages(&self) -> usize {
        self.pool.resident_pages()
    }

    /// Maximum number of resident node pages.
    pub fn capacity_pages(&self) -> usize {
        self.pool.capacity_pages()
    }

    /// Empties the store (statistics are kept, gauge bytes released).
    pub fn clear(&mut self) {
        self.pool.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RTree;
    use usj_geom::{Item, Rect};
    use usj_io::{MachineConfig, PAGE_SIZE};

    fn env() -> SimEnv {
        SimEnv::new(MachineConfig::machine3())
    }

    fn items(n: u32) -> Vec<Item> {
        (0..n)
            .map(|i| {
                let (x, y) = ((i % 40) as f32, (i / 40) as f32);
                Item::new(Rect::from_coords(x, y, x + 0.8, y + 0.8), i)
            })
            .collect()
    }

    #[test]
    fn repeated_reads_hit_the_store() {
        let mut env = env();
        let tree = RTree::bulk_load(&mut env, &items(2000)).unwrap();
        let mut store = NodeStore::with_capacity_bytes(64 * PAGE_SIZE);
        env.device.reset_stats();
        for _ in 0..3 {
            let _ = store.read(&mut env, tree.root()).unwrap();
        }
        assert_eq!(env.device.stats().pages_read, 1);
        assert_eq!(store.stats().hits, 2);
        assert_eq!(store.stats().misses, 1);
    }

    #[test]
    fn gauged_store_respects_the_memory_budget() {
        let mut env = env().with_memory_limit(4 * PAGE_SIZE);
        let tree = RTree::bulk_load(&mut env, &items(4000)).unwrap();
        assert!(
            tree.nodes() > 8,
            "tree must span more pages than the budget"
        );
        let mut store = NodeStore::with_capacity_bytes_gauged(1 << 20, &env.memory);
        assert!(store.capacity_pages() <= 4);
        let first = tree.root() + 1 - tree.nodes();
        for page in first..=tree.root() {
            let _ = store.read(&mut env, page).unwrap();
            assert!(env.memory.current() <= 4 * PAGE_SIZE);
        }
        assert!(store.stats().evictions > 0, "a starved store must evict");
        store.clear();
        assert_eq!(env.memory.current(), 0);
    }
}
