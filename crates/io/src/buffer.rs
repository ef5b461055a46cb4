//! LRU buffer pool.
//!
//! The synchronized R-tree traversal (ST) revisits index pages, so the paper
//! gives it a generous 22 MB LRU buffer pool (Section 3.3). The pool sits in
//! front of the simulated device: hits are free, misses read the page from the
//! device (and therefore show up in the I/O statistics as page requests).

use std::collections::{BTreeMap, HashMap};

use crate::device::BlockDevice;
use crate::error::Result;
use crate::gauge::{MemoryGauge, MemoryReservation};
use crate::page::{Page, PageId, PAGE_SIZE};

/// Statistics kept by the buffer pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Page requests satisfied from the pool.
    pub hits: u64,
    /// Page requests that had to go to the device.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

impl BufferPoolStats {
    /// Total page requests seen by the pool.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of requests served from the pool (0 when no requests yet).
    pub fn hit_ratio(&self) -> f64 {
        if self.requests() == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests() as f64
        }
    }
}

/// A least-recently-used page cache in front of the simulated device.
#[derive(Debug)]
pub struct LruBufferPool {
    capacity_pages: usize,
    /// page -> (the device's page, shared; LRU stamp of the most recent use)
    cache: HashMap<PageId, (Page, u64)>,
    /// LRU stamp -> page, for O(log n) victim selection.
    lru: BTreeMap<u64, PageId>,
    next_stamp: u64,
    stats: BufferPoolStats,
    /// Gauge claim on the resident pages, when the pool is governed (see
    /// [`LruBufferPool::with_capacity_bytes_gauged`]). Grows on insert and
    /// shrinks on eviction, so the pool's footprint is measured, not assumed.
    reservation: Option<MemoryReservation>,
}

impl LruBufferPool {
    /// Creates a pool holding at most `capacity_pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pages` is zero.
    pub fn new(capacity_pages: usize) -> Self {
        assert!(
            capacity_pages > 0,
            "buffer pool must hold at least one page"
        );
        LruBufferPool {
            capacity_pages,
            cache: HashMap::with_capacity(capacity_pages),
            lru: BTreeMap::new(),
            next_stamp: 0,
            stats: BufferPoolStats::default(),
            reservation: None,
        }
    }

    /// Creates a pool sized in bytes (rounded down to whole pages), matching
    /// the paper's "22 MB buffer pool" configuration.
    pub fn with_capacity_bytes(bytes: usize) -> Self {
        Self::new((bytes / PAGE_SIZE).max(1))
    }

    /// Creates a pool sized in bytes whose resident pages are charged to
    /// `gauge`.
    ///
    /// The capacity is additionally clamped to the gauge's current headroom
    /// (but never below one page), so a pool configured for the paper's
    /// 22 MB cannot overcommit a 4 MB environment: it simply caches less and
    /// pays more page requests — the degradation Section 3.3 describes.
    pub fn with_capacity_bytes_gauged(bytes: usize, gauge: &MemoryGauge) -> Self {
        let clamped = bytes.min(gauge.headroom().max(PAGE_SIZE));
        let mut pool = Self::with_capacity_bytes(clamped);
        pool.reservation = Some(gauge.reserve_empty());
        pool
    }

    /// Maximum number of resident pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Number of currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.cache.len()
    }

    /// Hit/miss/eviction statistics.
    pub fn stats(&self) -> BufferPoolStats {
        self.stats
    }

    /// Empties the pool (statistics are kept).
    pub fn clear(&mut self) {
        self.cache.clear();
        self.lru.clear();
        if let Some(r) = &mut self.reservation {
            r.release();
        }
    }

    fn evict_one(&mut self) -> bool {
        let Some((&stamp, &victim)) = self.lru.iter().next() else {
            return false;
        };
        self.lru.remove(&stamp);
        self.cache.remove(&victim);
        self.stats.evictions += 1;
        if let Some(r) = &mut self.reservation {
            r.shrink(PAGE_SIZE);
        }
        true
    }

    fn evict_if_full(&mut self) {
        while self.cache.len() >= self.capacity_pages && self.evict_one() {}
    }

    /// Fetches a page through the pool. Misses are read from `device` (one
    /// random or sequential page request); hits cost nothing. Either way the
    /// caller gets the device's page shared, not a copy of its bytes; a
    /// resident page is charged a full [`PAGE_SIZE`] to a governed pool's
    /// gauge.
    pub fn get(&mut self, device: &mut BlockDevice, page: PageId) -> Result<Page> {
        if let Some((bytes, stamp)) = self.cache.get_mut(&page) {
            self.stats.hits += 1;
            self.lru.remove(stamp);
            *stamp = self.next_stamp;
            self.next_stamp += 1;
            self.lru.insert(*stamp, page);
            return Ok(bytes.clone());
        }
        self.stats.misses += 1;
        let bytes = device.read_page(page)?;
        self.evict_if_full();
        // A governed pool charges the incoming page to the gauge; under
        // pressure from other working sets it sheds cached pages rather than
        // overcommit, failing only when even a single-page pool cannot fit.
        if self.reservation.is_some() {
            loop {
                let grown = self
                    .reservation
                    .as_mut()
                    .expect("checked above")
                    .try_grow(PAGE_SIZE);
                match grown {
                    Ok(()) => break,
                    Err(e) => {
                        if !self.evict_one() {
                            return Err(e);
                        }
                    }
                }
            }
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.cache.insert(page, (bytes.clone(), stamp));
        self.lru.insert(stamp, page);
        Ok(bytes)
    }

    /// Returns `true` if `page` is currently resident.
    pub fn contains(&self, page: PageId) -> bool {
        self.cache.contains_key(&page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device_with_pages(n: u64) -> BlockDevice {
        let mut d = BlockDevice::new();
        let first = d.allocate(n);
        for i in 0..n {
            let mut data = vec![0u8; 8];
            data[0] = i as u8;
            d.write_page(first + i, &data).unwrap();
        }
        d.reset_stats();
        d
    }

    #[test]
    fn hit_avoids_device_read() {
        let mut d = device_with_pages(4);
        let mut pool = LruBufferPool::new(2);
        pool.get(&mut d, 0).unwrap();
        pool.get(&mut d, 0).unwrap();
        pool.get(&mut d, 0).unwrap();
        assert_eq!(pool.stats().hits, 2);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(d.stats().read_ops(), 1);
    }

    #[test]
    fn returns_correct_page_contents() {
        let mut d = device_with_pages(4);
        let mut pool = LruBufferPool::new(2);
        for i in 0..4u64 {
            let bytes = pool.get(&mut d, i).unwrap();
            assert_eq!(bytes[0], i as u8);
        }
    }

    #[test]
    fn lru_eviction_keeps_recently_used_pages() {
        let mut d = device_with_pages(4);
        let mut pool = LruBufferPool::new(2);
        pool.get(&mut d, 0).unwrap();
        pool.get(&mut d, 1).unwrap();
        pool.get(&mut d, 0).unwrap(); // 0 is now more recent than 1
        pool.get(&mut d, 2).unwrap(); // evicts 1
        assert!(pool.contains(0));
        assert!(!pool.contains(1));
        assert!(pool.contains(2));
        assert_eq!(pool.stats().evictions, 1);
        // Re-reading 1 is a miss, re-reading 0 a hit.
        pool.get(&mut d, 1).unwrap();
        assert_eq!(pool.stats().misses, 4);
    }

    #[test]
    fn the_first_page_is_evicted_like_any_other() {
        let mut d = device_with_pages(4);
        let mut pool = LruBufferPool::new(2);
        for page in [0, 1, 2] {
            pool.get(&mut d, page).unwrap();
        }
        // Page 0 is the least recently used: the get of 2 evicts it.
        assert!(!pool.contains(0));
        assert!(pool.contains(1) && pool.contains(2));
        for page in [3, 1, 2, 3] {
            pool.get(&mut d, page).unwrap();
            assert!(!pool.contains(0));
            assert_eq!(pool.resident_pages(), 2);
        }
        // A cycle of three pages through two slots: every get misses.
        assert_eq!(pool.stats().misses, 7);
        assert_eq!(pool.stats().evictions, 5);
    }

    /// The pool against a brute-force recency list (least recent first), on
    /// random page sequences while an outside reservation of random size
    /// comes and goes on the pool's gauge.
    #[test]
    fn agrees_with_a_recency_list_under_gauge_pressure() {
        use crate::gauge::MemoryGauge;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        for _ in 0..64 {
            let pages = 2 + next(14);
            let mut d = device_with_pages(pages);
            let limit = (1 + next(8) as usize) * PAGE_SIZE;
            let gauge = MemoryGauge::new(limit);
            let mut pool = LruBufferPool::with_capacity_bytes_gauged(limit, &gauge);
            let capacity = pool.capacity_pages();
            let mut recency: Vec<PageId> = Vec::new();
            let mut want = BufferPoolStats::default();
            let mut pressure = None;
            for _ in 0..200 {
                if next(8) == 0 {
                    drop(pressure.take());
                    let bytes = next(limit as u64 / PAGE_SIZE as u64 + 1) as usize * PAGE_SIZE;
                    pressure = gauge.try_reserve(bytes).ok();
                }
                let page = next(pages);
                let mut free = gauge.headroom();
                let got = pool.get(&mut d, page);
                let ok = if let Some(i) = recency.iter().position(|&p| p == page) {
                    want.hits += 1;
                    recency.remove(i);
                    recency.push(page);
                    true
                } else {
                    want.misses += 1;
                    while recency.len() >= capacity {
                        recency.remove(0);
                        want.evictions += 1;
                        free += PAGE_SIZE;
                    }
                    while free < PAGE_SIZE && !recency.is_empty() {
                        recency.remove(0);
                        want.evictions += 1;
                        free += PAGE_SIZE;
                    }
                    if free >= PAGE_SIZE {
                        recency.push(page);
                    }
                    free >= PAGE_SIZE
                };
                assert_eq!(got.is_ok(), ok, "get({page})");
                if let Ok(bytes) = got {
                    assert_eq!(bytes[0], page as u8);
                }
                assert_eq!(pool.stats(), want);
                assert_eq!(pool.resident_pages(), recency.len());
                for p in 0..pages {
                    assert_eq!(pool.contains(p), recency.contains(&p), "page {p}");
                }
                assert_eq!(
                    gauge.current(),
                    recency.len() * PAGE_SIZE + pressure.as_ref().map_or(0, |r| r.bytes())
                );
            }
        }
    }

    #[test]
    fn resident_count_never_exceeds_capacity() {
        let mut d = device_with_pages(64);
        let mut pool = LruBufferPool::new(8);
        for round in 0..3 {
            for i in 0..64u64 {
                pool.get(&mut d, (i * 7 + round) % 64).unwrap();
                assert!(pool.resident_pages() <= 8);
            }
        }
    }

    #[test]
    fn capacity_in_bytes_matches_paper_configuration() {
        let pool = LruBufferPool::with_capacity_bytes(22 * 1024 * 1024);
        assert_eq!(pool.capacity_pages(), 22 * 1024 * 1024 / PAGE_SIZE);
    }

    #[test]
    fn hit_ratio_reported() {
        let mut d = device_with_pages(2);
        let mut pool = LruBufferPool::new(2);
        assert_eq!(pool.stats().hit_ratio(), 0.0);
        pool.get(&mut d, 0).unwrap();
        pool.get(&mut d, 0).unwrap();
        pool.get(&mut d, 1).unwrap();
        pool.get(&mut d, 1).unwrap();
        assert!((pool.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clear_drops_pages_but_keeps_stats() {
        let mut d = device_with_pages(2);
        let mut pool = LruBufferPool::new(2);
        pool.get(&mut d, 0).unwrap();
        pool.clear();
        assert_eq!(pool.resident_pages(), 0);
        assert_eq!(pool.stats().misses, 1);
        pool.get(&mut d, 0).unwrap();
        assert_eq!(pool.stats().misses, 2);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_is_rejected() {
        let _ = LruBufferPool::new(0);
    }

    #[test]
    fn gauged_pool_charges_resident_pages_and_clamps_to_headroom() {
        use crate::gauge::MemoryGauge;
        let mut d = device_with_pages(16);
        // Headroom of 3 pages: a 22 MB configuration is clamped down.
        let gauge = MemoryGauge::new(3 * PAGE_SIZE);
        let mut pool = LruBufferPool::with_capacity_bytes_gauged(22 * 1024 * 1024, &gauge);
        assert_eq!(pool.capacity_pages(), 3);
        for i in 0..8u64 {
            pool.get(&mut d, i).unwrap();
            assert!(gauge.current() <= 3 * PAGE_SIZE);
            assert_eq!(gauge.current(), pool.resident_pages() * PAGE_SIZE);
        }
        assert_eq!(gauge.peak(), 3 * PAGE_SIZE);
        pool.clear();
        assert_eq!(gauge.current(), 0);
    }

    #[test]
    fn gauged_pool_sheds_pages_under_external_pressure() {
        use crate::gauge::MemoryGauge;
        let mut d = device_with_pages(8);
        let gauge = MemoryGauge::new(4 * PAGE_SIZE);
        let mut pool = LruBufferPool::with_capacity_bytes_gauged(4 * PAGE_SIZE, &gauge);
        pool.get(&mut d, 0).unwrap();
        pool.get(&mut d, 1).unwrap();
        pool.get(&mut d, 2).unwrap();
        // Another working set claims most of the memory: the pool must evict
        // down to what still fits instead of overcommitting.
        let _pressure = gauge.try_reserve(PAGE_SIZE).unwrap();
        pool.get(&mut d, 3).unwrap();
        assert!(pool.resident_pages() <= 3);
        assert!(gauge.current() <= 4 * PAGE_SIZE);
        assert!(pool.contains(3), "the newly fetched page is resident");
    }
}
