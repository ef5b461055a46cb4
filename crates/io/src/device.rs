//! The simulated block device.
//!
//! The device is an in-memory array of 8 KiB pages. Its job is not to persist
//! data but to *account* for every access the way a 1999 SCSI/IDE disk would
//! experience it: a multi-page operation whose first page immediately follows
//! the last page touched by the previous operation is *sequential* (no seek);
//! anything else is *random* (one seek). This is exactly the distinction the
//! paper argues must be modelled to understand spatial-join performance.
//!
//! A device can additionally be created *on top of* a read-only **base
//! snapshot** ([`BlockDevice::with_base`]): a shared, immutable prefix of
//! pages taken from another device with [`BlockDevice::snapshot`]. This is
//! how the query service gives every concurrent query its own device — own
//! head position, own I/O statistics, own scratch space — over the *same*
//! stored catalog data, without copying a byte per query. Taking the
//! snapshot copies no page either: pages are copy-on-write ([`Page`]), so
//! the snapshot shares the owner's storage and the owner's later writes
//! un-share only the pages they hit. Page identifiers
//! below the base length read from the snapshot; writes to them fail with
//! [`IoSimError::ReadOnlyPage`] (cataloged data is immutable), and new
//! allocations start right after the base, so the identifier space stays
//! contiguous.

use std::sync::Arc;

use crate::error::{IoSimError, Result};
use crate::fault::{FaultPlan, FaultStats};
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::stats::IoStats;

/// The simulated disk.
#[derive(Debug, Default)]
pub struct BlockDevice {
    /// Read-only shared prefix (empty for a standalone device).
    base: Arc<Vec<Page>>,
    pages: Vec<Page>,
    stats: IoStats,
    /// Page that would be under the head after the previous operation
    /// (`last accessed page + 1`), or `None` before the first access.
    head: Option<PageId>,
    /// When `true`, accesses are recorded in the statistics. Preprocessing
    /// steps that the paper excludes from its measurements (e.g. workload
    /// materialisation) run with accounting disabled.
    accounting: bool,
    /// Installed fault schedule, if any. Boxed so the fault-free device
    /// (the overwhelmingly common case) pays only one pointer of state and
    /// a single `is_some` branch per operation.
    faults: Option<Box<FaultPlan>>,
}

impl BlockDevice {
    /// Creates an empty device with accounting enabled.
    pub fn new() -> Self {
        BlockDevice {
            base: Arc::new(Vec::new()),
            pages: Vec::new(),
            stats: IoStats::default(),
            head: None,
            accounting: true,
            faults: None,
        }
    }

    /// Creates a device whose first [`base_pages`](BlockDevice::base_pages)
    /// pages are the given read-only snapshot.
    ///
    /// Reads of snapshot pages are accounted like any other read; writes to
    /// them fail with [`IoSimError::ReadOnlyPage`]. New allocations continue
    /// after the snapshot.
    pub fn with_base(base: Arc<Vec<Page>>) -> Self {
        BlockDevice {
            base,
            ..BlockDevice::new()
        }
    }

    /// Returns every allocated page (base and own) as a shareable snapshot,
    /// suitable for [`BlockDevice::with_base`].
    ///
    /// No page bytes are copied: the snapshot holds one reference per page
    /// to the device's own copy-on-write storage. The sharing contract:
    ///
    /// * a snapshot is immutable — nothing that happens to this device
    ///   afterwards is visible through it, or through a device layered over
    ///   it;
    /// * a later write on this device un-shares exactly the page it hits
    ///   (that page is copied once, the snapshot keeps the old bytes); every
    ///   page left alone stays one allocation however many snapshots hold
    ///   it;
    /// * pages are never freed or renumbered, so a snapshot is a prefix, in
    ///   page identifiers, of every later snapshot of the same device.
    ///
    /// The cost is therefore one pointer per allocated page, which is what
    /// lets live maintenance publish a fresh snapshot after every flush and
    /// compaction.
    pub fn snapshot(&self) -> Arc<Vec<Page>> {
        Arc::new(self.base.iter().chain(&self.pages).cloned().collect())
    }

    /// Number of read-only base-snapshot pages under this device.
    #[inline]
    pub fn base_pages(&self) -> u64 {
        self.base.len() as u64
    }

    /// Number of pages currently allocated (including the base snapshot).
    #[inline]
    pub fn allocated_pages(&self) -> u64 {
        (self.base.len() + self.pages.len()) as u64
    }

    /// Total allocated bytes.
    #[inline]
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_pages() * PAGE_SIZE as u64
    }

    /// Current accumulated I/O statistics.
    #[inline]
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Resets the I/O statistics (the allocated pages are untouched) and the
    /// head position.
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
        self.head = None;
    }

    /// Enables or disables accounting; returns the previous setting.
    pub fn set_accounting(&mut self, on: bool) -> bool {
        std::mem::replace(&mut self.accounting, on)
    }

    /// Whether accesses are currently recorded.
    #[inline]
    pub fn accounting(&self) -> bool {
        self.accounting
    }

    /// Installs a fault schedule; subsequent reads and writes may fail with
    /// [`IoSimError::DeviceFault`], tear multi-page writes, or panic,
    /// according to the plan. Replaces any previously installed plan.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(Box::new(plan));
    }

    /// Removes the installed fault schedule, returning its final counters.
    pub fn clear_faults(&mut self) -> Option<FaultStats> {
        self.faults.take().map(|p| p.stats())
    }

    /// Counters of the installed fault schedule (`None` when no plan is
    /// installed).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|p| p.stats())
    }

    /// Allocates `n` zero-filled pages at the end of the device and returns
    /// the identifier of the first one.
    ///
    /// Allocation itself is free: the cost of actually writing the pages is
    /// charged when they are written. On the host it is free too: every new
    /// page is a clone of the one shared zero page ([`Page::zeroed`]), so
    /// nothing is allocated or zeroed until a page is written.
    pub fn allocate(&mut self, n: u64) -> PageId {
        let first = self.allocated_pages();
        self.pages
            .extend(std::iter::repeat_with(Page::zeroed).take(n as usize));
        first
    }

    /// Resolves a page identifier to its storage (base snapshot or own).
    fn page_ref(&self, page: PageId) -> &Page {
        let base_len = self.base.len() as u64;
        if page < base_len {
            &self.base[page as usize]
        } else {
            &self.pages[(page - base_len) as usize]
        }
    }

    /// Rejects writes addressed to the read-only base snapshot. Writes are
    /// contiguous from their first page and the base is a prefix of the
    /// identifier space, so checking the first page covers the whole range.
    fn check_writable(&self, first: PageId) -> Result<()> {
        if first < self.base.len() as u64 {
            return Err(IoSimError::ReadOnlyPage { page: first });
        }
        Ok(())
    }

    /// Installs `image` as own (writable) page `page`; callers must have
    /// passed [`check_writable`](BlockDevice::check_writable) first. The
    /// page's old storage is released, not written over: a snapshot that
    /// shares it keeps its bytes.
    fn install(&mut self, page: PageId, image: Page) {
        let base_len = self.base.len() as u64;
        self.pages[(page - base_len) as usize] = image;
    }

    fn check_range(&self, first: PageId, n: u64) -> Result<()> {
        let end = first.checked_add(n).ok_or(IoSimError::PageOutOfBounds {
            page: first,
            allocated: self.allocated_pages(),
        })?;
        if end > self.allocated_pages() || n == 0 {
            return Err(IoSimError::PageOutOfBounds {
                page: first + n.saturating_sub(1),
                allocated: self.allocated_pages(),
            });
        }
        Ok(())
    }

    fn record(&mut self, first: PageId, n: u64, is_read: bool) {
        if !self.accounting {
            return;
        }
        let sequential = self.head == Some(first);
        match (is_read, sequential) {
            (true, true) => self.stats.seq_read_ops += 1,
            (true, false) => self.stats.rand_read_ops += 1,
            (false, true) => self.stats.seq_write_ops += 1,
            (false, false) => self.stats.rand_write_ops += 1,
        }
        if is_read {
            self.stats.pages_read += n;
        } else {
            self.stats.pages_written += n;
        }
        self.head = Some(first + n);
    }

    /// Reads a single page as one I/O operation, returning the device's own
    /// copy-on-write page: shared, not copied (one reference-count
    /// increment). A later write to the page un-shares it, so what the
    /// reader holds never changes under it.
    pub fn read_page(&mut self, page: PageId) -> Result<Page> {
        self.check_range(page, 1)?;
        if let Some(plan) = self.faults.as_mut() {
            plan.before_read()?;
        }
        self.record(page, 1, true);
        Ok(self.page_ref(page).clone())
    }

    /// Reads `n` consecutive pages starting at `first` as one I/O operation.
    pub fn read_pages(&mut self, first: PageId, n: u64) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.read_pages_into(first, n, &mut out)?;
        Ok(out)
    }

    /// Reads `n` consecutive pages starting at `first` as one I/O operation
    /// into a caller-provided buffer (cleared first).
    ///
    /// This is the zero-allocation sibling of
    /// [`read_pages`](BlockDevice::read_pages): sequential consumers such as
    /// [`ItemStreamReader`](crate::stream::ItemStreamReader) reuse one buffer
    /// across every block of a scan instead of allocating a fresh vector per
    /// read. The I/O accounting is identical.
    pub fn read_pages_into(&mut self, first: PageId, n: u64, out: &mut Vec<u8>) -> Result<()> {
        self.check_range(first, n)?;
        if let Some(plan) = self.faults.as_mut() {
            plan.before_read()?;
        }
        self.record(first, n, true);
        out.clear();
        out.reserve(n as usize * PAGE_SIZE);
        for i in 0..n {
            out.extend_from_slice(self.page_ref(first + i));
        }
        Ok(())
    }

    /// Writes a single page (the buffer is zero-padded to the page size) as
    /// one I/O operation.
    ///
    /// The page gets fresh storage built from `data` — one copy of each
    /// byte ([`Page::from_bytes`]) — in place of what it held.
    pub fn write_page(&mut self, page: PageId, data: &[u8]) -> Result<()> {
        if data.len() > PAGE_SIZE {
            return Err(IoSimError::OffsetOutOfPage {
                offset: 0,
                len: data.len(),
            });
        }
        self.check_range(page, 1)?;
        self.check_writable(page)?;
        if let Some(plan) = self.faults.as_mut() {
            // Single-page writes are atomic: `before_write(1)` never tears.
            plan.before_write(1)?;
        }
        self.record(page, 1, false);
        self.install(page, Page::from_bytes(data));
        Ok(())
    }

    /// Writes `n` consecutive pages starting at `first` as one I/O operation.
    ///
    /// `data` must be at most `n * PAGE_SIZE` bytes; the tail of the last page
    /// is zero-filled, and a page past the end of `data` becomes a clone of
    /// the shared zero page. Like [`write_page`](BlockDevice::write_page),
    /// every page written gets fresh storage: one copy of each byte.
    pub fn write_pages(&mut self, first: PageId, n: u64, data: &[u8]) -> Result<()> {
        if data.len() > n as usize * PAGE_SIZE {
            return Err(IoSimError::OffsetOutOfPage {
                offset: 0,
                len: data.len(),
            });
        }
        self.check_range(first, n)?;
        self.check_writable(first)?;
        // A torn write durably commits only the first `k < n` pages before
        // failing persistently — the crash-mid-write case that run
        // checksums exist to detect.
        let torn = match self.faults.as_mut() {
            Some(plan) => plan.before_write(n)?,
            None => None,
        };
        let written = torn.unwrap_or(n);
        self.record(first, written, false);
        let mut chunks = data.chunks(PAGE_SIZE);
        for page in first..first + written {
            let image = chunks.next().map_or_else(Page::zeroed, Page::from_bytes);
            self.install(page, image);
        }
        if torn.is_some() {
            return Err(IoSimError::DeviceFault { transient: false });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_read_back_zeroes() {
        let mut d = BlockDevice::new();
        let p = d.allocate(3);
        assert_eq!(p, 0);
        assert_eq!(d.allocated_pages(), 3);
        let data = d.read_page(1).unwrap();
        assert_eq!(data.len(), PAGE_SIZE);
        assert!(data.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut d = BlockDevice::new();
        let p = d.allocate(2);
        d.write_page(p, b"hello world").unwrap();
        let back = d.read_page(p).unwrap();
        assert_eq!(&back[..11], b"hello world");
        assert!(back[11..].iter().all(|&b| b == 0));
    }

    #[test]
    fn multi_page_write_read_roundtrip() {
        let mut d = BlockDevice::new();
        let p = d.allocate(4);
        let data: Vec<u8> = (0..PAGE_SIZE * 3).map(|i| (i % 251) as u8).collect();
        d.write_pages(p, 3, &data).unwrap();
        let back = d.read_pages(p, 3).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn out_of_bounds_accesses_are_rejected() {
        let mut d = BlockDevice::new();
        d.allocate(2);
        assert!(d.read_page(2).is_err());
        assert!(d.read_pages(1, 2).is_err());
        assert!(d.write_page(5, b"x").is_err());
        assert!(d.read_pages(0, 0).is_err());
    }

    #[test]
    fn oversized_write_is_rejected() {
        let mut d = BlockDevice::new();
        let p = d.allocate(1);
        let big = vec![1u8; PAGE_SIZE + 1];
        assert!(matches!(
            d.write_page(p, &big),
            Err(IoSimError::OffsetOutOfPage { .. })
        ));
    }

    #[test]
    fn sequential_vs_random_classification() {
        let mut d = BlockDevice::new();
        d.allocate(10);
        // First access is always random (head position unknown).
        d.read_page(0).unwrap();
        // Next page follows the head: sequential.
        d.read_page(1).unwrap();
        d.read_page(2).unwrap();
        // Jump: random.
        d.read_page(7).unwrap();
        // Follows the jump: sequential.
        d.read_page(8).unwrap();
        // Re-reading an earlier page: random.
        d.read_page(0).unwrap();
        let s = d.stats();
        assert_eq!(s.rand_read_ops, 3);
        assert_eq!(s.seq_read_ops, 3);
        assert_eq!(s.pages_read, 6);
    }

    #[test]
    fn multi_page_ops_count_once_but_transfer_all_pages() {
        let mut d = BlockDevice::new();
        d.allocate(64);
        d.read_pages(0, 16).unwrap();
        d.read_pages(16, 16).unwrap();
        d.read_pages(0, 16).unwrap();
        let s = d.stats();
        assert_eq!(s.read_ops(), 3);
        assert_eq!(s.rand_read_ops, 2);
        assert_eq!(s.seq_read_ops, 1);
        assert_eq!(s.pages_read, 48);
    }

    #[test]
    fn writes_interleaved_with_reads_track_head() {
        let mut d = BlockDevice::new();
        d.allocate(10);
        d.write_page(0, b"a").unwrap(); // random (first)
        d.write_page(1, b"b").unwrap(); // sequential
        d.read_page(2).unwrap(); // sequential (follows the write)
        d.write_page(9, b"c").unwrap(); // random
        let s = d.stats();
        assert_eq!(s.rand_write_ops, 2);
        assert_eq!(s.seq_write_ops, 1);
        assert_eq!(s.seq_read_ops, 1);
    }

    #[test]
    fn accounting_can_be_disabled() {
        let mut d = BlockDevice::new();
        d.allocate(4);
        let was = d.set_accounting(false);
        assert!(was);
        d.read_page(0).unwrap();
        d.write_page(1, b"x").unwrap();
        assert_eq!(d.stats().total_ops(), 0);
        d.set_accounting(true);
        d.read_page(2).unwrap();
        assert_eq!(d.stats().total_ops(), 1);
    }

    #[test]
    fn base_snapshot_is_readable_but_write_protected() {
        let mut d = BlockDevice::new();
        let p = d.allocate(3);
        d.write_page(p, b"catalog").unwrap();
        d.write_page(p + 2, b"tail").unwrap();

        let base = d.snapshot();
        let mut worker = BlockDevice::with_base(base);
        assert_eq!(worker.base_pages(), 3);
        assert_eq!(worker.allocated_pages(), 3);

        // Base pages read back the snapshot contents, with accounting.
        let bytes = worker.read_page(p).unwrap();
        assert_eq!(&bytes[..7], b"catalog");
        assert_eq!(worker.stats().pages_read, 1);

        // Writes to snapshot pages are rejected without being accounted.
        assert!(matches!(
            worker.write_page(p, b"x"),
            Err(IoSimError::ReadOnlyPage { page }) if page == p
        ));
        assert!(matches!(
            worker.write_pages(p + 1, 2, b"xy"),
            Err(IoSimError::ReadOnlyPage { .. })
        ));
        assert_eq!(worker.stats().pages_written, 0);

        // New allocations continue after the base and are writable.
        let q = worker.allocate(2);
        assert_eq!(q, 3);
        worker.write_page(q, b"scratch").unwrap();
        assert_eq!(&worker.read_page(q).unwrap()[..7], b"scratch");

        // The snapshot owner is unaffected by the worker's scratch writes.
        assert_eq!(d.allocated_pages(), 3);
        assert_eq!(&d.read_page(p).unwrap()[..7], b"catalog");
    }

    #[test]
    fn snapshot_of_layered_device_flattens_base_and_own_pages() {
        let mut d = BlockDevice::new();
        let p = d.allocate(1);
        d.write_page(p, b"first").unwrap();
        let mut layered = BlockDevice::with_base(d.snapshot());
        let q = layered.allocate(1);
        layered.write_page(q, b"second").unwrap();

        let mut relayered = BlockDevice::with_base(layered.snapshot());
        assert_eq!(relayered.base_pages(), 2);
        assert_eq!(&relayered.read_page(p).unwrap()[..5], b"first");
        assert_eq!(&relayered.read_page(q).unwrap()[..6], b"second");
    }

    /// Bytes of page `p` as the snapshot holds them.
    fn snap_bytes(snap: &[Page], p: PageId) -> &[u8] {
        &snap[p as usize]
    }

    #[test]
    fn writes_after_a_snapshot_reach_the_owner_only() {
        let mut d = BlockDevice::new();
        let p = d.allocate(4);
        let old: Vec<u8> = (0..PAGE_SIZE * 4).map(|i| (i % 241 + 1) as u8).collect();
        d.write_pages(p, 4, &old).unwrap();
        let snap = d.snapshot();
        let mut layered = BlockDevice::with_base(Arc::clone(&snap));

        d.write_page(p, b"single").unwrap();
        let new: Vec<u8> = (0..PAGE_SIZE * 2).map(|i| (i % 13) as u8).collect();
        d.write_pages(p + 2, 2, &new).unwrap();

        // The owner reads its own writes, the untouched page stays as it was.
        assert_eq!(&d.read_page(p).unwrap()[..6], b"single");
        assert_eq!(d.read_pages(p + 2, 2).unwrap(), new);
        assert_eq!(
            &d.read_page(p + 1).unwrap()[..],
            &old[PAGE_SIZE..2 * PAGE_SIZE]
        );
        // The snapshot, and a device layered over it, still read the old bytes.
        assert_eq!(layered.read_pages(p, 4).unwrap(), old);
        for i in 0..4 {
            let at = i as usize * PAGE_SIZE;
            assert_eq!(snap_bytes(&snap, p + i), &old[at..at + PAGE_SIZE]);
        }
        // A later snapshot has the new bytes and the first one as a prefix in
        // page identifiers.
        d.allocate(1);
        let later = d.snapshot();
        assert_eq!(later.len(), snap.len() + 1);
        assert_eq!(&snap_bytes(&later, p)[..6], b"single");
    }

    #[test]
    fn a_torn_write_onto_shared_pages_leaves_the_snapshot_intact() {
        use crate::fault::FaultConfig;
        let mut d = BlockDevice::new();
        let p = d.allocate(4);
        let old: Vec<u8> = (0..PAGE_SIZE * 4).map(|i| (i % 239 + 1) as u8).collect();
        d.write_pages(p, 4, &old).unwrap();
        let snap = d.snapshot();
        d.reset_stats();
        d.install_faults(FaultPlan::new(FaultConfig {
            torn_write: 1.0,
            max_faults: 1,
            ..FaultConfig::quiet(11)
        }));
        let new = vec![0xEEu8; PAGE_SIZE * 4];
        assert_eq!(
            d.write_pages(p, 4, &new),
            Err(IoSimError::DeviceFault { transient: false })
        );
        // The owner holds a strict prefix of the new bytes over the old ones …
        let committed = d.stats().pages_written as usize;
        assert!((1..4).contains(&committed), "committed {committed}");
        let cut = committed * PAGE_SIZE;
        let back = d.read_pages(p, 4).unwrap();
        assert_eq!(&back[..cut], &new[..cut]);
        assert_eq!(&back[cut..], &old[cut..]);
        // … the snapshot none of them: only the torn prefix was un-shared.
        for i in 0..4usize {
            assert_eq!(
                snap_bytes(&snap, p + i as u64),
                &old[i * PAGE_SIZE..][..PAGE_SIZE]
            );
            assert_eq!(
                d.page_ref(p + i as u64).shares_storage_with(&snap[i]),
                i >= committed,
                "page {i}"
            );
        }
    }

    #[test]
    fn a_snapshot_shares_every_page_and_a_write_unshares_exactly_one() {
        let mut d = BlockDevice::new();
        let n = 64u64;
        let p = d.allocate(n);
        for i in 0..n {
            d.write_page(p + i, &[i as u8 + 1; 16]).unwrap();
        }
        let snap = d.snapshot();
        let shared = |d: &BlockDevice| {
            (0..n)
                .filter(|&i| d.page_ref(p + i).shares_storage_with(&snap[i as usize]))
                .count() as u64
        };
        assert_eq!(shared(&d), n);
        // A second snapshot shares the same storage again, page for page.
        let again = d.snapshot();
        assert!((0..n as usize).all(|i| again[i].shares_storage_with(&snap[i])));

        d.write_page(p + 17, b"rewritten").unwrap();
        assert_eq!(shared(&d), n - 1);
        assert!(!d.page_ref(p + 17).shares_storage_with(&snap[17]));
        // Layering keeps sharing too: a fork's base *is* the snapshot.
        let fork = BlockDevice::with_base(Arc::clone(&snap));
        assert!((0..n).all(|i| fork.page_ref(i).shares_storage_with(&snap[i as usize])));
    }

    #[test]
    fn an_allocated_page_is_the_shared_zero_page_until_written() {
        let mut d = BlockDevice::new();
        let p = d.allocate(3);
        let page = d.read_page(p + 1).unwrap();
        assert!(page.iter().all(|&b| b == 0));
        assert!(page.shares_storage_with(&Page::zeroed()));
        assert!((0..3).all(|i| d.page_ref(p + i).shares_storage_with(&Page::zeroed())));
        // A write gives the page storage of its own and leaves the zero
        // page, and the pages around it, as they were.
        d.write_page(p + 1, b"data").unwrap();
        assert!(!d.page_ref(p + 1).shares_storage_with(&Page::zeroed()));
        assert!(Page::zeroed().iter().all(|&b| b == 0));
        assert!(d.page_ref(p).shares_storage_with(&Page::zeroed()));
        assert!(d.page_ref(p + 2).shares_storage_with(&Page::zeroed()));
        // A multi-page write whose data ends early leaves its last pages
        // zero pages.
        let q = d.allocate(3);
        d.write_pages(q, 3, &[7u8; PAGE_SIZE]).unwrap();
        assert!(d.read_page(q).unwrap().iter().all(|&b| b == 7));
        assert!(d.page_ref(q + 1).shares_storage_with(&Page::zeroed()));
        assert!(d.page_ref(q + 2).shares_storage_with(&Page::zeroed()));
    }

    #[test]
    fn a_write_to_a_page_a_snapshot_shares_leaves_the_snapshot_bytes() {
        let mut d = BlockDevice::new();
        let p = d.allocate(3);
        let old: Vec<u8> = (0..PAGE_SIZE * 3).map(|i| (i % 199 + 1) as u8).collect();
        d.write_pages(p, 3, &old).unwrap();
        let snap = d.snapshot();
        let held = d.read_page(p + 2).unwrap();

        d.write_page(p, &[0xAB; PAGE_SIZE]).unwrap();
        d.write_pages(p + 1, 2, &[0xCD; PAGE_SIZE + 5]).unwrap();

        assert!(d.read_page(p).unwrap().iter().all(|&b| b == 0xAB));
        let back = d.read_pages(p + 1, 2).unwrap();
        assert!(back[..PAGE_SIZE + 5].iter().all(|&b| b == 0xCD));
        assert!(back[PAGE_SIZE + 5..].iter().all(|&b| b == 0));
        // The snapshot and a reader's earlier handle keep the old bytes.
        for i in 0..3 {
            assert_eq!(
                snap_bytes(&snap, p + i as u64),
                &old[i * PAGE_SIZE..][..PAGE_SIZE]
            );
        }
        assert_eq!(&held[..], &old[2 * PAGE_SIZE..]);
    }

    #[test]
    fn a_short_write_over_data_zero_fills_the_tail() {
        let mut d = BlockDevice::new();
        let p = d.allocate(3);
        d.write_page(p, &[0xFF; PAGE_SIZE]).unwrap();
        d.write_page(p, b"short").unwrap();
        let back = d.read_page(p).unwrap();
        assert_eq!(&back[..5], b"short");
        assert!(back[5..].iter().all(|&b| b == 0));
        // The same through a multi-page write: the last page's tail, and a
        // page the data does not reach, come back zero.
        d.write_pages(p, 3, &[0xEE; 3 * PAGE_SIZE]).unwrap();
        d.write_pages(p, 3, &[0x11; PAGE_SIZE + 9]).unwrap();
        let back = d.read_pages(p, 3).unwrap();
        assert!(back[..PAGE_SIZE + 9].iter().all(|&b| b == 0x11));
        assert!(back[PAGE_SIZE + 9..].iter().all(|&b| b == 0));
        // An empty write clears the page.
        d.write_page(p, &[]).unwrap();
        assert!(d.read_page(p).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn a_torn_write_commits_exactly_its_first_pages() {
        use crate::fault::FaultConfig;
        let n = 6u64;
        let mut d = BlockDevice::new();
        let p = d.allocate(n);
        let old: Vec<u8> = (0..PAGE_SIZE * n as usize)
            .map(|i| (i % 233 + 1) as u8)
            .collect();
        d.write_pages(p, n, &old).unwrap();
        let before: Vec<Page> = (0..n).map(|i| d.page_ref(p + i).clone()).collect();
        d.reset_stats();
        d.install_faults(FaultPlan::new(FaultConfig {
            torn_write: 1.0,
            max_faults: 1,
            ..FaultConfig::quiet(29)
        }));
        // The data covers three and a half pages of the six written.
        let new = vec![0x5Au8; PAGE_SIZE * 7 / 2];
        assert_eq!(
            d.write_pages(p, n, &new),
            Err(IoSimError::DeviceFault { transient: false })
        );
        let k = d.stats().pages_written;
        assert!((1..n).contains(&k), "committed {k}");
        assert_eq!(d.stats().write_ops(), 1);
        let mut want = new.clone();
        want.resize(PAGE_SIZE * n as usize, 0);
        for i in 0..n {
            let page = d.page_ref(p + i);
            let at = i as usize * PAGE_SIZE;
            if i < k {
                assert_eq!(&page[..], &want[at..at + PAGE_SIZE], "page {i}");
            } else {
                // Not written at all: the very storage it had before.
                assert!(page.shares_storage_with(&before[i as usize]), "page {i}");
            }
        }
    }

    #[test]
    fn transient_read_fault_is_retryable_and_unaccounted() {
        use crate::fault::FaultConfig;
        let mut d = BlockDevice::new();
        d.allocate(4);
        d.write_page(0, b"payload").unwrap();
        d.reset_stats();
        d.install_faults(FaultPlan::new(FaultConfig {
            read_fault: 1.0,
            max_faults: 1,
            ..FaultConfig::quiet(5)
        }));
        assert_eq!(
            d.read_page(0).err(),
            Some(IoSimError::DeviceFault { transient: true })
        );
        // The failed operation moved no data and charged no I/O.
        assert_eq!(d.stats().total_ops(), 0);
        // The budget is spent: the retry succeeds and reads the real bytes.
        let back = d.read_page(0).unwrap();
        assert_eq!(&back[..7], b"payload");
        assert_eq!(d.stats().pages_read, 1);
        let stats = d.clear_faults().unwrap();
        assert_eq!(stats.read_faults, 1);
        assert_eq!(stats.ops, 2);
    }

    #[test]
    fn torn_write_commits_a_strict_prefix_then_fails_persistently() {
        use crate::fault::FaultConfig;
        let mut d = BlockDevice::new();
        let p = d.allocate(4);
        let data: Vec<u8> = (0..PAGE_SIZE * 4).map(|i| (i % 239 + 1) as u8).collect();
        d.install_faults(FaultPlan::new(FaultConfig {
            torn_write: 1.0,
            max_faults: 1,
            ..FaultConfig::quiet(11)
        }));
        assert_eq!(
            d.write_pages(p, 4, &data),
            Err(IoSimError::DeviceFault { transient: false })
        );
        let k = d.fault_stats().unwrap().torn_writes;
        assert_eq!(k, 1);
        // Some strict prefix of pages holds the data, the rest stayed zero,
        // and accounting matches the pages actually committed.
        let committed = d.stats().pages_written;
        assert!((1..4).contains(&committed), "committed {committed}");
        let back = d.read_pages(p, 4).unwrap();
        let cut = committed as usize * PAGE_SIZE;
        assert_eq!(&back[..cut], &data[..cut]);
        assert!(back[cut..].iter().all(|&b| b == 0));
        // The budget is spent: re-issuing the whole write now succeeds.
        d.write_pages(p, 4, &data).unwrap();
        assert_eq!(d.read_pages(p, 4).unwrap(), data);
    }

    #[test]
    fn fault_free_plan_is_byte_identical_to_no_plan() {
        use crate::fault::FaultConfig;
        let run = |install: bool| {
            let mut d = BlockDevice::new();
            if install {
                d.install_faults(FaultPlan::new(FaultConfig::quiet(3)));
            }
            let p = d.allocate(4);
            let data: Vec<u8> = (0..PAGE_SIZE * 3).map(|i| (i % 13) as u8).collect();
            d.write_pages(p, 3, &data).unwrap();
            let back = d.read_pages(p, 3).unwrap();
            (back, d.stats())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn faults_fire_only_on_valid_operations() {
        use crate::fault::FaultConfig;
        let mut d = BlockDevice::new();
        d.allocate(1);
        d.install_faults(FaultPlan::new(FaultConfig {
            read_fault: 1.0,
            write_fault: 1.0,
            ..FaultConfig::quiet(1)
        }));
        // Out-of-bounds / read-only violations report their own error and
        // consume no fault-schedule decisions.
        assert!(matches!(
            d.read_page(9),
            Err(IoSimError::PageOutOfBounds { .. })
        ));
        assert_eq!(d.fault_stats().unwrap().ops, 0);
    }

    #[test]
    fn reset_stats_clears_counts_and_head() {
        let mut d = BlockDevice::new();
        d.allocate(4);
        d.read_page(0).unwrap();
        d.read_page(1).unwrap();
        d.reset_stats();
        assert_eq!(d.stats().total_ops(), 0);
        // After a reset the head position is unknown, so the next access is
        // random even if it would have been sequential.
        d.read_page(2).unwrap();
        assert_eq!(d.stats().rand_read_ops, 1);
    }
}
