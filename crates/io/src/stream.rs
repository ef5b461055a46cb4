//! Sequential record streams on the simulated disk.
//!
//! SSSJ and PBSM are stream-based algorithms: they read and write their
//! inputs strictly sequentially, in large logical blocks (the paper uses a
//! 512 KB logical page size for the stream-based BTE). An [`ItemStream`] is a
//! sequence of 20-byte [`Item`] records stored in fixed-size *extents* of
//! consecutive pages; as long as a single stream is written at a time the
//! extents themselves end up consecutive on the device and the traffic is
//! classified as sequential.
//!
//! ## Zero-copy block decode
//!
//! Readers and writers work directly on page-laid-out byte buffers. A reader
//! pulls each block into one reusable byte buffer
//! ([`BlockDevice::read_pages_into`](crate::BlockDevice::read_pages_into) —
//! no per-block allocation) and decodes records lazily on delivery; the old
//! decode-the-whole-block-into-`Vec<Item>` staging pass is gone, and skipped
//! records ([`ItemStream::reader_from`] starts) are never decoded at all.
//! Bulk consumers iterate an [`ItemsView`] — a borrowed items-view over the
//! page-resident bytes of the current block — via
//! [`ItemStreamReader::next_view`]. A writer encodes into one block buffer,
//! zeroed once, and hands the device the bytes up to its last record, which
//! the device copies once into the new pages. Gauge reservations are per
//! *block*: a
//! writer claims its block buffer once (falling back to per-record growth
//! only when the governor is too tight for a whole block), a reader re-sizes
//! one claim per block fill, so the gauge's atomic counters leave the
//! per-record hot path.

use usj_geom::{Item, ITEM_BYTES};

use crate::error::{IoSimError, Result};
use crate::gauge::MemoryReservation;
use crate::page::{PageId, PAGE_SIZE};
use crate::sim::SimEnv;
use crate::stats::CpuOp;

/// Number of 20-byte items that fit in one 8 KiB page.
pub const ITEMS_PER_PAGE: usize = PAGE_SIZE / ITEM_BYTES;

/// Default logical block size for stream I/O, in pages.
///
/// 64 pages × 8 KiB = 512 KiB, the logical page size the paper uses for the
/// stream-based algorithms to exploit sequential disk access.
pub const DEFAULT_PAGES_PER_BLOCK: u64 = 64;

/// Logical block size, in pages, of `writers` streams written side by side
/// whose block buffers share a quarter of `memory_limit`: between one and
/// eight pages each. PBSM's distribution writers and the spilling sweep's
/// batches and shadow logs are sized by it.
pub fn writer_pages_per_block(memory_limit: usize, writers: usize) -> u64 {
    (((memory_limit / 4) / PAGE_SIZE) / writers).clamp(1, 8) as u64
}

/// Byte offset of record `i` within a page-laid-out block buffer.
///
/// Items never straddle a page boundary: each page holds exactly
/// [`ITEMS_PER_PAGE`] records and the remaining tail bytes are unused,
/// mirroring the paper's fixed 20-byte record files.
#[inline]
fn record_offset(i: usize) -> usize {
    (i / ITEMS_PER_PAGE) * PAGE_SIZE + (i % ITEMS_PER_PAGE) * ITEM_BYTES
}

/// A borrowed items-view over the page-resident bytes of one stream block.
///
/// The view indexes records in place — nothing is decoded until a record is
/// actually requested, and no intermediate `Vec<Item>` is materialised.
/// Obtained from [`ItemStreamReader::next_view`].
#[derive(Debug, Clone, Copy)]
pub struct ItemsView<'a> {
    bytes: &'a [u8],
    /// Index of the first viewed record within the block.
    start: usize,
    len: usize,
}

impl<'a> ItemsView<'a> {
    /// Number of records in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the view holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Decodes the record at index `i` (`0 <= i < len`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> Item {
        assert!(i < self.len, "view index {i} out of bounds ({})", self.len);
        let off = record_offset(self.start + i);
        Item::decode(&self.bytes[off..off + ITEM_BYTES])
    }

    /// Iterates over the records, decoding each lazily.
    pub fn iter(&self) -> impl Iterator<Item = Item> + 'a {
        let (bytes, start) = (self.bytes, self.start);
        (0..self.len).map(move |i| {
            let off = record_offset(start + i);
            Item::decode(&bytes[off..off + ITEM_BYTES])
        })
    }
}

/// A stream of [`Item`] records stored on the simulated disk.
#[derive(Debug, Clone)]
pub struct ItemStream {
    extents: Vec<PageId>,
    pages_per_block: u64,
    len: u64,
}

impl ItemStream {
    /// Number of records in the stream.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` if the stream holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Logical block size used for I/O, in pages.
    #[inline]
    pub fn pages_per_block(&self) -> u64 {
        self.pages_per_block
    }

    /// First-page identifiers of the stream's extents, in stream order.
    ///
    /// Every extent spans [`pages_per_block`](ItemStream::pages_per_block)
    /// pages except possibly the last (its page count follows from
    /// [`len`](ItemStream::len)). Exposed so integrity layers (the live
    /// catalog's per-block run checksums) can address the stream's storage
    /// block by block.
    #[inline]
    pub fn extents(&self) -> &[PageId] {
        &self.extents
    }

    /// Number of disk pages occupied by the stream.
    pub fn pages(&self) -> u64 {
        let items_per_block = self.pages_per_block * ITEMS_PER_PAGE as u64;
        let full_blocks = self.len / items_per_block;
        let rem = self.len % items_per_block;
        full_blocks * self.pages_per_block + rem.div_ceil(ITEMS_PER_PAGE as u64)
    }

    /// Total size of the stream's records in bytes.
    pub fn data_bytes(&self) -> u64 {
        self.len * ITEM_BYTES as u64
    }

    /// Materialises an in-memory slice of items as a stream, using the
    /// default logical block size.
    pub fn from_items(env: &mut SimEnv, items: &[Item]) -> Result<ItemStream> {
        Self::from_items_with_block(env, items, DEFAULT_PAGES_PER_BLOCK)
    }

    /// Materialises an in-memory slice of items as a stream with an explicit
    /// logical block size.
    pub fn from_items_with_block(
        env: &mut SimEnv,
        items: &[Item],
        pages_per_block: u64,
    ) -> Result<ItemStream> {
        let mut w = ItemStreamWriter::new(env, pages_per_block);
        for it in items {
            w.push(env, *it)?;
        }
        w.finish(env)
    }

    /// Creates a reader positioned at the first record.
    pub fn reader(&self) -> ItemStreamReader {
        self.reader_from(0)
    }

    /// Creates a reader positioned at record `start` (clamped to the stream
    /// length). Blocks before the start are never read — only the block
    /// containing `start` pays for the records in front of it — and the
    /// skipped records at the front of that block are never even decoded.
    pub fn reader_from(&self, start: u64) -> ItemStreamReader {
        let (block, delivered, skip) = self.position(start);
        ItemStreamReader {
            stream: self.clone(),
            next_block: block,
            block: Vec::new(),
            in_block: 0,
            pos: 0,
            reservation: None,
            items_delivered: delivered,
            pending_skip: skip,
        }
    }

    /// Where a reader starting at record `start` begins: the block to read
    /// first, the records in front of that block, and the records to step
    /// over inside it.
    fn position(&self, start: u64) -> (usize, u64, u64) {
        let items_per_block = self.pages_per_block * ITEMS_PER_PAGE as u64;
        if start >= self.len {
            // Exhausted from the outset: no block needs reading at all.
            (self.extents.len(), self.len, 0)
        } else {
            (
                (start / items_per_block) as usize,
                start / items_per_block * items_per_block,
                start % items_per_block,
            )
        }
    }

    /// Serializes the stream *descriptor* (block size, length, extent list —
    /// not the records, which already live on the device) into a byte
    /// buffer, for embedding in an on-device record such as a live
    /// dataset's manifest.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(24 + self.extents.len() * 8);
        buf.extend_from_slice(&self.pages_per_block.to_le_bytes());
        buf.extend_from_slice(&self.len.to_le_bytes());
        buf.extend_from_slice(&(self.extents.len() as u64).to_le_bytes());
        for e in &self.extents {
            buf.extend_from_slice(&e.to_le_bytes());
        }
        buf
    }

    /// Decodes a descriptor produced by [`encode`](ItemStream::encode),
    /// returning the stream and the number of bytes consumed.
    ///
    /// The descriptor refers to device pages by identifier, so it is only
    /// meaningful on the device (or a snapshot of the device) it was encoded
    /// on.
    pub fn decode(buf: &[u8]) -> Result<(ItemStream, usize)> {
        let u64_at = |off: usize| -> Result<u64> {
            buf.get(off..off + 8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("checked length")))
                .ok_or(IoSimError::CorruptRecord("stream descriptor truncated"))
        };
        let pages_per_block = u64_at(0)?;
        let len = u64_at(8)?;
        let extent_count = u64_at(16)? as usize;
        if pages_per_block == 0 {
            return Err(IoSimError::CorruptRecord("stream descriptor block size"));
        }
        // Validate the count against the buffer *before* allocating, so a
        // corrupt descriptor returns an error instead of attempting an
        // absurd allocation.
        if extent_count
            .checked_mul(8)
            .and_then(|b| b.checked_add(24))
            .map_or(true, |need| need > buf.len())
        {
            return Err(IoSimError::CorruptRecord("stream descriptor truncated"));
        }
        let mut extents = Vec::with_capacity(extent_count);
        for i in 0..extent_count {
            extents.push(u64_at(24 + i * 8)?);
        }
        Ok((
            ItemStream {
                extents,
                pages_per_block,
                len,
            },
            24 + extent_count * 8,
        ))
    }

    /// Reads the entire stream into memory (one sequential pass).
    pub fn read_all(&self, env: &mut SimEnv) -> Result<Vec<Item>> {
        let mut out = Vec::new();
        self.read_all_into(env, &mut out)?;
        Ok(out)
    }

    /// Reads the entire stream into a caller-provided buffer (cleared first),
    /// one sequential pass through borrowed block views.
    ///
    /// Callers that load many streams in a row (PBSM loads one pair of
    /// partition streams per partition) reuse one buffer instead of
    /// allocating per load.
    pub fn read_all_into(&self, env: &mut SimEnv, out: &mut Vec<Item>) -> Result<()> {
        out.clear();
        out.reserve(self.len as usize);
        let mut r = self.reader();
        while let Some(view) = r.next_view(env)? {
            out.extend(view.iter());
        }
        Ok(())
    }
}

/// Incremental writer producing an [`ItemStream`].
///
/// Records are encoded straight into a page-laid-out block buffer (no
/// `Vec<Item>` staging, no per-flush allocation). The buffer's gauge claim is
/// made once per writer — per-*block*, not per-record — with a graceful
/// fallback to per-record growth when the governor cannot spare a whole
/// block up front.
#[derive(Debug)]
pub struct ItemStreamWriter {
    extents: Vec<PageId>,
    pages_per_block: u64,
    /// Page-laid-out bytes of the block being filled. It only grows: bytes
    /// past the block's last record may be left over from an earlier block,
    /// while the page tails that pad records to page granularity stay zero.
    buf: Vec<u8>,
    items_in_buf: usize,
    /// Gauge claim on the block buffer (see the struct docs).
    reservation: MemoryReservation,
    /// Whether `reservation` covers a whole block's records up front.
    block_reserved: bool,
    len: u64,
    finished: bool,
}

impl ItemStreamWriter {
    /// Starts a new stream with the default logical block size.
    pub fn with_default_block(env: &mut SimEnv) -> Self {
        Self::new(env, DEFAULT_PAGES_PER_BLOCK)
    }

    /// Starts a new stream with an explicit logical block size (in pages).
    pub fn new(env: &mut SimEnv, pages_per_block: u64) -> Self {
        assert!(
            pages_per_block > 0,
            "logical block must be at least one page"
        );
        ItemStreamWriter {
            extents: Vec::new(),
            pages_per_block,
            buf: Vec::new(),
            items_in_buf: 0,
            reservation: env.memory.reserve_empty(),
            block_reserved: false,
            len: 0,
            finished: false,
        }
    }

    fn items_per_block(&self) -> usize {
        self.pages_per_block as usize * ITEMS_PER_PAGE
    }

    /// Appends one record to the stream.
    pub fn push(&mut self, env: &mut SimEnv, item: Item) -> Result<()> {
        if self.finished {
            return Err(IoSimError::InvalidStreamState("push after finish"));
        }
        if !self.block_reserved {
            if self.items_in_buf == 0
                && self
                    .reservation
                    .try_set(self.items_per_block() * ITEM_BYTES)
                    .is_ok()
            {
                // One gauge transaction covers the whole block; held until
                // `finish` so subsequent blocks are free of gauge traffic.
                self.block_reserved = true;
            } else {
                // Governor too tight for a whole block: degrade to exact
                // per-record accounting, as before the block-granular path.
                self.reservation.try_grow(ITEM_BYTES)?;
            }
        }
        let off = record_offset(self.items_in_buf);
        if self.buf.len() < off + ITEM_BYTES {
            // Grow to the next page boundary; `resize` zero-fills the page
            // tails that pad records to page granularity.
            let pages = self.items_in_buf / ITEMS_PER_PAGE + 1;
            self.buf.resize(pages * PAGE_SIZE, 0);
        }
        item.encode(&mut self.buf[off..off + ITEM_BYTES]);
        self.items_in_buf += 1;
        self.len += 1;
        if self.items_in_buf >= self.items_per_block() {
            self.flush_block(env)?;
        }
        Ok(())
    }

    /// Appends many records to the stream.
    pub fn extend(&mut self, env: &mut SimEnv, items: &[Item]) -> Result<()> {
        for it in items {
            self.push(env, *it)?;
        }
        Ok(())
    }

    fn flush_block(&mut self, env: &mut SimEnv) -> Result<()> {
        if self.items_in_buf == 0 {
            return Ok(());
        }
        let pages_needed = (self.items_in_buf as u64).div_ceil(ITEMS_PER_PAGE as u64);
        let first = env.device.allocate(pages_needed);
        env.charge(CpuOp::ItemMove, self.items_in_buf as u64);
        // Hand over the bytes up to the last record: the device zero-fills
        // the rest of its page, so the bytes the buffer keeps past it (from
        // an earlier block — the buffer is never cleared, so it is zeroed
        // only once) are never written.
        let used = record_offset(self.items_in_buf - 1) + ITEM_BYTES;
        env.device
            .write_pages(first, pages_needed, &self.buf[..used])?;
        self.extents.push(first);
        self.items_in_buf = 0;
        if !self.block_reserved {
            self.reservation.release();
        }
        Ok(())
    }

    /// Flushes any buffered records and returns the finished stream.
    pub fn finish(mut self, env: &mut SimEnv) -> Result<ItemStream> {
        self.flush_block(env)?;
        self.finished = true;
        self.reservation.release();
        Ok(ItemStream {
            extents: std::mem::take(&mut self.extents),
            pages_per_block: self.pages_per_block,
            len: self.len,
        })
    }
}

/// Sequential reader over an [`ItemStream`].
///
/// One reusable byte buffer holds the page-resident bytes of the current
/// block; records are decoded lazily on delivery (or iterated in place
/// through [`next_view`](ItemStreamReader::next_view)).
#[derive(Debug)]
pub struct ItemStreamReader {
    stream: ItemStream,
    next_block: usize,
    /// Raw page bytes of the current block (reused across blocks).
    block: Vec<u8>,
    /// Records resident in `block`.
    in_block: usize,
    /// Index of the next record to deliver within `block`.
    pos: usize,
    /// Gauge claim on the block buffer, (re)sized on every refill — one
    /// gauge transaction per block. `None` until the first block is read
    /// (readers are created without an environment).
    reservation: Option<MemoryReservation>,
    items_delivered: u64,
    /// Records to step over inside the first block read (a
    /// [`reader_from`](ItemStream::reader_from) start that is not
    /// block-aligned). Skipped records are never decoded.
    pending_skip: u64,
}

impl ItemStreamReader {
    /// The reader's position: records already returned by
    /// [`ItemStreamReader::next`] or stepped over by a
    /// [`reader_from`](ItemStream::reader_from) start or a
    /// [`skip_to`](ItemStreamReader::skip_to).
    pub fn items_delivered(&self) -> u64 {
        self.items_delivered + self.pending_skip
    }

    /// Returns the next record, or `None` at end of stream.
    pub fn next(&mut self, env: &mut SimEnv) -> Result<Option<Item>> {
        if self.pos >= self.in_block && !self.fill(env)? {
            return Ok(None);
        }
        let off = record_offset(self.pos);
        let it = Item::decode(&self.block[off..off + ITEM_BYTES]);
        self.pos += 1;
        self.items_delivered += 1;
        Ok(Some(it))
    }

    /// Returns the next record without consuming it.
    pub fn peek(&mut self, env: &mut SimEnv) -> Result<Option<Item>> {
        if self.pos >= self.in_block && !self.fill(env)? {
            return Ok(None);
        }
        let off = record_offset(self.pos);
        Ok(Some(Item::decode(&self.block[off..off + ITEM_BYTES])))
    }

    /// Moves the reader forward so that the next record delivered is record
    /// `record` (clamped to the stream length); a target at or behind the
    /// reader's position is a no-op. The records stepped over count as
    /// delivered but are never decoded: a target inside the resident block
    /// costs no I/O, and the blocks wholly in front of the target are never
    /// read.
    pub fn skip_to(&mut self, record: u64) {
        let record = record.min(self.stream.len);
        let at = self.items_delivered();
        if record <= at {
            return;
        }
        let resident = (self.in_block - self.pos) as u64;
        if record - at <= resident {
            self.pos += (record - at) as usize;
            self.items_delivered = record;
            return;
        }
        (self.next_block, self.items_delivered, self.pending_skip) = self.stream.position(record);
        self.in_block = 0;
        self.pos = 0;
    }

    /// Returns a borrowed view over every not-yet-delivered record of the
    /// current block (reading the next block if the buffer is drained), or
    /// `None` at end of stream. The viewed records count as delivered.
    ///
    /// This is the bulk-iteration path: one `next_view` call per block, no
    /// per-record state updates, no intermediate `Vec<Item>`.
    pub fn next_view(&mut self, env: &mut SimEnv) -> Result<Option<ItemsView<'_>>> {
        if self.pos >= self.in_block && !self.fill(env)? {
            return Ok(None);
        }
        let view = ItemsView {
            bytes: &self.block,
            start: self.pos,
            len: self.in_block - self.pos,
        };
        self.items_delivered += view.len as u64;
        self.pos = self.in_block;
        Ok(Some(view))
    }

    fn fill(&mut self, env: &mut SimEnv) -> Result<bool> {
        if self.next_block >= self.stream.extents.len() {
            self.reservation = None;
            return Ok(false);
        }
        let remaining = self.stream.len - self.items_delivered;
        if remaining == 0 {
            self.reservation = None;
            return Ok(false);
        }
        let items_per_block = self.stream.pages_per_block * ITEMS_PER_PAGE as u64;
        let in_this_block = remaining.min(items_per_block);
        let pages = in_this_block.div_ceil(ITEMS_PER_PAGE as u64);
        match &mut self.reservation {
            Some(r) => r.try_set(in_this_block as usize * ITEM_BYTES)?,
            None => {
                self.reservation = Some(
                    env.memory
                        .try_reserve(in_this_block as usize * ITEM_BYTES)?,
                )
            }
        }
        let first = self.stream.extents[self.next_block];
        env.device.read_pages_into(first, pages, &mut self.block)?;
        env.charge(CpuOp::ItemMove, in_this_block);
        self.in_block = in_this_block as usize;
        self.pos = 0;
        self.next_block += 1;
        if self.pending_skip > 0 {
            // Step over the records in front of a mid-block start without
            // decoding them.
            let skip = self.pending_skip.min(self.in_block as u64);
            self.pos = skip as usize;
            self.items_delivered += skip;
            self.pending_skip = 0;
            if self.pos >= self.in_block {
                return self.fill(env);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use usj_geom::Rect;

    fn items(n: u32) -> Vec<Item> {
        (0..n)
            .map(|i| {
                let f = i as f32;
                Item::new(Rect::from_coords(f, f * 2.0, f + 1.0, f * 2.0 + 1.0), i)
            })
            .collect()
    }

    fn env() -> SimEnv {
        SimEnv::new(MachineConfig::machine3())
    }

    #[test]
    fn roundtrip_small_stream() {
        let mut env = env();
        let data = items(10);
        let s = ItemStream::from_items(&mut env, &data).unwrap();
        assert_eq!(s.len(), 10);
        assert!(!s.is_empty());
        assert_eq!(s.read_all(&mut env).unwrap(), data);
    }

    #[test]
    fn roundtrip_multi_block_stream() {
        let mut env = env();
        // 3 pages per block, enough items for several blocks plus a partial one.
        let data = items((ITEMS_PER_PAGE as u32) * 7 + 13);
        let s = ItemStream::from_items_with_block(&mut env, &data, 3).unwrap();
        assert_eq!(s.len() as usize, data.len());
        assert_eq!(s.read_all(&mut env).unwrap(), data);
    }

    #[test]
    fn a_short_last_block_writes_zeros_past_its_last_record() {
        let mut env = env();
        // Two full 2-page blocks, then 13 records: the last page is
        // written from a buffer that still holds the second block's bytes.
        let data = items((ITEMS_PER_PAGE as u32) * 4 + 13);
        let s = ItemStream::from_items_with_block(&mut env, &data, 2).unwrap();
        let last = env.device.read_page(s.extents()[2]).unwrap();
        assert!(last[13 * ITEM_BYTES..].iter().all(|&b| b == 0));
        // Full pages keep their zero tails too.
        let full = env.device.read_page(s.extents()[1] + 1).unwrap();
        assert!(full[ITEMS_PER_PAGE * ITEM_BYTES..].iter().all(|&b| b == 0));
        assert_eq!(s.read_all(&mut env).unwrap(), data);
    }

    #[test]
    fn empty_stream_is_valid() {
        let mut env = env();
        let s = ItemStream::from_items(&mut env, &[]).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.pages(), 0);
        assert_eq!(s.read_all(&mut env).unwrap(), Vec::new());
    }

    #[test]
    fn page_count_matches_item_capacity() {
        let mut env = env();
        let one_page = items(ITEMS_PER_PAGE as u32);
        let s = ItemStream::from_items_with_block(&mut env, &one_page, 4).unwrap();
        assert_eq!(s.pages(), 1);
        let s2 = ItemStream::from_items_with_block(&mut env, &items(ITEMS_PER_PAGE as u32 + 1), 4)
            .unwrap();
        assert_eq!(s2.pages(), 2);
        assert_eq!(s.data_bytes(), (ITEMS_PER_PAGE * ITEM_BYTES) as u64);
    }

    #[test]
    fn writing_and_reading_is_sequential_io() {
        let mut env = env();
        let data = items((ITEMS_PER_PAGE as u32) * 20);
        let m = env.begin();
        let s = ItemStream::from_items_with_block(&mut env, &data, 4).unwrap();
        let _ = s.read_all(&mut env).unwrap();
        let (io, _) = env.since(&m);
        // The very first write may be random; everything else must be
        // sequential because blocks are allocated and visited in order.
        assert!(io.rand_write_ops <= 1, "writes: {io:?}");
        assert!(io.rand_read_ops <= 1, "reads: {io:?}");
        assert!(io.seq_write_ops >= 4);
        assert!(io.seq_read_ops >= 4);
    }

    #[test]
    fn reader_from_skips_whole_blocks_without_reading_them() {
        let mut env = env();
        // 5 blocks of 2 pages each plus a partial tail.
        let data = items((ITEMS_PER_PAGE as u32) * 10 + 7);
        let s = ItemStream::from_items_with_block(&mut env, &data, 2).unwrap();
        let items_per_block = 2 * ITEMS_PER_PAGE as u64;
        for start in [
            0u64,
            1,
            items_per_block - 1,
            items_per_block,
            items_per_block * 3 + 17,
            s.len() - 1,
            s.len(),
            s.len() + 5,
        ] {
            let m = env.begin();
            let mut r = s.reader_from(start);
            let mut got = Vec::new();
            while let Some(it) = r.next(&mut env).unwrap() {
                got.push(it);
            }
            let (io, _) = env.since(&m);
            let expected_start = start.min(s.len()) as usize;
            assert_eq!(got, data[expected_start..], "start {start}");
            // Only the blocks from the starting one onward are read.
            let blocks_needed = if expected_start as u64 >= s.len() {
                0
            } else {
                5 + 1 - expected_start as u64 / items_per_block
            };
            assert!(
                io.pages_read <= blocks_needed * 2,
                "start {start}: read {} pages for {blocks_needed} blocks",
                io.pages_read
            );
        }
    }

    #[test]
    fn skip_to_reads_only_the_blocks_it_delivers_from() {
        let mut env = env();
        // 5 blocks of 2 pages each plus a partial tail.
        let data = items((ITEMS_PER_PAGE as u32) * 10 + 7);
        let s = ItemStream::from_items_with_block(&mut env, &data, 2).unwrap();
        let ipb = 2 * ITEMS_PER_PAGE as u64;
        let mut r = s.reader_from(5);
        let m = env.begin();
        let read = |env: &SimEnv| env.since(&m).0.pages_read;
        assert_eq!(r.next(&mut env).unwrap(), Some(data[5]));
        // Forward inside the resident block, then behind the position: no
        // I/O, and the backward target changes nothing.
        r.skip_to(ipb - 1);
        r.skip_to(3);
        assert_eq!(r.items_delivered(), ipb - 1);
        assert_eq!(r.next(&mut env).unwrap(), Some(data[ipb as usize - 1]));
        assert_eq!(read(&env), 2);
        // Over two whole blocks, mid-block: only the target block is read.
        r.skip_to(ipb * 3 + 17);
        assert_eq!(r.next(&mut env).unwrap(), Some(data[ipb as usize * 3 + 17]));
        assert_eq!(read(&env), 4);
        // Past the end: exhausted, nothing read.
        r.skip_to(s.len() + 5);
        assert_eq!(r.items_delivered(), s.len());
        assert_eq!(r.next(&mut env).unwrap(), None);
        assert_eq!(read(&env), 4);
        // A fresh mid-block reader that has not read yet skips like one that has.
        let mut fresh = s.reader_from(ipb + 3);
        assert_eq!(fresh.items_delivered(), ipb + 3);
        fresh.skip_to(ipb + 10);
        assert_eq!(fresh.items_delivered(), ipb + 10);
        assert_eq!(fresh.next(&mut env).unwrap(), Some(data[ipb as usize + 10]));
    }

    #[test]
    fn descriptor_roundtrip_preserves_the_stream() {
        let mut env = env();
        let data = items((ITEMS_PER_PAGE as u32) * 5 + 3);
        let s = ItemStream::from_items_with_block(&mut env, &data, 2).unwrap();
        let mut blob = s.encode();
        blob.extend_from_slice(b"trailing directory bytes");
        let (back, consumed) = ItemStream::decode(&blob).unwrap();
        assert_eq!(consumed, s.encode().len());
        assert_eq!(back.len(), s.len());
        assert_eq!(back.pages(), s.pages());
        assert_eq!(back.read_all(&mut env).unwrap(), data);
        // Truncated descriptors are rejected.
        assert!(ItemStream::decode(&blob[..10]).is_err());
    }

    #[test]
    fn reader_peek_does_not_consume() {
        let mut env = env();
        let data = items(5);
        let s = ItemStream::from_items(&mut env, &data).unwrap();
        let mut r = s.reader();
        assert_eq!(r.peek(&mut env).unwrap(), Some(data[0]));
        assert_eq!(r.peek(&mut env).unwrap(), Some(data[0]));
        assert_eq!(r.next(&mut env).unwrap(), Some(data[0]));
        assert_eq!(r.next(&mut env).unwrap(), Some(data[1]));
        assert_eq!(r.items_delivered(), 2);
    }

    #[test]
    fn push_after_finish_is_rejected() {
        let mut env = env();
        let w = ItemStreamWriter::with_default_block(&mut env);
        let _s = w.finish(&mut env).unwrap();
        // A fresh writer still works; a finished one cannot be reused because
        // finish() consumes it — verify the error path via a manual flag by
        // constructing the scenario through extend on a new writer instead.
        let mut w2 = ItemStreamWriter::new(&mut env, 2);
        w2.extend(&mut env, &items(3)).unwrap();
        let s2 = w2.finish(&mut env).unwrap();
        assert_eq!(s2.len(), 3);
    }

    #[test]
    fn interleaved_writers_still_roundtrip() {
        // Two streams written in alternation: extents interleave on the device
        // (more random I/O) but the data must still round-trip correctly.
        let mut env = env();
        let mut w1 = ItemStreamWriter::new(&mut env, 1);
        let mut w2 = ItemStreamWriter::new(&mut env, 1);
        let d1 = items(ITEMS_PER_PAGE as u32 * 3);
        let d2: Vec<Item> = items(ITEMS_PER_PAGE as u32 * 3)
            .into_iter()
            .map(|mut it| {
                it.id += 10_000;
                it
            })
            .collect();
        for i in 0..d1.len() {
            w1.push(&mut env, d1[i]).unwrap();
            w2.push(&mut env, d2[i]).unwrap();
        }
        let s1 = w1.finish(&mut env).unwrap();
        let s2 = w2.finish(&mut env).unwrap();
        assert_eq!(s1.read_all(&mut env).unwrap(), d1);
        assert_eq!(s2.read_all(&mut env).unwrap(), d2);
    }

    #[test]
    fn view_iteration_equals_owned_decode_item_for_item() {
        let mut env = env();
        // Multiple blocks plus a partial tail block.
        let data = items((ITEMS_PER_PAGE as u32) * 6 + 11);
        let s = ItemStream::from_items_with_block(&mut env, &data, 2).unwrap();

        // Owned path: record-at-a-time decode.
        let mut owned = Vec::new();
        let mut r = s.reader();
        while let Some(it) = r.next(&mut env).unwrap() {
            owned.push(it);
        }

        // Borrowed path: block views, indexed and iterated.
        let mut viewed = Vec::new();
        let mut r = s.reader();
        while let Some(view) = r.next_view(&mut env).unwrap() {
            assert!(!view.is_empty());
            for i in 0..view.len() {
                viewed.push(view.get(i));
            }
            // The iterator decodes the same records as indexed access.
            assert!(view
                .iter()
                .eq(viewed[viewed.len() - view.len()..].iter().copied()));
        }

        assert_eq!(owned, data);
        assert_eq!(viewed, data);
        assert_eq!(r.items_delivered(), data.len() as u64);
    }

    #[test]
    fn view_iteration_matches_owned_on_mid_stream_starts() {
        let mut env = env();
        let data = items((ITEMS_PER_PAGE as u32) * 4 + 5);
        let s = ItemStream::from_items_with_block(&mut env, &data, 2).unwrap();
        let items_per_block = 2 * ITEMS_PER_PAGE as u64;
        for start in [1u64, items_per_block - 1, items_per_block + 17, s.len() - 1] {
            let mut owned = Vec::new();
            let mut r = s.reader_from(start);
            while let Some(it) = r.next(&mut env).unwrap() {
                owned.push(it);
            }
            let mut viewed = Vec::new();
            let mut r = s.reader_from(start);
            while let Some(view) = r.next_view(&mut env).unwrap() {
                viewed.extend(view.iter());
            }
            assert_eq!(owned, data[start as usize..], "start {start}");
            assert_eq!(viewed, owned, "start {start}");
        }
    }

    #[test]
    fn views_read_identically_from_a_base_snapshot_overlay() {
        use crate::device::BlockDevice;

        let mut env = env();
        let data = items((ITEMS_PER_PAGE as u32) * 3 + 7);
        let s = ItemStream::from_items_with_block(&mut env, &data, 2).unwrap();

        // Freeze the device and layer a fresh one on top: the stream's pages
        // now come from the read-only base snapshot.
        let base = env.device.snapshot();
        let mut overlay_env = SimEnv::new(MachineConfig::machine3());
        overlay_env.device = BlockDevice::with_base(base);

        let mut viewed = Vec::new();
        let mut r = s.reader();
        while let Some(view) = r.next_view(&mut overlay_env).unwrap() {
            viewed.extend(view.iter());
        }
        assert_eq!(viewed, data);
        // Snapshot reads are charged like any other read.
        assert_eq!(overlay_env.device.stats().pages_read, s.pages());
        // The mid-stream path works over the overlay too.
        let mut tail = Vec::new();
        let mut r = s.reader_from(s.len() - 3);
        while let Some(view) = r.next_view(&mut overlay_env).unwrap() {
            tail.extend(view.iter());
        }
        assert_eq!(tail, data[data.len() - 3..]);
    }

    #[test]
    fn read_all_into_reuses_the_buffer() {
        let mut env = env();
        let a = items(ITEMS_PER_PAGE as u32 + 3);
        let b = items(7);
        let sa = ItemStream::from_items_with_block(&mut env, &a, 1).unwrap();
        let sb = ItemStream::from_items_with_block(&mut env, &b, 1).unwrap();
        let mut buf = Vec::new();
        sa.read_all_into(&mut env, &mut buf).unwrap();
        assert_eq!(buf, a);
        let cap = buf.capacity();
        sb.read_all_into(&mut env, &mut buf).unwrap();
        assert_eq!(buf, b);
        assert!(
            buf.capacity() >= cap,
            "read_all_into must not shrink the buffer"
        );
    }

    #[test]
    fn writer_claims_blocks_not_records_from_the_gauge() {
        let mut env = env();
        let block_payload = ITEMS_PER_PAGE * ITEM_BYTES;
        let mut w = ItemStreamWriter::new(&mut env, 1);
        assert_eq!(env.memory.current(), 0, "no claim before the first record");
        w.push(&mut env, items(1)[0]).unwrap();
        assert_eq!(
            env.memory.current(),
            block_payload,
            "the first record claims the whole block"
        );
        w.extend(&mut env, &items(ITEMS_PER_PAGE as u32 * 2))
            .unwrap();
        assert_eq!(
            env.memory.current(),
            block_payload,
            "later records and flushes cause no gauge traffic"
        );
        let s = w.finish(&mut env).unwrap();
        assert_eq!(env.memory.current(), 0, "finish releases the claim");
        assert_eq!(s.len(), 1 + 2 * ITEMS_PER_PAGE as u64);
    }

    #[test]
    fn writer_degrades_to_per_record_claims_under_a_tight_governor() {
        // A limit below one default block: the writer must still work,
        // charging record-granular claims like the pre-block-granular path.
        let mut env = SimEnv::new(MachineConfig::machine3()).with_memory_limit(4096);
        let mut w = ItemStreamWriter::new(&mut env, DEFAULT_PAGES_PER_BLOCK);
        let data = items(100);
        for it in &data {
            w.push(&mut env, *it).unwrap();
        }
        assert_eq!(env.memory.current(), 100 * ITEM_BYTES);
        let s = w.finish(&mut env).unwrap();
        assert_eq!(env.memory.current(), 0);
        assert_eq!(s.read_all(&mut env).unwrap(), data);
    }
}
