//! The external *spilling* plane-sweep driver.
//!
//! [`SweepDriver`](crate::SweepDriver) keeps both interval structures fully
//! in memory — fine for the paper's real-life workloads, where Table 3 shows
//! the sweep state staying far below 1 % of the data, but a silent budget
//! violation on adversarial inputs (many long-lived rectangles alive at the
//! same sweep position). This driver enforces the memory-governor budget:
//!
//! 1. The in-memory structures register their bytes with the environment's
//!    [`MemoryGauge`](usj_io::MemoryGauge).
//! 2. When they outgrow the budget, the driver *evicts* the resident items
//!    the sweep line will expire soonest (their fix-up window is the
//!    shortest) and writes them to a **spill batch** on the simulated
//!    device — sequential writes, charged like any other I/O.
//! 3. While any batch is live, every arriving item is also appended to a
//!    shared **shadow log**. Once the sweep line has passed every spilled
//!    item (the *epoch* ends), each batch is read back and joined against
//!    the portion of the log that arrived after its eviction — exactly the
//!    intersections the in-memory sweep could no longer see.
//!
//! Each missed pair is recovered exactly once: a pair `(s, z)` with `s`
//! spilled and `z` arriving later is reported by the unique batch holding
//! `s`, against the log suffix starting at `s`'s eviction; partners that
//! arrived *before* the eviction were already reported by the in-memory
//! probe and fall outside that suffix. The reported pair *set* is therefore
//! identical to the all-in-memory driver's; only the order of the fix-up
//! pairs differs (they surface when their epoch closes). Spill volume and
//! episode counts are reported through
//! [`SweepJoinStats::spilled_items`]/[`spill_runs`](SweepJoinStats::spill_runs).

use usj_geom::Item;
use usj_io::{ItemStream, ItemStreamWriter, MemoryReservation, Result, SimEnv};

use crate::driver::{Side, SweepJoinStats};
use crate::structure::SweepStructure;
use crate::StripedSweep;

/// Smallest in-memory budget the driver will operate with, even when the
/// gauge headroom is lower (a handful of pages; below this the simulation
/// degenerates into one spill per item).
pub const MIN_SWEEP_BUDGET: usize = 4096;

/// Logical block size (in pages) of the spill batches and the shadow log.
/// Small on purpose: the writers' block buffers are themselves charged to
/// the gauge.
pub(crate) const SPILL_PAGES_PER_BLOCK: u64 = 1;

/// One eviction: the spilled items of both sides, plus where in the shared
/// shadow log the post-eviction arrivals begin.
///
/// Shared with the symmetric streaming driver
/// ([`SymmetricSweepDriver`](crate::SymmetricSweepDriver)), whose epoch
/// lifecycle is watermark-driven but whose batches are identical.
#[derive(Debug)]
pub(crate) struct SpillBatch {
    pub(crate) left: ItemStream,
    pub(crate) right: ItemStream,
    pub(crate) log_left_start: u64,
    pub(crate) log_right_start: u64,
}

/// The live spill state: open batches and the shared shadow log of every
/// arrival since the first of them. Ends (and is fixed up) once the sweep
/// line passes `max_y`.
#[derive(Debug)]
pub(crate) struct SpillEpoch {
    pub(crate) batches: Vec<SpillBatch>,
    pub(crate) log_left: ItemStreamWriter,
    pub(crate) log_right: ItemStreamWriter,
    pub(crate) log_left_n: u64,
    pub(crate) log_right_n: u64,
    /// Largest upper y-coordinate among all spilled items of the epoch.
    pub(crate) max_y: f32,
}

impl SpillEpoch {
    /// An empty epoch with fresh shadow logs.
    pub(crate) fn new(env: &mut SimEnv) -> Self {
        SpillEpoch {
            batches: Vec::new(),
            log_left: ItemStreamWriter::new(env, SPILL_PAGES_PER_BLOCK),
            log_right: ItemStreamWriter::new(env, SPILL_PAGES_PER_BLOCK),
            log_left_n: 0,
            log_right_n: 0,
            max_y: f32::NEG_INFINITY,
        }
    }

    /// Shadow-logs one arrival on `side`.
    pub(crate) fn log(&mut self, env: &mut SimEnv, side: Side, item: Item) -> Result<()> {
        match side {
            Side::Left => {
                self.log_left.push(env, item)?;
                self.log_left_n += 1;
            }
            Side::Right => {
                self.log_right.push(env, item)?;
                self.log_right_n += 1;
            }
        }
        Ok(())
    }

    /// Closes the epoch: joins every batch against its shadow-log suffix
    /// (see [`join_batch_against_log`]) and returns the rectangle tests
    /// that took. `x_extent` is the extent of the evicting structures.
    pub(crate) fn fixup<F: FnMut(&Item, &Item)>(
        self,
        env: &mut SimEnv,
        x_extent: (f32, f32),
        report: &mut F,
    ) -> Result<u64> {
        let log_left = self.log_left.finish(env)?;
        let log_right = self.log_right.finish(env)?;
        let mut tests = 0;
        for b in self.batches {
            for (spilled, log, from, side) in [
                (&b.left, &log_right, b.log_right_start, Side::Left),
                (&b.right, &log_left, b.log_left_start, Side::Right),
            ] {
                tests += join_batch_against_log(env, spilled, log, from, side, x_extent, report)?;
            }
        }
        Ok(tests)
    }
}

/// Joins one spilled batch side against the shadow-log entries that arrived
/// after its eviction, returning the number of rectangle tests performed.
///
/// This is a sweep of its own, never a nested loop: the batch is read back
/// in memory-governed chunks, each chunk is loaded into a [`StripedSweep`]
/// over `x_extent`, and the log suffix streams past it with
/// `expire_before(z.lo.y)` + `query(z)`. Either side's log is ascending in
/// lower-y — all the expiry needs — so reading stops as soon as the chunk
/// has fully expired. The symmetric driver interleaves the sides freely
/// (a log entry may lie wholly *below* a spilled item), so every probe hit
/// is confirmed with the full rectangle test.
///
/// `x_extent` is the extent of the structures the batch was evicted from,
/// not the chunk's own: under the strips the items lived in, an index over
/// part of them is never larger than the structure that held all of them,
/// whereas strips fitted to a chunk of near-identical rectangles would copy
/// each of them into every strip.
///
/// Chunking matters: an "evict everything" batch can approach the whole
/// budget, and at epoch-close time the live structures may hold the budget
/// again — reserving the full batch could spuriously exceed the limit,
/// while an index grown to half the *current* headroom always fits, and
/// the gauge is charged its real bytes. The log reader starts directly at
/// the batch's suffix, so pre-eviction blocks are never re-read (they were
/// probed in memory; re-reporting them would duplicate pairs).
pub(crate) fn join_batch_against_log<F: FnMut(&Item, &Item)>(
    env: &mut SimEnv,
    spilled: &ItemStream,
    log: &ItemStream,
    log_start: u64,
    spilled_side: Side,
    x_extent: (f32, f32),
    report: &mut F,
) -> Result<u64> {
    if spilled.is_empty() || log.len() <= log_start {
        return Ok(0);
    }
    let mut rect_tests = 0u64;
    let mut claim = env.memory.reserve_empty();
    let mut spilled_reader = spilled.reader();
    while spilled_reader.peek(env)?.is_some() {
        claim.release();
        // Peeking primed both readers: the headroom is net of their blocks,
        // and half of it leaves room for the one insert (and the strip
        // re-tune it may trigger) that takes the index past its budget.
        let mut reader = log.reader_from(log_start);
        reader.peek(env)?;
        let budget = (env.memory.headroom() / 2).max(MIN_SWEEP_BUDGET);
        let mut index = StripedSweep::with_extent(x_extent.0, x_extent.1);
        while index.bytes() <= budget {
            match spilled_reader.next(env)? {
                Some(s) => index.insert(s),
                None => break,
            }
        }
        claim.try_set(index.bytes())?;
        while let Some(z) = reader.next(env)? {
            index.expire_before(z.rect.lo.y);
            if index.is_empty() {
                break;
            }
            index.query(&z, |s| {
                if s.rect.intersects(&z.rect) {
                    match spilled_side {
                        Side::Left => report(s, &z),
                        Side::Right => report(&z, s),
                    }
                }
            });
        }
        rect_tests += index.stats().rect_tests;
    }
    Ok(rect_tests)
}

/// A memory-governed streaming plane-sweep join over two y-sorted inputs.
///
/// The drop-in external sibling of
/// [`SweepDriver<StripedSweep>`](crate::SweepDriver): same push-based
/// protocol, but `push` takes the environment (evictions and fix-ups perform
/// simulated I/O) and the in-memory state never exceeds the budget derived
/// from the gauge's headroom at construction.
#[derive(Debug)]
pub struct SpillingSweepDriver {
    left: StripedSweep,
    right: StripedSweep,
    stats: SweepJoinStats,
    last_y: f32,
    budget: usize,
    reservation: MemoryReservation,
    epoch: Option<SpillEpoch>,
    fixup_rect_tests: u64,
    /// Reusable eviction buffers: [`StripedSweep::evict_until`] appends into
    /// them, so repeated spill episodes stop allocating fresh vectors.
    evict_left: Vec<Item>,
    evict_right: Vec<Item>,
    /// Reusable scratch for [`StripedSweep::resident_expiries`].
    expiry_scratch: Vec<f32>,
}

impl SpillingSweepDriver {
    /// Creates a driver whose structures cover the x-extent `[x_lo, x_hi]`.
    ///
    /// The in-memory budget is half the gauge's current headroom (floored at
    /// [`MIN_SWEEP_BUDGET`]): the other half stays free for the fix-up
    /// working sets, the spill-batch writers and the shadow-log buffers. It
    /// is *current* headroom: a caller that feeds the driver from stream
    /// readers primes them first, so their block buffers are not promised
    /// to the sweep as well.
    pub fn new(env: &SimEnv, x_lo: f32, x_hi: f32) -> Self {
        let budget = (env.memory.headroom() / 2).max(MIN_SWEEP_BUDGET);
        SpillingSweepDriver {
            left: StripedSweep::with_extent(x_lo, x_hi),
            right: StripedSweep::with_extent(x_lo, x_hi),
            stats: SweepJoinStats::default(),
            last_y: f32::NEG_INFINITY,
            budget,
            reservation: env.memory.reserve_empty(),
            epoch: None,
            fixup_rect_tests: 0,
            evict_left: Vec::new(),
            evict_right: Vec::new(),
            expiry_scratch: Vec::new(),
        }
    }

    /// In-memory budget in bytes.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Spill batches of the current epoch still awaiting their fix-up join.
    pub fn open_batches(&self) -> usize {
        self.epoch.as_ref().map_or(0, |e| e.batches.len())
    }

    /// Advances the sweep line to `item.rect.lo.y` and processes `item` from
    /// input `side`, reporting every join partner as `(left_item,
    /// right_item)`. Items must be pushed in ascending lower-y order across
    /// both sides (asserted in debug builds).
    ///
    /// Fix-up pairs of a spill epoch the sweep line has passed are reported
    /// through the same callback before the new item is processed.
    pub fn push<F: FnMut(&Item, &Item)>(
        &mut self,
        env: &mut SimEnv,
        side: Side,
        item: Item,
        mut report: F,
    ) -> Result<()> {
        let y = item.rect.lo.y;
        debug_assert!(
            y >= self.last_y,
            "sweep inputs must be pushed in ascending lower-y order"
        );
        self.last_y = y;

        // Close the epoch once every spilled item has expired.
        if self.epoch.as_ref().is_some_and(|e| e.max_y < y) {
            let epoch = self.epoch.take().expect("checked above");
            self.fixup_rect_tests += epoch.fixup(env, self.left.extent(), &mut report)?;
        }

        self.left.expire_before(y);
        self.right.expire_before(y);

        // Shadow-log the arrival: its pairs with already-spilled items can
        // only be discovered at fix-up time.
        if let Some(epoch) = &mut self.epoch {
            epoch.log(env, side, item)?;
        }

        match side {
            Side::Left => {
                self.right.query(&item, |other| report(&item, other));
                self.left.insert(item);
                self.stats.left_items += 1;
            }
            Side::Right => {
                self.left.query(&item, |other| report(other, &item));
                self.right.insert(item);
                self.stats.right_items += 1;
            }
        }
        self.note_sizes();

        if self.left.bytes() + self.right.bytes() > self.budget {
            self.spill(env)?;
        }
        self.reservation
            .try_set(self.left.bytes() + self.right.bytes())?;
        Ok(())
    }

    fn note_sizes(&mut self) {
        let bytes = self.left.bytes() + self.right.bytes();
        let resident = self.left.len() + self.right.len();
        self.stats.max_structure_bytes = self.stats.max_structure_bytes.max(bytes);
        self.stats.max_resident = self.stats.max_resident.max(resident);
    }

    /// Evicts the soonest-to-expire resident items until the in-memory state
    /// is at most half the budget, writing them to a new spill batch.
    fn spill(&mut self, env: &mut SimEnv) -> Result<()> {
        self.expiry_scratch.clear();
        self.left.resident_expiries(&mut self.expiry_scratch);
        self.right.resident_expiries(&mut self.expiry_scratch);
        if self.expiry_scratch.is_empty() {
            return Ok(());
        }
        let mid = self.expiry_scratch.len() / 2;
        self.expiry_scratch.select_nth_unstable_by(mid, f32::total_cmp);
        let cut = self.expiry_scratch[mid];

        self.evict_left.clear();
        self.evict_right.clear();
        self.left.evict_until(cut, &mut self.evict_left);
        self.right.evict_until(cut, &mut self.evict_right);
        if self.left.bytes() + self.right.bytes() > self.budget / 2 {
            // Median eviction was not enough (heavily duplicated expiries or
            // strip-spanning copies): evict everything. `evict_until` appends
            // to the reusable buffers, so no extra vector changes hands.
            self.left.evict_until(f32::INFINITY, &mut self.evict_left);
            self.right.evict_until(f32::INFINITY, &mut self.evict_right);
        }
        if self.evict_left.is_empty() && self.evict_right.is_empty() {
            return Ok(());
        }

        let mut batch_max_y = f32::NEG_INFINITY;
        for it in self.evict_left.iter().chain(self.evict_right.iter()) {
            batch_max_y = batch_max_y.max(it.rect.hi.y);
        }
        let mut wl = ItemStreamWriter::new(env, SPILL_PAGES_PER_BLOCK);
        for it in &self.evict_left {
            wl.push(env, *it)?;
        }
        let left = wl.finish(env)?;
        let mut wr = ItemStreamWriter::new(env, SPILL_PAGES_PER_BLOCK);
        for it in &self.evict_right {
            wr.push(env, *it)?;
        }
        let right = wr.finish(env)?;

        self.stats.spilled_items += (self.evict_left.len() + self.evict_right.len()) as u64;
        self.stats.spill_runs += 1;
        usj_obs::instant(
            "sweep.spill",
            (self.evict_left.len() + self.evict_right.len()) as u64,
        );

        let epoch = match &mut self.epoch {
            Some(e) => e,
            None => self.epoch.insert(SpillEpoch::new(env)),
        };
        epoch.max_y = epoch.max_y.max(batch_max_y);
        epoch.batches.push(SpillBatch {
            left,
            right,
            log_left_start: epoch.log_left_n,
            log_right_start: epoch.log_right_n,
        });
        Ok(())
    }

    /// Registers `n` reported pairs in the statistics (the driver does not
    /// count them itself, mirroring [`SweepDriver`](crate::SweepDriver)).
    pub fn add_pairs(&mut self, n: u64) {
        self.stats.pairs += n;
    }

    /// Fixes up any remaining spill epoch (reporting its pairs) and returns
    /// the final statistics.
    pub fn finish<F: FnMut(&Item, &Item)>(
        mut self,
        env: &mut SimEnv,
        mut report: F,
    ) -> Result<SweepJoinStats> {
        if let Some(epoch) = self.epoch.take() {
            self.fixup_rect_tests += epoch.fixup(env, self.left.extent(), &mut report)?;
        }
        Ok(self.stats_snapshot())
    }

    /// Abandons any pending spill state *without* reading it back — the
    /// early-termination path (a stopped sink does not want more pairs, so
    /// the fix-up I/O is saved).
    pub fn discard(self) -> SweepJoinStats {
        self.stats_snapshot()
    }

    fn stats_snapshot(&self) -> SweepJoinStats {
        let mut stats = self.stats;
        stats.rect_tests =
            self.left.stats().rect_tests + self.right.stats().rect_tests + self.fixup_rect_tests;
        stats
    }
}

/// The fix-up as it was before it became a sweep — every spilled item
/// against every later log entry — kept as the oracle the sweep is tested
/// against. Returns the `(left, right)` identifier pairs, sorted.
#[cfg(test)]
pub(crate) fn nested_loop_fixup(
    env: &mut SimEnv,
    spilled: &ItemStream,
    log: &ItemStream,
    log_start: u64,
    spilled_side: Side,
) -> Vec<(u32, u32)> {
    let batch = spilled.read_all(env).unwrap();
    let mut out = Vec::new();
    let mut reader = log.reader_from(log_start);
    while let Some(z) = reader.next(env).unwrap() {
        for s in batch.iter().filter(|s| s.rect.intersects(&z.rect)) {
            out.push(match spilled_side {
                Side::Left => (s.id, z.id),
                Side::Right => (z.id, s.id),
            });
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_geom::Rect;
    use usj_io::MachineConfig;

    /// Runs the sweep fix-up and returns its pairs (sorted, and checked to
    /// be duplicate-free) with the rectangle tests it counted.
    fn sweep_fixup(
        env: &mut SimEnv,
        spilled: &ItemStream,
        log: &ItemStream,
        log_start: u64,
        side: Side,
    ) -> (Vec<(u32, u32)>, u64) {
        let mut out = Vec::new();
        let mut report = |a: &Item, b: &Item| out.push((a.id, b.id));
        let tests =
            join_batch_against_log(env, spilled, log, log_start, side, (0.0, 64.0), &mut report)
                .unwrap();
        let n = out.len();
        out.sort_unstable();
        out.dedup();
        assert_eq!(out.len(), n, "the fix-up reported a pair twice");
        (out, tests)
    }

    /// One-page blocks, like the drivers' batches and logs.
    fn stream(env: &mut SimEnv, items: &[Item]) -> ItemStream {
        ItemStream::from_items_with_block(env, items, SPILL_PAGES_PER_BLOCK).unwrap()
    }

    /// `n` rectangles ascending in lower-y from `y0` in steps of `dy`,
    /// `height` tall, `width` wide, cycling over 41 x-positions.
    fn ascending(n: u32, y0: f32, dy: f32, height: f32, width: f32, id_base: u32) -> Vec<Item> {
        (0..n)
            .map(|i| {
                let x = (i % 41) as f32 * 1.5;
                let y = y0 + i as f32 * dy;
                item(x, y, x + width, y + height, id_base + i)
            })
            .collect()
    }

    #[test]
    fn sweep_fixup_equals_the_nested_loop_in_sweep_order() {
        // The spilling driver's regime: every log entry starts at or above
        // every spilled item's lower edge.
        let mut env = env_with_memory(16 * 1024 * 1024);
        let spilled = ascending(900, 0.0, 0.01, 40.0, 2.0, 0);
        let log = ascending(3_000, 9.0, 0.02, 5.0, 2.5, 100_000);
        let (s, l) = (stream(&mut env, &spilled), stream(&mut env, &log));
        for side in [Side::Left, Side::Right] {
            // Block-aligned, mid-block, last-record and past-the-end starts.
            for start in [0, 409, 1_000, 2_999, 3_000, 5_000] {
                let want = nested_loop_fixup(&mut env, &s, &l, start, side);
                let (got, tests) = sweep_fixup(&mut env, &s, &l, start, side);
                assert_eq!(got, want, "{side:?} from {start}");
                let nested = 900 * 3_000u64.saturating_sub(start);
                assert!(tests <= nested / 5, "{tests} tests, nested loop {nested}");
            }
        }
        assert!(!nested_loop_fixup(&mut env, &s, &l, 0, Side::Left).is_empty());
    }

    #[test]
    fn sweep_fixup_equals_the_nested_loop_when_the_sides_are_out_of_step() {
        // The symmetric driver's regime: the log's side lagged far behind,
        // so most of its entries lie wholly *below* the spilled items they
        // overlap in x — probe hits the full rectangle test must reject.
        let mut env = env_with_memory(16 * 1024 * 1024);
        let spilled = ascending(700, 500.0, 0.05, 30.0, 2.0, 0);
        let log = ascending(4_000, 0.0, 0.15, 6.0, 2.5, 100_000);
        let (s, l) = (stream(&mut env, &spilled), stream(&mut env, &log));
        for side in [Side::Left, Side::Right] {
            for start in [0, 777, 3_400] {
                let want = nested_loop_fixup(&mut env, &s, &l, start, side);
                let (got, _) = sweep_fixup(&mut env, &s, &l, start, side);
                assert_eq!(got, want, "{side:?} from {start}");
            }
        }
        let all = nested_loop_fixup(&mut env, &s, &l, 0, Side::Left);
        let below = log.iter().filter(|z| z.rect.hi.y < 500.0).count();
        assert!(
            !all.is_empty() && below > 3_000,
            "{} pairs, {below} below",
            all.len()
        );
    }

    #[test]
    fn a_batch_that_expires_early_stops_reading_the_log() {
        let mut env = env_with_memory(16 * 1024 * 1024);
        // The batch is gone after y = 12; the log runs on to y = 400.
        let spilled = ascending(400, 0.0, 0.01, 8.0, 2.0, 0);
        let log = ascending(20_000, 4.0, 0.02, 3.0, 2.5, 100_000);
        let (s, l) = (stream(&mut env, &spilled), stream(&mut env, &log));
        let want = nested_loop_fixup(&mut env, &s, &l, 0, Side::Left);
        assert!(!want.is_empty());
        let m = env.begin();
        let (got, _) = sweep_fixup(&mut env, &s, &l, 0, Side::Left);
        let (io, _) = env.since(&m);
        assert_eq!(got, want);
        assert!(
            io.pages_read < (s.pages() + l.pages()) / 4,
            "read {} pages of a {}-page batch and a {}-page log",
            io.pages_read,
            s.pages(),
            l.pages()
        );
    }

    #[test]
    fn the_gauge_stays_within_64_kb_during_a_fixup() {
        let mut env = env_with_memory(64 * 1024);
        // Every seventh rectangle spans the whole extent: its strip copies
        // make the index several times the size of the items in it, and the
        // real bytes are what must fit.
        let spilled: Vec<Item> = ascending(6_000, 0.0, 0.01, 50.0, 1.0, 0)
            .into_iter()
            .map(|it| match it.id % 7 {
                0 => item(0.0, it.rect.lo.y, 63.0, it.rect.hi.y, it.id),
                _ => it,
            })
            .collect();
        let log = ascending(5_000, 30.0, 0.02, 4.0, 2.5, 100_000);
        let (s, l) = (stream(&mut env, &spilled), stream(&mut env, &log));
        // Half the memory is in use, as it is when an epoch closes.
        let _held = env.memory.try_reserve(32 * 1024).unwrap();
        env.memory.begin_phase();
        let (got, _) = sweep_fixup(&mut env, &s, &l, 1_234, Side::Right);
        assert!(
            env.memory.peak() <= env.memory_limit,
            "peak {} exceeds the limit",
            env.memory.peak()
        );
        assert_eq!(
            env.memory.current(),
            32 * 1024,
            "the fix-up leaked its claim"
        );
        drop(_held);
        let mut ample = env_with_memory(16 * 1024 * 1024);
        let (s, l) = (stream(&mut ample, &spilled), stream(&mut ample, &log));
        assert_eq!(
            got,
            nested_loop_fixup(&mut ample, &s, &l, 1_234, Side::Right)
        );
    }

    /// Narrow short-lived rectangles under extent-spanning long-lived ones:
    /// evicting the soonest-to-expire half frees almost nothing (the copies
    /// of the wide ones stay), so every spill falls through to
    /// `evict_until(∞)`.
    fn narrow_under_wide(n: u32, id_base: u32) -> Vec<Item> {
        (0..n)
            .map(|i| {
                let (x, y) = ((i % 61) as f32, i as f32 * 0.01);
                match i % 3 {
                    0 => item(0.0, y, 64.0, y + 60.0, id_base + i),
                    _ => item(x, y, x + 0.5, y + 2.0, id_base + i),
                }
            })
            .collect()
    }

    #[test]
    fn evict_everything_batches_are_fixed_up_exactly() {
        let mut env = env_with_memory(64 * 1024);
        let left = narrow_under_wide(900, 0);
        let right = narrow_under_wide(900, 10_000);
        let (pairs, stats) = run_spilling(&mut env, &left, &right);
        assert_eq!(pairs, brute(&left, &right));
        assert!(stats.spill_runs > 0, "{stats:?}");
        // Far more was spilled than half the residents per episode.
        assert!(
            stats.spilled_items > stats.spill_runs * stats.max_resident as u64 * 3 / 4,
            "{stats:?}"
        );
        assert!(env.memory.peak() <= env.memory_limit);
    }

    fn item(x0: f32, y0: f32, x1: f32, y1: f32, id: u32) -> Item {
        Item::new(Rect::from_coords(x0, y0, x1, y1), id)
    }

    fn env_with_memory(bytes: usize) -> SimEnv {
        SimEnv::new(MachineConfig::machine3()).with_memory_limit(bytes)
    }

    /// Dense long-lived rectangles: many are alive at once, so a small
    /// budget must spill.
    fn long_lived(n: u32, id_base: u32) -> Vec<Item> {
        (0..n)
            .map(|i| {
                let x = (i % 37) as f32;
                let y = i as f32 * 0.01;
                item(x, y, x + 3.0, y + 50.0, id_base + i)
            })
            .collect()
    }

    fn brute(left: &[Item], right: &[Item]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for a in left {
            for b in right {
                if a.rect.intersects(&b.rect) {
                    out.push((a.id, b.id));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn run_spilling(
        env: &mut SimEnv,
        left: &[Item],
        right: &[Item],
    ) -> (Vec<(u32, u32)>, SweepJoinStats) {
        let mut l = left.to_vec();
        let mut r = right.to_vec();
        l.sort_unstable_by(Item::cmp_by_lower_y);
        r.sort_unstable_by(Item::cmp_by_lower_y);
        let mut driver = SpillingSweepDriver::new(env, 0.0, 64.0);
        let mut out = Vec::new();
        let (mut li, mut ri) = (0, 0);
        while li < l.len() || ri < r.len() {
            let take_left = match (l.get(li), r.get(ri)) {
                (Some(a), Some(b)) => a.cmp_by_lower_y(b) != std::cmp::Ordering::Greater,
                (Some(_), None) => true,
                _ => false,
            };
            if take_left {
                driver
                    .push(env, Side::Left, l[li], |a, b| out.push((a.id, b.id)))
                    .unwrap();
                li += 1;
            } else {
                driver
                    .push(env, Side::Right, r[ri], |a, b| out.push((a.id, b.id)))
                    .unwrap();
                ri += 1;
            }
        }
        driver.add_pairs(out.len() as u64);
        let stats = driver.finish(env, |a, b| out.push((a.id, b.id))).unwrap();
        out.sort_unstable();
        out.dedup();
        (out, stats)
    }

    #[test]
    fn no_spill_when_the_budget_is_ample() {
        let mut env = env_with_memory(16 * 1024 * 1024);
        let left = long_lived(200, 0);
        let right = long_lived(200, 10_000);
        let (pairs, stats) = run_spilling(&mut env, &left, &right);
        assert_eq!(pairs, brute(&left, &right));
        assert_eq!(stats.spill_runs, 0);
        assert_eq!(stats.spilled_items, 0);
    }

    #[test]
    fn spilling_reports_the_exact_pair_set_and_charges_io() {
        let mut env = env_with_memory(64 * 1024);
        let left = long_lived(700, 0);
        let right = long_lived(700, 10_000);
        let m = env.begin();
        let (pairs, stats) = run_spilling(&mut env, &left, &right);
        let (io, _) = env.since(&m);
        assert_eq!(pairs, brute(&left, &right));
        assert!(stats.spill_runs > 0, "a 32 KB budget must spill: {stats:?}");
        assert!(stats.spilled_items > 0);
        assert!(io.pages_written > 0, "spill batches are written to the device");
        assert!(io.pages_read > 0, "fix-ups read the spilled items back");
        // The in-memory state stayed near the budget. A single push may
        // overshoot before the spill reacts, and that push may additionally
        // trigger a strip-layout retune (more strips -> more copies of wide
        // items plus per-strip overhead), so allow one block of slack.
        assert!(stats.max_structure_bytes <= 32 * 1024 + 8192, "{stats:?}");
    }

    #[test]
    fn spill_pairs_are_reported_exactly_once() {
        // No dedup pass: the raw report sequence must already be
        // duplicate-free across the in-memory and fix-up paths.
        let mut env = env_with_memory(64 * 1024);
        let left = long_lived(500, 0);
        let right = long_lived(500, 10_000);
        let mut l = left.clone();
        let mut r = right.clone();
        l.sort_unstable_by(Item::cmp_by_lower_y);
        r.sort_unstable_by(Item::cmp_by_lower_y);
        let mut driver = SpillingSweepDriver::new(&env, 0.0, 64.0);
        let mut out = Vec::new();
        for (a, b) in l.iter().zip(r.iter()) {
            driver
                .push(&mut env, Side::Left, *a, |x, y| out.push((x.id, y.id)))
                .unwrap();
            driver
                .push(&mut env, Side::Right, *b, |x, y| out.push((x.id, y.id)))
                .unwrap();
        }
        let stats = driver
            .finish(&mut env, |x, y| out.push((x.id, y.id)))
            .unwrap();
        assert!(stats.spill_runs > 0);
        let n = out.len();
        out.sort_unstable();
        out.dedup();
        assert_eq!(out.len(), n, "fix-up re-reported already-seen pairs");
        assert_eq!(out, brute(&left, &right));
    }

    #[test]
    fn memory_gauge_never_exceeds_the_limit_while_spilling() {
        let mut env = env_with_memory(64 * 1024);
        let left = long_lived(800, 0);
        let right = long_lived(800, 10_000);
        env.memory.begin_phase();
        let (pairs, stats) = run_spilling(&mut env, &left, &right);
        assert_eq!(pairs.len(), brute(&left, &right).len());
        assert!(stats.spill_runs > 0);
        assert!(
            env.memory.peak() <= env.memory_limit,
            "peak {} exceeds limit {}",
            env.memory.peak(),
            env.memory_limit
        );
    }

    #[test]
    fn discard_skips_the_fixup_io() {
        let mut env = env_with_memory(64 * 1024);
        let left = long_lived(500, 0);
        let right = long_lived(500, 10_000);
        let mut l = left.clone();
        l.sort_unstable_by(Item::cmp_by_lower_y);
        let mut r = right.clone();
        r.sort_unstable_by(Item::cmp_by_lower_y);
        let mut driver = SpillingSweepDriver::new(&env, 0.0, 64.0);
        for (a, b) in l.iter().zip(r.iter()) {
            driver.push(&mut env, Side::Left, *a, |_, _| {}).unwrap();
            driver.push(&mut env, Side::Right, *b, |_, _| {}).unwrap();
        }
        assert!(driver.open_batches() > 0, "batches should still be open");
        let m = env.begin();
        let stats = driver.discard();
        let (io, _) = env.since(&m);
        assert!(stats.spill_runs > 0);
        assert_eq!(io.pages_read, 0, "discard must not read the batches back");
    }
}
