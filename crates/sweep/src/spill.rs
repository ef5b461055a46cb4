//! The external *spilling* plane-sweep driver and the merge that feeds it.
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
//!
//! It is the one sweep behind SSSJ, PQ and the streaming join over live
//! snapshots. All three pull two y-ordered sources through [`merge_sweep`],
//! which feeds the driver in global lower-y order and closes each side as
//! its source ends ([`SpillingSweepDriver::close_side`]).

use std::cmp::Ordering;
use std::ops::ControlFlow;

use usj_geom::{f32_order_key, Item};
use usj_io::{CpuOp, ItemStream, ItemStreamWriter, MemoryReservation, Result, SimEnv};

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
#[derive(Debug)]
struct SpillBatch {
    left: ItemStream,
    right: ItemStream,
    log_left_start: u64,
    log_right_start: u64,
}

/// The live spill state: open batches and the shared shadow log of every
/// arrival since the first of them. Ends (and is fixed up) once the sweep
/// line passes `max_y`.
#[derive(Debug)]
struct SpillEpoch {
    batches: Vec<SpillBatch>,
    log_left: ItemStreamWriter,
    log_right: ItemStreamWriter,
    log_left_n: u64,
    log_right_n: u64,
    /// Largest upper y-coordinate among all spilled items of the epoch.
    max_y: f32,
}

impl SpillEpoch {
    /// An empty epoch with fresh shadow logs.
    fn new(env: &mut SimEnv) -> Self {
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
    fn log(&mut self, env: &mut SimEnv, side: Side, item: Item) -> Result<()> {
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
    fn fixup<F: FnMut(&Item, &Item)>(
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
/// `expire_before(z.lo.y)` + `query(z)`. Every log entry of the suffix was
/// pushed after every spilled item, so it starts at or above their lower
/// edges: a spilled item the expiry keeps and the probe finds in x-range
/// overlaps the entry, and reading stops as soon as the chunk has fully
/// expired.
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
            index.query(&z, |s| match spilled_side {
                Side::Left => report(s, &z),
                Side::Right => report(&z, s),
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
/// from the gauge's headroom at construction. Items must arrive in
/// ascending lower-y order across both sides; [`merge_sweep`] feeds it from
/// two sorted sources.
#[derive(Debug)]
pub struct SpillingSweepDriver {
    left: StripedSweep,
    right: StripedSweep,
    stats: SweepJoinStats,
    last_y: f32,
    /// Sides whose input has ended, indexed by [`Side`].
    closed: [bool; 2],
    budget: usize,
    reservation: MemoryReservation,
    epoch: Option<SpillEpoch>,
    fixup_rect_tests: u64,
    /// Expirations (both sides) already reported by a `sweep.expire` mark.
    expirations_marked: u64,
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
            closed: [false; 2],
            budget,
            reservation: env.memory.reserve_empty(),
            epoch: None,
            fixup_rect_tests: 0,
            expirations_marked: 0,
            evict_left: Vec::new(),
            evict_right: Vec::new(),
            expiry_scratch: Vec::new(),
        }
    }

    /// Spill batches of the current epoch still awaiting their fix-up join.
    pub fn open_batches(&self) -> usize {
        self.epoch.as_ref().map_or(0, |e| e.batches.len())
    }

    /// Advances the sweep line to `item.rect.lo.y` and processes `item` from
    /// input `side`, reporting every join partner as `(left_item,
    /// right_item)`. Items must be pushed in ascending lower-y order across
    /// both sides, and never on a closed side (asserted in debug builds).
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
        // The keyed sort's order: a NaN lower y sorts last.
        debug_assert!(
            f32_order_key(y) >= f32_order_key(self.last_y),
            "sweep inputs must be pushed in ascending lower-y order"
        );
        debug_assert!(!self.closed[side as usize], "push on a closed side");
        self.last_y = y;
        self.expire();

        // Close the epoch once every spilled item has expired.
        if self.epoch.as_ref().is_some_and(|e| e.max_y < y) {
            self.fixup(env, &mut report)?;
        }

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

    /// Declares `side`'s input ended. Nothing can probe the opposite
    /// structure any more, so it drains now and after every later push.
    ///
    /// The sweep line does not move, so no spill epoch can close here: this
    /// reports nothing and performs no I/O.
    pub fn close_side(&mut self, side: Side) {
        self.closed[side as usize] = true;
        self.expire();
    }

    /// Expires each structure at the sweep line — or entirely, once the
    /// side whose arrivals probe it has closed.
    fn expire(&mut self) {
        let cut = |prober: Side| {
            if self.closed[prober as usize] {
                f32::INFINITY
            } else {
                self.last_y
            }
        };
        let (left_cut, right_cut) = (cut(Side::Right), cut(Side::Left));
        self.left.expire_before(left_cut);
        self.right.expire_before(right_cut);
    }

    /// Fixes up the open spill epoch, if any, reporting its pairs.
    fn fixup<F: FnMut(&Item, &Item)>(&mut self, env: &mut SimEnv, report: &mut F) -> Result<()> {
        let Some(epoch) = self.epoch.take() else {
            return Ok(());
        };
        self.mark_expired();
        usj_obs::instant("sweep.fixup_epoch", epoch.batches.len() as u64);
        self.fixup_rect_tests += epoch.fixup(env, self.left.extent(), report)?;
        Ok(())
    }

    /// Emits one `sweep.expire` mark carrying the residents expired since
    /// the previous one. Called where a spill epoch closes and where the
    /// driver does, never per push: a mark per expiring push is most of a
    /// join's events and pushes the join's own spans out of a bounded trace
    /// ring.
    fn mark_expired(&mut self) {
        let total = self.left.stats().expirations + self.right.stats().expirations;
        if total > self.expirations_marked {
            usj_obs::instant("sweep.expire", total - self.expirations_marked);
            self.expirations_marked = total;
        }
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

    /// Fixes up any remaining spill epoch (reporting its pairs) and returns
    /// the final statistics.
    pub fn finish<F: FnMut(&Item, &Item)>(
        mut self,
        env: &mut SimEnv,
        mut report: F,
    ) -> Result<SweepJoinStats> {
        self.fixup(env, &mut report)?;
        self.mark_expired();
        Ok(self.stats_snapshot())
    }

    /// Abandons any pending spill state *without* reading it back — the
    /// early-termination path (a stopped sink does not want more pairs, so
    /// the fix-up I/O is saved).
    pub fn discard(mut self) -> SweepJoinStats {
        self.mark_expired();
        self.stats_snapshot()
    }

    fn stats_snapshot(&self) -> SweepJoinStats {
        let mut stats = self.stats;
        stats.rect_tests =
            self.left.stats().rect_tests + self.right.stats().rect_tests + self.fixup_rect_tests;
        stats
    }
}

/// Sweeps two y-ordered pull sources through a [`SpillingSweepDriver`] over
/// `x_extent`, passing every pair to `emit` as `(left_item, right_item)`.
///
/// Each source yields its items in ascending lower-y order and `None` once
/// it ends. The merge pushes the smaller head (one [`CpuOp::Compare`] per
/// comparison of two heads, ties to the left), closes each side as its
/// source ends, and stops once `emit` returns `Break` — after the pull that
/// replaces the item whose push broke, and without calling `emit` again.
///
/// The driver is returned unfinished, with the flow that stopped the merge:
/// the caller [`finish`](SpillingSweepDriver::finish)es it (fix-up pairs
/// still pending) or [`discard`](SpillingSweepDriver::discard)s it after a
/// `Break`, inside whatever trace phase it attributes that I/O to.
pub fn merge_sweep<L, R, E>(
    env: &mut SimEnv,
    mut left: L,
    mut right: R,
    x_extent: (f32, f32),
    emit: &mut E,
) -> Result<(SpillingSweepDriver, ControlFlow<()>)>
where
    L: FnMut(&mut SimEnv) -> Result<Option<Item>>,
    R: FnMut(&mut SimEnv) -> Result<Option<Item>>,
    E: FnMut(&Item, &Item) -> ControlFlow<()>,
{
    // Prime both sources before sizing the driver: the first pull claims a
    // stream reader's block buffer (or an index adapter's queues) from the
    // gauge, and the driver's budget is half of what is free *now*.
    let mut heads = [left(env)?, right(env)?];
    let mut driver = SpillingSweepDriver::new(env, x_extent.0, x_extent.1);
    for side in [Side::Left, Side::Right] {
        if heads[side as usize].is_none() {
            driver.close_side(side);
        }
    }
    let mut flow = ControlFlow::Continue(());
    while flow.is_continue() {
        let side = match &heads {
            [Some(a), Some(b)] => {
                env.charge(CpuOp::Compare, 1);
                match a.cmp_by_lower_y(b) {
                    Ordering::Greater => Side::Right,
                    _ => Side::Left,
                }
            }
            [Some(_), None] => Side::Left,
            [None, Some(_)] => Side::Right,
            [None, None] => break,
        };
        let item = heads[side as usize].take().expect("matched above");
        driver.push(env, side, item, |a, b| {
            if flow.is_continue() {
                flow = emit(a, b);
            }
        })?;
        let next = match side {
            Side::Left => left(env)?,
            Side::Right => right(env)?,
        };
        if next.is_none() {
            driver.close_side(side);
        }
        heads[side as usize] = next;
    }
    Ok((driver, flow))
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

    /// One-page blocks, like the driver's batches and logs.
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
        // The driver's regime: every log entry starts at or above every
        // spilled item's lower edge.
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
        let log = ascending(5_000, 60.0, 0.02, 4.0, 2.5, 100_000);
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
        let want = nested_loop_fixup(&mut ample, &s, &l, 1_234, Side::Right);
        assert!(!want.is_empty());
        assert_eq!(got, want);
    }

    /// Narrow short-lived rectangles under extent-spanning long-lived ones,
    /// `dy` apart in lower-y from `y0`: evicting the soonest-to-expire half
    /// frees almost nothing (the copies of the wide ones stay), so every
    /// spill falls through to `evict_until(∞)`.
    fn narrow_under_wide(n: u32, y0: f32, dy: f32, wide_height: f32, id_base: u32) -> Vec<Item> {
        (0..n)
            .map(|i| {
                let (x, y) = ((i % 61) as f32, y0 + i as f32 * dy);
                match i % 3 {
                    0 => item(0.0, y, 64.0, y + wide_height, id_base + i),
                    _ => item(x, y, x + 0.5, y + 2.0, id_base + i),
                }
            })
            .collect()
    }

    /// Every spill of `stats` evicted far more than half the residents.
    fn evicted_everything(stats: &SweepJoinStats) -> bool {
        stats.spilled_items > stats.spill_runs * stats.max_resident as u64 * 3 / 4
    }

    #[test]
    fn evict_everything_batches_are_fixed_up_exactly() {
        let mut env = env_with_memory(64 * 1024);
        let left = narrow_under_wide(900, 0.0, 0.01, 60.0, 0);
        let right = narrow_under_wide(900, 0.0, 0.01, 60.0, 10_000);
        let (pairs, stats) = run_merged(&mut env, &left, &right);
        assert_eq!(pairs, brute(&left, &right));
        assert!(stats.spill_runs > 0, "{stats:?}");
        assert!(evicted_everything(&stats), "{stats:?}");
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

    /// Short-lived rectangles `0.1` apart in lower-y: one side of a pair of
    /// streams in lockstep.
    fn lockstep(n: u32, id_base: u32) -> Vec<Item> {
        (0..n)
            .map(|i| {
                let (x, y) = ((i % 29) as f32, i as f32 * 0.1);
                item(x, y, x + 1.5, y + 0.3, id_base + i)
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

    /// Sorts both inputs and joins them through [`merge_sweep`] and
    /// `finish`, over the x-extent `[0, 64]`. Returns the pairs (sorted, and
    /// checked to be duplicate-free) and the driver's statistics.
    fn run_merged(
        env: &mut SimEnv,
        left: &[Item],
        right: &[Item],
    ) -> (Vec<(u32, u32)>, SweepJoinStats) {
        let sorted = |items: &[Item]| {
            let mut v = items.to_vec();
            v.sort_unstable_by(Item::cmp_by_lower_y);
            v.into_iter()
        };
        let (mut l, mut r) = (sorted(left), sorted(right));
        let mut out = Vec::new();
        let mut emit = |a: &Item, b: &Item| {
            out.push((a.id, b.id));
            ControlFlow::Continue(())
        };
        let (driver, _) =
            merge_sweep(env, |_| Ok(l.next()), |_| Ok(r.next()), (0.0, 64.0), &mut emit).unwrap();
        let stats = driver
            .finish(env, |a, b| {
                let _ = emit(a, b);
            })
            .unwrap();
        let n = out.len();
        out.sort_unstable();
        out.dedup();
        assert_eq!(out.len(), n, "a pair was reported twice");
        (out, stats)
    }

    #[test]
    fn no_spill_when_the_budget_is_ample() {
        let mut env = env_with_memory(16 * 1024 * 1024);
        let left = long_lived(200, 0);
        let right = long_lived(200, 10_000);
        let (pairs, stats) = run_merged(&mut env, &left, &right);
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
        let (pairs, stats) = run_merged(&mut env, &left, &right);
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
        let (pairs, stats) = run_merged(&mut env, &left, &right);
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

    #[test]
    fn one_side_running_far_ahead_still_joins_completely() {
        // The whole left input lies below the right one in lower-y, so it
        // arrives — and its side closes — before any right item: every pair
        // is discovered by the right-side probes.
        let mut env = env_with_memory(16 * 1024 * 1024);
        let left = long_lived(250, 0);
        let right: Vec<Item> = long_lived(250, 10_000)
            .into_iter()
            .map(|it| {
                let (lo, hi) = (it.rect.lo, it.rect.hi);
                item(lo.x, lo.y + 40.0, hi.x, hi.y + 40.0, it.id)
            })
            .collect();
        let (pairs, _) = run_merged(&mut env, &left, &right);
        assert!(!pairs.is_empty());
        assert_eq!(pairs, brute(&left, &right));
    }

    #[test]
    fn spilling_under_a_small_budget_recovers_every_pair_once() {
        let mut env = env_with_memory(64 * 1024);
        let left = long_lived(600, 0);
        let right = long_lived(600, 10_000);
        let m = env.begin();
        let (pairs, stats) = run_merged(&mut env, &left, &right);
        let (io, _) = env.since(&m);
        assert_eq!(pairs, brute(&left, &right));
        assert!(stats.spill_runs > 0, "a 64 KB budget must spill: {stats:?}");
        assert!(io.pages_written > 0, "spill batches are written to the device");
        assert!(io.pages_read > 0, "fix-ups read the spilled items back");
    }

    #[test]
    fn sides_far_out_of_step_under_a_small_budget_recover_every_pair_once() {
        // Every third rectangle spans the extent and lives long; evicting
        // the soonest-to-expire half leaves their strip copies behind, so
        // the spills fall through to `evict_until(∞)`. The right input
        // starts level with the left, a third of the way up it, or past its
        // last item — wherever it starts, every pair is recovered once.
        let left = narrow_under_wide(900, 0.0, 0.05, 30.0, 0);
        for offset in [0.0, 15.0, 45.0] {
            let right = narrow_under_wide(900, offset, 0.05, 30.0, 10_000);
            let mut env = env_with_memory(64 * 1024);
            env.memory.begin_phase();
            let (pairs, stats) = run_merged(&mut env, &left, &right);
            assert_eq!(pairs, brute(&left, &right), "offset {offset}");
            assert!(stats.spill_runs > 0, "offset {offset}: {stats:?}");
            assert!(
                evicted_everything(&stats),
                "offset {offset}: median evictions only, {stats:?}"
            );
            assert!(env.memory.peak() <= env.memory_limit, "offset {offset}");
        }
    }

    #[test]
    fn watermark_expiry_keeps_the_resident_set_small_on_aligned_streams() {
        // Short-lived rectangles arriving in lockstep: the sweep line tracks
        // both sides closely, so residents expire promptly.
        let mut env = env_with_memory(16 * 1024 * 1024);
        let left = lockstep(2_000, 0);
        let right = lockstep(2_000, 100_000);
        let (pairs, stats) = run_merged(&mut env, &left, &right);
        assert_eq!(pairs, brute(&left, &right));
        assert!(
            stats.max_resident < 200,
            "lockstep streams must expire promptly: {stats:?}"
        );
    }

    /// Values of the `sweep.expire` and `sweep.fixup_epoch` marks a recorded
    /// `run_merged` emitted.
    fn recorded_marks(
        memory: usize,
        left: &[Item],
        right: &[Item],
    ) -> ([Vec<u64>; 2], SweepJoinStats) {
        use std::sync::Arc;
        use usj_obs::{Event, HostClock, RingCollector};
        let mut env = env_with_memory(memory);
        let ring = Arc::new(RingCollector::new(64 * 1024));
        let stats = {
            let _g = usj_obs::install(ring.clone(), Arc::new(HostClock::new()));
            run_merged(&mut env, left, right).1
        };
        let (events, dropped) = ring.drain();
        assert_eq!(dropped, 0);
        let values = ["sweep.expire", "sweep.fixup_epoch"].map(|want| {
            events
                .iter()
                .filter_map(|e| match e {
                    Event::Instant { name, value, .. } if *name == want => Some(*value),
                    _ => None,
                })
                .collect()
        });
        (values, stats)
    }

    #[test]
    fn expiry_is_marked_once_per_spill_epoch_and_close_not_once_per_push() {
        // Lockstep short-lived rectangles: nearly every push expires
        // something, and nothing spills — one mark, at close, carrying all
        // of it: both sides close, so every pushed item expires.
        let ([expire, epochs], stats) =
            recorded_marks(16 * 1024 * 1024, &lockstep(2_000, 0), &lockstep(2_000, 100_000));
        assert_eq!(stats.spill_runs, 0);
        assert!(epochs.is_empty());
        assert_eq!(expire, [4_000], "{stats:?}");

        // A dense long-lived opening that spills, then a gap and a sparse
        // tail: the epoch closes once the sweep line crosses the gap (one
        // mark each), the tail keeps expiring (one more, at close).
        let mk = |base: u32| -> Vec<Item> {
            (0..2_000u32)
                .map(|i| {
                    let x = (i % 61) as f32;
                    if i < 1_000 {
                        let y = i as f32 * 0.05;
                        item(x, y, x + 3.0, y + 25.0, base + i)
                    } else {
                        let y = 200.0 + i as f32 * 0.1;
                        item(x, y, x + 3.0, y + 0.3, base + i)
                    }
                })
                .collect()
        };
        let ([expire, epochs], stats) = recorded_marks(64 * 1024, &mk(0), &mk(10_000));
        assert!(stats.spill_runs > 0, "{stats:?}");
        assert_eq!((expire.len(), epochs.len()), (2, 1), "{expire:?} {epochs:?}");
    }

    #[test]
    fn close_side_drains_the_opposite_residents() {
        let mut env = env_with_memory(16 * 1024 * 1024);
        let mut l = long_lived(100, 0);
        l.sort_unstable_by(Item::cmp_by_lower_y);
        let mut driver = SpillingSweepDriver::new(&env, 0.0, 64.0);
        for it in &l {
            driver.push(&mut env, Side::Left, *it, |_, _| {}).unwrap();
        }
        assert!(!driver.left.is_empty());
        driver.close_side(Side::Right);
        assert!(
            driver.left.is_empty(),
            "no future right arrivals can probe the left residents"
        );
        // Later left arrivals are drained by the next push, never probed.
        let late = item(0.0, 5.0, 64.0, 500.0, 999);
        driver.push(&mut env, Side::Left, late, |_, _| {}).unwrap();
        driver.push(&mut env, Side::Left, late, |_, _| {}).unwrap();
        assert_eq!(driver.left.len(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ascending lower-y order")]
    fn a_right_push_below_the_sweep_line_panics_in_debug_builds() {
        let mut env = env_with_memory(16 * 1024 * 1024);
        let mut driver = SpillingSweepDriver::new(&env, 0.0, 64.0);
        let (above, below) = (item(0.0, 5.0, 1.0, 6.0, 1), item(0.0, 4.0, 1.0, 6.0, 2));
        driver.push(&mut env, Side::Left, above, |_, _| {}).unwrap();
        let _ = driver.push(&mut env, Side::Right, below, |_, _| {});
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ascending lower-y order")]
    fn a_left_push_below_the_sweep_line_panics_in_debug_builds() {
        let mut env = env_with_memory(16 * 1024 * 1024);
        let mut driver = SpillingSweepDriver::new(&env, 0.0, 64.0);
        let (above, below) = (item(0.0, 5.0, 1.0, 6.0, 1), item(0.0, 4.0, 1.0, 6.0, 2));
        driver.push(&mut env, Side::Right, above, |_, _| {}).unwrap();
        let _ = driver.push(&mut env, Side::Left, below, |_, _| {});
    }
}
