//! The external *spilling* plane-sweep driver and the merge that feeds it.
//!
//! [`SweepDriver`] keeps both interval structures fully
//! in memory — fine for the paper's real-life workloads, where Table 3 shows
//! the sweep state staying far below 1 % of the data, but a silent budget
//! violation on adversarial inputs (many long-lived rectangles alive at the
//! same sweep position). This driver holds one and runs its steps — expire,
//! probe and insert — with a spill discipline between them that enforces
//! the memory-governor budget:
//!
//! 1. The in-memory structures register their bytes with the environment's
//!    [`MemoryGauge`](usj_io::MemoryGauge).
//! 2. When they outgrow the budget, the driver *evicts* the resident items
//!    the sweep line will expire soonest (their fix-up window is the
//!    shortest) — the earlier half of what is resident, then half of the
//!    rest, until the structures fit half the budget — and writes them to a
//!    **spill batch** on the simulated device: sequential writes, charged
//!    like any other I/O.
//! 3. While any batch is live, an arrival is appended to its side's
//!    **shadow log** if some x-cell under it holds a spilled rectangle of
//!    the other side that reaches its lower y (the *reach*, charged with
//!    the structures; what spills later was probed in memory). Once the
//!    sweep line has passed every spilled item (the *epoch* ends), each log
//!    is streamed once past one index, into which each batch side is
//!    loaded where the log reaches its eviction — exactly the
//!    intersections the in-memory sweep could no longer see.
//!
//! Batches and logs move in logical blocks sized from memory by
//! [`writer_pages_per_block`]: the four streams an epoch writes side by
//! side (two batch sides, two logs) share a quarter of the limit, one to
//! eight pages each. One I/O then moves a block, as in the paper's
//! external-memory model, and the smallest limits keep one-page blocks.
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
//! It is the one sweep behind SSSJ and PQ, over registered datasets and
//! live snapshots alike (a snapshot's runs are merged into one y-ordered
//! source). Both pull two y-ordered sources through [`merge_sweep`], which
//! feeds the driver in global lower-y order and closes each side as its
//! source ends ([`SpillingSweepDriver::close_side`]). A closed side's cut
//! is `f32::INFINITY`: the driver passes it through the in-memory driver's
//! expire step, so the structure only that side probed drains at once.

use std::cmp::Ordering;
use std::ops::{ControlFlow, Range};

use usj_geom::{Item, ITEM_BYTES};
use usj_io::stream::ITEMS_PER_PAGE;
use usj_io::{
    writer_pages_per_block, CpuOp, ItemStream, ItemStreamWriter, MemoryReservation, Result, SimEnv,
};

use crate::driver::{Side, SweepDriver, SweepJoinStats};
use crate::striped::{inv_span, strip_index};
use crate::structure::SweepStructure;
use crate::StripedSweep;

/// Smallest in-memory budget the driver will operate with, even when the
/// gauge headroom is lower (a handful of pages; below this the simulation
/// degenerates into one spill per item).
pub const MIN_SWEEP_BUDGET: usize = 4096;

/// Streams an epoch writes side by side: a batch's two sides and the two
/// shadow logs. Their block buffers share the block rule's quarter of the
/// memory.
const SPILL_WRITERS: usize = 4;

/// Budget bytes per reach cell: the reach of both sides, one `f32` per cell
/// each, takes a sixteenth of the sweep budget — up to 8 192 cells (64 KB),
/// the count measured on `join_spill`'s budget of about 1 MB.
const BUDGET_PER_REACH_CELL: usize = 128;
const MAX_REACH_CELLS: usize = 8192;

/// One batch side: the spilled items, and where in the other side's shadow
/// log the arrivals after their eviction begin.
#[derive(Debug)]
pub(crate) struct Piece {
    pub(crate) items: ItemStream,
    pub(crate) log_start: u64,
}

/// Equal x-cells over the driver's extent, numbered like the strips of a
/// [`StripedSweep`]: coordinates outside it clamp onto the border cells.
#[derive(Debug, Clone, Copy)]
struct Cells {
    x_lo: f32,
    inv_span: f64,
    n: usize,
}

impl Cells {
    /// The cells under `item`'s x-projection; none when its upper x is NaN
    /// (such an item meets nothing).
    fn under(&self, item: &Item) -> Range<usize> {
        let cell = |x| strip_index(self.x_lo, self.inv_span, self.n, x);
        let first = cell(item.rect.lo.x);
        first..(cell(item.rect.hi.x) + 1).max(first)
    }

    /// Bytes of an epoch's reach: one `f32` per cell and side.
    fn reach_bytes(&self) -> usize {
        2 * self.n * std::mem::size_of::<f32>()
    }
}

/// The live spill state: batch sides awaiting their fix-up and the shadow
/// logs of arrivals that can meet them. Ends once the sweep passes `max_y`.
#[derive(Debug)]
struct SpillEpoch {
    /// Per spilled side (indexed by [`Side`]), its batch sides in eviction
    /// order, which is log-start order.
    pieces: [Vec<Piece>; 2],
    batches: usize,
    /// Per arriving side, its shadow log and the entries in it.
    logs: [ItemStreamWriter; 2],
    logged: [u64; 2],
    /// Arrivals the reach kept out of the logs.
    skipped: u64,
    cells: Cells,
    /// Per spilled side, the largest upper y of its items over each cell.
    reach: [Vec<f32>; 2],
    /// Largest upper y-coordinate among all spilled items of the epoch.
    max_y: f32,
}

impl SpillEpoch {
    /// An empty epoch with fresh shadow logs of `pages_per_block`-page
    /// blocks.
    fn new(env: &mut SimEnv, pages_per_block: u64, cells: Cells) -> Self {
        SpillEpoch {
            pieces: [Vec::new(), Vec::new()],
            batches: 0,
            logs: [0; 2].map(|_| ItemStreamWriter::new(env, pages_per_block)),
            logged: [0; 2],
            skipped: 0,
            cells,
            reach: [0; 2].map(|_| vec![f32::NEG_INFINITY; cells.n]),
            max_y: f32::NEG_INFINITY,
        }
    }

    /// Writes `side`'s half of a new batch and raises the side's reach.
    fn spill(&mut self, env: &mut SimEnv, side: Side, items: &[Item], ppb: u64) -> Result<()> {
        if items.is_empty() {
            return Ok(());
        }
        let mut writer = ItemStreamWriter::new(env, ppb);
        writer.extend(env, items)?;
        let reach = &mut self.reach[side as usize];
        for it in items {
            self.max_y = self.max_y.max(it.rect.hi.y);
            for y in &mut reach[self.cells.under(it)] {
                *y = y.max(it.rect.hi.y);
            }
        }
        self.pieces[side as usize].push(Piece {
            items: writer.finish(env)?,
            log_start: self.logged[side.other() as usize],
        });
        Ok(())
    }

    /// Shadow-logs an arrival on `side` if the other side's reach meets it.
    fn log(&mut self, env: &mut SimEnv, side: Side, item: Item) -> Result<()> {
        let reach = &self.reach[side.other() as usize][self.cells.under(&item)];
        if reach.iter().any(|&y| y >= item.rect.lo.y) {
            self.logs[side as usize].push(env, item)?;
            self.logged[side as usize] += 1;
        } else {
            self.skipped += 1;
        }
        Ok(())
    }

    /// Closes the epoch: streams each shadow log once past the other side's
    /// batch sides (see [`join_pieces_against_log`]), returning the tests.
    fn fixup<F: FnMut(&Item, &Item)>(
        self,
        env: &mut SimEnv,
        x_extent: (f32, f32),
        report: &mut F,
    ) -> Result<u64> {
        let [left, right] = self.logs;
        let logs = [left.finish(env)?, right.finish(env)?];
        let mut tests = 0;
        for side in [Side::Left, Side::Right] {
            let (pieces, log) = (&self.pieces[side as usize], &logs[side.other() as usize]);
            tests += join_pieces_against_log(env, pieces, log, side, x_extent, report)?;
        }
        Ok(tests)
    }
}

/// Joins one side's spilled pieces, in log-start order, against the other
/// side's shadow log, returning the number of rectangle tests performed.
///
/// One reader streams the log past a [`StripedSweep`] over `x_extent` (the
/// evicting structures', so the index is never larger than they were) with
/// `expire_before(z.lo.y)` + `query(z)`; a piece joins the index when the
/// reader reaches its start. Every entry from there on was pushed after the
/// piece's items, so it starts at or above their lower edges, and the
/// entries before it were probed in memory. While the index is empty the
/// reader skips to the next piece's start. The index grows to half the
/// headroom left beside the log's block and a piece's, charged its real
/// bytes: a piece that does not fit is resumed by a later pass from its
/// own start, once what this pass holds has expired.
pub(crate) fn join_pieces_against_log<F: FnMut(&Item, &Item)>(
    env: &mut SimEnv,
    pieces: &[Piece],
    log: &ItemStream,
    spilled_side: Side,
    x_extent: (f32, f32),
    report: &mut F,
) -> Result<u64> {
    let block = |p: &Piece| {
        p.items
            .len()
            .min(p.items.pages_per_block() * ITEMS_PER_PAGE as u64)
    };
    let mut rect_tests = 0u64;
    let mut claim = env.memory.reserve_empty();
    // The first piece not loaded in full, and its reader once a pass has
    // loaded part of it.
    let (mut next, mut resume) = (0, None);
    while let Some(first) = pieces.get(next).filter(|p| p.log_start < log.len()) {
        claim.release();
        if resume
            .get_or_insert_with(|| first.items.reader())
            .peek(env)?
            .is_none()
        {
            (next, resume) = (next + 1, None);
            continue;
        }
        // Peeking primed both readers: the headroom is net of their blocks,
        // and half of what is left beside a later piece's block leaves room
        // for the one insert (and the strip re-tune it may trigger) that
        // takes the index past its budget.
        let mut reader = log.reader_from(first.log_start);
        reader.peek(env)?;
        let later = pieces[next + 1..].iter().map(block).max().unwrap_or(0) as usize;
        let budget =
            (env.memory.headroom().saturating_sub(later * ITEM_BYTES) / 2).max(MIN_SWEEP_BUDGET);
        let (mut index, mut full) = (StripedSweep::with_extent(x_extent.0, x_extent.1), false);
        loop {
            let reached = |p: &Piece| p.log_start <= reader.items_delivered();
            while !full && pieces.get(next).is_some_and(reached) {
                let mut items = resume.take().unwrap_or_else(|| pieces[next].items.reader());
                full = loop {
                    if index.bytes() > budget {
                        break true;
                    }
                    match items.next(env)? {
                        Some(s) => index.insert(s),
                        None => break false,
                    }
                };
                match full {
                    true => resume = Some(items),
                    false => next += 1,
                }
                claim.try_set(index.bytes())?;
            }
            if index.is_empty() {
                match pieces.get(next) {
                    Some(p) if !full && p.log_start < log.len() => reader.skip_to(p.log_start),
                    _ => break,
                }
                continue;
            }
            let Some(z) = reader.next(env)? else { break };
            index.expire_before(z.rect.lo.y);
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
/// The in-memory [`SweepDriver<StripedSweep>`](crate::SweepDriver) plus
/// its spill discipline: same push-based protocol, but `push` takes the
/// environment (evictions and fix-ups perform simulated I/O) and the
/// in-memory state never exceeds the budget derived from the gauge's
/// headroom at construction. Items must arrive in ascending lower-y order
/// across both sides; [`merge_sweep`] feeds it from two sorted sources.
#[derive(Debug)]
pub struct SpillingSweepDriver {
    /// The sweep itself: structures, sweep line and statistics.
    sweep: SweepDriver<StripedSweep>,
    /// Sides whose input has ended, indexed by [`Side`].
    closed: [bool; 2],
    budget: usize,
    /// Logical block size of the spill batches and shadow logs.
    pages_per_block: u64,
    /// The x-cells of an epoch's reach, sized from the budget.
    cells: Cells,
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
        let sweep = SweepDriver::<StripedSweep>::new(x_lo, x_hi);
        let (x_lo, x_hi) = sweep.left.extent();
        let n = (budget / BUDGET_PER_REACH_CELL).clamp(1, MAX_REACH_CELLS);
        SpillingSweepDriver {
            sweep,
            closed: [false; 2],
            budget,
            pages_per_block: writer_pages_per_block(env.memory_limit, SPILL_WRITERS),
            cells: Cells {
                x_lo,
                inv_span: inv_span(x_lo, x_hi, n),
                n,
            },
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
        self.epoch.as_ref().map_or(0, |e| e.batches)
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
        self.sweep.advance(y);
        debug_assert!(!self.closed[side as usize], "push on a closed side");
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

        self.sweep.probe_insert(side, item, &mut report);
        if self.charged() > self.budget {
            self.spill(env)?;
        }
        self.reservation.try_set(self.charged())?;
        Ok(())
    }

    /// Bytes charged to the gauge and held against the budget: the
    /// structures, and the reach while an epoch is open.
    fn charged(&self) -> usize {
        let reach = self.epoch.as_ref().map_or(0, |_| self.cells.reach_bytes());
        self.sweep.bytes() + reach
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
        let cut = |prober: Side| match self.closed[prober as usize] {
            true => f32::INFINITY,
            false => self.sweep.last_y,
        };
        self.sweep.expire([cut(Side::Right), cut(Side::Left)]);
    }

    /// Fixes up the open spill epoch, if any, reporting its pairs.
    fn fixup<F: FnMut(&Item, &Item)>(&mut self, env: &mut SimEnv, report: &mut F) -> Result<()> {
        let Some(epoch) = self.epoch.take() else {
            return Ok(());
        };
        // The reach goes with the epoch.
        self.reservation.try_set(self.charged())?;
        self.mark_expired();
        usj_obs::instant("sweep.fixup_epoch", epoch.batches as u64);
        usj_obs::instant("sweep.log_skipped", epoch.skipped);
        self.fixup_rect_tests += epoch.fixup(env, self.sweep.left.extent(), report)?;
        Ok(())
    }

    /// Emits one `sweep.expire` mark carrying the residents expired since
    /// the previous one. Called where a spill epoch closes and where the
    /// driver does, never per push: a mark per expiring push is most of a
    /// join's events and pushes the join's own spans out of a bounded trace
    /// ring.
    fn mark_expired(&mut self) {
        let total = self.sweep.left.stats().expirations + self.sweep.right.stats().expirations;
        if total > self.expirations_marked {
            usj_obs::instant("sweep.expire", total - self.expirations_marked);
            self.expirations_marked = total;
        }
    }

    /// Evicts the soonest-to-expire resident items until the in-memory state,
    /// with the epoch's reach, is at most half the budget, writing them to a
    /// new spill batch.
    ///
    /// Each round evicts the residents expiring at or before the median of
    /// the expiries not yet cut at, then halves that set to its upper part,
    /// so the rounds are logarithmic in the residents and everything goes
    /// only when nothing less fits.
    fn spill(&mut self, env: &mut SimEnv) -> Result<()> {
        let SweepDriver { left, right, .. } = &mut self.sweep;
        self.expiry_scratch.clear();
        left.resident_expiries(&mut self.expiry_scratch);
        right.resident_expiries(&mut self.expiry_scratch);
        self.evict_left.clear();
        self.evict_right.clear();
        let half = (self.budget / 2).saturating_sub(self.cells.reach_bytes());
        let mut rest = &mut self.expiry_scratch[..];
        while !rest.is_empty() && left.bytes() + right.bytes() > half {
            let (_, &mut cut, later) = rest.select_nth_unstable_by(rest.len() / 2, f32::total_cmp);
            // `evict_until` appends to the reusable buffers.
            left.evict_until(cut, &mut self.evict_left);
            right.evict_until(cut, &mut self.evict_right);
            rest = later;
        }
        if self.evict_left.is_empty() && self.evict_right.is_empty() {
            return Ok(());
        }

        let spilled = (self.evict_left.len() + self.evict_right.len()) as u64;
        self.sweep.stats.spilled_items += spilled;
        self.sweep.stats.spill_runs += 1;
        usj_obs::instant("sweep.spill", spilled);
        let epoch = match &mut self.epoch {
            Some(e) => e,
            None => self
                .epoch
                .insert(SpillEpoch::new(env, self.pages_per_block, self.cells)),
        };
        epoch.spill(env, Side::Left, &self.evict_left, self.pages_per_block)?;
        epoch.spill(env, Side::Right, &self.evict_right, self.pages_per_block)?;
        epoch.batches += 1;
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
        Ok(self.discard())
    }

    /// Abandons any pending spill state *without* reading it back — the
    /// early-termination path (a stopped sink does not want more pairs, so
    /// the fix-up I/O is saved).
    pub fn discard(mut self) -> SweepJoinStats {
        self.mark_expired();
        let mut stats = self.sweep.finish();
        stats.rect_tests += self.fixup_rect_tests;
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

    /// Runs the sweep fix-up of one batch side and returns its pairs
    /// (sorted, and checked to be duplicate-free) with the rectangle tests
    /// it counted.
    fn sweep_fixup(
        env: &mut SimEnv,
        spilled: &ItemStream,
        log: &ItemStream,
        log_start: u64,
        side: Side,
    ) -> (Vec<(u32, u32)>, u64) {
        let mut out = Vec::new();
        let mut report = |a: &Item, b: &Item| out.push((a.id, b.id));
        let piece = [Piece {
            items: spilled.clone(),
            log_start,
        }];
        let tests =
            join_pieces_against_log(env, &piece, log, side, (0.0, 64.0), &mut report).unwrap();
        let n = out.len();
        out.sort_unstable();
        out.dedup();
        assert_eq!(out.len(), n, "the fix-up reported a pair twice");
        (out, tests)
    }

    /// One-page blocks, like the driver's batches and logs at 64 KB.
    fn stream(env: &mut SimEnv, items: &[Item]) -> ItemStream {
        ItemStream::from_items_with_block(env, items, 1).unwrap()
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
    /// spill halves the residents again, past the median.
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

    /// The spills of `stats` evicted more than half the residents each, on
    /// average: they went on past the median.
    fn evicted_past_the_median(stats: &SweepJoinStats) -> bool {
        stats.spilled_items > stats.spill_runs * stats.max_resident as u64 / 2
    }

    #[test]
    fn batches_evicted_past_the_median_are_fixed_up_exactly() {
        let mut env = env_with_memory(64 * 1024);
        let left = narrow_under_wide(900, 0.0, 0.01, 60.0, 0);
        let right = narrow_under_wide(900, 0.0, 0.01, 60.0, 10_000);
        let (pairs, stats) = run_merged(&mut env, &left, &right);
        assert_eq!(pairs, brute(&left, &right));
        assert!(stats.spill_runs > 0, "{stats:?}");
        assert!(evicted_past_the_median(&stats), "{stats:?}");
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
        let (driver, _) = merge_sweep(
            env,
            |_| Ok(l.next()),
            |_| Ok(r.next()),
            (0.0, 64.0),
            &mut emit,
        )
        .unwrap();
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
        assert!(
            io.pages_written > 0,
            "spill batches are written to the device"
        );
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
        assert!(
            io.pages_written > 0,
            "spill batches are written to the device"
        );
        assert!(io.pages_read > 0, "fix-ups read the spilled items back");
    }

    #[test]
    fn sides_far_out_of_step_under_a_small_budget_recover_every_pair_once() {
        // Every third rectangle spans the extent and lives long; evicting
        // the soonest-to-expire half leaves their strip copies behind, so
        // the spills go on past the median. The right input
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
                evicted_past_the_median(&stats),
                "offset {offset}: median evictions only, {stats:?}"
            );
            assert!(env.memory.peak() <= env.memory_limit, "offset {offset}");
        }
    }

    #[test]
    fn a_spill_the_median_leaves_over_half_the_budget_stops_at_half_not_at_empty() {
        let mut env = env_with_memory(64 * 1024);
        let mut driver = SpillingSweepDriver::new(&env, 0.0, 64.0);
        // Long-lived rectangles on one side: nothing expires before the
        // first spill, and nothing probes them.
        let mut items = long_lived(2_000, 0);
        items.sort_unstable_by(Item::cmp_by_lower_y);
        let mut pushed = 0;
        while driver.sweep.stats.spill_runs == 0 {
            driver
                .push(&mut env, Side::Left, items[pushed], |_, _| {})
                .unwrap();
            pushed += 1;
        }
        let half = driver.budget / 2;
        // The structures as they were before that spill, cut at the median
        // of their expiries: still over half the budget.
        let (mut left, right) = (
            StripedSweep::with_extent(0.0, 64.0),
            StripedSweep::with_extent(0.0, 64.0),
        );
        items[..pushed].iter().for_each(|it| left.insert(*it));
        let mut expiries = Vec::new();
        left.resident_expiries(&mut expiries);
        let mid = expiries.len() / 2;
        let (_, &mut median, _) = expiries.select_nth_unstable_by(mid, f32::total_cmp);
        left.evict_until(median, &mut Vec::new());
        let after_median = left.bytes() + right.bytes();
        assert!(
            after_median > half,
            "{after_median} B, half the budget {half}"
        );

        let spilled = driver.sweep.stats.spilled_items;
        assert!(
            spilled < pushed as u64 && !driver.sweep.left.is_empty(),
            "{spilled} of {pushed} residents evicted"
        );
        let after = driver.sweep.left.bytes() + driver.sweep.right.bytes();
        assert!(after <= half, "{after} B, half the budget {half}");
    }

    #[test]
    fn spill_blocks_are_one_page_at_64_and_128_kb_and_grow_with_memory() {
        for (kb, pages) in [(64, 1), (128, 1), (256, 2), (3 * 1024, 8)] {
            let mut env = env_with_memory(kb * 1024);
            let driver = SpillingSweepDriver::new(&env, 0.0, 64.0);
            assert_eq!(driver.pages_per_block, pages, "{kb} KB");
            if kb > 128 {
                continue;
            }
            let (left, right) = (long_lived(1_200, 0), long_lived(1_200, 10_000));
            env.memory.begin_phase();
            let (pairs, stats) = run_merged(&mut env, &left, &right);
            assert_eq!(pairs, brute(&left, &right), "{kb} KB");
            assert!(stats.spill_runs > 0, "{kb} KB: {stats:?}");
            let peak = env.memory.peak();
            assert!(peak <= env.memory_limit, "{kb} KB: peak {peak}");
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

    /// Values of the marks `names` a recorded `run_merged` emitted, with its
    /// pairs and statistics.
    fn recorded_marks<const N: usize>(
        memory: usize,
        left: &[Item],
        right: &[Item],
        names: [&str; N],
    ) -> ([Vec<u64>; N], Vec<(u32, u32)>, SweepJoinStats) {
        use std::sync::Arc;
        use usj_obs::{Event, HostClock, RingCollector};
        let mut env = env_with_memory(memory);
        let ring = Arc::new(RingCollector::new(64 * 1024));
        let (pairs, stats) = {
            let _g = usj_obs::install(ring.clone(), Arc::new(HostClock::new()));
            run_merged(&mut env, left, right)
        };
        let (events, dropped) = ring.drain();
        assert_eq!(dropped, 0);
        let values = names.map(|want| {
            events
                .iter()
                .filter_map(|e| match e {
                    Event::Instant { name, value, .. } if *name == want => Some(*value),
                    _ => None,
                })
                .collect()
        });
        (values, pairs, stats)
    }

    const MARKS: [&str; 2] = ["sweep.expire", "sweep.fixup_epoch"];

    #[test]
    fn expiry_is_marked_once_per_spill_epoch_and_close_not_once_per_push() {
        // Lockstep short-lived rectangles: nearly every push expires
        // something, and nothing spills — one mark, at close, carrying all
        // of it: both sides close, so every pushed item expires.
        let (left, right) = (lockstep(2_000, 0), lockstep(2_000, 100_000));
        let ([expire, epochs], _, stats) = recorded_marks(16 * 1024 * 1024, &left, &right, MARKS);
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
        let ([expire, epochs], _, stats) = recorded_marks(64 * 1024, &mk(0), &mk(10_000), MARKS);
        assert!(stats.spill_runs > 0, "{stats:?}");
        assert_eq!(
            (expire.len(), epochs.len()),
            (2, 1),
            "{expire:?} {epochs:?}"
        );
    }

    #[test]
    fn arrivals_no_spilled_item_reaches_are_not_logged_and_no_pair_is_lost() {
        // Long-lived rectangles on the left half of the extent spill; half
        // the right side arrives over the right half, where no spilled
        // rectangle reaches, and is kept out of the log — yet the pairs are
        // brute force's. The left side's own late arrivals are logged.
        let left: Vec<Item> = long_lived(900, 0)
            .into_iter()
            .map(|it| {
                let (lo, hi) = (it.rect.lo, it.rect.hi);
                item(lo.x * 0.8, lo.y, hi.x * 0.8, hi.y, it.id)
            })
            .collect();
        let right: Vec<Item> = (0..900u32)
            .map(|i| {
                let (x, y) = ((i % 2) as f32 * 34.0 + (i % 29) as f32, i as f32 * 0.01);
                item(x, y, x + 1.0, y + 2.0, 10_000 + i)
            })
            .collect();
        let names = ["sweep.log_skipped", "sweep.fixup_epoch"];
        let ([skipped, epochs], pairs, stats) = recorded_marks(64 * 1024, &left, &right, names);
        assert_eq!(pairs, brute(&left, &right));
        assert!(stats.spill_runs > 0, "{stats:?}");
        assert_eq!(skipped.len(), epochs.len(), "one mark per closed epoch");
        let skipped: u64 = skipped.iter().sum();
        assert!(skipped >= 300, "{skipped} arrivals kept out of the logs");
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
        assert!(!driver.sweep.left.is_empty());
        driver.close_side(Side::Right);
        assert!(
            driver.sweep.left.is_empty(),
            "no future right arrivals can probe the left residents"
        );
        // Later left arrivals are drained by the next push, never probed.
        let late = item(0.0, 5.0, 64.0, 500.0, 999);
        driver.push(&mut env, Side::Left, late, |_, _| {}).unwrap();
        driver.push(&mut env, Side::Left, late, |_, _| {}).unwrap();
        assert_eq!(driver.sweep.left.len(), 1);
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
        driver
            .push(&mut env, Side::Right, above, |_, _| {})
            .unwrap();
        let _ = driver.push(&mut env, Side::Left, below, |_, _| {});
    }
}
