//! The *symmetric* streaming plane-sweep driver.
//!
//! Every driver so far consumes the two inputs as one globally y-ordered
//! merge: [`SweepDriver`](crate::SweepDriver) and
//! [`SpillingSweepDriver`](crate::SpillingSweepDriver) assert ascending
//! lower-y across *both* sides, which forces the caller to sort everything
//! before the first pair can be reported. Live feeds cannot wait for that —
//! items arrive on either side in *that side's* order, and the interleaving
//! across sides is whatever the network delivers.
//!
//! This driver relaxes the protocol the way XJoin and Progressive Merge
//! Join relax sort-merge joins: each side must still arrive in ascending
//! lower-y order **within itself** (live-catalog snapshots are unions of
//! sorted runs, so their merge cursors deliver exactly that), but the two
//! sides may interleave arbitrarily. Each arriving item is inserted into
//! its side's resident [`StripedSweep`] and immediately probed against the
//! *opposite* resident set, so pairs surface as items arrive:
//!
//! * **Watermarks.** `w_left`/`w_right` track the largest lower-y seen per
//!   side. A **left** resident only exists to be probed by future **right**
//!   arrivals (and vice versa), so the left structure expires items below
//!   `w_right` and the right structure below `w_left` — the classic
//!   symmetric watermark rule. When one input ends,
//!   [`SymmetricSweepDriver::close_side`] lifts its watermark to `+∞` and
//!   the opposite resident set drains.
//! * **Lagging probes need full tests.** Because one side may run ahead of
//!   the other, a resident probed in x-range may not overlap the query in
//!   y (the classic drivers get y-overlap for free from the global order).
//!   Probe hits are therefore re-checked with a full rectangle test before
//!   being reported.
//! * **Memory pressure.** Identical to [`crate::SpillingSweepDriver`]: residents
//!   beyond the budget are evicted (soonest-to-expire first) into spill
//!   batches, arrivals are shadow-logged while any batch is open, and each
//!   batch is joined against its log *suffix* once both watermarks pass
//!   every spilled item. Pairs are recovered exactly once, so the reported
//!   pair *set* equals the offline [`SweepDriver`](crate::SweepDriver)
//!   answer on the same data.

use usj_geom::Item;
use usj_io::{ItemStreamWriter, MemoryReservation, Result, SimEnv};

use crate::driver::{Side, SweepJoinStats};
use crate::spill::{SpillBatch, SpillEpoch, MIN_SWEEP_BUDGET, SPILL_PAGES_PER_BLOCK};
use crate::structure::SweepStructure;
use crate::StripedSweep;

/// A memory-governed symmetric plane-sweep join over two individually
/// y-sorted inputs with arbitrary cross-side interleaving.
///
/// The push-based protocol of [`SpillingSweepDriver`](crate::SpillingSweepDriver)
/// minus the global ordering requirement: items of one side must arrive in
/// ascending lower-y order (asserted in debug builds), the other side's
/// progress is independent.
#[derive(Debug)]
pub struct SymmetricSweepDriver {
    left: StripedSweep,
    right: StripedSweep,
    stats: SweepJoinStats,
    /// Largest lower-y pushed so far per side (`[left, right]`).
    watermark: [f32; 2],
    budget: usize,
    reservation: MemoryReservation,
    epoch: Option<SpillEpoch>,
    fixup_rect_tests: u64,
    /// Expirations (both sides) already reported by a `sweep.expire` mark.
    expirations_marked: u64,
    evict_left: Vec<Item>,
    evict_right: Vec<Item>,
    expiry_scratch: Vec<f32>,
}

impl SymmetricSweepDriver {
    /// Creates a driver whose structures cover the x-extent `[x_lo, x_hi]`.
    ///
    /// The in-memory budget is half the gauge's current headroom (floored
    /// at [`MIN_SWEEP_BUDGET`]), matching
    /// [`SpillingSweepDriver::new`](crate::SpillingSweepDriver::new).
    pub fn new(env: &SimEnv, x_lo: f32, x_hi: f32) -> Self {
        let budget = (env.memory.headroom() / 2).max(MIN_SWEEP_BUDGET);
        SymmetricSweepDriver {
            left: StripedSweep::with_extent(x_lo, x_hi),
            right: StripedSweep::with_extent(x_lo, x_hi),
            stats: SweepJoinStats::default(),
            watermark: [f32::NEG_INFINITY; 2],
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

    /// In-memory budget in bytes.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Spill batches of the current epoch still awaiting their fix-up join.
    pub fn open_batches(&self) -> usize {
        self.epoch.as_ref().map_or(0, |e| e.batches.len())
    }

    /// Largest lower-y pushed so far on `side`.
    pub fn watermark(&self, side: Side) -> f32 {
        self.watermark[side as usize]
    }

    /// Resident items currently held in memory (both sides).
    pub fn resident(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// Declares `side` exhausted: no further items will arrive on it.
    ///
    /// Lifts the side's watermark to `+∞` so the *opposite* resident set
    /// expires eagerly and any open spill epoch can close at the next push
    /// or at [`finish`](SymmetricSweepDriver::finish). Reports any fix-up
    /// pairs that become reportable through `report`.
    pub fn close_side<F: FnMut(&Item, &Item)>(
        &mut self,
        env: &mut SimEnv,
        side: Side,
        mut report: F,
    ) -> Result<()> {
        self.watermark[side as usize] = f32::INFINITY;
        self.expire_and_fixup(env, &mut report)
    }

    /// Processes `item` arriving on `side`, reporting every join partner as
    /// `(left_item, right_item)`. Items must arrive in ascending lower-y
    /// order *within each side* (asserted in debug builds); the cross-side
    /// interleaving is unconstrained.
    ///
    /// Fix-up pairs of a spill epoch both watermarks have passed are
    /// reported through the same callback before the new item is processed.
    pub fn push<F: FnMut(&Item, &Item)>(
        &mut self,
        env: &mut SimEnv,
        side: Side,
        item: Item,
        mut report: F,
    ) -> Result<()> {
        let y = item.rect.lo.y;
        debug_assert!(
            y >= self.watermark[side as usize] || self.watermark[side as usize].is_infinite(),
            "each side must be pushed in ascending lower-y order"
        );
        debug_assert!(
            self.watermark[side as usize] < f32::INFINITY,
            "push on a side already declared closed"
        );
        self.watermark[side as usize] = self.watermark[side as usize].max(y);

        self.expire_and_fixup(env, &mut report)?;

        // Shadow-log the arrival: its pairs with already-spilled items can
        // only be discovered at fix-up time.
        if let Some(epoch) = &mut self.epoch {
            epoch.log(env, side, item)?;
        }

        // Probe the opposite residents, then insert. The structures prune
        // by x-overlap and their own expiry cut only — with lagging
        // watermarks a candidate may still miss the query in y, so every
        // hit is re-checked with the full rectangle test.
        match side {
            Side::Left => {
                self.right.query(&item, |other| {
                    if item.rect.intersects(&other.rect) {
                        report(&item, other);
                    }
                });
                self.left.insert(item);
                self.stats.left_items += 1;
            }
            Side::Right => {
                self.left.query(&item, |other| {
                    if item.rect.intersects(&other.rect) {
                        report(other, &item);
                    }
                });
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

    /// Applies the watermark expiry rule and closes the spill epoch once
    /// both watermarks have passed every spilled item.
    fn expire_and_fixup<F: FnMut(&Item, &Item)>(
        &mut self,
        env: &mut SimEnv,
        report: &mut F,
    ) -> Result<()> {
        let [w_left, w_right] = self.watermark;
        // Left residents serve probes from future *right* arrivals (whose
        // lower-y is at least w_right), and vice versa.
        self.left.expire_before(w_right);
        self.right.expire_before(w_left);

        // A spilled item is unreachable once both sides have passed it —
        // conservative for per-side batches, exact for mixed ones.
        let horizon = w_left.min(w_right);
        if self.epoch.as_ref().is_some_and(|e| e.max_y < horizon) {
            let epoch = self.epoch.take().expect("checked above");
            self.mark_expired();
            usj_obs::instant("sweep.fixup_epoch", epoch.batches.len() as u64);
            self.fixup_rect_tests += epoch.fixup(env, self.left.extent(), report)?;
        }
        Ok(())
    }

    /// Emits one `sweep.expire` mark carrying the residents expired since
    /// the previous one. Called where a spill epoch closes and where the
    /// driver does, never per push: a mark per expiring push is most of a
    /// streaming join's events and pushes the join's own spans out of a
    /// bounded trace ring.
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

    /// Evicts the soonest-to-expire resident items until the in-memory
    /// state is at most half the budget, writing them to a new spill batch
    /// (the [`SpillingSweepDriver`](crate::SpillingSweepDriver) policy).
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
    /// count them itself, mirroring the other drivers).
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
        self.mark_expired();
        if let Some(epoch) = self.epoch.take() {
            self.fixup_rect_tests += epoch.fixup(env, self.left.extent(), &mut report)?;
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use usj_geom::Rect;
    use usj_io::MachineConfig;

    fn item(x0: f32, y0: f32, x1: f32, y1: f32, id: u32) -> Item {
        Item::new(Rect::from_coords(x0, y0, x1, y1), id)
    }

    fn env_with_memory(bytes: usize) -> SimEnv {
        SimEnv::new(MachineConfig::machine3()).with_memory_limit(bytes)
    }

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

    /// Drives both sorted inputs through the driver with a deterministic
    /// but skewed interleaving: `stride` left items, then one right item.
    fn run_symmetric(
        env: &mut SimEnv,
        left: &[Item],
        right: &[Item],
        stride: usize,
    ) -> (Vec<(u32, u32)>, SweepJoinStats) {
        let mut l = left.to_vec();
        let mut r = right.to_vec();
        l.sort_unstable_by(Item::cmp_by_lower_y);
        r.sort_unstable_by(Item::cmp_by_lower_y);
        let mut driver = SymmetricSweepDriver::new(env, 0.0, 64.0);
        let mut out = Vec::new();
        let (mut li, mut ri) = (0, 0);
        while li < l.len() || ri < r.len() {
            for _ in 0..stride.max(1) {
                if li >= l.len() {
                    break;
                }
                driver
                    .push(env, Side::Left, l[li], |a, b| out.push((a.id, b.id)))
                    .unwrap();
                li += 1;
            }
            if ri < r.len() {
                driver
                    .push(env, Side::Right, r[ri], |a, b| out.push((a.id, b.id)))
                    .unwrap();
                ri += 1;
            }
        }
        let stats = driver.finish(env, |a, b| out.push((a.id, b.id))).unwrap();
        let n = out.len();
        out.sort_unstable();
        out.dedup();
        assert_eq!(out.len(), n, "a pair was reported twice");
        (out, stats)
    }

    #[test]
    fn arbitrary_interleavings_report_the_exact_pair_set() {
        for stride in [1, 3, 17, 1000] {
            let mut env = env_with_memory(16 * 1024 * 1024);
            let left = long_lived(300, 0);
            let right = long_lived(300, 10_000);
            let (pairs, _) = run_symmetric(&mut env, &left, &right, stride);
            assert_eq!(pairs, brute(&left, &right), "stride {stride}");
        }
    }

    #[test]
    fn one_side_running_far_ahead_still_joins_completely() {
        // The whole left input arrives before any right item: every pair is
        // discovered by the right-side probes (or the fix-up, if spilling).
        let mut env = env_with_memory(16 * 1024 * 1024);
        let left = long_lived(250, 0);
        let right = long_lived(250, 10_000);
        let (pairs, _) = run_symmetric(&mut env, &left, &right, usize::MAX / 2);
        assert_eq!(pairs, brute(&left, &right));
    }

    #[test]
    fn spilling_under_a_small_budget_recovers_every_pair_once() {
        let mut env = env_with_memory(64 * 1024);
        let left = long_lived(600, 0);
        let right = long_lived(600, 10_000);
        let m = env.begin();
        let (pairs, stats) = run_symmetric(&mut env, &left, &right, 3);
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
        // the spills fall through to `evict_until(∞)`. With one side a
        // thousand items (or the whole input) ahead, the lagging side's log
        // is full of entries wholly below the spilled items they overlap in
        // x: only the full rectangle test in the fix-up keeps them out.
        let mk = |base: u32| -> Vec<Item> {
            (0..900u32)
                .map(|i| {
                    let (x, y) = ((i % 61) as f32, i as f32 * 0.05);
                    match i % 3 {
                        0 => item(0.0, y, 64.0, y + 30.0, base + i),
                        _ => item(x, y, x + 0.5, y + 2.0, base + i),
                    }
                })
                .collect()
        };
        let (left, right) = (mk(0), mk(10_000));
        let want = brute(&left, &right);
        for stride in [1, 1000, usize::MAX / 2] {
            let mut env = env_with_memory(64 * 1024);
            env.memory.begin_phase();
            let (pairs, stats) = run_symmetric(&mut env, &left, &right, stride);
            assert_eq!(pairs, want, "stride {stride}");
            assert!(stats.spill_runs > 0, "stride {stride}: {stats:?}");
            assert!(
                stats.spilled_items > stats.spill_runs * stats.max_resident as u64 * 3 / 4,
                "stride {stride}: median evictions only, {stats:?}"
            );
            assert!(env.memory.peak() <= env.memory_limit, "stride {stride}");
        }
    }

    #[test]
    fn watermark_expiry_keeps_the_resident_set_small_on_aligned_streams() {
        // Short-lived rectangles arriving in lockstep: the opposite-side
        // watermark tracks closely, so residents expire promptly.
        let mut env = env_with_memory(16 * 1024 * 1024);
        let mk = |base: u32| -> Vec<Item> {
            (0..2_000u32)
                .map(|i| {
                    let y = i as f32 * 0.1;
                    item((i % 29) as f32, y, (i % 29) as f32 + 1.5, y + 0.3, base + i)
                })
                .collect()
        };
        let left = mk(0);
        let right = mk(100_000);
        let (pairs, stats) = run_symmetric(&mut env, &left, &right, 1);
        assert_eq!(pairs, brute(&left, &right));
        assert!(
            stats.max_resident < 200,
            "lockstep streams must expire promptly: {stats:?}"
        );
    }

    /// Values of the `sweep.expire` and `sweep.fixup_epoch` marks a recorded
    /// `run_symmetric` emitted.
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
            run_symmetric(&mut env, left, right, 1).1
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
        // of it (everything pushed but what is still resident).
        let mk = |base: u32| -> Vec<Item> {
            (0..2_000u32)
                .map(|i| {
                    let y = i as f32 * 0.1;
                    item((i % 29) as f32, y, (i % 29) as f32 + 1.5, y + 0.3, base + i)
                })
                .collect()
        };
        let ([expire, epochs], stats) = recorded_marks(16 * 1024 * 1024, &mk(0), &mk(100_000));
        assert_eq!(stats.spill_runs, 0);
        assert!(epochs.is_empty());
        assert_eq!(expire.len(), 1, "{expire:?}");
        assert!(
            (4_000 - stats.max_resident as u64..=4_000).contains(&expire[0]),
            "{expire:?} of 4000 pushed, {stats:?}"
        );

        // A dense long-lived opening that spills, then a gap and a sparse
        // tail: the epoch closes once both sides cross the gap (one mark),
        // the tail keeps expiring (one more, at close).
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
        let left = long_lived(100, 0);
        let mut l = left.clone();
        l.sort_unstable_by(Item::cmp_by_lower_y);
        let mut driver = SymmetricSweepDriver::new(&env, 0.0, 64.0);
        for it in &l {
            driver.push(&mut env, Side::Left, *it, |_, _| {}).unwrap();
        }
        assert!(driver.resident() > 0);
        driver.close_side(&mut env, Side::Right, |_, _| {}).unwrap();
        assert_eq!(
            driver.resident(),
            0,
            "no future right arrivals can probe the left residents"
        );
    }

    #[test]
    fn discard_skips_the_fixup_io() {
        let mut env = env_with_memory(64 * 1024);
        let left = long_lived(500, 0);
        let right = long_lived(500, 10_000);
        let mut l = left;
        let mut r = right;
        l.sort_unstable_by(Item::cmp_by_lower_y);
        r.sort_unstable_by(Item::cmp_by_lower_y);
        let mut driver = SymmetricSweepDriver::new(&env, 0.0, 64.0);
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
