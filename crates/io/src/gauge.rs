//! The memory governor: a gauge every allocation-heavy structure registers
//! with.
//!
//! The paper's entire argument is about behaviour under a *bounded internal
//! memory* (the 64 MB machines of Table 1, of which 24 MB is free). Before
//! this module the limit in [`SimEnv::memory_limit`](crate::SimEnv) was
//! advisory: algorithms sized their working sets from it, but nothing stopped
//! a skewed partition or an oversized sweep structure from silently blowing
//! the budget. The [`MemoryGauge`] turns the limit into a hard invariant:
//!
//! * every tracked working set holds a [`MemoryReservation`] (RAII — dropping
//!   it releases the bytes);
//! * a reservation can only be created or grown through fallible calls that
//!   return [`IoSimError::MemoryLimitExceeded`] when the budget would be
//!   exceeded — so exceeding the limit is impossible by construction;
//! * the gauge records the high-water mark, which the join algorithms report
//!   as the *measured* `JoinResult::memory.peak_bytes`.
//!
//! The gauge is shared by cloning (atomics behind an [`Arc`]), so a sweep
//! structure or stream buffer can keep charging its bytes without holding a
//! borrow of the whole [`SimEnv`](crate::SimEnv). Forked worker environments
//! get a *fresh* gauge with the same limit: each worker has its own memory
//! budget.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::error::{IoSimError, Result};

/// Shared counters of one gauge: bytes currently reserved and the high-water
/// mark since the last [`MemoryGauge::begin_phase`].
#[derive(Debug, Default)]
struct GaugeInner {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl GaugeInner {
    fn bump_peak(&self, candidate: usize) {
        // A sweep driver resizes its claim once per item; nearly always the
        // new total is below a peak set long before, and a plain load is all
        // that takes.
        if candidate > self.peak.load(Ordering::Relaxed) {
            self.peak.fetch_max(candidate, Ordering::Relaxed);
        }
    }
}

/// A cloneable handle to the internal-memory accounting of one environment.
///
/// See the [module documentation](self) for the governing rules. All clones
/// share the same counters; the limit is a plain value copied into each
/// clone, so it must be configured (via
/// [`SimEnv::with_memory_limit`](crate::SimEnv::with_memory_limit) /
/// [`SimEnv::set_memory_limit`](crate::SimEnv::set_memory_limit)) before
/// long-lived reservations are handed out.
#[derive(Debug, Clone)]
pub struct MemoryGauge {
    inner: Arc<GaugeInner>,
    limit: usize,
}

impl MemoryGauge {
    /// Creates a gauge enforcing `limit` bytes.
    pub fn new(limit: usize) -> Self {
        MemoryGauge {
            inner: Arc::new(GaugeInner::default()),
            limit,
        }
    }

    /// The configured internal-memory limit in bytes.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Bytes currently reserved.
    pub fn current(&self) -> usize {
        self.inner.current.load(Ordering::Relaxed)
    }

    /// Bytes still available before the limit is reached.
    pub fn headroom(&self) -> usize {
        self.limit.saturating_sub(self.current())
    }

    /// High-water mark of [`current`](MemoryGauge::current) since the last
    /// [`begin_phase`](MemoryGauge::begin_phase) (or creation).
    pub fn peak(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// Resets the high-water mark to the current usage, starting a new
    /// measured phase. Every join algorithm calls this on entry so that
    /// `JoinResult::memory.peak_bytes` covers exactly that join.
    pub fn begin_phase(&self) {
        self.inner.peak.store(self.current(), Ordering::Relaxed);
    }

    /// Creates an empty reservation (0 bytes) that can be grown later.
    pub fn reserve_empty(&self) -> MemoryReservation {
        MemoryReservation {
            inner: Arc::clone(&self.inner),
            limit: self.limit,
            bytes: 0,
        }
    }

    /// Reserves `bytes`, failing with [`IoSimError::MemoryLimitExceeded`] if
    /// the reservation would push the total over the limit.
    pub fn try_reserve(&self, bytes: usize) -> Result<MemoryReservation> {
        let mut r = self.reserve_empty();
        r.try_grow(bytes)?;
        Ok(r)
    }
}

/// An RAII claim on part of the internal memory of one [`MemoryGauge`].
///
/// Dropping the reservation releases its bytes. Growth is fallible (the
/// governor says no rather than letting the limit be exceeded); shrinking is
/// always allowed.
#[derive(Debug)]
pub struct MemoryReservation {
    inner: Arc<GaugeInner>,
    limit: usize,
    bytes: usize,
}

impl MemoryReservation {
    /// Bytes currently held by this reservation.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Grows the reservation by `delta` bytes, failing if the gauge total
    /// would exceed the limit.
    pub fn try_grow(&mut self, delta: usize) -> Result<()> {
        if delta == 0 {
            return Ok(());
        }
        let mut cur = self.inner.current.load(Ordering::Relaxed);
        loop {
            let required = cur.saturating_add(delta);
            if required > self.limit {
                return Err(IoSimError::MemoryLimitExceeded {
                    required,
                    limit: self.limit,
                });
            }
            match self.inner.current.compare_exchange_weak(
                cur,
                required,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.bytes += delta;
                    self.inner.bump_peak(required);
                    return Ok(());
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Shrinks the reservation by `delta` bytes (saturating at zero).
    pub fn shrink(&mut self, delta: usize) {
        let delta = delta.min(self.bytes);
        if delta > 0 {
            self.inner.current.fetch_sub(delta, Ordering::Relaxed);
            self.bytes -= delta;
        }
    }

    /// Resizes the reservation to exactly `bytes`, failing (and leaving the
    /// reservation unchanged) if growing would exceed the limit.
    pub fn try_set(&mut self, bytes: usize) -> Result<()> {
        if bytes > self.bytes {
            self.try_grow(bytes - self.bytes)
        } else {
            self.shrink(self.bytes - bytes);
            Ok(())
        }
    }

    /// Releases every byte held (equivalent to `try_set(0)`).
    pub fn release(&mut self) {
        self.shrink(self.bytes);
    }

    /// Moves every byte held into a *new* reservation against the same
    /// gauge, leaving `self` empty. The gauge total is unchanged — no
    /// release/re-reserve window where another thread could claim the
    /// bytes. This is the hand-over primitive of the live-catalog flush
    /// path: a frozen memtable transfers its claim to the flush batch,
    /// which keeps charging the gauge until the batch is persisted.
    pub fn take(&mut self) -> MemoryReservation {
        let bytes = self.bytes;
        self.bytes = 0;
        MemoryReservation {
            inner: Arc::clone(&self.inner),
            limit: self.limit,
            bytes,
        }
    }
}

impl Drop for MemoryReservation {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservations_accumulate_and_release_on_drop() {
        let g = MemoryGauge::new(100);
        let a = g.try_reserve(40).unwrap();
        let b = g.try_reserve(30).unwrap();
        assert_eq!(g.current(), 70);
        assert_eq!(g.peak(), 70);
        drop(a);
        assert_eq!(g.current(), 30);
        assert_eq!(g.peak(), 70, "peak survives releases");
        drop(b);
        assert_eq!(g.current(), 0);
    }

    #[test]
    fn exceeding_the_limit_is_an_error() {
        let g = MemoryGauge::new(100);
        let _a = g.try_reserve(80).unwrap();
        let err = g.try_reserve(21).unwrap_err();
        assert!(matches!(
            err,
            IoSimError::MemoryLimitExceeded {
                required: 101,
                limit: 100
            }
        ));
        // Exactly reaching the limit is allowed.
        let _b = g.try_reserve(20).unwrap();
        assert_eq!(g.headroom(), 0);
    }

    #[test]
    fn grow_shrink_and_set_adjust_the_gauge() {
        let g = MemoryGauge::new(1000);
        let mut r = g.reserve_empty();
        r.try_grow(100).unwrap();
        r.try_set(400).unwrap();
        assert_eq!(g.current(), 400);
        r.shrink(150);
        assert_eq!(r.bytes(), 250);
        assert_eq!(g.current(), 250);
        assert!(r.try_set(1001).is_err());
        assert_eq!(r.bytes(), 250, "failed grow leaves the reservation intact");
        r.release();
        assert_eq!(g.current(), 0);
    }

    #[test]
    fn begin_phase_rebases_the_peak() {
        let g = MemoryGauge::new(100);
        {
            let _a = g.try_reserve(90).unwrap();
        }
        assert_eq!(g.peak(), 90);
        let _b = g.try_reserve(10).unwrap();
        g.begin_phase();
        assert_eq!(g.peak(), 10, "phase peak starts at the live usage");
        let _c = g.try_reserve(25).unwrap();
        assert_eq!(g.peak(), 35);
    }

    #[test]
    fn take_transfers_bytes_without_touching_the_gauge() {
        let g = MemoryGauge::new(100);
        let mut a = g.try_reserve(60).unwrap();
        let b = a.take();
        assert_eq!(a.bytes(), 0);
        assert_eq!(b.bytes(), 60);
        assert_eq!(g.current(), 60, "the gauge total is unchanged by take");
        drop(a);
        assert_eq!(g.current(), 60, "the emptied source releases nothing");
        drop(b);
        assert_eq!(g.current(), 0);
    }

    #[test]
    fn clones_share_counters() {
        let g = MemoryGauge::new(64);
        let h = g.clone();
        let _r = h.try_reserve(48).unwrap();
        assert_eq!(g.current(), 48);
        assert!(g.try_reserve(32).is_err());
    }
}
