//! Pluggable monotonic clocks.
//!
//! Every timestamp in the tracing layer is a `u64` microsecond count read
//! through the [`Clock`] trait, so the same span-emitting code runs against
//! the host's monotonic clock in production and against a manually advanced
//! [`VirtualClock`] in tests — which is what makes trace-shape assertions
//! deterministic (see `crates/live/tests/concurrency.rs`).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic microsecond clock.
///
/// Implementations must be monotone: consecutive `now_us` calls on any one
/// thread never go backwards. The zero point is implementation-defined
/// (the [`HostClock`] anchors it at construction), so only differences are
/// meaningful.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Microseconds elapsed since the clock's origin.
    fn now_us(&self) -> u64;

    /// Waits `dur_us` microseconds *on this clock*.
    ///
    /// The default implementation sleeps the calling thread, which is what
    /// a [`HostClock`] caller wants. [`VirtualClock`] overrides it to
    /// advance itself instead, so retry-backoff schedules driven through a
    /// `Clock` (the service's transient-fault retries) replay instantly
    /// and deterministically under test: the waited-for duration shows up
    /// exactly in subsequent `now_us` readings, with no host time spent.
    fn wait_us(&self, dur_us: u64) {
        std::thread::sleep(std::time::Duration::from_micros(dur_us));
    }
}

/// The production clock: microseconds since the clock was created, read
/// from the host's monotonic [`Instant`].
#[derive(Debug, Clone)]
pub struct HostClock {
    origin: Instant,
}

impl HostClock {
    /// A clock anchored at the moment of the call.
    pub fn new() -> Self {
        HostClock {
            origin: Instant::now(),
        }
    }
}

impl Default for HostClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for HostClock {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// A test clock that only moves when told to.
///
/// Shared behind an `Arc`, it lets a scheduler (virtual or real) decide
/// exactly what every span's timestamps will be: histories that replay from
/// a seed produce byte-identical traces.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_us: AtomicU64,
}

impl VirtualClock {
    /// A clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `dt_us` microseconds.
    pub fn advance(&self, dt_us: u64) {
        self.now_us.fetch_add(dt_us, Ordering::Relaxed);
    }

    /// Jumps the clock to an absolute microsecond value.
    ///
    /// # Panics
    ///
    /// Panics if `t_us` would move the clock backwards.
    pub fn set(&self, t_us: u64) {
        let prev = self.now_us.swap(t_us, Ordering::Relaxed);
        assert!(
            prev <= t_us,
            "VirtualClock moved backwards: {prev} -> {t_us}"
        );
    }
}

impl Clock for VirtualClock {
    fn now_us(&self) -> u64 {
        self.now_us.load(Ordering::Relaxed)
    }

    /// Advances the clock instead of sleeping: the wait is visible in the
    /// virtual timeline but costs no host time.
    fn wait_us(&self, dur_us: u64) {
        self.advance(dur_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn host_clock_is_monotone() {
        let c = HostClock::new();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_moves_only_when_told() {
        let c = Arc::new(VirtualClock::new());
        assert_eq!(c.now_us(), 0);
        c.advance(250);
        assert_eq!(c.now_us(), 250);
        c.set(1_000);
        assert_eq!(c.now_us(), 1_000);
        let dyn_clock: Arc<dyn Clock> = c;
        assert_eq!(dyn_clock.now_us(), 1_000);
    }

    #[test]
    fn virtual_clock_wait_advances_instead_of_sleeping() {
        let c = Arc::new(VirtualClock::new());
        let dyn_clock: Arc<dyn Clock> = c.clone();
        let host_before = Instant::now();
        dyn_clock.wait_us(5_000_000); // five virtual seconds
        assert!(
            host_before.elapsed().as_secs() < 1,
            "must not sleep for real"
        );
        assert_eq!(c.now_us(), 5_000_000);
    }

    #[test]
    fn host_clock_wait_sleeps_at_least_the_duration() {
        let c = HostClock::new();
        let before = c.now_us();
        c.wait_us(2_000);
        assert!(c.now_us() - before >= 2_000);
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn virtual_clock_rejects_rewind() {
        let c = VirtualClock::new();
        c.set(10);
        c.set(5);
    }
}
