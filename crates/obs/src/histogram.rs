//! A log-bucketed histogram with a proven quantile error bound.
//!
//! Values `0..16` land in exact unit-width buckets; every power-of-two
//! decade above that is split into 16 sub-buckets, so a bucket's width is
//! at most 1/16 of its lower edge. Quantiles are answered nearest-rank
//! over the bucket counts and reported as the containing bucket's *upper*
//! edge (clamped to the recorded maximum), which yields the bound the
//! property suite checks against exact nearest-rank on random samples:
//!
//! ```text
//! exact <= quantile(q) <= exact + exact/16 + 1
//! ```
//!
//! Updates are lock-free (`fetch_add` / `fetch_min` / `fetch_max` on
//! relaxed atomics), so one histogram can be shared behind an `Arc` by a
//! worker pool and read while being written — this is what replaced the
//! bench crates' private sort-the-samples percentile code.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each power-of-two decade splits into
/// `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 4;

/// Sub-buckets per decade (16).
const SUB: usize = 1 << SUB_BITS;

/// Values below `SUB` get exact unit buckets; decades `4..=63` get `SUB`
/// buckets each.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Bucket index of a value.
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let g = 63 - v.leading_zeros(); // g >= SUB_BITS
        let sub = ((v >> (g - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        SUB + (g - SUB_BITS) as usize * SUB + sub
    }
}

/// Upper (inclusive) edge of a bucket — the value a quantile query reports.
fn bucket_hi(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        let g = SUB_BITS + ((idx - SUB) / SUB) as u32;
        let sub = ((idx - SUB) % SUB) as u64;
        let width = 1u64 << (g - SUB_BITS);
        let lo = (1u64 << g) + sub * width;
        lo.saturating_add(width - 1)
    }
}

/// Shared log-bucketed histogram of `u64` samples (microseconds, bytes —
/// any nonnegative magnitude).
pub struct LogHistogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count())
            .field("min", &self.min())
            .field("max", &self.max())
            .field("p50", &self.quantile(0.50))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // `[AtomicU64; N]` has no Default past 32 elements; build via Vec.
        let buckets: Box<[AtomicU64; BUCKETS]> = (0..BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice()
            .try_into()
            .expect("bucket count is fixed");
        LogHistogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wraps only past `u64::MAX` total).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        let v = self.min.load(Ordering::Relaxed);
        (v != u64::MAX || self.count() > 0).then_some(v)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.max.load(Ordering::Relaxed))
    }

    /// Nearest-rank quantile, `q` in `(0, 1]`; 0 on an empty histogram.
    ///
    /// The reported value is the upper edge of the bucket holding the
    /// rank-`ceil(q·n)` sample, clamped to the recorded min/max, so it
    /// never undershoots the exact nearest-rank answer and overshoots by
    /// at most `exact/16 + 1`.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                let hi = bucket_hi(idx);
                let max = self.max.load(Ordering::Relaxed);
                let min = self.min.load(Ordering::Relaxed);
                return hi.min(max).max(min.min(max));
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of the recorded samples, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact nearest-rank percentile the bench crates used to compute
    /// by sorting the raw samples — the oracle for the error bound.
    fn exact_nearest_rank(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn buckets_tile_the_u64_range_in_order() {
        // Every value maps to a bucket whose hi edge is >= the value, and
        // bucket indexes are monotone in the value.
        let mut prev_idx = 0;
        for &v in &[
            0u64,
            1,
            5,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            65_535,
            1 << 40,
            u64::MAX,
        ] {
            let idx = bucket_of(v);
            assert!(idx >= prev_idx, "bucket order broke at {v}");
            assert!(bucket_hi(idx) >= v, "hi edge below value at {v}");
            prev_idx = idx;
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn small_values_are_exact() {
        let h = LogHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(1.0 / 16.0), 0);
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(15));
        assert_eq!(h.sum(), (0..16).sum::<u64>());
        assert!((h.mean() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_monotone_and_within_the_error_bound() {
        // Deterministic skewed sample: a latency-like long tail.
        let mut samples: Vec<u64> = (0..2_000u64).map(|i| (i * i * 37) % 100_000).collect();
        let h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let mut prev = 0;
        for &(q, _) in &[
            (0.01, ()),
            (0.25, ()),
            (0.50, ()),
            (0.95, ()),
            (0.99, ()),
            (1.0, ()),
        ] {
            let exact = exact_nearest_rank(&samples, q);
            let approx = h.quantile(q);
            assert!(approx >= exact, "q={q}: {approx} < exact {exact}");
            assert!(
                approx <= exact + exact / 16 + 1,
                "q={q}: {approx} exceeds bound over exact {exact}"
            );
            assert!(approx >= prev, "quantiles must be monotone in q");
            prev = approx;
        }
        assert_eq!(
            h.quantile(1.0),
            *samples.last().unwrap(),
            "p100 is the exact max"
        );
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }
}
