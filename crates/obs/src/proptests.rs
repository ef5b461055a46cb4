//! Property tests on the vendored `usj_proptest` harness.
//!
//! The load-bearing property is the histogram's quantile error bound: for
//! any random sample set and any quantile, the log-bucketed answer must
//! bracket the exact nearest-rank answer from above by at most
//! `exact/16 + 1` — that is the contract that let the bench crates drop
//! their private sort-the-samples percentile code.

use usj_proptest::forall;

use crate::histogram::LogHistogram;
use crate::recorder::{Event, Recorder, RingCollector};

/// Exact nearest-rank percentile over a sorted sample — the code shape
/// the bench crates used before the histogram replaced it.
fn exact_nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[test]
fn histogram_quantiles_bracket_exact_nearest_rank() {
    forall!(128, |g| {
        // Mix of scales: tight clusters, long tails, zeros.
        let mut samples = g.vec(1, 400, |g| match g.usize_in(0, 4) {
            0 => g.u64_in(0, 20),
            1 => g.u64_in(0, 2_000),
            2 => g.u64_in(1_000, 5_000_000),
            _ => g.u64_in(0, u64::MAX / 2),
        });
        let h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let mut prev = 0u64;
        for q in [0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0] {
            let exact = exact_nearest_rank(&samples, q);
            let approx = h.quantile(q);
            assert!(
                approx >= exact,
                "q={q}: approx {approx} below exact {exact}"
            );
            assert!(
                approx <= exact + exact / 16 + 1,
                "q={q}: approx {approx} beyond the 1/16-relative bound over exact {exact}"
            );
            assert!(approx >= prev, "quantiles must be monotone in q");
            prev = approx;
        }
        assert_eq!(h.min(), samples.first().copied(), "min is exact");
        assert_eq!(h.max(), samples.last().copied(), "max is exact");
        assert_eq!(h.count(), samples.len() as u64);
    });
}

#[test]
fn ring_collector_never_exceeds_capacity_and_accounts_every_event() {
    forall!(64, |g| {
        let cap = g.usize_in(1, 64);
        let ring = RingCollector::new(cap);
        let mut pushed = 0u64;
        for _ in 0..g.usize_in(1, 8) {
            let mut batch: Vec<Event> = (0..g.usize_in(0, 48))
                .map(|i| Event::Instant {
                    name: "tick",
                    parent: None,
                    t_us: i as u64,
                    value: 0,
                })
                .collect();
            pushed += batch.len() as u64;
            ring.record_batch(&mut batch);
            assert!(ring.len() <= cap, "ring exceeded its bound");
        }
        let (events, dropped) = ring.drain();
        assert_eq!(
            events.len() as u64 + dropped,
            pushed,
            "kept + dropped == pushed"
        );
    });
}
