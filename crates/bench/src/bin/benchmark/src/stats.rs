//! Sample statistics and the FNV-1a digests the correctness gates compare.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice, so a metric that was never sampled cannot pass
/// for a measurement.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of samples that were recorded in whole units (the service reports
/// whole microseconds): the grouped-data median, which interpolates inside
/// the unit-wide bin holding the middle sample instead of jumping a whole
/// unit when the middle moves across a bin edge.
pub fn median_binned(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let bin = median(values).floor();
    let below = values.iter().filter(|v| **v < bin).count() as f64;
    let inside = values
        .iter()
        .filter(|v| **v >= bin && **v < bin + 1.0)
        .count() as f64;
    bin + (values.len() as f64 / 2.0 - below) / inside.max(1.0)
}

/// Nearest-rank percentile (`q` in 0..=1) of `values`; `NaN` when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them — the
/// rule the acceptance check is stated in. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The first quartile of repeated timings of the same work: the quartile
/// on the fast side. The host is shared and its noise only ever slows a
/// run, in bursts of seconds to tens of seconds, so over the units of a run
/// the fast side repeats from run to run where the median follows the
/// bursts.
pub fn fast_quartile(times: &[f64]) -> f64 {
    match times {
        [] => f64::NAN,
        [only] => *only,
        _ => quartiles(times).0,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    pub fn eat_u32(&mut self, v: u32) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn eat_u64(&mut self, v: u64) {
        self.eat_u32(v as u32);
        self.eat_u32((v >> 32) as u32);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Order-independent digest of a pair multiset: the count plus a wrapping
/// sum of per-pair mixes, so algorithms that emit in different orders agree
/// and a dropped or duplicated pair does not cancel out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairDigest {
    pub count: u64,
    pub sum: u64,
}

impl PairDigest {
    #[inline]
    pub fn add(&mut self, left: u32, right: u32) {
        // SplitMix64 finaliser over the packed pair.
        let mut z = (u64::from(left) << 32 | u64::from(right)).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.count += 1;
        self.sum = self.sum.wrapping_add(z ^ (z >> 31));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&v), 5.5);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(fast_quartile(&v), 2.75);
        assert_eq!(fast_quartile(&[4.0]), 4.0);
    }

    #[test]
    fn binned_median_moves_smoothly_across_a_bin_edge() {
        // 4 samples at 12 us, 6 at 13 us: the middle sits 1/6 into bin 13.
        let v = [12.0, 12.0, 12.0, 12.0, 13.0, 13.0, 13.0, 13.0, 13.0, 13.0];
        assert!((median_binned(&v) - (13.0 + 1.0 / 6.0)).abs() < 1e-12);
        let w = [12.0, 12.0, 12.0, 12.0, 12.0, 13.0, 13.0, 13.0, 13.0, 13.0];
        assert!(
            (median_binned(&w) - 13.0).abs() < 1e-12,
            "{}",
            median_binned(&w)
        );
    }

    #[test]
    fn pair_digest_ignores_order_but_not_content() {
        let mut a = PairDigest::default();
        let mut b = PairDigest::default();
        for (l, r) in [(1, 2), (3, 4), (5, 6)] {
            a.add(l, r);
        }
        for (l, r) in [(5, 6), (1, 2), (3, 4)] {
            b.add(l, r);
        }
        assert_eq!(a, b);
        b.add(1, 2);
        assert_ne!(a, b);
    }
}
