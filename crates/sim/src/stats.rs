//! Measurement utilities: latency histograms.
//!
//! The paper reports mean transaction latency (Fig 10), 95th-percentile tail
//! latency (Fig 11) and throughput (Figs 9, 12–15). [`Histogram`] is an
//! HDR-style log-linear histogram: cheap to record into, with bounded
//! relative error on percentile queries.

use crate::time::Cycles;
use std::fmt;

/// Number of linear sub-buckets per power-of-two bucket. 32 sub-buckets
/// bounds the relative quantile error at ~3%.
const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)

/// Up to this many raw samples are kept alongside the buckets so that
/// percentile queries on small populations are exact (nearest-rank) rather
/// than biased to the sub-bucket upper edge. Past the cap the histogram
/// degrades gracefully to bucketed estimates.
const EXACT_CAP: usize = 4096;

/// A log-linear histogram of cycle counts for percentile estimation.
///
/// # Examples
///
/// ```
/// use hades_sim::stats::Histogram;
/// use hades_sim::time::Cycles;
///
/// let mut h = Histogram::new();
/// for v in 1..=100u64 {
///     h.record(Cycles::new(v));
/// }
/// assert_eq!(h.count(), 100);
/// let p50 = h.percentile(50.0).get();
/// assert!((45..=56).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
    min: u64,
    /// Raw samples, retained while `exact` holds (≤ [`EXACT_CAP`]).
    samples: Vec<u64>,
    /// True while `samples` still contains every recorded observation.
    exact: bool,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64 * SUB_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
            samples: Vec::new(),
            exact: true,
        }
    }

    fn index_for(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = (value >> shift) as usize & (SUB_BUCKETS - 1);
        ((msb - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    fn value_for(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let bucket = (index / SUB_BUCKETS) as u32 - 1 + SUB_BITS;
        let sub = (index % SUB_BUCKETS) as u64;
        let base = 1u64 << bucket;
        let step = 1u64 << (bucket - SUB_BITS);
        // Upper edge of the sub-bucket (conservative percentile estimate);
        // saturate at the top bucket to avoid overflow for values near
        // `u64::MAX`.
        base.saturating_add((sub + 1).saturating_mul(step))
            .saturating_sub(1)
    }

    /// Records one observation.
    pub fn record(&mut self, value: Cycles) {
        let v = value.get();
        self.buckets[Self::index_for(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
        self.min = self.min.min(v);
        if self.exact {
            if self.samples.len() < EXACT_CAP {
                self.samples.push(v);
            } else {
                self.exact = false;
                self.samples = Vec::new();
            }
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded observations (exact, not bucketed).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Whether percentile queries are currently exact (all samples retained).
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Mean of recorded observations, or zero if empty.
    pub fn mean(&self) -> Cycles {
        if self.count == 0 {
            return Cycles::ZERO;
        }
        Cycles::new((self.sum / self.count as u128) as u64)
    }

    /// Largest recorded observation, or zero if empty.
    pub fn max(&self) -> Cycles {
        if self.count == 0 {
            Cycles::ZERO
        } else {
            Cycles::new(self.max)
        }
    }

    /// Smallest recorded observation, or zero if empty.
    pub fn min(&self) -> Cycles {
        if self.count == 0 {
            Cycles::ZERO
        } else {
            Cycles::new(self.min)
        }
    }

    /// Value at or below which `p` percent of observations fall.
    ///
    /// While the population fits the exact-sample sidecar this is the true
    /// nearest-rank quantile (small samples used to be biased towards the
    /// sub-bucket upper edge); past the cap it falls back to the bucketed
    /// estimate with bounded relative error.
    ///
    /// Returns zero for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0..=100`.
    pub fn percentile(&self, p: f64) -> Cycles {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.count == 0 {
            return Cycles::ZERO;
        }
        let target = (((p / 100.0) * self.count as f64).ceil().max(1.0) as u64).min(self.count);
        if self.exact {
            let mut sorted = self.samples.clone();
            sorted.sort_unstable();
            return Cycles::new(sorted[target as usize - 1]);
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Cycles::new(Self::value_for(i).min(self.max));
            }
        }
        Cycles::new(self.max)
    }

    /// Merges another histogram into this one. Exactness survives the merge
    /// only if both sides are exact and the union fits the sample cap.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
        if self.exact && other.exact && self.samples.len() + other.samples.len() <= EXACT_CAP {
            self.samples.extend_from_slice(&other.samples);
        } else {
            self.exact = false;
            self.samples = Vec::new();
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p95={} p99={} max={}",
            self.count,
            self.mean(),
            self.percentile(50.0),
            self.percentile(95.0),
            self.percentile(99.0),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Cycles::ZERO);
        assert_eq!(h.percentile(95.0), Cycles::ZERO);
        assert_eq!(h.max(), Cycles::ZERO);
    }

    #[test]
    fn empty_histogram_every_percentile_is_zero() {
        // Sparse time-series windows query p99 on empty histograms; no
        // percentile may panic or return nonzero.
        let h = Histogram::new();
        for p in [0.0, 0.1, 50.0, 99.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), Cycles::ZERO, "p{p}");
        }
        assert_eq!(h.min(), Cycles::ZERO);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = Histogram::new();
        h.record(Cycles::new(777));
        for p in [0.0, 0.1, 50.0, 99.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), Cycles::new(777), "p{p}");
        }
        assert_eq!(h.mean(), Cycles::new(777));
        assert_eq!(h.min(), Cycles::new(777));
        assert_eq!(h.max(), Cycles::new(777));
    }

    #[test]
    fn all_equal_samples_are_unbiased() {
        // Under the exact cap: trivially exact.
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(Cycles::new(12_345));
        }
        assert!(h.is_exact());
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Cycles::new(12_345), "p{p}");
        }
    }

    #[test]
    fn all_equal_samples_stay_unbiased_past_exact_cap() {
        // Past the cap the bucketed estimate would report the sub-bucket
        // upper edge; the `min(max)` clamp keeps it exact when every
        // sample is identical.
        let mut h = Histogram::new();
        for _ in 0..(EXACT_CAP as u64 + 10) {
            h.record(Cycles::new(12_345));
        }
        assert!(!h.is_exact());
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Cycles::new(12_345), "p{p}");
        }
        assert_eq!(h.mean(), Cycles::new(12_345));
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(Cycles::new(v));
        }
        assert_eq!(h.min(), Cycles::ZERO);
        assert_eq!(h.max(), Cycles::new(SUB_BUCKETS as u64 - 1));
        assert_eq!(h.percentile(100.0), Cycles::new(SUB_BUCKETS as u64 - 1));
    }

    #[test]
    fn percentile_relative_error_bounded() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(Cycles::new(v));
        }
        for p in [10.0, 50.0, 90.0, 95.0, 99.0] {
            let exact = p / 100.0 * 100_000.0;
            let est = h.percentile(p).get() as f64;
            let err = (est - exact).abs() / exact;
            assert!(err < 0.05, "p{p}: est {est} vs exact {exact} (err {err})");
        }
    }

    #[test]
    fn mean_matches_arithmetic_mean() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(Cycles::new(v));
        }
        assert_eq!(h.mean(), Cycles::new(25));
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(Cycles::new(5));
        b.record(Cycles::new(500));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Cycles::new(5));
        assert_eq!(a.max(), Cycles::new(500));
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(Cycles::new(u64::MAX));
        h.record(Cycles::new(u64::MAX / 2));
        assert_eq!(h.count(), 2);
        assert!(h.percentile(99.0).get() > 0);
    }

    #[test]
    fn small_samples_use_exact_nearest_rank() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(Cycles::new(v));
        }
        assert!(h.is_exact());
        // Nearest-rank: rank = ceil(p/100 * n), 1-indexed into the sorted
        // samples. No upper-edge bucket bias on small populations.
        assert_eq!(h.percentile(50.0), Cycles::new(50));
        assert_eq!(h.percentile(99.0), Cycles::new(99));
        assert_eq!(h.percentile(99.9), Cycles::new(100));
        assert_eq!(h.percentile(100.0), Cycles::new(100));
        assert_eq!(h.percentile(0.0), Cycles::new(1));
    }

    #[test]
    fn exact_mode_degrades_past_cap() {
        let mut h = Histogram::new();
        for v in 1..=(EXACT_CAP as u64 + 1) {
            h.record(Cycles::new(v));
        }
        assert!(!h.is_exact());
        assert_eq!(h.count(), EXACT_CAP as u64 + 1);
        // Bucketed estimates stay within the advertised error bound.
        let est = h.percentile(50.0).get() as f64;
        let exact = (EXACT_CAP + 1) as f64 / 2.0;
        assert!((est - exact).abs() / exact < 0.05, "p50 est {est}");
    }

    #[test]
    fn merge_preserves_exactness_when_it_fits() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=50u64 {
            a.record(Cycles::new(v));
        }
        for v in 51..=100u64 {
            b.record(Cycles::new(v));
        }
        a.merge(&b);
        assert!(a.is_exact());
        assert_eq!(a.percentile(50.0), Cycles::new(50));

        let mut big = Histogram::new();
        for v in 0..EXACT_CAP as u64 {
            big.record(Cycles::new(v));
        }
        let mut c = Histogram::new();
        c.record(Cycles::new(7));
        c.merge(&big);
        assert!(!c.is_exact(), "overflowing merge must drop exactness");
        assert_eq!(c.count(), EXACT_CAP as u64 + 1);
    }

    #[test]
    fn sum_is_exact() {
        let mut h = Histogram::new();
        for v in [3u64, 1 << 40, 9] {
            h.record(Cycles::new(v));
        }
        assert_eq!(h.sum(), 12 + (1u128 << 40));
    }

    #[test]
    fn bucket_boundaries_are_tight() {
        // Values below SUB_BUCKETS map to their own singleton buckets.
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(Histogram::value_for(Histogram::index_for(v)), v);
        }
        // At and above SUB_BUCKETS, the upper edge of a bucket is the last
        // value that maps into it: one past the edge lands in the next.
        for v in [32u64, 63, 64, 1 << 10, (1 << 20) + 12345, 1 << 40] {
            let idx = Histogram::index_for(v);
            let upper = Histogram::value_for(idx);
            assert!(upper >= v);
            assert_eq!(Histogram::index_for(upper), idx, "upper edge in bucket");
            assert_eq!(Histogram::index_for(upper + 1), idx + 1, "edge is tight");
        }
    }

    #[test]
    fn index_value_round_trip_is_monotone() {
        let mut last = 0;
        for v in (0..22).map(|b| 1u64 << b) {
            let idx = Histogram::index_for(v);
            let upper = Histogram::value_for(idx);
            assert!(upper >= v, "upper edge {upper} < value {v}");
            assert!(idx >= last);
            last = idx;
        }
    }
}
