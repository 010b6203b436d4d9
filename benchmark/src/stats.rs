//! Summary statistics over repetitions, and smooth latency quantiles.

use hades::sim::stats::Histogram;
use hades::sim::time::CORE_HZ;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so spreads printed here match a reader's own check.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0 < q < 1) of a latency histogram, in microseconds.
///
/// Past a few thousand samples [`Histogram::percentile`] answers with a
/// bucket edge, so it moves in steps of about 3% and can read the same
/// on many seeds. This estimate interpolates linearly across the ranks
/// the answering bucket holds, using only `percentile` queries, so it
/// moves smoothly with the data.
pub fn quantile_us(h: &Histogram, q: f64) -> f64 {
    assert!(q > 0.0 && q < 1.0, "quantile {q} out of range");
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // Value answered for 1-based rank `k`; the half-rank offset keeps
    // the histogram's `ceil` from rounding float error up a rank.
    let at = |k: u64| h.percentile((k as f64 - 0.5) * 100.0 / n as f64).get();
    let k = ((q * n as f64).ceil() as u64).clamp(1, n);
    let hi = at(k);
    let cycles = if h.is_exact() {
        hi as f64
    } else {
        // Ranks `first..=last` (which hold `k`) all answer `hi`; spread
        // them evenly over (previous answer, hi].
        let first = partition_point(1, k, |r| at(r) < hi);
        let last = partition_point(k, n + 1, |r| at(r) <= hi) - 1;
        let lo = if first > 1 {
            at(first - 1)
        } else {
            h.min().get()
        };
        let frac = ((k - first) as f64 + 0.5) / (last - first + 1) as f64;
        lo as f64 + (hi - lo) as f64 * frac
    };
    cycles * 1e6 / CORE_HZ as f64
}

/// The first `r` in `lo..hi` for which `pred` is false, given that `pred`
/// is true on a prefix of the range and false on the rest.
fn partition_point(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use hades::sim::time::Cycles;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn quantile_is_exact_on_small_histograms() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(Cycles::new(v * 2_000));
        }
        // Exact mode: every rank answers its own sample, 2000 cycles = 1 us.
        assert_eq!(quantile_us(&h, 0.5), 50.0);
        assert_eq!(quantile_us(&h, 0.999), 100.0);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let mut h = Histogram::new();
        for v in 0..100_000u64 {
            h.record(Cycles::new(10_000 + v));
        }
        assert!(!h.is_exact());
        let p50 = quantile_us(&h, 0.5) * CORE_HZ as f64 / 1e6;
        let p999 = quantile_us(&h, 0.999) * CORE_HZ as f64 / 1e6;
        assert!((p50 - 60_000.0).abs() / 60_000.0 < 0.005, "p50 {p50}");
        assert!((p999 - 109_900.0).abs() / 109_900.0 < 0.005, "p999 {p999}");
        // Unlike the bucket edge, the estimate moves with a small shift.
        let mut shifted = Histogram::new();
        for v in 0..100_000u64 {
            shifted.record(Cycles::new(10_100 + v));
        }
        assert!(quantile_us(&shifted, 0.5) > quantile_us(&h, 0.5));
        assert_eq!(shifted.percentile(50.0), h.percentile(50.0));
    }

    #[test]
    fn quantile_of_one_repeated_value_is_that_value() {
        let mut h = Histogram::new();
        for _ in 0..10_000 {
            h.record(Cycles::new(4_000));
        }
        assert_eq!(quantile_us(&h, 0.5), 2.0);
        assert_eq!(quantile_us(&h, 0.999), 2.0);
    }
}
