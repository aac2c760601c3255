//! Order statistics and the result fingerprint.

/// The samples in ascending order; `+∞` (a failed operation) sorts last.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank percentile of an ascending sample set, `q` in `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the `q` percentile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The highest percentile of the ladder 99.9 / 99 / 90 that still has at
/// least ten samples beyond it; `None` when even p90 has fewer (report
/// the median alone).
pub fn tail_quantile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9].into_iter().find(|&q| beyond(n, q) >= 10)
}

/// First quartile, median and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so a spread
/// computed here equals the one the acceptance check computes.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    assert!(!sorted.is_empty(), "quartiles of an empty sample set");
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        if delta == 0.0 {
            // Not `∞ * 0`: a failed sample must not turn a cut into NaN.
            return sorted[j - 1];
        }
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of samples in any order.
pub fn median(values: &[f64]) -> f64 {
    quartiles(&sorted(values.to_vec())).1
}

/// Interquartile range as a share of the median; `+∞` where the median
/// is 0 or not finite (a spread nothing can be within).
pub fn spread((q1, q2, q3): (f64, f64, f64)) -> f64 {
    if q2 == 0.0 || !q2.is_finite() {
        return f64::INFINITY;
    }
    (q3 - q1) / q2.abs()
}

/// `v` to four significant digits, for tables.
pub fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return v.to_string();
    }
    let decimals = (3 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

/// FNV-1a, 64 bit — the `sim_fingerprint` of a result JSON.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&sorted(vec![3.0, 1.0, 2.0])), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!((spread(quartiles(&v)) - 1.0).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_quantile(1500), Some(0.99)); // 15 beyond p99, 1 beyond p99.9
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(3000), Some(0.99));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(99), None);
        assert_eq!(beyond(1500, 0.99), 15);
    }

    #[test]
    fn a_failure_enters_every_percentile_as_infinity() {
        let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
        v.push(f64::INFINITY);
        let s = sorted(v);
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), f64::INFINITY);
        // Two failures in a hundred reach p99.
        let mut v: Vec<f64> = (1..=98).map(f64::from).collect();
        v.extend([f64::INFINITY, f64::INFINITY]);
        assert_eq!(percentile(&sorted(v), 0.99), f64::INFINITY);
    }

    #[test]
    fn four_significant_digits() {
        assert_eq!(sig(0.000002050123), "0.000002050");
        assert_eq!(sig(2.345678), "2.346");
        assert_eq!(sig(130204.4), "130204");
        assert_eq!(sig(0.0), "0");
    }

    #[test]
    fn fingerprint_is_fnv1a() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
