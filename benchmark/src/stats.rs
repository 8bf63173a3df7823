//! Order statistics used for every reported number.

/// Median of `values` (mean of the two middle elements for an even
/// count). Panics on an empty slice: a metric without samples is a
/// harness bug, not a number.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, reported only when at least ten samples lie
/// beyond it: a p99 of 50 samples is the maximum under another name.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n.max(1));
    if n == 0 || n - rank < 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    Some(v[rank - 1])
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) — the spread the acceptance rule is stated in.
/// `None` below two samples.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let quartile = |k: usize| {
        // Position k(n+1)/4 in 1-based order, clamped into the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let mid = median(&v);
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(
            percentile(&v, 99.5),
            None,
            "only five samples lie beyond p99.5"
        );
        let small: Vec<f64> = (1..=24).map(f64::from).collect();
        assert_eq!(percentile(&small, 90.0), None);
        assert_eq!(percentile(&small, 50.0), Some(12.0));
        assert_eq!(percentile(&[], 50.0), None);
        // The boundary: exactly ten beyond is allowed, nine is not.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 91.0), None);
    }

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = quartile_spread(&[4.0, 1.0, 2.0]).unwrap();
        assert!((s - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }
}
