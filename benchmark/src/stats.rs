//! Order statistics for latency samples and run-to-run spreads.

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p/100 · n)` (1-based). `p` is in `(0, 100]`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest whole percentile not above `want` that still has at least
/// ten samples beyond its nearest-rank position; never below the median.
/// A tail percentile read off fewer than ten samples is one slow call, not
/// a property of the system.
pub fn supported_percentile(n: usize, want: u32) -> u32 {
    (50..=want)
        .rev()
        .find(|&p| n - rank(n, p as f64) >= 10)
        .unwrap_or(50)
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method) — the spread the benchmark's
/// acceptance rule is stated in. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Position i·(n+1)/4 on a 1-based scale, interpolated linearly.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_example() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&v, 5.0), 15.0);
        assert_eq!(nearest_rank(&v, 30.0), 20.0);
        assert_eq!(nearest_rank(&v, 40.0), 20.0);
        assert_eq!(nearest_rank(&v, 50.0), 35.0);
        assert_eq!(nearest_rank(&v, 100.0), 50.0);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&thousand, 99.0), 990.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(1000, 99), 99);
        assert_eq!(supported_percentile(999, 99), 98);
        assert_eq!(supported_percentile(100, 99), 90);
        assert_eq!(supported_percentile(20, 99), 50);
        assert_eq!(supported_percentile(3, 99), 50);
        assert_eq!(supported_percentile(5000, 50), 50);
    }

    #[test]
    fn quartiles_agree_with_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
    }
}
