//! Order statistics for the ledger: medians, the tail-percentile rule,
//! and the quartiles `ledger compare` judges spreads by.

pub use blazr_util::stats::mean;

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Smallest of `xs`.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The tail percentile a sample supports: the highest of `want` and the
/// lower standard percentiles that leaves at least ten samples beyond
/// it, with its nearest-rank value. `(percentile, value)`; `None` for
/// fewer than eleven samples.
pub fn tail(xs: &[f64], want: f64) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .filter(|&p| p <= want)
        .find_map(|p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            (rank >= 1 && n - rank >= 10).then(|| (p, s[rank - 1]))
        })
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), so spreads
/// printed here match the ones the benchmark's acceptance is judged by. A
/// single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 is rank 990, with exactly ten beyond it.
        assert_eq!(tail(&xs, 99.0), Some((99.0, 990.0)));
        // 999 samples leave only nine beyond p99, so the rule drops to p95.
        let fewer = &xs[..999];
        assert_eq!(tail(fewer, 99.0), Some((95.0, 950.0)));
        // p99.9 needs ten thousand samples.
        assert_eq!(tail(&xs, 99.9), Some((99.0, 990.0)));
        assert_eq!(tail(&xs[..20], 99.0), Some((50.0, 10.0)));
        assert_eq!(tail(&xs[..10], 99.0), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(tail(&rev, 99.0), Some((99.0, 990.0)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: small
        // samples extrapolate, and so does the ledger.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn median_and_min() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(min(&[4.0, 1.5, 2.0]), 1.5);
    }
}
