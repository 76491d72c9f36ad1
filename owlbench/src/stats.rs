//! Order statistics for the benchmark's reported numbers.
//!
//! Percentiles of one run's samples use the nearest-rank definition,
//! and a tail percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it — fewer than that and the
//! number is one or two outliers, not a percentile. Quartiles over a
//! set of values (several set-ups in one run, or one metric across
//! runs) use the same exclusive method as Python's
//! `statistics.quantiles(values, n=4)`, so spreads computed here and by
//! `spread.py` agree.

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`: the
/// smallest sample such that at least `p`% of all samples are at or
/// below it. `None` for an empty set.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The `p`-th nearest-rank percentile, refused (`None`) unless at least
/// [`MIN_BEYOND`] samples lie beyond its rank.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    if samples.len().saturating_sub(rank) < MIN_BEYOND {
        return None;
    }
    nearest_rank(samples, p)
}

/// `num / den`, 0 when `den` is 0 (a layer the workload never used).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `values` (mean of the two middle values for an even
/// count). `None` for an empty set.
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|q| q.1)
}

/// First quartile, median and third quartile of `values`, by the
/// exclusive method of Python's `statistics.quantiles(values, n=4)`
/// (whose middle cut is the exact median). A single value, which Python
/// refuses, is its own quartiles here. `None` for an empty set.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        1 => Some((v[0], v[0], v[0])),
        _ => {
            // Python: m = n + 1; j = i*m // 4 clamped into 1..=n-1;
            // delta = i*m - 4*j (not clamped: it extrapolates for n = 2);
            // q_i = (v[j-1]*(4-delta) + v[j]*delta) / 4.
            let q = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (4 * j) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((q(1), q(2), q(3)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&s, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&s, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 1.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 90.0), None, "only 9 samples above p90");
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 90.0), Some(90.0));
        assert_eq!(tail_percentile(&s, 95.0), None);
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 95.0), Some(190.0));
        assert_eq!(tail_percentile(&[1.0; 15], 50.0), None);
        assert_eq!(tail_percentile(&[1.0; 20], 50.0), Some(1.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([4, 1, 3, 2, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), Some((1.5, 3.0, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 2.0, 1.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
