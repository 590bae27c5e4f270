//! Order statistics for latency samples.

/// Fewest samples a timed window may end with: at the nearest-rank p95
/// this leaves at least [`TAIL_SAMPLES`] samples beyond the percentile.
pub const MIN_SAMPLES: usize = 200;
/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of `values` (`p` in `0..=100`): the smallest
/// sample with at least `p`% of the samples at or below it. `None` for
/// an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`th
/// percentile's position.
fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    n.saturating_sub(rank)
}

/// Whether `n` samples support reporting the `p`th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= TAIL_SAMPLES
}

/// Median (nearest-rank p50); `0.0` for no samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// Arithmetic mean; `0.0` for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(10.0));
        assert_eq!(percentile(&v, 95.0), Some(19.0));
        assert_eq!(percentile(&v, 100.0), Some(20.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 80.0), Some(4.0));
    }

    #[test]
    fn sample_floor_leaves_ten_beyond_p95() {
        assert_eq!(beyond(MIN_SAMPLES, 95.0), TAIL_SAMPLES);
        assert!(supports(MIN_SAMPLES, 95.0));
        assert!(!supports(MIN_SAMPLES - 1, 95.0));
        assert!(supports(1_000, 99.0));
        assert!(!supports(999, 99.0));
    }

    #[test]
    fn ratio_and_mean_of_nothing_are_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
