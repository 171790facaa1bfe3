//! Order statistics over raw samples (never over histogram buckets).

/// The `q`-quantile (`q ∈ [0, 1]`) of `samples` by nearest rank: the
/// `⌈q·n⌉`-th smallest sample (1-based), so the value is always one that
/// was measured. Returns 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The median by nearest rank (see [`quantile`]).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// How many samples lie strictly above the `q`-quantile: the tail a
/// percentile is estimated from.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

/// `num / den`, or 0 when there is nothing to divide by.
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
    fn nearest_rank_returns_measured_values() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 100.0);
        assert_eq!(quantile(&s, 0.95), 190.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 200.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn two_hundred_slots_leave_ten_beyond_p95() {
        let s: Vec<f64> = (0..200).map(|i| f64::from(i) * 0.37).collect();
        assert_eq!(beyond(&s, 0.95), 10);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let s = [5.0, 9.0, 1.0, 7.0, 3.0];
        assert_eq!(median(&s), 5.0);
        assert_eq!(quantile(&s, 0.8), 7.0);
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
