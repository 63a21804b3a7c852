//! Sample statistics for op timings.

/// Samples that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even
/// count). Sorts `values` in place. `NaN` for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The `q`-quantile of `values` (`0 <= q <= 1`), interpolated linearly
/// between the two nearest ranks. Sorts `values` in place. `NaN` for an
/// empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (low, frac) = (pos.floor(), pos.fract());
    let low = low as usize;
    match values.get(low + 1) {
        Some(&high) => values[low] + frac * (high - values[low]),
        None => values[low],
    }
}

/// The tail of a timing distribution: the value at the highest
/// percentile that still has [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its percentile: the share of samples at or below it, in percent.
    pub percentile: f64,
    /// Samples strictly beyond it in rank (always [`TAIL_BEYOND`]).
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The tail of `values` (sorted in place), or `None` when there are not
/// more than [`TAIL_BEYOND`] samples.
pub fn tail(values: &mut [f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND; // 1-based rank of the tail sample
    Some(Tail {
        value: values[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond: TAIL_BEYOND,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let mut values: Vec<f64> = (0..11).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut values, 0.0), 0.0);
        assert_eq!(quantile(&mut values, 0.1), 1.0);
        assert_eq!(quantile(&mut values, 0.5), 5.0);
        assert_eq!(quantile(&mut values, 1.0), 10.0);
        assert_eq!(quantile(&mut [1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&mut [7.0], 0.9), 7.0);
        assert!(quantile(&mut [], 0.5).is_nan());
    }

    #[test]
    fn tail_keeps_exactly_ten_samples_beyond() {
        // 1..=100 shuffled: the tail is the 90th value, p90.
        let mut values: Vec<f64> = (1..=100).map(|v| ((v * 37) % 101) as f64).collect();
        let t = tail(&mut values).unwrap();
        assert_eq!(t.samples, 100);
        assert_eq!(t.beyond, 10);
        let above = values.iter().filter(|&&v| v > t.value).count();
        assert_eq!(above, 10);
        assert_eq!(t.percentile, 90.0);

        // 40 samples: rank 30, p75.
        let mut values: Vec<f64> = (0..40).map(f64::from).collect();
        let t = tail(&mut values).unwrap();
        assert_eq!(t.value, 29.0);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let mut ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&mut ten), None);
        let mut eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&mut eleven).unwrap();
        assert_eq!(t.value, 0.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn tail_counts_ties_by_rank() {
        // Ten slow outliers above a flat body: the tail is the body value.
        let mut values = vec![5.0; 30];
        values.extend([50.0; 10]);
        let t = tail(&mut values).unwrap();
        assert_eq!(t.value, 5.0);
    }
}
