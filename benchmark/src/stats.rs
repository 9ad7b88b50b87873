//! Order statistics for the benchmark's own timings.

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks; `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// A homogeneous timing reported as the median of its equal slices,
/// with the slowest and fastest slice as its spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceSummary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl SliceSummary {
    /// `None` for an empty slice list.
    pub fn of(slices: &[f64]) -> Option<SliceSummary> {
        let median = median(slices)?;
        let min = slices.iter().copied().fold(f64::INFINITY, f64::min);
        let max = slices.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(SliceSummary { median, min, max })
    }

    /// `(max - min) / median`: the share of the median the slices span.
    pub fn spread_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&v, 0.5), Some(2.5));
        assert_eq!(percentile(&v, 1.0 / 3.0), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn percentile_clamps_out_of_range_quantiles() {
        assert_eq!(percentile(&[1.0, 2.0], -1.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0], 2.0), Some(2.0));
    }

    #[test]
    fn slice_summary_is_median_with_min_max_spread() {
        let s = SliceSummary::of(&[10.0, 12.0, 11.0, 9.0, 30.0]).unwrap();
        assert_eq!(s.median, 11.0);
        assert_eq!((s.min, s.max), (9.0, 30.0));
        assert!((s.spread_share() - 21.0 / 11.0).abs() < 1e-12);
        assert_eq!(SliceSummary::of(&[]), None);
    }

    #[test]
    fn one_outlier_slice_does_not_move_the_median() {
        let quiet = SliceSummary::of(&[100.0, 101.0, 99.0, 100.0, 100.0]).unwrap();
        let stalled = SliceSummary::of(&[100.0, 101.0, 99.0, 100.0, 20.0]).unwrap();
        assert_eq!(quiet.median, stalled.median);
    }
}
