//! Order statistics for the benchmark's reports: medians, percentiles, the
//! per-segment throughput median and its spread.

/// Sorted copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation between
/// the two nearest ranks; `0.0` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let rank = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Number of samples strictly beyond the `q`-quantile rank, the figure the
/// report prints beside every tail percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// One measured segment of a closed loop: operations completed and the wall
/// time they took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Operations completed in the segment.
    pub ops: u64,
    /// Wall time of the segment in seconds.
    pub wall_s: f64,
}

impl Segment {
    /// Operations per second of this segment.
    pub fn rate(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.ops as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Median over segments of operations per second: the benchmark's
/// throughput figure, robust to one disturbed segment.
pub fn segment_median_rate(segments: &[Segment]) -> f64 {
    median(&segments.iter().map(Segment::rate).collect::<Vec<_>>())
}

/// `(max − min) ÷ median` of the segment rates: the noise floor printed
/// beside every throughput.
pub fn segment_spread(segments: &[Segment]) -> f64 {
    let rates: Vec<f64> = segments.iter().map(Segment::rate).collect();
    let med = median(&rates);
    if rates.is_empty() || med <= 0.0 {
        return 0.0;
    }
    let max = rates.iter().cloned().fold(f64::MIN, f64::max);
    let min = rates.iter().cloned().fold(f64::MAX, f64::min);
    (max - min) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 0.95) - 3.85).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(1000, 0.95), 50);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(10, 0.99), 0);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn segment_median_ignores_one_disturbed_segment() {
        let seg = |ops, wall_s| Segment { ops, wall_s };
        let segments = [
            seg(100, 1.0),
            seg(100, 1.0),
            seg(100, 4.0), // a stall
            seg(102, 1.0),
            seg(98, 1.0),
        ];
        assert_eq!(segment_median_rate(&segments), 100.0);
        assert!((segment_spread(&segments) - (102.0 - 25.0) / 100.0).abs() < 1e-12);
        assert_eq!(segment_median_rate(&[]), 0.0);
        assert_eq!(segment_spread(&[]), 0.0);
    }
}
