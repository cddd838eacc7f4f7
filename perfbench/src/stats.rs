//! Order statistics for timings.
//!
//! Percentiles use the nearest-rank rule: the p-th percentile of `n`
//! sorted samples is the sample at rank `ceil(p/100 * n)` (1-based).
//! A tail percentile is only reported when at least [`TAIL_SUPPORT`]
//! samples lie beyond that rank, so a p90 from 20 samples (two beyond
//! it) is never passed off as a measured tail.

/// Samples that must lie beyond a percentile for it to count as
/// measured.
pub const TAIL_SUPPORT: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest of `candidates` (percentiles, ascending or not) that has
/// at least [`TAIL_SUPPORT`] samples beyond it among `n` samples.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| beyond(n, p) >= TAIL_SUPPORT)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// Nearest-rank percentile `p` of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Median of `values` (mean of the two middle samples for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(highest_supported(100, &[50.0, 90.0, 99.0]), Some(90.0));
        assert_eq!(highest_supported(99, &[50.0, 90.0, 99.0]), Some(50.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(highest_supported(1000, &[50.0, 90.0, 99.0]), Some(99.0));
        assert_eq!(highest_supported(999, &[99.0, 90.0, 50.0]), Some(90.0));
    }

    #[test]
    fn too_few_samples_support_no_percentile() {
        assert_eq!(highest_supported(19, &[50.0]), None);
        assert_eq!(highest_supported(20, &[50.0]), Some(50.0));
        assert_eq!(highest_supported(0, &[50.0, 90.0]), None);
    }

    #[test]
    fn nearest_rank_and_median() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
