//! Aggregators: percentiles that the sample supports, best-of-epochs,
//! medians.

/// Which direction of a metric is good.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Percentile of an ascending-sorted sample (nearest rank, `p` in
/// 0..=100). 0 for an empty sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample ascending (NaN-free by construction: every sample is a
/// difference of clock readings).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample (mean of the middle pair for even
/// counts). 0 for an empty sample.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v.to_vec());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail percentiles a report may quote, in per mille (integers, so
/// "exactly ten samples beyond" is decided without rounding).
const TAIL_LADDER: [u64; 5] = [500, 900, 950, 990, 999];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it in a sample of `n` — a p99 of 300 samples is the
/// third-worst sample and mostly noise. `None` below 20 samples (not
/// even the median has ten beyond it).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rfind(|&&pm| n as u64 * (1000 - pm) >= 10 * 1000)
        .map(|&pm| pm as f64 / 10.0)
}

/// Best of the per-epoch values: max for rates, min for times and
/// costs. Interference on a shared box is one-sided (it only ever makes
/// an epoch slower), so the best epoch is the least-disturbed estimate
/// of what the code can do.
pub fn best_of(values: &[f64], better: Better) -> f64 {
    let it = values.iter().copied();
    match better {
        Better::Higher => it.fold(f64::NEG_INFINITY, f64::max),
        Better::Lower => it.fold(f64::INFINITY, f64::min),
    }
}

/// How much `with` exceeds `without`, in percent of `without`. A
/// difference of two bests can come out below zero from noise alone; an
/// overhead cannot, so it is floored at 0.
pub fn overhead_pct(without: f64, with: f64) -> f64 {
    ((with - without) / without * 100.0).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_a_floored_percentage() {
        assert!((overhead_pct(200.0, 203.0) - 1.5).abs() < 1e-12);
        assert_eq!(overhead_pct(200.0, 200.0), 0.0);
        assert_eq!(overhead_pct(200.0, 192.0), 0.0);
    }

    #[test]
    fn highest_supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn best_of_takes_max_for_rates_and_min_for_times() {
        let v = [3.0, 9.0, 4.5];
        assert_eq!(best_of(&v, Better::Higher), 9.0);
        assert_eq!(best_of(&v, Better::Lower), 3.0);
        assert_eq!(best_of(&[2.0], Better::Lower), 2.0);
    }

    #[test]
    fn percentiles_and_median() {
        let s = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(percentile_sorted(&s, 50.0), 3.0);
        assert_eq!(percentile_sorted(&s, 90.0), 5.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    }
}
