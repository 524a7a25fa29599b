//! Latency and throughput accounting for the serving layer.
//!
//! With bounded admission (see [`crate::admission`]) not every op
//! completes: shed ops carry [`OpStatus::Shed`] and must be excluded
//! from latency percentiles — a rejected request has no service time,
//! and averaging zeros in would *flatter* the tail exactly when the
//! system is saturated. The session therefore books latency samples of
//! accepted ops only; shed counts are reported separately (shed rate,
//! goodput) so saturation sweeps show both sides.
//!
//! Long-lived sessions book latencies into [`LatencyHistogram`] — a
//! fixed-memory, log-bucketed (HDR-style) histogram that is mergeable
//! and *subtractable*, so [`crate::service::ServiceReport::interval_since`]
//! slices an interval exactly by subtracting two monotonic snapshots,
//! and `Session::metrics` stays O(1) in completed ops.

/// Terminal status of one op under bounded admission.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OpStatus {
    /// Completed normally; its latency samples are valid.
    #[default]
    Ok,
    /// Rejected at admission with [`crate::admission::Overload`]: no
    /// results, no latency sample.
    Shed,
}

/// Load imbalance of a replica group: max over mean (1.0 = perfectly
/// balanced, R = everything on one of R replicas). 0 for an empty or
/// all-zero sample — an idle group is not "imbalanced".
pub fn imbalance(loads: &[u64]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let max = *loads.iter().max().unwrap() as f64;
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    if mean == 0.0 {
        0.0
    } else {
        max / mean
    }
}

/// Percentile of an **unsorted** latency sample (nearest-rank method).
/// `p` is in `[0, 100]`. Returns 0 for an empty sample. Uses quickselect
/// on one working copy — O(n), no full sort. Callers taking several
/// percentiles of the same sample should book into a
/// [`LatencyHistogram`].
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = nearest_rank(p, samples.len());
    let mut work = samples.to_vec();
    let (_, val, _) = work.select_nth_unstable_by(rank - 1, |a, b| a.total_cmp(b));
    *val
}

/// 1-based nearest rank of percentile `p` in a sample of `len`.
fn nearest_rank(p: f64, len: usize) -> usize {
    let p = p.clamp(0.0, 100.0);
    (((p / 100.0) * len as f64).ceil() as usize).max(1)
}

/// Summary statistics of a latency sample (seconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Samples summarized.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Worst observed.
    pub max: f64,
}

// ---------------------------------------------------------------------------
// Bounded log-bucketed histogram
// ---------------------------------------------------------------------------

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets, bounding the relative quantile
/// error at `2^-SUB_BITS` (3.125%).
const SUB_BITS: u32 = 5;
const SUBS: usize = 1 << SUB_BITS;
/// Smallest tracked value: 2^-30 s ≈ 0.93 ns. Below lands in the
/// underflow bucket.
const MIN_EXP: i64 = -30;
/// Largest tracked octave: values in [2^9, 2^10) s. At or above 2^10 s
/// (~17 min) lands in the overflow bucket.
const MAX_EXP: i64 = 9;
const OCTAVES: usize = (MAX_EXP - MIN_EXP + 1) as usize;
/// Underflow + regular buckets + overflow.
const NUM_BUCKETS: usize = 1 + OCTAVES * SUBS + 1;
const MIN_TRACKED: f64 = 1.0 / ((1u64 << (-MIN_EXP)) as f64);
const MAX_TRACKED: f64 = (1u64 << (MAX_EXP + 1)) as f64;

/// Fixed-memory log-bucketed latency histogram (seconds).
///
/// HDR-style bucketing straight off the f64 bit pattern: the exponent
/// selects the octave, the top `SUB_BITS = 5` mantissa bits the linear
/// sub-bucket, so recording is branch-light and allocation-free.
/// Quantiles report the **upper bound** of the selected bucket, hence
/// for any percentile `p`: `exact ≤ histogram ≤ exact × (1 + 2^-5)`
/// (nearest-rank exact value; see the property tests).
///
/// State is pure integers (bucket counts plus a nanosecond total), so
/// merging and subtracting are exact and order-independent:
/// `b.minus(&a)` of two monotonic snapshots is **bit-identical** to a
/// histogram that recorded only the in-between ops. Memory is a flat
/// ~10 KiB regardless of how many ops were recorded.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyHistogram {
    counts: Box<[u64]>,
    count: u64,
    sum_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS].into_boxed_slice(),
            count: 0,
            sum_nanos: 0,
        }
    }

    fn bucket_index(x: f64) -> usize {
        if x.is_nan() || x < MIN_TRACKED {
            // Zero, negatives, subnormal-small, NaN.
            return 0;
        }
        if x >= MAX_TRACKED {
            // Includes +inf.
            return NUM_BUCKETS - 1;
        }
        let bits = x.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
        let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as i64;
        (1 + (exp - MIN_EXP) * SUBS as i64 + sub) as usize
    }

    /// Upper bound of bucket `idx` — the value quantiles report.
    fn bucket_upper(idx: usize) -> f64 {
        if idx == 0 {
            return MIN_TRACKED;
        }
        if idx >= NUM_BUCKETS - 1 {
            return MAX_TRACKED;
        }
        let i = idx - 1;
        let exp = MIN_EXP + (i / SUBS) as i64;
        let sub = (i % SUBS) as f64;
        2f64.powi(exp as i32) * (1.0 + (sub + 1.0) / SUBS as f64)
    }

    /// Record one sample (seconds).
    pub fn record(&mut self, seconds: f64) {
        self.counts[Self::bucket_index(seconds)] += 1;
        self.count += 1;
        let nanos = if seconds.is_finite() && seconds > 0.0 {
            (seconds * 1e9).round() as u64
        } else {
            0
        };
        self.sum_nanos = self.sum_nanos.saturating_add(nanos);
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += *o;
        }
        self.count += other.count;
        self.sum_nanos = self.sum_nanos.saturating_add(other.sum_nanos);
    }

    /// `self − prev` for two monotonic snapshots (`prev` taken earlier
    /// from the same stream). Panics if `prev` is not a prefix — every
    /// bucket of `prev` must be ≤ the corresponding bucket of `self`.
    pub fn minus(&self, prev: &Self) -> Self {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .zip(prev.counts.iter())
            .map(|(&a, &b)| {
                a.checked_sub(b)
                    .expect("histogram snapshots out of order: prev is not a prefix of self")
            })
            .collect();
        Self {
            counts: counts.into_boxed_slice(),
            count: self
                .count
                .checked_sub(prev.count)
                .expect("histogram snapshots out of order"),
            sum_nanos: self
                .sum_nanos
                .checked_sub(prev.sum_nanos)
                .expect("histogram snapshots out of order"),
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded samples (exact to nanosecond rounding).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_nanos as f64 * 1e-9 / self.count as f64
        }
    }

    /// Upper bound of the highest occupied bucket (0 if empty).
    pub fn max(&self) -> f64 {
        match self.counts.iter().rposition(|&c| c > 0) {
            Some(idx) => Self::bucket_upper(idx),
            None => 0.0,
        }
    }

    /// Nearest-rank quantile, `p` in `[0, 100]`; reports the selected
    /// bucket's upper bound. 0 for an empty histogram.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = nearest_rank(p, self.count as usize) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(idx);
            }
        }
        Self::bucket_upper(NUM_BUCKETS - 1)
    }

    /// Five-number summary from the buckets — O(buckets), no sorting.
    pub fn summary(&self) -> LatencySummary {
        if self.count == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            count: self.count as usize,
            mean: self.mean(),
            p50: self.quantile(50.0),
            p95: self.quantile(95.0),
            p99: self.quantile(99.0),
            max: self.max(),
        }
    }

    /// Maximum relative error of [`Self::quantile`] vs the exact
    /// nearest-rank percentile: one sub-bucket width.
    pub const RELATIVE_ERROR: f64 = 1.0 / SUBS as f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn imbalance_ratio() {
        assert_eq!(imbalance(&[]), 0.0);
        assert_eq!(imbalance(&[0, 0, 0]), 0.0);
        assert_eq!(imbalance(&[5, 5, 5]), 1.0);
        assert_eq!(imbalance(&[9, 0, 0]), 3.0);
        assert!(imbalance(&[4, 2]) > 1.0 && imbalance(&[4, 2]) < 2.0);
    }

    #[test]
    fn summary_is_order_free() {
        let summarize = |samples: [f64; 3]| {
            let mut h = LatencyHistogram::new();
            samples.into_iter().for_each(|s| h.record(s));
            h.summary()
        };
        let a = summarize([3.0, 1.0, 2.0]);
        let b = summarize([1.0, 2.0, 3.0]);
        assert_eq!((a.p50, a.p99, a.max), (b.p50, b.p99, b.max));
        assert_eq!(a.mean, 2.0);
        assert_eq!(a.count, 3);
    }

    #[test]
    fn histogram_quantile_brackets_exact() {
        let mut h = LatencyHistogram::new();
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-4).collect();
        for &s in &samples {
            h.record(s);
        }
        assert_eq!(h.count(), 1000);
        for p in [0.0, 10.0, 50.0, 95.0, 99.0, 100.0] {
            let exact = percentile(&samples, p);
            let approx = h.quantile(p);
            assert!(
                approx >= exact && approx <= exact * (1.0 + LatencyHistogram::RELATIVE_ERROR),
                "p{p}: exact {exact} approx {approx}"
            );
        }
        let exact_mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((h.mean() - exact_mean).abs() < 1e-9);
        assert!(h.max() >= 0.1 && h.max() <= 0.1 * (1.0 + LatencyHistogram::RELATIVE_ERROR));
    }

    #[test]
    fn histogram_edge_values() {
        let mut h = LatencyHistogram::new();
        for v in [0.0, -1.0, f64::NAN, 1e-12, f64::INFINITY, 1e6, 5e-3] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        // Underflow bucket caught the tiny/invalid ones; overflow the huge.
        assert_eq!(h.counts[0], 4);
        assert_eq!(h.counts[NUM_BUCKETS - 1], 2);
        // Quantiles stay finite and ordered.
        assert!(h.quantile(0.0) > 0.0);
        assert!(h.quantile(100.0) >= h.quantile(50.0));
    }

    #[test]
    fn histogram_subtraction_is_bit_exact() {
        let mut first = LatencyHistogram::new();
        for i in 0..100 {
            first.record((i as f64 + 1.0) * 3.7e-4);
        }
        let snapshot = first.clone();
        let mut interval_only = LatencyHistogram::new();
        for i in 0..57 {
            let v = (i as f64 * 13.0 + 5.0) * 1.1e-3;
            first.record(v);
            interval_only.record(v);
        }
        let diff = first.minus(&snapshot);
        assert_eq!(diff, interval_only);
        assert_eq!(diff.count(), 57);
        // Merging the snapshot back reproduces the full histogram.
        let mut rebuilt = interval_only.clone();
        rebuilt.merge(&snapshot);
        assert_eq!(rebuilt, first);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn histogram_subtraction_rejects_reordered_snapshots() {
        let mut a = LatencyHistogram::new();
        a.record(1e-3);
        let b = LatencyHistogram::new();
        let _ = b.minus(&a);
    }

    #[test]
    fn histogram_summary_matches_quantiles() {
        let mut h = LatencyHistogram::new();
        for i in 0..500 {
            h.record(1e-5 * (1.13f64).powi(i % 40));
        }
        let s = h.summary();
        assert_eq!(s.count, 500);
        assert_eq!(s.p50, h.quantile(50.0));
        assert_eq!(s.p99, h.quantile(99.0));
        assert_eq!(s.max, h.max());
    }
}
