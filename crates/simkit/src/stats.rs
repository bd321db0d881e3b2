//! Online statistics used by the metrics layer.
//!
//! The paper reports two statistics per run: the *mean response time* over
//! all requests and the *standard deviation of requests per plane* (SDRPP).
//! [`OnlineStats`] implements Welford's algorithm so both can be computed in
//! one pass without storing millions of samples; [`Histogram`] keeps a
//! log-spaced latency histogram for percentile reporting (an observability
//! extra over the paper).

/// Single-pass mean / variance / extrema accumulator (Welford).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl OnlineStats {
    /// A fresh, empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Fold one sample in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (Chan et al. parallel form).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Compute the population standard deviation of a slice of counts.
///
/// This is exactly the paper's SDRPP when fed the per-plane request counts.
pub fn std_dev_of_counts(counts: &[u64]) -> f64 {
    let mut s = OnlineStats::new();
    for &c in counts {
        s.push(c as f64);
    }
    s.std_dev()
}

/// A log₂-spaced histogram of non-negative `f64` samples.
///
/// Bucket `i` holds samples in `[2^(i-1), 2^i)` scaled by `unit`; bucket 0
/// holds `[0, 1)`. Good enough for latency percentiles across six orders of
/// magnitude while staying tiny and allocation-free after construction.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    unit: f64,
    count: u64,
}

impl Histogram {
    /// A histogram whose bucket boundaries are powers of two multiples of
    /// `unit` (e.g. `unit = 1.0` microsecond), with `n_buckets` buckets.
    pub fn new(unit: f64, n_buckets: usize) -> Self {
        assert!(unit > 0.0, "histogram unit must be positive");
        assert!(n_buckets >= 2, "need at least two buckets");
        Histogram {
            buckets: vec![0; n_buckets],
            unit,
            count: 0,
        }
    }

    fn bucket_for(&self, x: f64) -> usize {
        let scaled = (x / self.unit).max(0.0);
        if scaled < 1.0 {
            0
        } else {
            let b = scaled.log2().floor() as usize + 1;
            b.min(self.buckets.len() - 1)
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        let b = self.bucket_for(x);
        self.buckets[b] += 1;
        self.count += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Upper bound of bucket `i`, in sample units.
    fn bucket_upper(&self, i: usize) -> f64 {
        if i == 0 {
            self.unit
        } else {
            self.unit * 2f64.powi(i as i32)
        }
    }

    /// Approximate value at quantile `q` in `[0, 1]` (upper bucket bound).
    ///
    /// Returns 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.bucket_upper(i);
            }
        }
        self.bucket_upper(self.buckets.len() - 1)
    }

    /// Merge counts from another histogram with identical shape.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.buckets.len(), other.buckets.len());
        assert_eq!(self.unit.to_bits(), other.unit.to_bits());
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }
}

/// Value at quantile `q` in `[0, 1]` of a sample set, by linear
/// interpolation between order statistics (the "R-7" definition used by
/// most statistics packages). Returns 0.0 for an empty slice.
///
/// The input need not be sorted; a sorted copy is made internally. For
/// repeated queries over the same data, sort once and use
/// [`percentile_sorted`].
///
/// ```
/// use dloop_simkit::stats::percentile;
///
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile(&xs, 0.0), 1.0);
/// assert_eq!(percentile(&xs, 0.5), 2.5);
/// assert_eq!(percentile(&xs, 1.0), 4.0);
/// ```
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    percentile_sorted(&sorted, q)
}

/// Like [`percentile`], but requires `sorted` to already be in ascending
/// order (not checked; an unsorted input gives a meaningless answer).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median of a sample set (0.0 when empty). Interpolates for even counts.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Median absolute deviation: the median of `|x - median(xs)|`.
///
/// A robust spread estimate — unlike the standard deviation it is not
/// dragged around by a handful of outliers, which makes it the right
/// yardstick for flagging them (see [`crate::bench`]). Multiply by
/// 1.4826 to get a consistent estimator of σ for normal data.
pub fn median_abs_deviation(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let m = median(samples);
    let deviations: Vec<f64> = samples.iter().map(|x| (x - m).abs()).collect();
    median(&deviations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev_match_naive() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        let mut whole = OnlineStats::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0 + 20.0;
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
            whole.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = (a.count(), a.mean(), a.variance());
        a.merge(&OnlineStats::new());
        assert_eq!(before, (a.count(), a.mean(), a.variance()));

        let mut empty = OnlineStats::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sdrpp_helper_matches_definition() {
        // Counts 1,2,3,4 -> mean 2.5, pop variance 1.25.
        let sd = std_dev_of_counts(&[1, 2, 3, 4]);
        assert!((sd - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(std_dev_of_counts(&[]), 0.0);
        assert_eq!(std_dev_of_counts(&[7, 7, 7]), 0.0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(1.0, 12);
        for x in [0.5, 1.5, 3.0, 3.9, 100.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 5);
        // Median of 5 samples is the 3rd: 3.0 lives in bucket [2,4) -> upper 4.
        assert_eq!(h.quantile(0.5), 4.0);
        // p100 captures the largest.
        assert!(h.quantile(1.0) >= 100.0);
        // p0/p-negative clamp to the first occupied bucket's bound.
        assert_eq!(h.quantile(0.0), 1.0);
    }

    #[test]
    fn histogram_overflow_clamps_to_last_bucket() {
        let mut h = Histogram::new(1.0, 4);
        h.record(1e30);
        assert_eq!(h.quantile(1.0), 8.0); // last bucket upper bound: 2^3
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert!((percentile(&xs, 0.95) - 4.8).abs() < 1e-12);
        // Out-of-range quantiles clamp.
        assert_eq!(percentile(&xs, -1.0), 1.0);
        assert_eq!(percentile(&xs, 2.0), 5.0);
    }

    #[test]
    fn median_matches_definition() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        // 1..9 with one wild outlier: the MAD barely moves.
        let clean: Vec<f64> = (1..=9).map(f64::from).collect();
        let mut dirty = clean.clone();
        dirty[8] = 1e9;
        assert_eq!(median_abs_deviation(&clean), 2.0);
        assert_eq!(median_abs_deviation(&dirty), 2.0);
        assert_eq!(median_abs_deviation(&[]), 0.0);
        assert_eq!(median_abs_deviation(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(1.0, 8);
        let mut b = Histogram::new(1.0, 8);
        a.record(2.0);
        b.record(64.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
    }
}
