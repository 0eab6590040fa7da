//! Streaming summaries: Welford mean/variance, quantiles, IQR.
//!
//! Bandwidth selection (Silverman's rule) needs the sample standard
//! deviation and interquartile range.

/// Numerically stable streaming mean/variance (Welford's algorithm).
#[derive(Debug, Clone, Copy)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Welford {
    fn default() -> Self {
        Self::new()
    }
}

impl Welford {
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Build a summary from a slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut w = Welford::new();
        for &x in xs {
            w.push(x);
        }
        w
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n−1 denominator); 0 for fewer than two points.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Linear-interpolated sample quantile (type-7, the numpy/R default).
/// Returns `None` for an empty slice or `q` outside `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let n = sorted.len();
    if n == 1 {
        return Some(sorted[0]);
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Interquartile range of a sample sorted ascending (type-7 quartiles).
/// The caller sorts: a KDE fit reads it off the sorted copy it keeps,
/// so the sample is sorted once.
pub fn iqr(sorted: &[f64]) -> f64 {
    if sorted.len() < 2 {
        return 0.0;
    }
    let q3 = quantile(sorted, 0.75).unwrap_or(0.0);
    let q1 = quantile(sorted, 0.25).unwrap_or(0.0);
    q3 - q1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let w = Welford::from_slice(&xs);
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Naive sample variance: sum((x-5)^2)/7 = 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn welford_degenerate_cases() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.variance(), 0.0);
        let w1 = Welford::from_slice(&[3.0]);
        assert_eq!(w1.variance(), 0.0);
        assert_eq!(w1.mean(), 3.0);
    }

    #[test]
    fn default_starts_like_new() {
        // The extremes start at ±∞, so the first push sets both.
        let mut w = Welford::default();
        w.push(5.0);
        w.push(7.0);
        assert_eq!((w.min(), w.max()), (5.0, 7.0));
        assert_eq!(w.count(), 2);
        assert_eq!(w.mean(), 6.0);
    }

    #[test]
    fn quantile_type7() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&sorted, 0.0), Some(1.0));
        assert_eq!(quantile(&sorted, 1.0), Some(4.0));
        assert_eq!(quantile(&sorted, 0.5), Some(2.5));
        // numpy.percentile([1,2,3,4], 25) == 1.75
        assert!((quantile(&sorted, 0.25).unwrap() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_edge_cases() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.3), Some(7.0));
        assert_eq!(quantile(&[1.0, 2.0], 1.5), None);
        assert_eq!(quantile(&[1.0, 2.0], -0.1), None);
    }

    #[test]
    fn iqr_of_unsorted_sample() {
        let mut xs = [6.0, 2.0, 4.0, 1.0, 3.0, 5.0, 7.0];
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // sorted: 1..7 → q1 = 2.5, q3 = 5.5.
        assert!((iqr(&xs) - 3.0).abs() < 1e-12);
        assert_eq!(iqr(&[1.0]), 0.0);
    }

    proptest! {
        #[test]
        fn prop_welford_mean_within_bounds(xs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
            let w = Welford::from_slice(&xs);
            prop_assert!(w.mean() >= w.min() - 1e-9);
            prop_assert!(w.mean() <= w.max() + 1e-9);
            prop_assert!(w.variance() >= 0.0);
        }

        #[test]
        fn prop_quantile_monotone(
            mut xs in proptest::collection::vec(-100.0f64..100.0, 2..50),
        ) {
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let q25 = quantile(&xs, 0.25).unwrap();
            let q50 = quantile(&xs, 0.50).unwrap();
            let q75 = quantile(&xs, 0.75).unwrap();
            prop_assert!(q25 <= q50 + 1e-12);
            prop_assert!(q50 <= q75 + 1e-12);
        }
    }
}
