//! Histogram densities with automatic binning.
//!
//! A histogram is the coarsest density estimator Fixy offers, for
//! integer-valued features (e.g., the track-length Count feature) where
//! kernel smoothing is unnatural. Bins follow the Freedman–Diaconis rule.

use crate::summary::iqr;
use crate::{check_densities, check_scale, validate_sample, Density1d, FitError};
use serde::{Deserialize, Serialize};

/// A fitted histogram density with uniform bins.
#[derive(Debug, Clone, Serialize)]
pub struct Histogram {
    start: f64,
    bin_width: f64,
    /// Per-bin densities (counts normalized by `n · bin_width`).
    densities: Vec<f64>,
    max_density: f64,
    n: usize,
}

/// [`Histogram`]'s wire format, checked by [`Histogram::from_parts`] on
/// load.
#[derive(Deserialize)]
struct StoredHistogram {
    start: f64,
    bin_width: f64,
    densities: Vec<f64>,
    max_density: f64,
    n: usize,
}

crate::deserialize_via_parts!(Histogram, StoredHistogram, |s| {
    Histogram::from_parts(s.start, s.bin_width, s.densities, s.max_density, s.n)
});

impl Histogram {
    /// Fit with Freedman–Diaconis bins: width `2·IQR·n^(−1/3)`, at most
    /// 10 000 of them.
    pub fn fit(samples: &[f64]) -> Result<Self, FitError> {
        validate_sample(samples)?;
        let n = samples.len();
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let span = (max - min).max(0.0);

        let width = 2.0 * iqr(samples) * (n as f64).powf(-1.0 / 3.0);
        let bins = if width > 0.0 && span > 0.0 {
            ((span / width).ceil() as usize).clamp(1, 10_000)
        } else {
            1
        };

        // A degenerate span (all samples equal) gets one narrow bin.
        let bin_width = if span > 0.0 { span / bins as f64 } else { 1e-3 };
        let start = if span > 0.0 { min } else { min - bin_width / 2.0 };

        let mut counts = vec![0usize; bins];
        for &x in samples {
            let idx = (((x - start) / bin_width) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        let norm = 1.0 / (n as f64 * bin_width);
        let densities: Vec<f64> = counts.iter().map(|&c| c as f64 * norm).collect();
        let max_density = densities.iter().copied().fold(0.0f64, f64::max);
        Ok(Histogram { start, bin_width, densities, max_density, n })
    }

    pub fn bins(&self) -> usize {
        self.densities.len()
    }

    pub fn sample_count(&self) -> usize {
        self.n
    }

    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Left edge of the first bin.
    pub fn start(&self) -> f64 {
        self.start
    }

    /// Per-bin densities (counts normalized by `n · bin_width`).
    pub fn densities(&self) -> &[f64] {
        &self.densities
    }

    /// Reassemble a fitted histogram from stored parts — the load path of
    /// both library formats. Rejects what no fit produces: no bins, no
    /// samples, a non-finite start, a bin width or `max_density` that is
    /// not finite and positive, or a negative or non-finite density.
    pub fn from_parts(
        start: f64,
        bin_width: f64,
        densities: Vec<f64>,
        max_density: f64,
        n: usize,
    ) -> Result<Self, FitError> {
        if densities.is_empty() {
            return Err(FitError::Implausible("histogram with no bins".into()));
        }
        if n == 0 {
            return Err(FitError::EmptySample);
        }
        if !start.is_finite() {
            return Err(FitError::Implausible(format!("histogram start {start}")));
        }
        check_scale("bin width", bin_width)?;
        check_scale("histogram max_density", max_density)?;
        check_densities("histogram", &densities)?;
        Ok(Histogram { start, bin_width, densities, max_density, n })
    }
}

impl Density1d for Histogram {
    fn density(&self, x: f64) -> f64 {
        if !x.is_finite() {
            return 0.0;
        }
        let end = self.start + self.bin_width * self.densities.len() as f64;
        if x < self.start || x > end {
            return 0.0;
        }
        let idx = (((x - self.start) / self.bin_width) as usize).min(self.densities.len() - 1);
        self.densities[idx]
    }

    fn max_density(&self) -> f64 {
        self.max_density
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_sample_flat_histogram() {
        let xs: Vec<f64> = (0..1000).map(|i| i as f64 / 100.0).collect(); // [0, 10)
        let h = Histogram::fit(&xs).unwrap();
        // Freedman–Diaconis: IQR ≈ 5, width 2·5·1000^(−1/3) ≈ 1 → 10 bins.
        assert_eq!(h.bins(), 10);
        // Uniform density over [0, ~10] should be ≈ 0.1 everywhere.
        for x in [0.5, 3.5, 7.5, 9.5] {
            assert!((h.density(x) - 0.1).abs() < 0.02, "density({x}) = {}", h.density(x));
        }
    }

    #[test]
    fn density_integrates_to_one() {
        let xs: Vec<f64> = (0..500).map(|i| ((i * 37) % 100) as f64 * 0.1).collect();
        let h = Histogram::fit(&xs).unwrap();
        let total: f64 = h.densities.iter().map(|d| d * h.bin_width).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_density_is_zero() {
        let h = Histogram::fit(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(h.density(-100.0), 0.0);
        assert_eq!(h.density(100.0), 0.0);
        assert_eq!(h.density(f64::NAN), 0.0);
    }

    #[test]
    fn constant_sample_single_spike() {
        let h = Histogram::fit(&[5.0; 20]).unwrap();
        assert!(h.relative_likelihood(5.0) > 0.99);
        assert!(h.relative_likelihood(6.0) < 1e-6);
    }

    #[test]
    fn rejects_invalid_samples() {
        assert!(matches!(Histogram::fit(&[]), Err(FitError::EmptySample)));
        assert!(matches!(
            Histogram::fit(&[1.0, f64::INFINITY]),
            Err(FitError::NonFiniteSample)
        ));
    }

    proptest! {
        #[test]
        fn prop_density_nonnegative_and_bounded(
            xs in proptest::collection::vec(-100.0f64..100.0, 1..100),
            q in -200.0f64..200.0,
        ) {
            let h = Histogram::fit(&xs).unwrap();
            prop_assert!(h.density(q) >= 0.0);
            prop_assert!(h.density(q) <= h.max_density() + 1e-12);
        }

        #[test]
        fn prop_mass_conservation(
            xs in proptest::collection::vec(-50.0f64..50.0, 2..200),
        ) {
            let h = Histogram::fit(&xs).unwrap();
            let total: f64 = h.densities.iter().map(|d| d * h.bin_width).sum();
            prop_assert!((total - 1.0).abs() < 1e-6);
        }

        #[test]
        fn prop_bin_counts_sum_to_sample_count(
            xs in proptest::collection::vec(-50.0f64..50.0, 1..200),
        ) {
            // Densities are counts normalized by n·width: recovering the
            // integer counts must partition the sample exactly.
            let h = Histogram::fit(&xs).unwrap();
            let counts: usize = h
                .densities
                .iter()
                .map(|d| (d * h.n as f64 * h.bin_width).round() as usize)
                .sum();
            prop_assert_eq!(counts, h.sample_count());
            prop_assert_eq!(h.sample_count(), xs.len());
        }
    }
}
