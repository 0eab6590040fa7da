//! Kernel density estimation — the default feature-distribution learner.
//!
//! `KDEObsDistribution` in the paper's worked example (Section 3) is exactly
//! this: collect feature values over historical labels, fit a KDE, and use
//! the (normalized) density of a new feature value as its likelihood.

use crate::bandwidth::{Bandwidth, BandwidthRule};
use crate::kernel::Kernel;
use crate::{validate_sample, Density1d, FitError};
use serde::{Deserialize, Serialize};

/// Exact 1D kernel density estimator.
///
/// Samples are kept sorted so that compact-support (and numerically
/// truncated Gaussian) kernels only sum over the window of contributing
/// samples, found by binary search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Kde1d {
    samples: Vec<f64>, // sorted
    kernel: Kernel,
    bandwidth: f64,
    max_density: f64,
}

impl Kde1d {
    /// Fit with the default kernel (Gaussian) and bandwidth rule
    /// (Silverman).
    pub fn fit(samples: &[f64]) -> Result<Self, FitError> {
        Self::fit_with(samples, Kernel::default(), BandwidthRule::default())
    }

    /// Fit with an explicit kernel and bandwidth rule.
    pub fn fit_with(
        samples: &[f64],
        kernel: Kernel,
        rule: BandwidthRule,
    ) -> Result<Self, FitError> {
        validate_sample(samples)?;
        let bandwidth = rule.resolve(samples);
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("validated finite"));
        let mut kde = Kde1d {
            samples: sorted,
            kernel,
            bandwidth: bandwidth.value(),
            max_density: 0.0,
        };
        // The normalizer is the density mode. Evaluating at every sample
        // is exact but O(n · window) — quadratic on dense samples — so it
        // is estimated from the same binned grid the prepared scoring path
        // uses, in O(n + grid). The grid resolves the kernel (step ≤ h/8),
        // keeping the estimate within a fraction of a percent of the mode.
        kde.max_density = BinnedKde::prepare(&kde).max_density;
        Ok(kde)
    }

    /// Number of training samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The resolved bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        Bandwidth::new(self.bandwidth)
    }

    /// The resolved bandwidth as a raw value.
    pub fn bandwidth_value(&self) -> f64 {
        self.bandwidth
    }

    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Sorted training samples (used by [`BinnedKde`] and tests).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Reassemble a fitted KDE from its serialized parts — the binary
    /// codec's bulk-copy load path, skipping the fit entirely.
    ///
    /// `samples` must be the sorted, finite sample vector of a previous
    /// fit, `bandwidth` its resolved bandwidth, and `max_density` the
    /// normalizer taken from [`BinnedKde::prepare`] at fit time. Callers
    /// are responsible for validating untrusted input before this.
    pub fn from_sorted_parts(
        samples: Vec<f64>,
        kernel: Kernel,
        bandwidth: f64,
        max_density: f64,
    ) -> Self {
        debug_assert!(!samples.is_empty(), "Kde1d is never empty");
        debug_assert!(samples.windows(2).all(|w| w[0] <= w[1]), "samples must be sorted");
        debug_assert!(bandwidth.is_finite() && bandwidth > 0.0);
        Kde1d { samples, kernel, bandwidth, max_density }
    }

    /// Indices of samples within the kernel support window around `x`.
    fn window(&self, x: f64) -> (usize, usize) {
        let radius = self.kernel.support_radius() * self.bandwidth;
        let lo = self.samples.partition_point(|&s| s < x - radius);
        let hi = self.samples.partition_point(|&s| s <= x + radius);
        (lo, hi)
    }
}

impl Density1d for Kde1d {
    fn density(&self, x: f64) -> f64 {
        if !x.is_finite() || self.samples.is_empty() {
            return 0.0;
        }
        let (lo, hi) = self.window(x);
        if lo >= hi {
            return 0.0;
        }
        let inv_h = 1.0 / self.bandwidth;
        let mut acc = 0.0;
        for &s in &self.samples[lo..hi] {
            acc += self.kernel.eval((x - s) * inv_h);
        }
        acc * inv_h / self.samples.len() as f64
    }

    fn max_density(&self) -> f64 {
        self.max_density
    }
}

/// Grid-accelerated KDE: densities precomputed on a uniform grid at fit
/// time, evaluated by linear interpolation.
///
/// Evaluation is O(1) instead of O(window); fitting is O(n + grid·window).
/// Used for the large pooled distributions in the learner (an ablation
/// bench quantifies the approximation error and the speedup).
///
/// `PartialEq` compares the full grid — the learner uses it to detect
/// classes whose prepared grids came out identical (same samples, same
/// fit) and share one allocation between them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinnedKde {
    grid_start: f64,
    grid_step: f64,
    densities: Vec<f64>,
    max_density: f64,
}

impl BinnedKde {
    /// Default grid resolution.
    pub const DEFAULT_BINS: usize = 1024;

    /// Build from an exact KDE with the default grid resolution.
    pub fn from_kde(kde: &Kde1d) -> Self {
        Self::from_kde_with_bins(kde, Self::DEFAULT_BINS)
    }

    /// Build from an exact KDE with an explicit grid resolution (≥ 2).
    pub fn from_kde_with_bins(kde: &Kde1d, bins: usize) -> Self {
        let bins = bins.max(2);
        let radius = kde.kernel().support_radius() * kde.bandwidth_value();
        let lo = kde.samples().first().copied().unwrap_or(0.0) - radius;
        let hi = kde.samples().last().copied().unwrap_or(0.0) + radius;
        let span = (hi - lo).max(f64::MIN_POSITIVE);
        let step = span / (bins - 1) as f64;
        let densities: Vec<f64> = (0..bins).map(|i| kde.density(lo + i as f64 * step)).collect();
        let max_density = densities.iter().copied().fold(0.0f64, f64::max);
        BinnedKde { grid_start: lo, grid_step: step, densities, max_density }
    }

    /// Grid steps per bandwidth unit for [`prepare`](Self::prepare): the
    /// step is at most `h / 8`, so the kernel is always well resolved and
    /// linear interpolation stays within a fraction of a percent of the
    /// exact density.
    const STEPS_PER_BANDWIDTH: f64 = 8.0;

    /// Resolution bounds for [`prepare`](Self::prepare).
    const MIN_BINS: usize = 64;
    const MAX_BINS: usize = 32_768;

    /// Build the query-optimized scoring grid in `O(n + grid · kernel)`.
    ///
    /// Unlike [`from_kde`](Self::from_kde) — which evaluates the exact
    /// density at every grid point, `O(grid · window)` — this bins the
    /// samples onto the grid with linear weights and convolves the binned
    /// mass with the kernel sampled at grid offsets. The grid resolution
    /// adapts to the bandwidth (step ≤ h/8, within
    /// `MIN_BINS..=MAX_BINS`).
    ///
    /// This is the canonical scoring representation: `Kde1d::fit` takes
    /// its `max_density` from this grid, so exact and prepared relative
    /// likelihoods share one normalizer and rebuilding the grid from a
    /// deserialized [`Kde1d`] is bit-identical to building it at fit time.
    pub fn prepare(kde: &Kde1d) -> Self {
        let samples = kde.samples();
        let kernel = kde.kernel();
        let h = kde.bandwidth_value();
        let n = samples.len();
        debug_assert!(n > 0, "Kde1d is never empty");
        let radius = kernel.support_radius() * h;
        let lo = samples.first().copied().unwrap_or(0.0) - radius;
        let hi = samples.last().copied().unwrap_or(0.0) + radius;
        let span = (hi - lo).max(f64::MIN_POSITIVE);
        let ideal = (span * Self::STEPS_PER_BANDWIDTH / h).ceil() as usize + 1;
        let bins = ideal.clamp(Self::MIN_BINS, Self::MAX_BINS);
        let step = span / (bins - 1) as f64;

        // Linear binning: each sample splits its unit mass between the two
        // surrounding grid points.
        let mut mass = vec![0.0f64; bins];
        for &x in samples {
            let pos = ((x - lo) / step).clamp(0.0, (bins - 1) as f64);
            let j = (pos.floor() as usize).min(bins - 2);
            let frac = pos - j as f64;
            mass[j] += 1.0 - frac;
            mass[j + 1] += frac;
        }

        // Kernel weights at bin offsets, truncated at the support radius —
        // the same truncation the exact window sum uses.
        let k = ((radius / step).ceil() as usize).min(bins - 1);
        let weights: Vec<f64> = (0..=k).map(|d| kernel.eval(d as f64 * step / h)).collect();

        // Scatter each non-empty bin's mass through the kernel window.
        let mut densities = vec![0.0f64; bins];
        for (j, &m) in mass.iter().enumerate() {
            if m == 0.0 {
                continue;
            }
            densities[j] += m * weights[0];
            for (d, &w) in weights.iter().enumerate().skip(1) {
                if j >= d {
                    densities[j - d] += m * w;
                }
                if j + d < bins {
                    densities[j + d] += m * w;
                }
            }
        }
        let norm = 1.0 / (n as f64 * h);
        for d in &mut densities {
            *d *= norm;
        }

        let mut max_density = densities.iter().copied().fold(0.0f64, f64::max);
        if step > h / Self::STEPS_PER_BANDWIDTH {
            // Resolution was clamped at MAX_BINS (data spread over
            // thousands of bandwidths): the grid may straddle narrow
            // modes, so recover the normalizer exactly from the samples.
            // Windows are tiny in exactly this regime, so this stays
            // O(n · window) with a small window.
            max_density = samples.iter().map(|&x| kde.density(x)).fold(max_density, f64::max);
        }
        BinnedKde { grid_start: lo, grid_step: step, densities, max_density }
    }

    /// Fit directly from samples (exact KDE fit, then binned).
    pub fn fit(samples: &[f64]) -> Result<Self, FitError> {
        Ok(Self::from_kde(&Kde1d::fit(samples)?))
    }

    /// Number of grid points.
    pub fn bins(&self) -> usize {
        self.densities.len()
    }

    /// Left edge of the grid.
    pub fn grid_start(&self) -> f64 {
        self.grid_start
    }

    /// Grid spacing.
    pub fn grid_step(&self) -> f64 {
        self.grid_step
    }

    /// The precomputed density at each grid point.
    pub fn densities(&self) -> &[f64] {
        &self.densities
    }

    /// Reassemble a prepared grid from its serialized parts — the binary
    /// codec's bulk-copy load path, skipping the `O(n + grid · kernel)`
    /// convolution of [`prepare`](Self::prepare). Callers are responsible
    /// for validating untrusted input (≥ 2 bins, finite, positive step).
    pub fn from_raw_parts(
        grid_start: f64,
        grid_step: f64,
        densities: Vec<f64>,
        max_density: f64,
    ) -> Self {
        debug_assert!(densities.len() >= 2, "a grid needs at least two points");
        debug_assert!(grid_step > 0.0);
        BinnedKde { grid_start, grid_step, densities, max_density }
    }
}

impl Density1d for BinnedKde {
    fn density(&self, x: f64) -> f64 {
        if !x.is_finite() {
            return 0.0;
        }
        let pos = (x - self.grid_start) / self.grid_step;
        if pos < 0.0 || pos > (self.densities.len() - 1) as f64 {
            return 0.0;
        }
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(self.densities.len() - 1);
        let frac = pos - lo as f64;
        self.densities[lo] * (1.0 - frac) + self.densities[hi] * frac
    }

    fn max_density(&self) -> f64 {
        self.max_density
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::P_FLOOR;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand_distr::Normal;

    fn normal_sample(n: usize, mean: f64, std: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Normal::new(mean, std).unwrap();
        (0..n).map(|_| dist.sample(&mut rng)).collect()
    }

    #[test]
    fn fit_rejects_bad_samples() {
        assert!(matches!(Kde1d::fit(&[]), Err(FitError::EmptySample)));
        assert!(matches!(Kde1d::fit(&[1.0, f64::NAN]), Err(FitError::NonFiniteSample)));
    }

    #[test]
    fn kde_recovers_gaussian_density() {
        let xs = normal_sample(5000, 10.0, 2.0, 42);
        let kde = Kde1d::fit(&xs).unwrap();
        // Compare against the true N(10, 2²) density at a few points.
        for (x, truth) in [(10.0, 0.19947), (12.0, 0.12099), (6.0, 0.02700)] {
            let est = kde.density(x);
            assert!((est - truth).abs() < 0.02, "density({x}) = {est}, want ≈ {truth}");
        }
    }

    #[test]
    fn kde_integrates_to_one() {
        let xs = normal_sample(800, 0.0, 1.0, 7);
        for kernel in [Kernel::Gaussian, Kernel::Epanechnikov, Kernel::Tophat] {
            let kde = Kde1d::fit_with(&xs, kernel, BandwidthRule::Silverman).unwrap();
            let (lo, hi) = (-8.0, 8.0);
            let n = 4000;
            let dx = (hi - lo) / n as f64;
            let mut sum = 0.0;
            for i in 0..=n {
                let w = if i == 0 || i == n { 0.5 } else { 1.0 };
                sum += w * kde.density(lo + i as f64 * dx);
            }
            sum *= dx;
            assert!((sum - 1.0).abs() < 1e-2, "{kernel:?} integrates to {sum}");
        }
    }

    #[test]
    fn relative_likelihood_peaks_at_mode() {
        let xs = normal_sample(2000, 5.0, 1.0, 3);
        let kde = Kde1d::fit(&xs).unwrap();
        assert!(kde.relative_likelihood(5.0) > 0.9);
        assert!(kde.relative_likelihood(5.0) <= 1.0);
        assert!(kde.relative_likelihood(50.0) <= 1e-6);
        assert_eq!(kde.relative_likelihood(f64::NAN), P_FLOOR);
    }

    #[test]
    fn unlikely_values_rank_below_likely_values() {
        // The paper's core premise: a 300 mph speed should score far below
        // a 30 mph speed under a distribution learned from real speeds.
        let speeds = normal_sample(1000, 13.0, 5.0, 11); // ~30 mph mean
        let kde = Kde1d::fit(&speeds).unwrap();
        let likely = kde.relative_likelihood(13.0);
        let unlikely = kde.relative_likelihood(134.0); // ~300 mph
        assert!(likely > 100.0 * unlikely);
    }

    #[test]
    fn single_sample_is_a_spike() {
        let kde = Kde1d::fit(&[5.0]).unwrap();
        assert!(kde.relative_likelihood(5.0) > 0.99);
        assert!(kde.relative_likelihood(6.0) < 1e-3);
    }

    #[test]
    fn constant_sample_is_a_spike() {
        let kde = Kde1d::fit(&[2.5; 50]).unwrap();
        assert!(kde.relative_likelihood(2.5) > 0.99);
        assert!(kde.relative_likelihood(3.5) < 1e-3);
    }

    #[test]
    fn compact_kernel_exact_window() {
        // Tophat with fixed bandwidth: density is piecewise constant and
        // exactly computable: K(u)=0.5 for |u|<=1, h=1 → each sample within
        // distance 1 contributes 0.5 / n.
        let xs = [0.0, 1.0, 2.0, 10.0];
        let kde = Kde1d::fit_with(&xs, Kernel::Tophat, BandwidthRule::Fixed(1.0)).unwrap();
        // At x=1: samples 0,1,2 are within distance 1 → 3 * 0.5 / 4 = 0.375.
        assert!((kde.density(1.0) - 0.375).abs() < 1e-12);
        // At x=10: only the sample at 10 → 0.125.
        assert!((kde.density(10.0) - 0.125).abs() < 1e-12);
        // Far away: zero.
        assert_eq!(kde.density(100.0), 0.0);
    }

    #[test]
    fn binned_kde_tracks_exact_kde() {
        let xs = normal_sample(2000, -3.0, 1.5, 99);
        let kde = Kde1d::fit(&xs).unwrap();
        let binned = BinnedKde::from_kde_with_bins(&kde, 4096);
        for i in -80..80 {
            let x = i as f64 * 0.1;
            let exact = kde.density(x);
            let approx = binned.density(x);
            assert!(
                (exact - approx).abs() < 0.01 * kde.max_density().max(1e-12) + 1e-6,
                "at {x}: exact {exact} vs binned {approx}"
            );
        }
    }

    #[test]
    fn binned_kde_zero_outside_grid() {
        let kde = Kde1d::fit(&[0.0, 1.0, 2.0]).unwrap();
        let binned = BinnedKde::from_kde(&kde);
        assert_eq!(binned.density(1e6), 0.0);
        assert_eq!(binned.density(-1e6), 0.0);
        assert_eq!(binned.density(f64::NAN), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_density_nonnegative(
            xs in proptest::collection::vec(-100.0f64..100.0, 1..60),
            q in -200.0f64..200.0,
        ) {
            let kde = Kde1d::fit(&xs).unwrap();
            prop_assert!(kde.density(q) >= 0.0);
            let rl = kde.relative_likelihood(q);
            prop_assert!((P_FLOOR..=1.0).contains(&rl));
        }

        #[test]
        fn prop_max_density_dominates_samples(
            xs in proptest::collection::vec(-50.0f64..50.0, 2..60),
        ) {
            // max_density is estimated on the prepared grid (step ≤ h/8),
            // which can undershoot the true mode by a fraction of a
            // percent — relative_likelihood clamps the excess to 1.
            let kde = Kde1d::fit(&xs).unwrap();
            for &x in kde.samples() {
                prop_assert!(kde.density(x) <= kde.max_density() * 1.01 + 1e-12);
            }
        }

        #[test]
        fn prop_prepared_density_tracks_exact(
            xs in proptest::collection::vec(-50.0f64..50.0, 1..80),
            qs in proptest::collection::vec(-60.0f64..60.0, 1..20),
        ) {
            let kde = Kde1d::fit(&xs).unwrap();
            let prepared = BinnedKde::prepare(&kde);
            for q in qs {
                let exact = kde.density(q);
                let approx = prepared.density(q);
                prop_assert!(
                    (exact - approx).abs() <= 0.02 * kde.max_density() + 1e-9,
                    "at {q}: exact {exact} vs prepared {approx}"
                );
                let rl_gap = (kde.relative_likelihood(q) - prepared.relative_likelihood(q)).abs();
                prop_assert!(rl_gap <= 0.02 + 1e-9, "relative likelihood gap {rl_gap} at {q}");
            }
        }

        #[test]
        fn prop_prepare_is_deterministic_and_shares_normalizer(
            xs in proptest::collection::vec(-50.0f64..50.0, 1..60),
        ) {
            // Rebuilding the grid from the (serializable) KDE state must be
            // bit-identical — the fit/load byte-determinism contract — and
            // the exact KDE's normalizer IS the grid max.
            let kde = Kde1d::fit(&xs).unwrap();
            let a = BinnedKde::prepare(&kde);
            let b = BinnedKde::prepare(&kde);
            prop_assert_eq!(a.max_density().to_bits(), b.max_density().to_bits());
            prop_assert_eq!(a.bins(), b.bins());
            prop_assert_eq!(a.max_density().to_bits(), kde.max_density().to_bits());
            for q in [-55.0, -10.0, 0.0, 3.7, 49.0] {
                prop_assert_eq!(a.density(q).to_bits(), b.density(q).to_bits());
            }
        }

        #[test]
        fn prop_binned_bounded_by_max(
            xs in proptest::collection::vec(-50.0f64..50.0, 2..60),
            q in -60.0f64..60.0,
        ) {
            let kde = Kde1d::fit(&xs).unwrap();
            let binned = BinnedKde::from_kde(&kde);
            prop_assert!(binned.density(q) <= binned.max_density() + 1e-12);
        }

        #[test]
        fn prop_kde_integrates_to_one(
            xs in proptest::collection::vec(-40.0f64..40.0, 2..50),
        ) {
            // A KDE is a density: for any sample, the trapezoid integral
            // over the full kernel support must be ≈ 1.
            let kde = Kde1d::fit(&xs).unwrap();
            let radius = kde.kernel().support_radius() * kde.bandwidth_value();
            let lo = xs.iter().copied().fold(f64::INFINITY, f64::min) - radius;
            let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max) + radius;
            let n = 4000;
            let dx = (hi - lo) / n as f64;
            let mut sum = 0.0;
            for i in 0..=n {
                let w = if i == 0 || i == n { 0.5 } else { 1.0 };
                sum += w * kde.density(lo + i as f64 * dx);
            }
            sum *= dx;
            prop_assert!((sum - 1.0).abs() < 2e-2, "integral {sum}");
        }
    }
}
