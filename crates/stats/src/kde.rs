//! Kernel density estimation — the default feature-distribution learner.
//!
//! `KDEObsDistribution` in the paper's worked example (Section 3) is exactly
//! this: collect feature values over historical labels, fit a KDE, and use
//! the (normalized) density of a new feature value as its likelihood.

use crate::bandwidth::silverman;
use crate::kernel::Kernel;
use crate::sort::radix_sort_by_value;
use crate::summary::Welford;
use crate::{check_densities, check_scale, validate_sample, Density1d, FitError};
use serde::{Deserialize, Serialize};

/// Exact 1D kernel density estimator with its scoring grid.
///
/// Samples are kept sorted so that the Gaussian kernel, truncated at its
/// numerical support radius, only sums over the window of contributing
/// samples, found by binary search. That exact window sum is the
/// [`Density1d`] impl; scoring evaluates [`grid`](Self::grid), built once
/// from the samples and bandwidth, whose maximum is the normalizer of both.
#[derive(Debug, Clone)]
pub struct Kde1d {
    samples: Vec<f64>, // sorted
    kernel: Kernel,
    bandwidth: f64,
    grid: BinnedKde,
}

/// The wire format stores the grid's maximum, not the grid: a load
/// rebuilds the grid and checks the stored maximum against it.
impl Serialize for Kde1d {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (String::from("samples"), self.samples.to_json_value()),
            (String::from("kernel"), self.kernel.to_json_value()),
            (String::from("bandwidth"), self.bandwidth.to_json_value()),
            (String::from("max_density"), self.grid.max_density.to_json_value()),
        ])
    }
}

/// [`Kde1d`]'s wire format, checked by [`Kde1d::from_parts`] on load.
#[derive(Deserialize)]
struct StoredKde1d {
    samples: Vec<f64>,
    kernel: Kernel,
    bandwidth: f64,
    max_density: f64,
}

crate::deserialize_via_parts!(Kde1d, StoredKde1d, |s| {
    Kde1d::from_parts(s.samples, s.kernel, s.bandwidth, s.max_density)
});

impl Kde1d {
    /// Fit with the Gaussian kernel and Silverman's bandwidth.
    ///
    /// The samples are sorted once, into the copy the KDE keeps, and the
    /// bandwidth's IQR is read off that copy; σ̂ is folded over `samples`
    /// in input order ([`silverman`]). The sort is the stable key sort
    /// [`radix_sort_by_value`]: its order-preserving `u64` key folds
    /// `-0.0` onto `0.0`, so equal values keep their input order exactly
    /// as under a stable `partial_cmp` sort, and the kept samples,
    /// bandwidth and grid are a function of the input sequence alone.
    pub fn fit(samples: &[f64]) -> Result<Self, FitError> {
        validate_sample(samples)?;
        let spread = Welford::from_slice(samples);
        let mut sorted = samples.to_vec();
        radix_sort_by_value(&mut sorted, |&x| x);
        Ok(Kde1d::from_sorted(sorted, &spread))
    }

    /// [`fit`](Self::fit) with the sort and σ̂ done by the caller:
    /// `sorted` must be the sample in the stable ascending order
    /// [`radix_sort_by_value`] gives (debug-asserted for order), and
    /// `spread` its [`Welford`] accumulator folded in input order. The
    /// KDE is then bit-identical to `fit` of the sample. The learner
    /// folds every class's σ̂ in one pass and splits one sorted run per
    /// class, so no class is copied or sorted again.
    pub fn fit_sorted(sorted: Vec<f64>, spread: &Welford) -> Result<Self, FitError> {
        validate_sample(&sorted)?;
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sorted ascending");
        Ok(Kde1d::from_sorted(sorted, spread))
    }

    /// Fit a validated sample, given its stable ascending sort and its
    /// input-order σ̂ accumulator.
    fn from_sorted(sorted: Vec<f64>, spread: &Welford) -> Self {
        let bandwidth = silverman(spread, &sorted);
        Kde1d::with_bandwidth(sorted, Kernel::Gaussian, bandwidth)
    }

    /// Build the grid for sorted, validated samples.
    fn with_bandwidth(samples: Vec<f64>, kernel: Kernel, bandwidth: f64) -> Self {
        let grid = BinnedKde::build(&samples, kernel, bandwidth);
        Kde1d { samples, kernel, bandwidth, grid }
    }

    /// Number of training samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The resolved bandwidth as a raw value.
    pub fn bandwidth_value(&self) -> f64 {
        self.bandwidth
    }

    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Sorted training samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The scoring grid: what a learned feature's likelihood is read from.
    pub fn grid(&self) -> &BinnedKde {
        &self.grid
    }

    /// Reassemble a fitted KDE from stored parts — the JSON load path,
    /// skipping the fit but rebuilding the grid.
    ///
    /// Stored parts are untrusted, so this enforces what a fit
    /// guarantees: samples non-empty and finite, bandwidth finite and
    /// positive, and `max_density` equal to the rebuilt grid's. Samples
    /// are sorted here (a no-op for a well-formed file): the windowed
    /// evaluation binary-searches, so unsorted samples would score wrong
    /// silently.
    pub fn from_parts(
        samples: Vec<f64>,
        kernel: Kernel,
        bandwidth: f64,
        max_density: f64,
    ) -> Result<Self, FitError> {
        let samples = checked_samples(samples, bandwidth)?;
        check_scale("kde max_density", max_density)?;
        let kde = Kde1d::with_bandwidth(samples, kernel, bandwidth);
        if max_density.to_bits() != kde.grid.max_density.to_bits() {
            return Err(FitError::Implausible(format!(
                "kde max_density {max_density} (its grid's is {})",
                kde.grid.max_density
            )));
        }
        Ok(kde)
    }

    /// Reassemble a fitted KDE from stored parts and a stored grid — the
    /// binary codec's bulk-copy load path, which skips the grid rebuild
    /// of [`from_parts`](Self::from_parts). The grid is checked by
    /// [`BinnedKde::from_parts`], not against the samples.
    pub fn with_grid(
        samples: Vec<f64>,
        kernel: Kernel,
        bandwidth: f64,
        grid: BinnedKde,
    ) -> Result<Self, FitError> {
        let samples = checked_samples(samples, bandwidth)?;
        Ok(Kde1d { samples, kernel, bandwidth, grid })
    }
}

/// Validate stored samples and bandwidth, and sort the samples. A
/// well-formed file's samples are already sorted, so a load pays only
/// the check.
fn checked_samples(mut samples: Vec<f64>, bandwidth: f64) -> Result<Vec<f64>, FitError> {
    validate_sample(&samples)?;
    check_scale("kde bandwidth", bandwidth)?;
    if !samples.windows(2).all(|w| w[0] <= w[1]) {
        radix_sort_by_value(&mut samples, |&x| x);
    }
    Ok(samples)
}

/// The exact density of sorted `samples` at `x`: the kernel sum over the
/// window of samples within the kernel's support radius.
fn exact_density(samples: &[f64], kernel: Kernel, bandwidth: f64, x: f64) -> f64 {
    if !x.is_finite() {
        return 0.0;
    }
    let radius = kernel.support_radius() * bandwidth;
    let lo = samples.partition_point(|&s| s < x - radius);
    let hi = samples.partition_point(|&s| s <= x + radius);
    if lo >= hi {
        return 0.0;
    }
    let inv_h = 1.0 / bandwidth;
    let mut acc = 0.0;
    for &s in &samples[lo..hi] {
        acc += kernel.eval((x - s) * inv_h);
    }
    acc * inv_h / samples.len() as f64
}

impl Density1d for Kde1d {
    fn density(&self, x: f64) -> f64 {
        exact_density(&self.samples, self.kernel, self.bandwidth, x)
    }

    fn max_density(&self) -> f64 {
        self.grid.max_density
    }
}

/// A KDE's scoring grid: densities precomputed on a uniform grid at fit
/// time, evaluated by linear interpolation.
///
/// Evaluation is O(1) instead of O(window); building is
/// O(n + grid · kernel). Every [`Kde1d`] owns one.
#[derive(Debug, Clone)]
pub struct BinnedKde {
    grid_start: f64,
    grid_step: f64,
    densities: Vec<f64>,
    max_density: f64,
}

impl BinnedKde {
    /// Grid steps per bandwidth unit for [`build`](Self::build): the
    /// step is at most `h / 8`, so the kernel is always well resolved and
    /// linear interpolation stays within a fraction of a percent of the
    /// exact density.
    const STEPS_PER_BANDWIDTH: f64 = 8.0;

    /// Resolution bounds for [`build`](Self::build).
    const MIN_BINS: usize = 64;
    const MAX_BINS: usize = 32_768;

    /// Build the scoring grid of sorted, non-empty `samples` in
    /// `O(n + grid · kernel)`.
    ///
    /// Rather than evaluating the exact density at every grid point,
    /// `O(grid · window)`, this bins the samples onto the grid with
    /// linear weights and convolves the binned mass with the kernel
    /// sampled at grid offsets. The grid resolution adapts to the
    /// bandwidth (step ≤ h/8, within `MIN_BINS..=MAX_BINS`).
    ///
    /// The grid's maximum is the KDE's normalizer, so exact and grid
    /// relative likelihoods share it, and rebuilding the grid from a
    /// deserialized [`Kde1d`] is bit-identical to building it at fit time.
    fn build(samples: &[f64], kernel: Kernel, h: f64) -> Self {
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
        // surrounding grid points. `pos` is clamped non-negative, so
        // truncating it is its floor.
        let mut mass = vec![0.0f64; bins];
        for &x in samples {
            let pos = ((x - lo) / step).clamp(0.0, (bins - 1) as f64);
            let j = (pos as usize).min(bins - 2);
            let frac = pos - j as f64;
            mass[j] += 1.0 - frac;
            mass[j + 1] += frac;
        }

        // Kernel weights at bin offsets, truncated at the support radius —
        // the same truncation the exact window sum uses.
        let k = ((radius / step).ceil() as usize).min(bins - 1);
        let weights: Vec<f64> = (0..=k).map(|d| kernel.eval(d as f64 * step / h)).collect();

        // Scatter each non-empty bin's mass through the kernel window,
        // clipped to the grid once per bin. A bin adds at most one term
        // to each grid point, so every point still sums its terms in
        // ascending bin order.
        let mut densities = vec![0.0f64; bins];
        for (j, &m) in mass.iter().enumerate() {
            if m == 0.0 {
                continue;
            }
            densities[j] += m * weights[0];
            let left = k.min(j);
            for (dst, &w) in densities[j - left..j].iter_mut().rev().zip(&weights[1..=left]) {
                *dst += m * w;
            }
            let right = k.min(bins - 1 - j);
            for (dst, &w) in densities[j + 1..=j + right].iter_mut().zip(&weights[1..=right]) {
                *dst += m * w;
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
            max_density = samples
                .iter()
                .map(|&x| exact_density(samples, kernel, h, x))
                .fold(max_density, f64::max);
        }
        BinnedKde { grid_start: lo, grid_step: step, densities, max_density }
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

    /// Reassemble a grid from stored parts — the binary codec's
    /// bulk-copy load path, skipping the `O(n + grid · kernel)`
    /// grid convolution a fit or a JSON load runs. Rejects what no build
    /// produces: fewer than two points, a non-finite start, a
    /// step or `max_density` that is not finite and positive, or a
    /// negative or non-finite density.
    pub fn from_parts(
        grid_start: f64,
        grid_step: f64,
        densities: Vec<f64>,
        max_density: f64,
    ) -> Result<Self, FitError> {
        if densities.len() < 2 {
            return Err(FitError::Implausible(format!(
                "kde grid with {} point(s)",
                densities.len()
            )));
        }
        if !grid_start.is_finite() {
            return Err(FitError::Implausible(format!("grid start {grid_start}")));
        }
        check_scale("grid step", grid_step)?;
        check_scale("grid max_density", max_density)?;
        check_densities("grid", &densities)?;
        Ok(BinnedKde { grid_start, grid_step, densities, max_density })
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
        let kde = Kde1d::fit(&xs).unwrap();
        let (lo, hi) = (-8.0, 8.0);
        let n = 4000;
        let dx = (hi - lo) / n as f64;
        let mut sum = 0.0;
        for i in 0..=n {
            let w = if i == 0 || i == n { 0.5 } else { 1.0 };
            sum += w * kde.density(lo + i as f64 * dx);
        }
        sum *= dx;
        assert!((sum - 1.0).abs() < 1e-2, "integrates to {sum}");
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
        // The binary-searched window truncates the Gaussian at its support
        // radius; beyond it every term is below f64 epsilon relative to
        // the peak, so the windowed density equals the direct sum over
        // all samples.
        let xs = [0.0, 1.0, 2.0, 10.0, 10.5, 40.0];
        let kde = Kde1d::fit(&xs).unwrap();
        let h = kde.bandwidth_value();
        for q in [-3.0, 0.0, 1.0, 5.0, 10.0, 25.0, 40.0, 100.0] {
            let direct: f64 = xs.iter().map(|&s| Kernel::Gaussian.eval((q - s) / h)).sum::<f64>()
                / (h * xs.len() as f64);
            let windowed = kde.density(q);
            assert!(
                (windowed - direct).abs() <= 1e-12 * direct.max(kde.max_density()),
                "at {q}: windowed {windowed} vs direct {direct}"
            );
        }
        // Far outside every window: exactly zero.
        assert_eq!(kde.density(1e6), 0.0);
    }

    #[test]
    fn from_parts_rejects_max_density_off_its_grid() {
        let kde = Kde1d::fit(&[0.5, 1.0, 2.5, 4.0, 4.5]).unwrap();
        let load = |max_density| {
            Kde1d::from_parts(
                kde.samples().to_vec(),
                kde.kernel(),
                kde.bandwidth_value(),
                max_density,
            )
        };
        assert!(load(kde.max_density()).is_ok());
        let err = load(kde.max_density() * 1.5).unwrap_err();
        assert!(matches!(err, FitError::Implausible(_)), "got {err:?}");
    }

    #[test]
    fn unsorted_stored_samples_load_as_their_fit() {
        // Stored samples out of order are sorted on load into the order a
        // fit of the same list keeps, signed-zero ties included.
        let mut xs = normal_sample(300, 0.0, 1.0, 17);
        for (at, z) in [(3, -0.0), (40, 0.0), (41, -0.0), (150, 0.0), (299, -0.0)] {
            xs.insert(at, z);
        }
        xs.extend([1.5, -1.5, 1.5]);
        assert!(xs.windows(2).any(|w| w[0] > w[1]), "the stored order is unsorted");
        let fitted = Kde1d::fit(&xs).unwrap();
        let (kernel, bandwidth) = (fitted.kernel(), fitted.bandwidth_value());
        let bits = |kde: &Kde1d| {
            let samples = kde.samples().iter().map(|x| x.to_bits());
            let grid = kde.grid().densities().iter().map(|d| d.to_bits());
            (samples.collect::<Vec<_>>(), grid.collect::<Vec<_>>())
        };
        let from_parts =
            Kde1d::from_parts(xs.clone(), kernel, bandwidth, fitted.max_density()).unwrap();
        assert_eq!(bits(&from_parts), bits(&fitted));
        let with_grid = Kde1d::with_grid(xs, kernel, bandwidth, fitted.grid().clone()).unwrap();
        assert_eq!(bits(&with_grid), bits(&fitted));
    }

    #[test]
    fn binned_kde_tracks_exact_kde() {
        let xs = normal_sample(2000, -3.0, 1.5, 99);
        let kde = Kde1d::fit(&xs).unwrap();
        let binned = kde.grid();
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
        let binned = kde.grid();
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
            // max_density is estimated on the scoring grid (step ≤ h/8),
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
            let grid = kde.grid();
            for q in qs {
                let exact = kde.density(q);
                let approx = grid.density(q);
                prop_assert!(
                    (exact - approx).abs() <= 0.02 * kde.max_density() + 1e-9,
                    "at {q}: exact {exact} vs grid {approx}"
                );
                let rl_gap = (kde.relative_likelihood(q) - grid.relative_likelihood(q)).abs();
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
            let back = Kde1d::from_parts(
                kde.samples().to_vec(),
                kde.kernel(),
                kde.bandwidth_value(),
                kde.max_density(),
            )
            .unwrap();
            let (a, b) = (kde.grid(), back.grid());
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
            let binned = kde.grid();
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
