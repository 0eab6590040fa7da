//! Multivariate kernel density estimation with a diagonal bandwidth matrix.
//!
//! Section 5 of the paper allows *"scalar or vector valued features"*. For
//! vector features (e.g., the 2D velocity vector, or joint
//! (volume, distance)), `KdeNd` fits an independent per-dimension bandwidth
//! and evaluates a product kernel.

use crate::bandwidth::silverman;
use crate::kernel::Kernel;
use crate::{check_scale, FitError, P_FLOOR};
use serde::{Deserialize, Serialize};

/// A multivariate (product-kernel, diagonal-bandwidth) KDE.
///
/// Rows are kept sorted by their first dimension so evaluation binary-
/// searches the window of rows whose first coordinate can contribute
/// (the kernel is truncated at its support radius) instead of scanning
/// all `n` rows — `O(log n + window)` per query.
#[derive(Debug, Clone, Serialize)]
pub struct KdeNd {
    dim: usize,
    /// Row-major sample matrix (n × dim), sorted by the first dimension
    /// (full-row lexicographic tiebreak, so the order — and therefore
    /// the float summation order — is deterministic).
    samples: Vec<f64>,
    kernel: Kernel,
    bandwidths: Vec<f64>,
    max_density: f64,
}

/// [`KdeNd`]'s wire format, passed through [`KdeNd::from_flat_parts`] on
/// load: the shape and value checks, and the sorted-rows invariant the
/// windowed evaluation depends on — libraries serialized before rows were
/// kept sorted store them in insertion order, and binary-searching
/// unsorted rows would silently drop contributing samples.
#[derive(Deserialize)]
struct StoredKdeNd {
    dim: usize,
    samples: Vec<f64>,
    kernel: Kernel,
    bandwidths: Vec<f64>,
    max_density: f64,
}

crate::deserialize_via_parts!(KdeNd, StoredKdeNd, |s| {
    KdeNd::from_flat_parts(s.dim, s.samples, s.kernel, s.bandwidths, s.max_density)
});

/// Sort a flat row-major matrix by first dimension with a full-row
/// lexicographic tiebreak — the invariant the windowed evaluation needs.
fn sort_rows(dim: usize, samples: Vec<f64>) -> Vec<f64> {
    let n = samples.len() / dim;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        samples[a * dim..(a + 1) * dim]
            .partial_cmp(&samples[b * dim..(b + 1) * dim])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut sorted = Vec::with_capacity(samples.len());
    for &i in &order {
        sorted.extend_from_slice(&samples[i * dim..(i + 1) * dim]);
    }
    sorted
}

impl KdeNd {
    /// Fit with the Gaussian kernel and per-dimension Silverman
    /// bandwidths (each scaled by the standard `n^(−1/(d+4))` multivariate
    /// exponent is approximated by the univariate rule — adequate for the
    /// low dimensions used here).
    pub fn fit(samples: &[Vec<f64>]) -> Result<Self, FitError> {
        let first = samples.first().ok_or(FitError::EmptySample)?;
        let dim = first.len();
        if dim == 0 {
            return Err(FitError::DimensionMismatch { expected: 1, got: 0 });
        }
        for s in samples {
            if s.len() != dim {
                return Err(FitError::DimensionMismatch { expected: dim, got: s.len() });
            }
            if s.iter().any(|x| !x.is_finite()) {
                return Err(FitError::NonFiniteSample);
            }
        }
        let n = samples.len();
        // Sort rows by first dimension (full-row lexicographic tiebreak)
        // so evaluation can binary-search the contributing window.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| samples[a].partial_cmp(&samples[b]).expect("validated finite"));
        let mut flat = Vec::with_capacity(n * dim);
        for &i in &order {
            flat.extend_from_slice(&samples[i]);
        }
        let mut bandwidths = Vec::with_capacity(dim);
        let mut column = Vec::with_capacity(n);
        for d in 0..dim {
            column.clear();
            column.extend((0..n).map(|i| flat[i * dim + d]));
            bandwidths.push(silverman(&column));
        }
        let mut kde = KdeNd {
            dim,
            samples: flat,
            kernel: Kernel::Gaussian,
            bandwidths,
            max_density: 0.0,
        };
        // Each evaluation is windowed, so the normalizer sweep is
        // O(n · window) rather than the old O(n²) full cross product.
        kde.max_density = (0..n)
            .map(|i| kde.density(&kde.samples[i * kde.dim..(i + 1) * kde.dim]))
            .fold(0.0f64, f64::max);
        Ok(kde)
    }

    /// Index range of rows whose first coordinate lies within the kernel
    /// support window around `x0`.
    fn window(&self, x0: f64) -> (usize, usize) {
        let radius = self.kernel.support_radius() * self.bandwidths[0];
        let n = self.len();
        let dim = self.dim;
        let lo = {
            let (mut l, mut r) = (0usize, n);
            while l < r {
                let m = (l + r) / 2;
                if self.samples[m * dim] < x0 - radius {
                    l = m + 1;
                } else {
                    r = m;
                }
            }
            l
        };
        let hi = {
            let (mut l, mut r) = (lo, n);
            while l < r {
                let m = (l + r) / 2;
                if self.samples[m * dim] <= x0 + radius {
                    l = m + 1;
                } else {
                    r = m;
                }
            }
            l
        };
        (lo, hi)
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn len(&self) -> usize {
        self.samples.len() / self.dim
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn bandwidths(&self) -> &[f64] {
        &self.bandwidths
    }

    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The flat row-major (n × dim) sample matrix, rows sorted by first
    /// dimension (full-row lexicographic tiebreak).
    pub fn samples_flat(&self) -> &[f64] {
        &self.samples
    }

    /// Reassemble a fitted KDE from stored parts — the load path of both
    /// library formats. Validates the shape, the samples (non-empty,
    /// finite), the bandwidths and `max_density` (finite, positive), and
    /// re-sorts rows (a no-op for rows stored in sorted order), so loads
    /// from either wire format are bit-identical.
    pub fn from_flat_parts(
        dim: usize,
        samples: Vec<f64>,
        kernel: Kernel,
        bandwidths: Vec<f64>,
        max_density: f64,
    ) -> Result<Self, FitError> {
        if samples.is_empty() {
            return Err(FitError::EmptySample);
        }
        if dim == 0 || !samples.len().is_multiple_of(dim) || bandwidths.len() != dim {
            return Err(FitError::DimensionMismatch {
                expected: dim.max(1),
                got: bandwidths.len(),
            });
        }
        if samples.iter().any(|x| !x.is_finite()) {
            return Err(FitError::NonFiniteSample);
        }
        for &h in &bandwidths {
            check_scale("joint-kde bandwidth", h)?;
        }
        check_scale("joint-kde max_density", max_density)?;
        Ok(KdeNd {
            dim,
            samples: sort_rows(dim, samples),
            kernel,
            bandwidths,
            max_density,
        })
    }

    /// Joint density at `x` (must have the fitted dimension; returns 0 for
    /// mismatched or non-finite input).
    pub fn density(&self, x: &[f64]) -> f64 {
        if x.len() != self.dim || x.iter().any(|v| !v.is_finite()) {
            return 0.0;
        }
        let n = self.len();
        let (lo, hi) = self.window(x[0]);
        let mut acc = 0.0;
        'outer: for i in lo..hi {
            let row = &self.samples[i * self.dim..(i + 1) * self.dim];
            let mut prod = 1.0;
            for d in 0..self.dim {
                let u = (x[d] - row[d]) / self.bandwidths[d];
                let k = self.kernel.eval(u);
                if k == 0.0 {
                    continue 'outer;
                }
                prod *= k / self.bandwidths[d];
            }
            acc += prod;
        }
        acc / n as f64
    }

    /// The maximum density over the training samples (the normalizer).
    pub fn max_density(&self) -> f64 {
        self.max_density
    }

    /// Relative likelihood in `[P_FLOOR, 1]`.
    pub fn relative_likelihood(&self, x: &[f64]) -> f64 {
        if self.max_density <= 0.0 {
            return P_FLOOR;
        }
        (self.density(x) / self.max_density).clamp(P_FLOOR, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand_distr::Normal;

    fn gaussian_cloud(n: usize, cx: f64, cy: f64, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let dx = Normal::new(cx, 1.0).unwrap();
        let dy = Normal::new(cy, 2.0).unwrap();
        (0..n)
            .map(|_| vec![dx.sample(&mut rng), dy.sample(&mut rng)])
            .collect()
    }

    #[test]
    fn fit_validates_input() {
        assert!(matches!(KdeNd::fit(&[]), Err(FitError::EmptySample)));
        assert!(matches!(
            KdeNd::fit(&[vec![1.0, 2.0], vec![3.0]]),
            Err(FitError::DimensionMismatch { expected: 2, got: 1 })
        ));
        assert!(matches!(
            KdeNd::fit(&[vec![1.0, f64::NAN]]),
            Err(FitError::NonFiniteSample)
        ));
        assert!(matches!(
            KdeNd::fit(&[vec![]]),
            Err(FitError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn density_peaks_at_cloud_center() {
        let cloud = gaussian_cloud(800, 3.0, -2.0, 5);
        let kde = KdeNd::fit(&cloud).unwrap();
        let at_center = kde.density(&[3.0, -2.0]);
        let far = kde.density(&[30.0, 20.0]);
        assert!(at_center > 100.0 * far.max(1e-300));
        assert!(kde.relative_likelihood(&[3.0, -2.0]) > 0.5);
    }

    #[test]
    fn mismatched_query_dimension_is_zero() {
        let kde = KdeNd::fit(&[vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        assert_eq!(kde.density(&[0.0]), 0.0);
        assert_eq!(kde.density(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(kde.density(&[f64::NAN, 0.0]), 0.0);
    }

    /// Reference implementation: the full product-kernel sum over all
    /// rows, no windowing.
    fn brute_force_density(kde: &KdeNd, x: &[f64]) -> f64 {
        let n = kde.len();
        let dim = kde.dim();
        let mut acc = 0.0;
        for i in 0..n {
            let mut prod = 1.0;
            for d in 0..dim {
                let row = i * dim + d;
                let u = (x[d] - kde.samples[row]) / kde.bandwidths()[d];
                prod *= kde.kernel.eval(u) / kde.bandwidths()[d];
            }
            acc += prod;
        }
        acc / n as f64
    }

    #[test]
    fn windowed_density_matches_brute_force() {
        let cloud = gaussian_cloud(400, 1.0, -1.0, 77);
        let kde = KdeNd::fit(&cloud).unwrap();
        for q in [[1.0, -1.0], [3.5, 0.2], [-2.0, 4.0], [40.0, 0.0]] {
            let windowed = kde.density(&q);
            let brute = brute_force_density(&kde, &q);
            // The window truncates the kernel at its support radius, the
            // same truncation Kde1d uses; beyond it the Gaussian is below
            // f64 epsilon relative to the peak.
            assert!(
                (windowed - brute).abs() <= 1e-9 * brute + 1e-15,
                "at {q:?}: windowed {windowed} vs brute {brute}"
            );
        }
    }

    #[test]
    fn deserialize_resorts_legacy_insertion_ordered_rows() {
        // Libraries written before rows were kept sorted store them in
        // insertion order; loading one must restore the sorted invariant
        // or the binary-searched window silently drops samples.
        let mut rows = gaussian_cloud(60, 5.0, 0.0, 31);
        rows.extend(gaussian_cloud(40, -6.0, 1.0, 32)); // unsorted on dim 0
        let kde = KdeNd::fit(&rows).unwrap();

        // Simulate the legacy wire format: same fields, rows unsorted.
        let mut legacy_flat = Vec::new();
        for r in &rows {
            legacy_flat.extend_from_slice(r);
        }
        let legacy = serde::Value::Object(vec![
            (String::from("dim"), serde::Value::UInt(2)),
            (
                String::from("samples"),
                serde::Value::Array(legacy_flat.iter().map(|&x| serde::Value::Float(x)).collect()),
            ),
            (String::from("kernel"), Serialize::to_json_value(&kde.kernel)),
            (
                String::from("bandwidths"),
                serde::Value::Array(
                    kde.bandwidths().iter().map(|&x| serde::Value::Float(x)).collect(),
                ),
            ),
            (String::from("max_density"), serde::Value::Float(kde.max_density())),
        ]);
        let loaded = KdeNd::from_json_value(&legacy).unwrap();
        for q in [[5.0, 0.0], [-6.0, 1.0], [0.0, 0.5]] {
            assert_eq!(
                loaded.density(&q).to_bits(),
                kde.density(&q).to_bits(),
                "legacy load diverges at {q:?}"
            );
        }

        // Malformed shapes are an error, not a panic.
        let bad = serde::Value::Object(vec![
            (String::from("dim"), serde::Value::UInt(3)),
            (
                String::from("samples"),
                serde::Value::Array(vec![serde::Value::Float(1.0)]),
            ),
            (String::from("kernel"), Serialize::to_json_value(&kde.kernel)),
            (String::from("bandwidths"), serde::Value::Array(vec![])),
            (String::from("max_density"), serde::Value::Float(1.0)),
        ]);
        assert!(KdeNd::from_json_value(&bad).is_err());
    }

    #[test]
    fn one_dimensional_agrees_with_kde1d() {
        let xs: Vec<f64> = (0..200).map(|i| (i % 17) as f64 * 0.7).collect();
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let nd = KdeNd::fit(&rows).unwrap();
        let one = crate::Kde1d::fit(&xs).unwrap();
        use crate::Density1d;
        for q in [0.0, 2.0, 5.0, 11.0] {
            assert!(
                (nd.density(&[q]) - one.density(q)).abs() < 1e-9,
                "at {q}: {} vs {}",
                nd.density(&[q]),
                one.density(q)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_density_nonnegative(
            pts in proptest::collection::vec(
                (-10.0f64..10.0, -10.0f64..10.0), 2..40),
            qx in -20.0f64..20.0, qy in -20.0f64..20.0,
        ) {
            let rows: Vec<Vec<f64>> = pts.iter().map(|&(x, y)| vec![x, y]).collect();
            let kde = KdeNd::fit(&rows).unwrap();
            prop_assert!(kde.density(&[qx, qy]) >= 0.0);
            let rl = kde.relative_likelihood(&[qx, qy]);
            prop_assert!((P_FLOOR..=1.0).contains(&rl));
        }
    }
}
