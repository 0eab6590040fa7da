//! Bandwidth selection for kernel density estimation.
//!
//! The paper (Section 5.2) notes that *"density estimators have
//! hyperparameters \[but\] default hyperparameters work in all cases we
//! tried"*. The bandwidth is Silverman's rule of thumb — robust to mild
//! multimodality via the IQR term.

use crate::summary::{iqr, Welford};

/// Silverman's rule of thumb, `h = 0.9 · min(σ̂, IQR/1.34) · n^(−1/5)`,
/// over a (validated, non-empty, finite) sample. Always positive and
/// finite.
///
/// `spread` is the sample's [`Welford`] accumulator and `sorted` the
/// sample sorted ascending — the copy a KDE keeps, so the IQR costs no
/// second sort. σ̂'s bits depend on the order `spread` was folded in:
/// [`Kde1d::fit`](crate::Kde1d::fit) folds it in input order.
///
/// Degenerate samples (all values identical → σ̂ = IQR = 0) get a small
/// positive bandwidth proportional to the magnitude of the data, so the
/// resulting KDE is a narrow spike rather than a division by zero.
pub fn silverman(spread: &Welford, sorted: &[f64]) -> f64 {
    debug_assert_eq!(spread.count(), sorted.len() as u64, "one sample");
    let sigma = spread.std_dev();
    let iqr_scaled = iqr(sorted) / 1.34;
    let spread = if iqr_scaled > 0.0 { sigma.min(iqr_scaled) } else { sigma };
    let h = 0.9 * spread * (sorted.len() as f64).powf(-0.2);
    if h.is_finite() && h > 0.0 {
        h
    } else {
        // Degenerate sample: all points equal. Scale a floor bandwidth to
        // the data's magnitude.
        let scale = sorted.iter().fold(0.0f64, |acc, x| acc.max(x.abs())).max(1.0);
        1e-3 * scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Silverman's bandwidth of an unsorted sample.
    fn silverman_of(xs: &[f64]) -> f64 {
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        silverman(&Welford::from_slice(xs), &sorted)
    }

    #[test]
    fn silverman_uses_min_of_sigma_and_iqr() {
        // Heavy-tailed sample: IQR/1.34 < σ, so the bandwidth falls below
        // the σ-only rule.
        let mut xs: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
        xs.push(1e3); // outlier inflates σ but not IQR
        let h_silverman = silverman_of(&xs);
        let w = Welford::from_slice(&xs);
        let sigma_based = 0.9 * w.std_dev() * (xs.len() as f64).powf(-0.2);
        assert!(h_silverman < sigma_based);
    }

    #[test]
    fn degenerate_constant_sample_gets_positive_bandwidth() {
        let h = silverman_of(&[5.0; 10]);
        assert!(h > 0.0);
        assert!(h.is_finite());
        // The floor scales with the data's magnitude.
        assert!((silverman_of(&[5.0; 10]) - 5e-3).abs() < 1e-15);
        assert_eq!(silverman_of(&[0.5; 10]), 1e-3);
    }

    #[test]
    fn bandwidth_shrinks_with_sample_size() {
        let small: Vec<f64> = (0..20).map(|i| (i as f64 * 37.0) % 10.0).collect();
        let large: Vec<f64> = (0..2000).map(|i| (i as f64 * 37.0) % 10.0).collect();
        assert!(silverman_of(&large) < silverman_of(&small));
    }

    proptest! {
        #[test]
        fn prop_resolved_bandwidth_positive(
            xs in proptest::collection::vec(-1e4f64..1e4, 1..200),
        ) {
            let h = silverman_of(&xs);
            prop_assert!(h > 0.0);
            prop_assert!(h.is_finite());
        }
    }
}
