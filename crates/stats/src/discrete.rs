//! The Bernoulli distribution.
//!
//! The paper's bundle-consistency example (Section 5.1): *"a user could
//! provide a feature that returns 0 if all the classes agree and 1
//! otherwise. The feature would then learn the Bernoulli probability of the
//! class agreement between observation types."*

use crate::{Density1d, FitError};
use serde::{Deserialize, Serialize};

/// A fitted Bernoulli distribution over {0, 1}.
///
/// Fitted with add-one (Laplace) smoothing so that an event never seen in
/// training keeps a small nonzero probability — unseen ≠ impossible, and
/// LOA needs finite log-likelihoods.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Bernoulli {
    p_one: f64,
}

/// [`Bernoulli`]'s wire format, checked by [`Bernoulli::from_p`] on load.
#[derive(Deserialize)]
struct StoredBernoulli {
    p_one: f64,
}

crate::deserialize_via_parts!(Bernoulli, StoredBernoulli, |s| Bernoulli::from_p(s.p_one));

impl Bernoulli {
    /// Fit from 0/1-valued samples (values are thresholded at 0.5).
    pub fn fit(samples: &[f64]) -> Result<Self, FitError> {
        crate::validate_sample(samples)?;
        let ones = samples.iter().filter(|&&x| x >= 0.5).count();
        // Laplace smoothing.
        let p_one = (ones as f64 + 1.0) / (samples.len() as f64 + 2.0);
        Ok(Bernoulli { p_one })
    }

    /// Construct directly from `P(X = 1)`.
    pub fn from_p(p_one: f64) -> Result<Self, FitError> {
        if !(0.0..=1.0).contains(&p_one) {
            return Err(FitError::Implausible(format!("bernoulli p {p_one}")));
        }
        Ok(Bernoulli { p_one })
    }

    /// `P(X = 1)`.
    pub fn p_one(&self) -> f64 {
        self.p_one
    }

    /// Probability mass at 0 or 1 (thresholded at 0.5).
    pub fn pmf(&self, x: f64) -> f64 {
        if !x.is_finite() {
            return 0.0;
        }
        if x >= 0.5 {
            self.p_one
        } else {
            1.0 - self.p_one
        }
    }
}

impl Density1d for Bernoulli {
    fn density(&self, x: f64) -> f64 {
        self.pmf(x)
    }

    fn max_density(&self) -> f64 {
        self.p_one.max(1.0 - self.p_one)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bernoulli_fit_with_smoothing() {
        // 8 ones out of 10 → smoothed (8+1)/(10+2) = 0.75.
        let samples = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0];
        let b = Bernoulli::fit(&samples).unwrap();
        assert!((b.p_one() - 0.75).abs() < 1e-12);
        assert!((b.pmf(1.0) - 0.75).abs() < 1e-12);
        assert!((b.pmf(0.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn bernoulli_all_ones_never_certain() {
        let b = Bernoulli::fit(&[1.0; 100]).unwrap();
        assert!(b.pmf(0.0) > 0.0);
        assert!(b.pmf(1.0) < 1.0);
    }

    #[test]
    fn bernoulli_relative_likelihood() {
        let b = Bernoulli::from_p(0.9).unwrap();
        assert!((b.relative_likelihood(1.0) - 1.0).abs() < 1e-12);
        assert!((b.relative_likelihood(0.0) - 0.1 / 0.9).abs() < 1e-12);
    }

    #[test]
    fn bernoulli_from_p_validation() {
        assert!(Bernoulli::from_p(1.5).is_err());
        assert!(Bernoulli::from_p(-0.1).is_err());
        assert!(Bernoulli::from_p(f64::NAN).is_err());
    }

    proptest! {
        #[test]
        fn prop_bernoulli_mass_sums_to_one(
            xs in proptest::collection::vec(0.0f64..1.0, 1..100),
        ) {
            let b = Bernoulli::fit(&xs).unwrap();
            prop_assert!((b.pmf(0.0) + b.pmf(1.0) - 1.0).abs() < 1e-12);
        }
    }
}
