//! Statistics substrate for the Fixy / Learned Observation Assertions
//! reproduction.
//!
//! Section 5 of the paper: *"Fixy takes a function that accepts a list of
//! scalars/vectors and returns a fitted distribution. By default, Fixy uses
//! a kernel density estimator (KDE) to learn feature distributions over the
//! features."* This crate provides that fitting machinery:
//!
//! * [`Kde1d`] — Gaussian kernel density estimation with Silverman's
//!   bandwidth (the "default hyperparameters" the paper says work in all
//!   cases they tried), the one fitted form every application learns,
//! * [`BinnedKde`] — the interpolated scoring grid each [`Kde1d`] owns,
//! * [`summary`] — the Welford accumulator and quantiles behind the
//!   bandwidth rule,
//! * [`sort`] — the stable key sort every fit orders its sample with.
//!
//! Both implement [`Density1d`], whose
//! [`relative_likelihood`](Density1d::relative_likelihood) maps a feature
//! value to `(0, 1]` by normalizing the density by the fitted maximum — the
//! probability-like quantity the LOA scoring semantics (Section 6) take the
//! log of.

pub mod bandwidth;
pub mod kde;
pub mod kernel;
pub mod sort;
pub mod summary;

pub use kde::{BinnedKde, Kde1d};
pub use kernel::Kernel;

use serde::{Deserialize, Serialize};

/// Smallest relative likelihood a fitted distribution reports for finite
/// inputs. Keeps `ln(p)` finite; AOF zeroing is the only source of true
/// zeros in LOA scoring.
pub const P_FLOOR: f64 = 1e-9;

/// Errors from fitting a distribution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FitError {
    /// The training sample was empty.
    EmptySample,
    /// The training sample contained NaN or infinite values.
    NonFiniteSample,
    /// Stored fit parts (a loaded library) break a fitted invariant: a
    /// scale that is not finite and positive, or a negative or
    /// non-finite density.
    Implausible(String),
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::EmptySample => write!(f, "cannot fit a distribution to an empty sample"),
            FitError::NonFiniteSample => {
                write!(f, "training sample contains NaN or infinite values")
            }
            FitError::Implausible(what) => write!(f, "implausible {what}"),
        }
    }
}

impl std::error::Error for FitError {}

/// A fitted one-dimensional density.
///
/// The LOA scoring semantics need a probability-like value in `(0, 1]` per
/// feature evaluation; [`relative_likelihood`](Self::relative_likelihood)
/// provides it as `density(x) / max_density`, floored at [`P_FLOOR`].
pub trait Density1d {
    /// Probability density at `x` (non-negative; integrates to ~1).
    fn density(&self, x: f64) -> f64;

    /// The maximum density value attained by the fitted distribution
    /// (estimated at fit time).
    fn max_density(&self) -> f64;

    /// Relative likelihood in `[P_FLOOR, 1]`: density normalized by the
    /// fitted mode. Non-finite inputs map to the floor.
    fn relative_likelihood(&self, x: f64) -> f64 {
        if !x.is_finite() || self.max_density() <= 0.0 {
            return P_FLOOR;
        }
        (self.density(x) / self.max_density()).clamp(P_FLOOR, 1.0)
    }
}

/// Validate that a training sample is non-empty and finite.
pub(crate) fn validate_sample(samples: &[f64]) -> Result<(), FitError> {
    if samples.is_empty() {
        return Err(FitError::EmptySample);
    }
    if samples.iter().any(|x| !x.is_finite()) {
        return Err(FitError::NonFiniteSample);
    }
    Ok(())
}

/// `Deserialize` for a fitted distribution: decode its stored fields
/// through `$stored` (a derived twin of the wire format), then rebuild
/// through `$build` — the validating `from_parts` constructor the binary
/// library codec uses too, so both library formats accept and reject
/// exactly the same stored values.
macro_rules! deserialize_via_parts {
    ($ty:ty, $stored:ty, |$s:ident| $build:expr) => {
        impl serde::Deserialize for $ty {
            fn from_json_value(v: &serde::Value) -> Result<Self, serde::DeError> {
                let $s = <$stored as serde::Deserialize>::from_json_value(v)?;
                $build.map_err(|e| serde::DeError::custom(e.to_string()))
            }

            fn from_json_stream(
                r: &mut serde::json::JsonReader<'_>,
            ) -> Result<Self, serde::DeError> {
                let $s = <$stored as serde::Deserialize>::from_json_stream(r)?;
                $build.map_err(|e| serde::DeError::custom(e.to_string()))
            }
        }
    };
}
pub(crate) use deserialize_via_parts;

/// Check a stored scale — bandwidth, grid step or normalizer: finite
/// and positive.
pub(crate) fn check_scale(what: &str, x: f64) -> Result<(), FitError> {
    if x.is_finite() && x > 0.0 {
        Ok(())
    } else {
        Err(FitError::Implausible(format!("{what} {x}")))
    }
}

/// Check stored densities: finite and non-negative.
pub(crate) fn check_densities(what: &str, densities: &[f64]) -> Result<(), FitError> {
    match densities.iter().find(|d| !(d.is_finite() && **d >= 0.0)) {
        Some(d) => Err(FitError::Implausible(format!("{what} density {d}"))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Flat;
    impl Density1d for Flat {
        fn density(&self, x: f64) -> f64 {
            if (0.0..=1.0).contains(&x) {
                1.0
            } else {
                0.0
            }
        }
        fn max_density(&self) -> f64 {
            1.0
        }
    }

    #[test]
    fn relative_likelihood_default_impl() {
        let d = Flat;
        assert_eq!(d.relative_likelihood(0.5), 1.0);
        assert_eq!(d.relative_likelihood(2.0), P_FLOOR);
        assert_eq!(d.relative_likelihood(f64::NAN), P_FLOOR);
        assert_eq!(d.relative_likelihood(f64::INFINITY), P_FLOOR);
    }

    #[test]
    fn fit_error_display() {
        assert!(FitError::EmptySample.to_string().contains("empty"));
        assert!(FitError::NonFiniteSample.to_string().contains("NaN"));
        assert_eq!(
            FitError::Implausible("kde bandwidth 0".into()).to_string(),
            "implausible kde bandwidth 0"
        );
    }

    #[test]
    fn validate_sample_gates() {
        assert_eq!(validate_sample(&[]), Err(FitError::EmptySample));
        assert_eq!(validate_sample(&[1.0, f64::NAN]), Err(FitError::NonFiniteSample));
        assert_eq!(validate_sample(&[1.0, 2.0]), Ok(()));
    }
}
