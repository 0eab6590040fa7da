//! The smoothing kernel for kernel density estimation.

use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// The smoothing kernel: a symmetric probability density `K(u)` on ℝ.
///
/// The Gaussian is the only kernel; the enum survives as the kernel marker
/// both library formats record (`"kernel": "Gaussian"` in JSON, tag `0` in
/// `.flcb`), so a file naming any other kernel is rejected on load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Kernel {
    /// Standard normal density.
    Gaussian,
}

impl Kernel {
    /// Kernel density at `u` (already scaled by bandwidth by the caller).
    #[inline]
    pub fn eval(self, u: f64) -> f64 {
        (-0.5 * u * u).exp() / (2.0 * PI).sqrt()
    }

    /// Radius beyond which the kernel is (numerically) zero, in bandwidth
    /// units. Used to truncate sums: exp(-0.5 · 8.5²) ≈ 2e-16, below f64
    /// epsilon relative to the peak.
    #[inline]
    pub fn support_radius(self) -> f64 {
        8.5
    }

    /// Peak value `K(0)`.
    #[inline]
    pub fn peak(self) -> f64 {
        1.0 / (2.0 * PI).sqrt()
    }

    /// Stable one-byte wire tag (the `.flcb` binary library format).
    #[inline]
    pub fn tag(self) -> u8 {
        0
    }

    /// Inverse of [`tag`](Self::tag); `None` for unknown wire bytes.
    #[inline]
    pub fn from_tag(tag: u8) -> Option<Self> {
        (tag == 0).then_some(Kernel::Gaussian)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const K: Kernel = Kernel::Gaussian;

    #[test]
    fn peak_matches_eval_at_zero() {
        assert!((K.eval(0.0) - K.peak()).abs() < 1e-12);
    }

    #[test]
    fn kernels_are_symmetric() {
        for u in [0.1, 0.5, 0.9, 1.5, 3.0] {
            assert!((K.eval(u) - K.eval(-u)).abs() < 1e-12, "at {}", u);
        }
    }

    #[test]
    fn kernels_integrate_to_one() {
        // Trapezoidal integration over the support.
        let r = K.support_radius();
        let n = 20_000;
        let dx = 2.0 * r / n as f64;
        let mut sum = 0.0;
        for i in 0..=n {
            let x = -r + i as f64 * dx;
            let w = if i == 0 || i == n { 0.5 } else { 1.0 };
            sum += w * K.eval(x);
        }
        sum *= dx;
        assert!((sum - 1.0).abs() < 1e-3, "integrates to {}", sum);
    }

    proptest! {
        #[test]
        fn prop_nonnegative_and_bounded(u in -20.0f64..20.0) {
            let v = K.eval(u);
            prop_assert!(v >= 0.0);
            prop_assert!(v <= K.peak() + 1e-12);
        }

        #[test]
        fn prop_zero_outside_support_radius(u in 1.0f64..100.0) {
            prop_assert!(K.eval(K.support_radius() + u) < 1e-15);
        }
    }
}
