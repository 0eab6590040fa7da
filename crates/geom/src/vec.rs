//! Plain 2D/3D vectors.
//!
//! These are deliberately minimal value types (no SIMD, no generic scalar):
//! the workloads in this repository are dominated by KDE evaluation and
//! polygon clipping, not vector arithmetic, and `f64` keeps the feature
//! distributions numerically comfortable.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 2D vector / point in the bird's-eye-view plane.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    pub x: f64,
    pub y: f64,
}

impl Vec2 {
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean norm (avoids the sqrt when only comparing).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2D cross product (z component of the 3D cross product). Positive when
    /// `other` is counter-clockwise from `self`.
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Rotate counter-clockwise by `yaw` radians.
    #[inline]
    pub fn rotated(self, yaw: f64) -> Vec2 {
        let (s, c) = yaw.sin_cos();
        self.rotated_sin_cos(s, c)
    }

    /// [`rotated`](Self::rotated) by the angle whose `sin_cos()` is
    /// `(s, c)` — for callers rotating many points by one angle.
    #[inline]
    pub fn rotated_sin_cos(self, s: f64, c: f64) -> Vec2 {
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// The polar angle `atan2(y, x)` of this point, in `(-π, π]`.
    #[inline]
    pub fn azimuth(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// True when both components are finite (no NaN/inf).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

/// A 3D vector / point. `z` is up.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };

    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Project onto the BEV plane, dropping z.
    #[inline]
    pub fn bev(self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// Distance in the BEV plane only (the paper's "distance to AV" feature
    /// is ground distance, ignoring height).
    #[inline]
    pub fn ground_distance(self, other: Vec3) -> f64 {
        self.bev().distance(other.bev())
    }

    /// True when all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec2_arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Vec2::new(1.5, -0.5));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn vec2_norm_and_distance() {
        assert!((Vec2::new(3.0, 4.0).norm() - 5.0).abs() < 1e-12);
        assert!((Vec2::new(3.0, 4.0).norm_sq() - 25.0).abs() < 1e-12);
        assert!((Vec2::new(1.0, 1.0).distance(Vec2::new(4.0, 5.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn vec2_dot_cross() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
    }

    #[test]
    fn vec2_rotation_quarter_turn() {
        let a = Vec2::new(1.0, 0.0);
        let r = a.rotated(std::f64::consts::FRAC_PI_2);
        assert!((r.x - 0.0).abs() < 1e-12);
        assert!((r.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vec2_rotation_preserves_norm() {
        let a = Vec2::new(2.5, -1.5);
        for i in 0..16 {
            let yaw = i as f64 * 0.5;
            assert!((a.rotated(yaw).norm() - a.norm()).abs() < 1e-12);
        }
    }

    #[test]
    fn vec2_azimuth() {
        assert!((Vec2::new(1.0, 0.0).azimuth() - 0.0).abs() < 1e-12);
        assert!((Vec2::new(0.0, 1.0).azimuth() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((Vec2::new(-1.0, 0.0).azimuth().abs() - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn vec2_lerp_endpoints_and_midpoint() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(1.0, 2.0));
    }

    #[test]
    fn vec3_bev_projection() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v.bev(), Vec2::new(1.0, 2.0));
    }

    #[test]
    fn vec3_ground_distance_ignores_height() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(3.0, 4.0, 100.0);
        assert!((a.ground_distance(b) - 5.0).abs() < 1e-12);
        assert!(a.distance(b) > 100.0);
    }

    #[test]
    fn finite_checks() {
        assert!(Vec2::new(1.0, 2.0).is_finite());
        assert!(!Vec2::new(f64::NAN, 2.0).is_finite());
        assert!(!Vec3::new(1.0, f64::INFINITY, 2.0).is_finite());
    }
}
