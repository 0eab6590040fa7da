//! SE(2) rigid transforms.
//!
//! The world simulator keeps object trajectories in a fixed world frame and
//! the ego vehicle's pose per frame; observations are expressed in the ego
//! frame (as AV perception stacks do). `Pose2` provides the frame changes.

use crate::angle::normalize_angle;
use crate::vec::Vec2;
use serde::{Deserialize, Serialize};

/// A 2D rigid transform: rotation by `yaw` followed by translation.
///
/// `pose.transform(p)` maps a point from the pose's local frame into the
/// parent frame; e.g. with `ego_pose` being the ego vehicle's world pose,
/// `ego_pose.transform(p_ego)` yields world coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pose2 {
    pub translation: Vec2,
    pub yaw: f64,
}

impl Default for Pose2 {
    fn default() -> Self {
        Pose2::identity()
    }
}

impl Pose2 {
    pub fn new(translation: Vec2, yaw: f64) -> Self {
        Pose2 { translation, yaw: normalize_angle(yaw) }
    }

    pub fn identity() -> Self {
        Pose2 { translation: Vec2::ZERO, yaw: 0.0 }
    }

    /// Map a point from the local frame to the parent frame.
    #[inline]
    pub fn transform(&self, p: Vec2) -> Vec2 {
        p.rotated(self.yaw) + self.translation
    }

    /// The inverse transform as a pose.
    pub fn inverse(&self) -> Pose2 {
        Pose2::new((-self.translation).rotated(-self.yaw), -self.yaw)
    }

    /// Compose: apply `other` first, then `self`.
    pub fn compose(&self, other: &Pose2) -> Pose2 {
        Pose2::new(
            self.transform(other.translation),
            normalize_angle(self.yaw + other.yaw),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn identity_is_noop() {
        let p = Vec2::new(3.0, -2.0);
        assert_eq!(Pose2::identity().transform(p), p);
        assert_eq!(Pose2::identity().inverse().transform(p), p);
    }

    #[test]
    fn translation_only() {
        let pose = Pose2::new(Vec2::new(1.0, 2.0), 0.0);
        assert_eq!(pose.transform(Vec2::ZERO), Vec2::new(1.0, 2.0));
        assert_eq!(pose.inverse().transform(Vec2::new(1.0, 2.0)), Vec2::ZERO);
    }

    #[test]
    fn rotation_only_quarter_turn() {
        let pose = Pose2::new(Vec2::ZERO, FRAC_PI_2);
        let q = pose.transform(Vec2::new(1.0, 0.0));
        assert!((q.x).abs() < 1e-12);
        assert!((q.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_composes_to_identity() {
        let pose = Pose2::new(Vec2::new(5.0, -1.0), 0.7);
        let id = pose.compose(&pose.inverse());
        assert!(id.translation.norm() < 1e-12);
        assert!(id.yaw.abs() < 1e-12);
    }

    #[test]
    fn compose_matches_sequential_transform() {
        let a = Pose2::new(Vec2::new(1.0, 0.0), 0.3);
        let b = Pose2::new(Vec2::new(0.0, 2.0), -0.8);
        let p = Vec2::new(0.5, 0.25);
        let via_compose = a.compose(&b).transform(p);
        let sequential = a.transform(b.transform(p));
        assert!((via_compose - sequential).norm() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            tx in -100.0f64..100.0, ty in -100.0f64..100.0, yaw in -6.3f64..6.3,
            px in -100.0f64..100.0, py in -100.0f64..100.0,
        ) {
            let pose = Pose2::new(Vec2::new(tx, ty), yaw);
            let p = Vec2::new(px, py);
            let rt = pose.inverse().transform(pose.transform(p));
            prop_assert!((rt - p).norm() < 1e-8);
        }

        #[test]
        fn prop_transform_preserves_distance(
            tx in -50.0f64..50.0, ty in -50.0f64..50.0, yaw in -6.3f64..6.3,
            ax in -50.0f64..50.0, ay in -50.0f64..50.0,
            bx in -50.0f64..50.0, by in -50.0f64..50.0,
        ) {
            let pose = Pose2::new(Vec2::new(tx, ty), yaw);
            let a = Vec2::new(ax, ay);
            let b = Vec2::new(bx, by);
            let before = a.distance(b);
            let after = pose.transform(a).distance(pose.transform(b));
            prop_assert!((before - after).abs() < 1e-8);
        }
    }
}
