//! Oriented 3D bounding boxes.
//!
//! An observation in the LOA DSL is a 3D box over LIDAR point cloud data:
//! a center, an extent (length along the heading, width across it, height
//! up), and a yaw in the BEV plane. Boxes are axis-aligned in z, matching
//! the Lyft Level 5 / nuScenes-style annotation convention.

use crate::polygon::ConvexPolygon;
use crate::vec::{Vec2, Vec3};
use serde::{Deserialize, Serialize};

/// Extent of an oriented box. All components must be positive and finite.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Size3 {
    /// Extent along the box heading (x in box frame).
    pub length: f64,
    /// Extent across the heading (y in box frame).
    pub width: f64,
    /// Vertical extent (z).
    pub height: f64,
}

impl Size3 {
    pub fn new(length: f64, width: f64, height: f64) -> Self {
        Size3 { length, width, height }
    }

    /// Volume of a box with this extent.
    #[inline]
    pub fn volume(&self) -> f64 {
        self.length * self.width * self.height
    }

    /// True when all extents are strictly positive and finite.
    pub fn is_valid(&self) -> bool {
        self.length.is_finite()
            && self.width.is_finite()
            && self.height.is_finite()
            && self.length > 0.0
            && self.width > 0.0
            && self.height > 0.0
    }
}

/// An oriented 3D bounding box (yaw-only orientation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Box3 {
    /// Center of the box (z is the vertical center, not the ground).
    pub center: Vec3,
    pub size: Size3,
    /// Heading in the BEV plane, radians, counter-clockwise from +x.
    pub yaw: f64,
}

impl Box3 {
    pub fn new(center: Vec3, size: Size3, yaw: f64) -> Self {
        Box3 { center, size, yaw }
    }

    /// Convenience constructor from scalars, placing the box bottom at
    /// `ground_z` (center z becomes `ground_z + height / 2`).
    #[allow(clippy::too_many_arguments)]
    pub fn on_ground(
        x: f64,
        y: f64,
        ground_z: f64,
        length: f64,
        width: f64,
        height: f64,
        yaw: f64,
    ) -> Self {
        Box3::new(
            Vec3::new(x, y, ground_z + height / 2.0),
            Size3::new(length, width, height),
            yaw,
        )
    }

    /// Box volume in cubic meters — the paper's canonical observation
    /// feature (Section 3 worked example).
    #[inline]
    pub fn volume(&self) -> f64 {
        self.size.volume()
    }

    /// Ground-plane (BEV) distance from the origin of the box's frame —
    /// with ego-frame boxes this is the paper's "distance to AV" feature.
    #[inline]
    pub fn ground_distance_to_origin(&self) -> f64 {
        self.center.bev().norm()
    }

    /// The four BEV footprint corners, counter-clockwise.
    pub fn bev_corners(&self) -> [Vec2; 4] {
        // One sin_cos for all four corners (`Vec2::rotated` would
        // recompute it per corner).
        let (s, c) = self.yaw.sin_cos();
        self.corners_sin_cos(s, c)
    }

    /// BEV footprint polygon.
    pub fn bev_polygon(&self) -> ConvexPolygon {
        ConvexPolygon::new(self.bev_corners().to_vec())
    }

    /// Axis-aligned bounds of the BEV footprint — the primitive the
    /// [`BevGrid`](crate::BevGrid) spatial index bins — and the
    /// [`bev_corners`](Self::bev_corners), from one `sin_cos`: the
    /// footprint geometry association prepares once per box. The bounds
    /// are closed form (no corner materialization): a rotated `l × w`
    /// rectangle spans `l·|cos| + w·|sin|` along x and `l·|sin| + w·|cos|`
    /// along y.
    #[inline]
    pub fn bev_aabb_and_corners(&self) -> (crate::Aabb2, [Vec2; 4]) {
        let (s, c) = self.yaw.sin_cos();
        let (sa, ca) = (s.abs(), c.abs());
        let hx = 0.5 * (self.size.length * ca + self.size.width * sa);
        let hy = 0.5 * (self.size.length * sa + self.size.width * ca);
        let center = self.center.bev();
        let aabb = crate::Aabb2::new(
            Vec2::new(center.x - hx, center.y - hy),
            Vec2::new(center.x + hx, center.y + hy),
        );
        (aabb, self.corners_sin_cos(s, c))
    }

    #[inline]
    fn corners_sin_cos(&self, s: f64, cos: f64) -> [Vec2; 4] {
        let hl = self.size.length / 2.0;
        let hw = self.size.width / 2.0;
        let c = self.center.bev();
        let rot = |x: f64, y: f64| Vec2::new(x * cos - y * s, x * s + y * cos);
        [c + rot(hl, hw), c + rot(-hl, hw), c + rot(-hl, -hw), c + rot(hl, -hw)]
    }

    /// BEV footprint area.
    #[inline]
    pub fn bev_area(&self) -> f64 {
        self.size.length * self.size.width
    }

    /// Vertical interval `[z_min, z_max]`.
    #[inline]
    pub fn z_interval(&self) -> (f64, f64) {
        let h = self.size.height / 2.0;
        (self.center.z - h, self.center.z + h)
    }

    /// True if `p` lies inside the box (inclusive of the boundary).
    pub fn contains(&self, p: Vec3) -> bool {
        let (zmin, zmax) = self.z_interval();
        if p.z < zmin || p.z > zmax {
            return false;
        }
        let local = (p.bev() - self.center.bev()).rotated(-self.yaw);
        local.x.abs() <= self.size.length / 2.0 + crate::GEOM_EPS
            && local.y.abs() <= self.size.width / 2.0 + crate::GEOM_EPS
    }

    /// Center-to-center distance in the BEV plane.
    #[inline]
    pub fn bev_center_distance(&self, other: &Box3) -> f64 {
        self.center.bev().distance(other.center.bev())
    }

    /// True when every field is finite and the extent is positive — the
    /// validity gate used by dataset loaders and scene constructors.
    pub fn is_valid(&self) -> bool {
        self.center.is_finite() && self.size.is_valid() && self.yaw.is_finite()
    }

    /// The box translated by `delta` (world-frame shift).
    pub fn translated(&self, delta: Vec3) -> Box3 {
        Box3::new(self.center + delta, self.size, self.yaw)
    }

    /// The box with extents scaled by `factor` (> 0) about its center.
    pub fn scaled(&self, factor: f64) -> Box3 {
        Box3::new(
            self.center,
            Size3::new(
                self.size.length * factor,
                self.size.width * factor,
                self.size.height * factor,
            ),
            self.yaw,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::FRAC_PI_2;

    fn unit_box() -> Box3 {
        Box3::new(Vec3::ZERO, Size3::new(1.0, 1.0, 1.0), 0.0)
    }

    #[test]
    fn volume_matches_extents() {
        let b = Box3::new(Vec3::ZERO, Size3::new(4.5, 1.9, 1.6), 0.3);
        assert!((b.volume() - 4.5 * 1.9 * 1.6).abs() < 1e-12);
    }

    #[test]
    fn on_ground_places_bottom_at_ground() {
        let b = Box3::on_ground(1.0, 2.0, 0.0, 4.0, 2.0, 1.5, 0.0);
        let (zmin, zmax) = b.z_interval();
        assert!((zmin - 0.0).abs() < 1e-12);
        assert!((zmax - 1.5).abs() < 1e-12);
    }

    #[test]
    fn bev_corners_axis_aligned() {
        let b = Box3::new(Vec3::ZERO, Size3::new(4.0, 2.0, 1.0), 0.0);
        let cs = b.bev_corners();
        // Length along x, width along y.
        assert!(cs
            .iter()
            .any(|c| (c.x - 2.0).abs() < 1e-12 && (c.y - 1.0).abs() < 1e-12));
        assert!(cs
            .iter()
            .any(|c| (c.x + 2.0).abs() < 1e-12 && (c.y + 1.0).abs() < 1e-12));
    }

    #[test]
    fn bev_corners_rotated_quarter_turn_swaps_axes() {
        let b = Box3::new(Vec3::ZERO, Size3::new(4.0, 2.0, 1.0), FRAC_PI_2);
        let poly = b.bev_polygon();
        // After a quarter turn, the footprint spans [-1,1] in x and [-2,2] in y.
        assert!(poly.contains(Vec2::new(0.0, 1.9)));
        assert!(!poly.contains(Vec2::new(1.9, 0.0)));
    }

    #[test]
    fn polygon_area_equals_footprint() {
        let b = Box3::new(Vec3::new(3.0, -1.0, 0.5), Size3::new(4.5, 1.9, 1.6), 0.77);
        assert!((b.bev_polygon().area() - b.bev_area()).abs() < 1e-9);
    }

    #[test]
    fn contains_center_and_corners() {
        let b = Box3::new(Vec3::new(1.0, 2.0, 1.0), Size3::new(2.0, 2.0, 2.0), 0.4);
        assert!(b.contains(b.center));
        assert!(!b.contains(b.center + Vec3::new(0.0, 0.0, 1.5)));
        assert!(!b.contains(b.center + Vec3::new(5.0, 0.0, 0.0)));
    }

    #[test]
    fn validity_gate() {
        assert!(unit_box().is_valid());
        assert!(
            !Box3::new(Vec3::new(f64::NAN, 0.0, 0.0), Size3::new(1.0, 1.0, 1.0), 0.0).is_valid()
        );
        assert!(!Box3::new(Vec3::ZERO, Size3::new(0.0, 1.0, 1.0), 0.0).is_valid());
        assert!(!Box3::new(Vec3::ZERO, Size3::new(-1.0, 1.0, 1.0), 0.0).is_valid());
        assert!(!Box3::new(Vec3::ZERO, Size3::new(1.0, 1.0, 1.0), f64::INFINITY).is_valid());
    }

    #[test]
    fn translated_and_scaled() {
        let b = unit_box().translated(Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(b.center, Vec3::new(1.0, 2.0, 3.0));
        let s = unit_box().scaled(2.0);
        assert!((s.volume() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn bev_aabb_axis_aligned_box() {
        let b = Box3::new(Vec3::new(1.0, -2.0, 0.5), Size3::new(4.0, 2.0, 1.0), 0.0);
        let a = b.bev_aabb_and_corners().0;
        assert!((a.min.x - -1.0).abs() < 1e-12);
        assert!((a.max.x - 3.0).abs() < 1e-12);
        assert!((a.min.y - -3.0).abs() < 1e-12);
        assert!((a.max.y - -1.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_bev_aabb_contains_all_corners(
            x in -50.0f64..50.0, y in -50.0f64..50.0,
            l in 0.3f64..10.0, w in 0.3f64..4.0, yaw in -6.3f64..6.3,
        ) {
            let b = Box3::on_ground(x, y, 0.0, l, w, 1.5, yaw);
            let a = b.bev_aabb_and_corners().0;
            prop_assert!(a.is_valid());
            for c in b.bev_corners() {
                prop_assert!(c.x >= a.min.x - 1e-9 && c.x <= a.max.x + 1e-9);
                prop_assert!(c.y >= a.min.y - 1e-9 && c.y <= a.max.y + 1e-9);
            }
            // And it is tight: the span equals the corner span.
            let xs: Vec<f64> = b.bev_corners().iter().map(|c| c.x).collect();
            let max_x = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!((a.max.x - max_x).abs() < 1e-9);
        }

        #[test]
        fn prop_footprint_contains_center(
            x in -50.0f64..50.0, y in -50.0f64..50.0,
            l in 0.3f64..10.0, w in 0.3f64..4.0, yaw in -6.3f64..6.3,
        ) {
            let b = Box3::on_ground(x, y, 0.0, l, w, 1.5, yaw);
            prop_assert!(b.bev_polygon().contains(Vec2::new(x, y)));
        }

        #[test]
        fn prop_footprint_area_invariant_under_yaw(
            l in 0.3f64..10.0, w in 0.3f64..4.0, yaw in -6.3f64..6.3,
        ) {
            let b0 = Box3::on_ground(0.0, 0.0, 0.0, l, w, 1.5, 0.0);
            let b1 = Box3::on_ground(0.0, 0.0, 0.0, l, w, 1.5, yaw);
            prop_assert!((b0.bev_polygon().area() - b1.bev_polygon().area()).abs() < 1e-7);
        }

        #[test]
        fn prop_contains_random_interior_points(
            l in 0.5f64..8.0, w in 0.5f64..3.0, h in 0.5f64..3.0,
            yaw in -6.3f64..6.3,
            fx in -0.49f64..0.49, fy in -0.49f64..0.49, fz in -0.49f64..0.49,
        ) {
            let b = Box3::new(Vec3::new(2.0, -3.0, 1.0), Size3::new(l, w, h), yaw);
            // A point expressed in box-local fractional coordinates.
            let local = Vec2::new(fx * l, fy * w).rotated(yaw);
            let p = Vec3::new(
                b.center.x + local.x,
                b.center.y + local.y,
                b.center.z + fz * h,
            );
            prop_assert!(b.contains(p));
        }
    }
}
