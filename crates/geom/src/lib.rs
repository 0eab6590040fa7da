//! Geometry substrate for the Fixy / Learned Observation Assertions
//! reproduction.
//!
//! Perception observations in the paper are oriented 3D bounding boxes over
//! LIDAR point clouds. Everything Fixy does with them — associating
//! observations by overlap, computing volume/velocity/distance features,
//! simulating detectors — bottoms out in the primitives provided here:
//!
//! * [`Vec2`] / [`Vec3`] — plain value vectors,
//! * [`Pose2`] — SE(2) rigid transforms for ego↔world frame changes,
//! * [`ConvexPolygon`] — convex BEV footprints with Sutherland–Hodgman
//!   clipping,
//! * [`Box3`] — oriented boxes (center, size, yaw),
//! * [`iou`] — bird's-eye-view intersection-over-union,
//! * [`Aabb2`] / [`BevGrid`] — axis-aligned footprint bounds and the
//!   uniform spatial bin index the association passes prune through.
//!
//! All angles are radians; the bird's-eye-view (BEV) plane is x/y with z up,
//! matching the usual AV convention (x forward, y left from the ego vehicle).

pub mod aabb;
pub mod angle;
pub mod box3;
pub mod grid;
pub mod iou;
pub mod polygon;
pub mod pose;
pub mod vec;

pub use aabb::Aabb2;
pub use angle::{angle_diff, normalize_angle, undirected_angle_diff};
pub use box3::{Box3, Size3};
pub use grid::BevGrid;
pub use iou::{iou_bev, iou_bev_prepared};
pub use polygon::ConvexPolygon;
pub use pose::Pose2;
pub use vec::{Vec2, Vec3};

/// Numerical tolerance used across the geometry crate for degenerate-shape
/// checks (zero-area polygons, coincident points).
pub const GEOM_EPS: f64 = 1e-9;
