//! Intersection-over-union between oriented boxes.
//!
//! The LOA DSL associates observations into bundles and tracks by box
//! overlap (`compute_iou(box1, box2) > 0.5` in the paper's `TrackBundler`
//! example). BEV IOU is the workhorse; volumetric IOU adds the vertical
//! overlap term and is used by evaluation matching.

use crate::box3::Box3;
use crate::polygon::box_clip_area;
use crate::vec::Vec2;

/// BEV footprint intersection area of two boxes, allocation-free: corner
/// arrays straight into the fixed-buffer 4 × 4 box clip.
fn bev_intersection_area(a: &Box3, b: &Box3) -> f64 {
    box_clip_area(&a.bev_corners(), &b.bev_corners())
}

/// [`iou_bev`] over precomputed footprint corners and areas — for callers
/// (the association passes) that evaluate many pairs per box and have
/// already AABB-filtered them, so the corner trigonometry and the
/// circumradius reject would be pure per-pair overhead. Same value as
/// [`iou_bev`] on every pair whose AABBs intersect (on pairs the
/// circumradius test would have rejected, the clip finds area 0 and both
/// return exactly 0).
pub fn iou_bev_prepared(
    corners_a: &[Vec2; 4],
    area_a: f64,
    corners_b: &[Vec2; 4],
    area_b: f64,
) -> f64 {
    let inter = box_clip_area(corners_a, corners_b);
    let union = area_a + area_b - inter;
    if union <= 0.0 || !union.is_finite() {
        return 0.0;
    }
    (inter / union).clamp(0.0, 1.0)
}

/// Bird's-eye-view IOU of two oriented boxes (footprint polygons).
/// Returns 0 for invalid/degenerate boxes rather than NaN.
pub fn iou_bev(a: &Box3, b: &Box3) -> f64 {
    // Cheap reject: footprint circumradius test avoids polygon clipping for
    // the overwhelmingly common far-apart case (association runs this over
    // all box pairs in a frame). Plain sqrt of the squared diagonal — the
    // inputs are meters-scale box extents, far from `hypot`'s
    // overflow/underflow territory, and sqrt is several times cheaper.
    let ra = 0.5 * (a.size.length * a.size.length + a.size.width * a.size.width).sqrt();
    let rb = 0.5 * (b.size.length * b.size.length + b.size.width * b.size.width).sqrt();
    let (dx, dy) = (a.center.x - b.center.x, a.center.y - b.center.y);
    if dx * dx + dy * dy > (ra + rb) * (ra + rb) {
        return 0.0;
    }
    let inter = bev_intersection_area(a, b);
    let union = a.bev_area() + b.bev_area() - inter;
    if union <= 0.0 || !union.is_finite() {
        return 0.0;
    }
    (inter / union).clamp(0.0, 1.0)
}

/// Volumetric IOU: BEV intersection area times vertical overlap, over the
/// union of volumes.
pub fn iou_3d(a: &Box3, b: &Box3) -> f64 {
    let (amin, amax) = a.z_interval();
    let (bmin, bmax) = b.z_interval();
    let z_overlap = (amax.min(bmax) - amin.max(bmin)).max(0.0);
    if z_overlap == 0.0 {
        return 0.0;
    }
    let inter = bev_intersection_area(a, b) * z_overlap;
    let union = a.volume() + b.volume() - inter;
    if union <= 0.0 || !union.is_finite() {
        return 0.0;
    }
    (inter / union).clamp(0.0, 1.0)
}

/// Fraction of `a`'s footprint covered by `b` (asymmetric overlap, used by
/// the multibox assertion where containment matters more than IOU).
pub fn bev_overlap_fraction(a: &Box3, b: &Box3) -> f64 {
    let area = a.bev_area();
    if area <= 0.0 {
        return 0.0;
    }
    (bev_intersection_area(a, b) / area).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::box3::Size3;
    use crate::vec::Vec3;
    use proptest::prelude::*;

    fn boxed(x: f64, y: f64, l: f64, w: f64, yaw: f64) -> Box3 {
        Box3::on_ground(x, y, 0.0, l, w, 1.6, yaw)
    }

    #[test]
    fn identical_boxes_have_iou_one() {
        let b = boxed(1.0, 2.0, 4.5, 1.9, 0.3);
        assert!((iou_bev(&b, &b) - 1.0).abs() < 1e-9);
        assert!((iou_3d(&b, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_boxes_have_iou_zero() {
        let a = boxed(0.0, 0.0, 4.0, 2.0, 0.0);
        let b = boxed(100.0, 0.0, 4.0, 2.0, 0.0);
        assert_eq!(iou_bev(&a, &b), 0.0);
        assert_eq!(iou_3d(&a, &b), 0.0);
    }

    #[test]
    fn half_shifted_axis_aligned_iou() {
        // Two 4x2 boxes shifted by 2 along x: intersection 2*2=4, union 8+8-4=12.
        let a = boxed(0.0, 0.0, 4.0, 2.0, 0.0);
        let b = boxed(2.0, 0.0, 4.0, 2.0, 0.0);
        assert!((iou_bev(&a, &b) - 4.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn vertical_separation_kills_3d_iou_only() {
        let a = Box3::new(Vec3::new(0.0, 0.0, 0.5), Size3::new(4.0, 2.0, 1.0), 0.0);
        let b = Box3::new(Vec3::new(0.0, 0.0, 5.0), Size3::new(4.0, 2.0, 1.0), 0.0);
        assert!((iou_bev(&a, &b) - 1.0).abs() < 1e-9);
        assert_eq!(iou_3d(&a, &b), 0.0);
    }

    #[test]
    fn partial_vertical_overlap() {
        let a = Box3::new(Vec3::new(0.0, 0.0, 0.5), Size3::new(2.0, 2.0, 1.0), 0.0);
        let b = Box3::new(Vec3::new(0.0, 0.0, 1.0), Size3::new(2.0, 2.0, 1.0), 0.0);
        // z overlap = 0.5, intersection vol = 4*0.5 = 2, union = 4+4-2 = 6.
        assert!((iou_3d(&a, &b) - 2.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn overlap_fraction_is_asymmetric() {
        let small = boxed(0.0, 0.0, 1.0, 1.0, 0.0);
        let big = boxed(0.0, 0.0, 10.0, 10.0, 0.0);
        assert!((bev_overlap_fraction(&small, &big) - 1.0).abs() < 1e-9);
        assert!((bev_overlap_fraction(&big, &small) - 0.01).abs() < 1e-9);
    }

    #[test]
    fn rotated_iou_against_known_octagon() {
        // 2x2 squares, one rotated 45°: intersection is the octagon of area
        // 8(√2−1); union = 4 + 4 − inter.
        let a = boxed(0.0, 0.0, 2.0, 2.0, 0.0);
        let b = boxed(0.0, 0.0, 2.0, 2.0, std::f64::consts::FRAC_PI_4);
        let inter = 8.0 * (2.0_f64.sqrt() - 1.0);
        let expected = inter / (8.0 - inter);
        assert!((iou_bev(&a, &b) - expected).abs() < 1e-9);
    }

    #[test]
    fn degenerate_box_yields_zero() {
        let good = boxed(0.0, 0.0, 4.0, 2.0, 0.0);
        let degenerate = Box3::new(Vec3::ZERO, Size3::new(0.0, 0.0, 0.0), 0.0);
        assert_eq!(iou_bev(&good, &degenerate), 0.0);
        assert_eq!(iou_3d(&good, &degenerate), 0.0);
    }

    proptest! {
        #[test]
        fn prop_iou_symmetric_and_bounded(
            ax in -10.0f64..10.0, ay in -10.0f64..10.0, ayaw in -3.2f64..3.2,
            bx in -10.0f64..10.0, by in -10.0f64..10.0, byaw in -3.2f64..3.2,
            al in 0.5f64..8.0, aw in 0.5f64..3.0,
            bl in 0.5f64..8.0, bw in 0.5f64..3.0,
        ) {
            let a = boxed(ax, ay, al, aw, ayaw);
            let b = boxed(bx, by, bl, bw, byaw);
            let ab = iou_bev(&a, &b);
            let ba = iou_bev(&b, &a);
            prop_assert!((0.0..=1.0).contains(&ab));
            prop_assert!((ab - ba).abs() < 1e-7);
            let v = iou_3d(&a, &b);
            prop_assert!((0.0..=1.0).contains(&v));
            // Same ground z and height: 3D IOU must equal BEV IOU here.
            prop_assert!((v - ab).abs() < 1e-7);
        }

        #[test]
        fn prop_self_iou_is_one(
            x in -10.0f64..10.0, y in -10.0f64..10.0,
            l in 0.5f64..8.0, w in 0.5f64..3.0, yaw in -3.2f64..3.2,
        ) {
            let b = boxed(x, y, l, w, yaw);
            prop_assert!((iou_bev(&b, &b) - 1.0).abs() < 1e-7);
        }

        #[test]
        fn prop_shift_monotone_decreasing(
            l in 1.0f64..6.0, w in 1.0f64..3.0, yaw in -3.2f64..3.2,
        ) {
            let a = boxed(0.0, 0.0, l, w, yaw);
            let mut prev = 1.0;
            for step in 0..8 {
                let b = boxed(step as f64 * 0.5, 0.0, l, w, yaw);
                let v = iou_bev(&a, &b);
                prop_assert!(v <= prev + 1e-7);
                prev = v;
            }
        }
    }
}
