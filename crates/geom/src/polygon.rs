//! Convex polygons in the bird's-eye-view plane.
//!
//! Oriented-box IOU reduces to clipping one box footprint against another
//! (Sutherland–Hodgman) and taking the shoelace area of the result. Both
//! operations live here so they can be tested independently of boxes.

use crate::vec::Vec2;
use crate::GEOM_EPS;
use serde::{Deserialize, Serialize};

/// A convex polygon with counter-clockwise vertex order.
///
/// Construction normalizes orientation (clockwise input is reversed) but
/// does not verify convexity exhaustively; [`ConvexPolygon::is_convex`] is
/// available for debug assertions and tests. Degenerate polygons (fewer than
/// three vertices, or near-zero area) are representable — their area is 0 and
/// they intersect nothing — because clipping naturally produces them.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ConvexPolygon {
    vertices: Vec<Vec2>,
}

impl ConvexPolygon {
    /// Build from vertices, normalizing to counter-clockwise order.
    pub fn new(mut vertices: Vec<Vec2>) -> Self {
        if signed_area(&vertices) < 0.0 {
            vertices.reverse();
        }
        ConvexPolygon { vertices }
    }

    /// The empty polygon (zero area, intersects nothing).
    pub fn empty() -> Self {
        ConvexPolygon { vertices: Vec::new() }
    }

    /// Vertices in counter-clockwise order.
    #[inline]
    pub fn vertices(&self) -> &[Vec2] {
        &self.vertices
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.len() < 3 || self.area() < GEOM_EPS
    }

    /// Polygon area (non-negative; zero for degenerate polygons).
    pub fn area(&self) -> f64 {
        signed_area(&self.vertices).max(0.0)
    }

    /// True if `point` lies inside or on the boundary.
    pub fn contains(&self, point: Vec2) -> bool {
        let n = self.vertices.len();
        if n < 3 {
            return false;
        }
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            if (q - p).cross(point - p) < -GEOM_EPS {
                return false;
            }
        }
        true
    }

    /// Clip this polygon against another convex polygon
    /// (Sutherland–Hodgman). The result is the convex intersection region,
    /// possibly empty.
    pub fn intersect(&self, clip: &ConvexPolygon) -> ConvexPolygon {
        if self.vertices.len() < 3 || clip.vertices.len() < 3 {
            return ConvexPolygon::empty();
        }
        let mut output = self.vertices.clone();
        let m = clip.vertices.len();
        for i in 0..m {
            if output.is_empty() {
                break;
            }
            let a = clip.vertices[i];
            let b = clip.vertices[(i + 1) % m];
            output = clip_against_edge(&output, a, b);
        }
        ConvexPolygon::new(output)
    }

    /// Area of the intersection with another convex polygon.
    pub fn intersection_area(&self, other: &ConvexPolygon) -> f64 {
        self.intersect(other).area()
    }

    /// Verify convexity and counter-clockwise orientation (used in tests and
    /// debug assertions; clipping can produce collinear vertices, which are
    /// accepted).
    pub fn is_convex(&self) -> bool {
        let n = self.vertices.len();
        if n < 3 {
            return false;
        }
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let r = self.vertices[(i + 2) % n];
            if (q - p).cross(r - q) < -1e-7 {
                return false;
            }
        }
        true
    }
}

/// Vertex slots of each [`box_clip_area`] buffer. Clipping a convex quad
/// by another grows it by at most one vertex per clip edge, so 8 slots
/// hold any result; the ninth holds a copy of vertex 0, which the closing
/// segment reads instead of wrapping its index.
const BOX_CLIP_SLOTS: usize = 9;
const BOX_CLIP_LAST: usize = BOX_CLIP_SLOTS - 1;

/// Intersection area of two box footprints (convex CCW quads, e.g.
/// [`Box3::bev_corners`](crate::Box3::bev_corners)) — the kernel every
/// box-overlap IOU runs, once per candidate pair in association.
///
/// Sutherland–Hodgman specialised to 4 × 4: fixed buffers, the four clip
/// edges unrolled (no ping-pong flag, no modulo), and each polygon closed
/// by a copy of its first vertex. The floating-point operations and their
/// order are those of the general slice clip (retained as the test
/// oracle), so every area is bit-identical to it.
///
/// The inside/crossing tests stay branches. Branch-free emit-and-advance
/// forms (write the candidate, advance by the predicate) were measured
/// slower on pairs recorded from corpus assembly: they pay a division
/// per vertex instead of per crossing, and the compaction index they
/// carry serialises each edge on the previous one, where a predicted
/// branch lets the next edge start early.
pub(crate) fn box_clip_area(subject: &[Vec2; 4], clip: &[Vec2; 4]) -> f64 {
    let mut a = [Vec2::ZERO; BOX_CLIP_SLOTS];
    let mut b = [Vec2::ZERO; BOX_CLIP_SLOTS];
    a[..4].copy_from_slice(subject);
    a[4] = subject[0];
    let n = clip_box_edge(&a, 4, clip[0], clip[1], &mut b);
    let n = clip_box_edge(&b, n, clip[1], clip[2], &mut a);
    let n = clip_box_edge(&a, n, clip[2], clip[3], &mut b);
    let n = clip_box_edge(&b, n, clip[3], clip[0], &mut a);
    if n < 3 {
        return 0.0;
    }
    let mut acc = 0.0;
    for i in 0..n {
        acc += a[i].cross(a[i + 1]);
    }
    // CCW ∩ CCW stays CCW; clamp tiny negative shoelace noise like
    // `ConvexPolygon::area` does.
    (acc / 2.0).max(0.0)
}

/// Keep the part of `src[..n]` (with `src[n] == src[0]`) on the left of
/// the directed edge `from -> to`, into `dst`; returns the kept vertex
/// count and closes `dst` the same way.
#[inline(always)]
fn clip_box_edge(
    src: &[Vec2; BOX_CLIP_SLOTS],
    n: usize,
    from: Vec2,
    to: Vec2,
    dst: &mut [Vec2; BOX_CLIP_SLOTS],
) -> usize {
    let edge = to - from;
    let mut dp = edge.cross(src[0] - from);
    let mut out = 0usize;
    // A convex quad clipped by another never exceeds 8 vertices; the
    // clamps only keep degenerate float input from indexing past the
    // buffers.
    for j in 0..n.min(BOX_CLIP_LAST) {
        let (p, q) = (src[j], src[j + 1]);
        let dq = edge.cross(q - from);
        let p_inside = dp >= -GEOM_EPS;
        let q_inside = dq >= -GEOM_EPS;
        if p_inside {
            dst[out.min(BOX_CLIP_LAST)] = p;
            out += 1;
        }
        if p_inside != q_inside {
            // Segment crosses the edge line: p + (q - p) · dp/(dp - dq)
            // (the denominator equals the segment×edge cross product, so
            // the near-parallel guard matches `line_intersection`).
            let denom = dp - dq;
            if denom.abs() >= GEOM_EPS {
                dst[out.min(BOX_CLIP_LAST)] = p + (q - p) * (dp / denom);
                out += 1;
            }
        }
        dp = dq;
    }
    let n = out.min(BOX_CLIP_LAST);
    dst[n] = dst[0];
    n
}

/// Maximum vertex count [`convex_clip_area`] supports:
/// `subject.len() + clip.len()` must not exceed it (Sutherland–Hodgman
/// grows the subject by at most one vertex per clip edge).
#[cfg(test)]
const CLIP_AREA_MAX_VERTICES: usize = 16;

/// Area of the intersection of two convex CCW polygons, without
/// allocating — the general fixed-buffer clip [`box_clip_area`]
/// specialises, kept as the oracle the bit-identity tests hold the box
/// kernel to.
///
/// Runs the identical Sutherland–Hodgman edge loop over stack buffers.
/// Requires `subject.len() + clip.len() <= CLIP_AREA_MAX_VERTICES`.
#[cfg(test)]
fn convex_clip_area(subject: &[Vec2], clip: &[Vec2]) -> f64 {
    if subject.len() < 3 || clip.len() < 3 {
        return 0.0;
    }
    assert!(
        subject.len() + clip.len() <= CLIP_AREA_MAX_VERTICES,
        "convex_clip_area: {} + {} vertices exceed the fixed buffers",
        subject.len(),
        clip.len()
    );
    let mut buf_a = [Vec2::ZERO; CLIP_AREA_MAX_VERTICES];
    let mut buf_b = [Vec2::ZERO; CLIP_AREA_MAX_VERTICES];
    buf_a[..subject.len()].copy_from_slice(subject);
    let mut n = subject.len();
    let mut src_is_a = true;

    let m = clip.len();
    for i in 0..m {
        if n == 0 {
            break;
        }
        let (src, dst) = if src_is_a {
            (&buf_a as &[Vec2; CLIP_AREA_MAX_VERTICES], &mut buf_b)
        } else {
            (&buf_b as &[Vec2; CLIP_AREA_MAX_VERTICES], &mut buf_a)
        };
        let a = clip[i];
        let b = clip[(i + 1) % m];
        let edge = b - a;
        // Rolling signed distances: each vertex's distance is computed
        // once and reused as the next segment's `p` side.
        let d0 = edge.cross(src[0] - a);
        let mut dp = d0;
        let mut out = 0usize;
        for j in 0..n {
            let jn = if j + 1 == n { 0 } else { j + 1 };
            let dq = if jn == 0 { d0 } else { edge.cross(src[jn] - a) };
            let p_inside = dp >= -GEOM_EPS;
            let q_inside = dq >= -GEOM_EPS;
            if p_inside {
                dst[out] = src[j];
                out += 1;
            }
            if p_inside != q_inside {
                // Segment crosses the edge line: p + (q - p) · dp/(dp - dq)
                // (the denominator equals the segment×edge cross product,
                // so the near-parallel guard matches `line_intersection`).
                let denom = dp - dq;
                if denom.abs() >= GEOM_EPS {
                    let t = dp / denom;
                    dst[out] = src[j] + (src[jn] - src[j]) * t;
                    out += 1;
                }
            }
            dp = dq;
        }
        src_is_a = !src_is_a;
        n = out;
    }
    // CCW ∩ CCW stays CCW; clamp tiny negative shoelace noise like
    // `ConvexPolygon::area` does.
    let result = if src_is_a { &buf_a[..n] } else { &buf_b[..n] };
    signed_area(result).max(0.0)
}

/// Signed shoelace area: positive for counter-clockwise vertex order.
fn signed_area(vertices: &[Vec2]) -> f64 {
    let n = vertices.len();
    if n < 3 {
        return 0.0;
    }
    let mut acc = 0.0;
    for i in 0..n {
        acc += vertices[i].cross(vertices[(i + 1) % n]);
    }
    acc / 2.0
}

/// Keep the part of `subject` on the left of the directed edge `a -> b`.
fn clip_against_edge(subject: &[Vec2], a: Vec2, b: Vec2) -> Vec<Vec2> {
    let mut out = Vec::with_capacity(subject.len() + 1);
    let n = subject.len();
    let edge = b - a;
    for i in 0..n {
        let cur = subject[i];
        let next = subject[(i + 1) % n];
        let cur_inside = edge.cross(cur - a) >= -GEOM_EPS;
        let next_inside = edge.cross(next - a) >= -GEOM_EPS;
        if cur_inside {
            out.push(cur);
            if !next_inside {
                if let Some(x) = line_intersection(cur, next, a, b) {
                    out.push(x);
                }
            }
        } else if next_inside {
            if let Some(x) = line_intersection(cur, next, a, b) {
                out.push(x);
            }
        }
    }
    out
}

/// Intersection of segment `p1 -> p2` with the infinite line through
/// `a -> b`. Returns `None` for (near-)parallel configurations.
fn line_intersection(p1: Vec2, p2: Vec2, a: Vec2, b: Vec2) -> Option<Vec2> {
    let r = p2 - p1;
    let s = b - a;
    let denom = r.cross(s);
    if denom.abs() < GEOM_EPS {
        return None;
    }
    let t = (a - p1).cross(s) / denom;
    Some(p1 + r * t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unit_square() -> ConvexPolygon {
        ConvexPolygon::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(0.0, 1.0),
        ])
    }

    fn square_at(cx: f64, cy: f64, half: f64) -> ConvexPolygon {
        ConvexPolygon::new(vec![
            Vec2::new(cx - half, cy - half),
            Vec2::new(cx + half, cy - half),
            Vec2::new(cx + half, cy + half),
            Vec2::new(cx - half, cy + half),
        ])
    }

    #[test]
    fn area_of_unit_square() {
        assert!((unit_square().area() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clockwise_input_is_normalized() {
        let cw = ConvexPolygon::new(vec![
            Vec2::new(0.0, 1.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(0.0, 0.0),
        ]);
        assert!((cw.area() - 1.0).abs() < 1e-12);
        assert!(cw.is_convex());
    }

    #[test]
    fn contains_interior_and_excludes_exterior() {
        let sq = unit_square();
        assert!(sq.contains(Vec2::new(0.5, 0.5)));
        assert!(sq.contains(Vec2::new(0.0, 0.0))); // boundary counts
        assert!(!sq.contains(Vec2::new(1.5, 0.5)));
        assert!(!sq.contains(Vec2::new(-0.1, 0.5)));
    }

    #[test]
    fn self_intersection_is_identity_area() {
        let sq = unit_square();
        assert!((sq.intersection_area(&sq) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_squares_have_zero_intersection() {
        let a = square_at(0.0, 0.0, 0.5);
        let b = square_at(10.0, 0.0, 0.5);
        assert_eq!(a.intersection_area(&b), 0.0);
    }

    #[test]
    fn half_overlap_squares() {
        let a = square_at(0.0, 0.0, 0.5); // [-0.5, 0.5]^2
        let b = square_at(0.5, 0.0, 0.5); // [0.0, 1.0] x [-0.5, 0.5]
        assert!((a.intersection_area(&b) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn nested_squares_intersection_is_inner() {
        let outer = square_at(0.0, 0.0, 2.0);
        let inner = square_at(0.2, -0.3, 0.5);
        assert!((outer.intersection_area(&inner) - inner.area()).abs() < 1e-9);
        assert!((inner.intersection_area(&outer) - inner.area()).abs() < 1e-9);
    }

    #[test]
    fn rotated_square_intersection_is_octagon() {
        // Unit-diagonal square rotated 45° inside the unit square centered at
        // origin: classic octagon case with known area 4*(sqrt(2)-1) for
        // side 2... use squares of half-extent 1: area = 8*(sqrt(2)-1).
        let a = square_at(0.0, 0.0, 1.0);
        let pts: Vec<Vec2> = a
            .vertices()
            .iter()
            .map(|v| v.rotated(std::f64::consts::FRAC_PI_4))
            .collect();
        let b = ConvexPolygon::new(pts);
        let inter = a.intersect(&b);
        assert_eq!(inter.len(), 8);
        let expected = 8.0 * (2.0_f64.sqrt() - 1.0);
        assert!((inter.area() - expected).abs() < 1e-9);
    }

    #[test]
    fn degenerate_polygons() {
        let empty = ConvexPolygon::empty();
        assert!(empty.is_empty());
        assert_eq!(empty.area(), 0.0);
        assert!(!empty.contains(Vec2::ZERO));
        assert_eq!(empty.intersection_area(&unit_square()), 0.0);

        let line = ConvexPolygon::new(vec![Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0)]);
        assert!(line.is_empty());
        assert_eq!(line.intersection_area(&unit_square()), 0.0);
    }

    #[test]
    fn triangle_area_and_centroid() {
        let tri =
            ConvexPolygon::new(vec![Vec2::new(0.0, 0.0), Vec2::new(2.0, 0.0), Vec2::new(0.0, 2.0)]);
        assert!((tri.area() - 2.0).abs() < 1e-12);
        // A triangle's centroid is its vertex mean.
        let c = tri.vertices().iter().fold(Vec2::ZERO, |acc, &v| acc + v) / 3.0;
        assert!((c.x - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.y - 2.0 / 3.0).abs() < 1e-12);
        assert!(tri.contains(c));
    }

    #[test]
    fn clip_area_degenerate_inputs() {
        let sq = unit_square();
        assert_eq!(convex_clip_area(&[], sq.vertices()), 0.0);
        assert_eq!(
            convex_clip_area(sq.vertices(), &[Vec2::ZERO, Vec2::new(1.0, 0.0)]),
            0.0
        );
    }

    fn footprint(x: f64, y: f64, l: f64, w: f64, yaw: f64) -> [Vec2; 4] {
        crate::Box3::on_ground(x, y, 0.0, l, w, 1.0, yaw).bev_corners()
    }

    /// The box kernel returns the general clip's exact bits, both ways
    /// round.
    fn assert_box_clip_bits(a: &[Vec2; 4], b: &[Vec2; 4]) -> Result<(), TestCaseError> {
        for (s, c) in [(a, b), (b, a)] {
            let fast = box_clip_area(s, c);
            let oracle = convex_clip_area(s, c);
            prop_assert!(
                fast.to_bits() == oracle.to_bits(),
                "{:?} ∩ {:?}: box kernel {} vs general clip {}",
                s,
                c,
                fast,
                oracle
            );
        }
        Ok(())
    }

    #[test]
    fn box_clip_matches_general_clip_on_degenerate_boxes() {
        use std::f64::consts::{FRAC_PI_2, PI};
        let unit = (0.0, 0.0, 4.0, 2.0, 0.0);
        let cases = [
            // Identical boxes, axis-aligned and rotated.
            (unit, unit),
            ((1.0, -2.0, 4.5, 1.9, 0.3), (1.0, -2.0, 4.5, 1.9, 0.3)),
            // Shared edge, shared corner, and a touching rotated pair.
            (unit, (4.0, 0.0, 4.0, 2.0, 0.0)),
            (unit, (4.0, 2.0, 4.0, 2.0, 0.0)),
            (unit, (3.0, 0.0, 2.0, 2.0, FRAC_PI_2)),
            // 90° and 180° rotations of the same footprint.
            (unit, (0.0, 0.0, 4.0, 2.0, FRAC_PI_2)),
            (unit, (0.0, 0.0, 4.0, 2.0, PI)),
            (unit, (0.0, 0.0, 4.0, 2.0, -PI)),
            ((0.0, 0.0, 2.0, 2.0, 0.0), (0.0, 0.0, 2.0, 2.0, FRAC_PI_2)),
            // Zero-width and zero-size boxes.
            (unit, (0.0, 0.0, 4.0, 0.0, 0.2)),
            (unit, (0.0, 0.0, 0.0, 0.0, 0.0)),
            ((0.0, 0.0, 4.0, 0.0, 0.0), (0.0, 0.0, 4.0, 0.0, 0.0)),
            // One box inside another.
            ((0.0, 0.0, 10.0, 10.0, 0.1), (1.0, 0.5, 2.0, 1.0, 0.7)),
            ((0.0, 0.0, 10.0, 10.0, 0.0), (0.0, 0.0, 2.0, 1.0, 0.0)),
            // Disjoint.
            (unit, (50.0, 0.0, 4.0, 2.0, 1.0)),
        ];
        for ((ax, ay, al, aw, ayaw), (bx, by, bl, bw, byaw)) in cases {
            let a = footprint(ax, ay, al, aw, ayaw);
            let b = footprint(bx, by, bl, bw, byaw);
            assert_box_clip_bits(&a, &b).unwrap();
        }
    }

    #[test]
    fn box_clip_known_areas() {
        let a = footprint(0.0, 0.0, 4.0, 2.0, 0.0);
        assert_eq!(box_clip_area(&a, &a), 8.0);
        let half = footprint(2.0, 0.0, 4.0, 2.0, 0.0);
        assert_eq!(box_clip_area(&a, &half), 4.0);
        let far = footprint(50.0, 0.0, 4.0, 2.0, 0.0);
        assert_eq!(box_clip_area(&a, &far).to_bits(), 0.0f64.to_bits());
        let octagon = box_clip_area(
            &footprint(0.0, 0.0, 2.0, 2.0, 0.0),
            &footprint(0.0, 0.0, 2.0, 2.0, std::f64::consts::FRAC_PI_4),
        );
        assert!((octagon - 8.0 * (2.0_f64.sqrt() - 1.0)).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn prop_box_clip_bits_match_general_clip(
            ax in -4.0f64..4.0, ay in -4.0f64..4.0,
            al in 0.0f64..7.0, aw in 0.0f64..3.0, ayaw in -7.0f64..7.0,
            bx in -4.0f64..4.0, by in -4.0f64..4.0,
            bl in 0.0f64..7.0, bw in 0.0f64..3.0, byaw in -7.0f64..7.0,
        ) {
            let a = footprint(ax, ay, al, aw, ayaw);
            let b = footprint(bx, by, bl, bw, byaw);
            assert_box_clip_bits(&a, &b)?;
        }

        #[test]
        fn prop_box_clip_bits_match_on_snapped_boxes(
            ax in -4i32..4, ay in -4i32..4, al in 0i32..6, aw in 0i32..4, ayaw in -4i32..4,
            bx in -4i32..4, by in -4i32..4, bl in 0i32..6, bw in 0i32..4, byaw in -4i32..4,
        ) {
            // Half-metre grid and quarter-turn yaws: shared edges and
            // corners, coincident and collinear vertices, zero extents.
            let q = std::f64::consts::FRAC_PI_2;
            let a = footprint(ax as f64 * 0.5, ay as f64 * 0.5, al as f64, aw as f64, ayaw as f64 * q);
            let b = footprint(bx as f64 * 0.5, by as f64 * 0.5, bl as f64, bw as f64, byaw as f64 * q);
            assert_box_clip_bits(&a, &b)?;
        }
    }

    proptest! {
        #[test]
        fn prop_fixed_buffer_clip_matches_allocating_clip(
            cx in -3.0f64..3.0, cy in -3.0f64..3.0,
            half_a in 0.1f64..2.0, half_b in 0.1f64..2.0,
            yaw_a in -3.2f64..3.2, yaw_b in -3.2f64..3.2,
        ) {
            // The allocation-free hot-path clip must agree with the
            // Vec-based reference on arbitrary rotated overlapping boxes.
            let pa: Vec<Vec2> = square_at(0.0, 0.0, half_a)
                .vertices()
                .iter()
                .map(|v| v.rotated(yaw_a))
                .collect();
            let pb: Vec<Vec2> = square_at(0.0, 0.0, half_b)
                .vertices()
                .iter()
                .map(|v| v.rotated(yaw_b) + Vec2::new(cx, cy))
                .collect();
            let a = ConvexPolygon::new(pa);
            let b = ConvexPolygon::new(pb);
            let fast = convex_clip_area(a.vertices(), b.vertices());
            let reference = a.intersection_area(&b);
            prop_assert!((fast - reference).abs() < 1e-9,
                "fast {fast} vs reference {reference}");
        }

        #[test]
        fn prop_intersection_area_bounded(
            cx in -3.0f64..3.0, cy in -3.0f64..3.0,
            half_a in 0.1f64..2.0, half_b in 0.1f64..2.0,
            yaw in -3.2f64..3.2,
        ) {
            let a = square_at(0.0, 0.0, half_a);
            let pts: Vec<Vec2> = square_at(0.0, 0.0, half_b)
                .vertices()
                .iter()
                .map(|v| v.rotated(yaw) + Vec2::new(cx, cy))
                .collect();
            let b = ConvexPolygon::new(pts);
            let i = a.intersection_area(&b);
            prop_assert!(i >= -1e-9);
            prop_assert!(i <= a.area() + 1e-7);
            prop_assert!(i <= b.area() + 1e-7);
        }

        #[test]
        fn prop_intersection_symmetric(
            cx in -2.0f64..2.0, cy in -2.0f64..2.0,
            half_a in 0.2f64..1.5, half_b in 0.2f64..1.5,
            yaw in -3.2f64..3.2,
        ) {
            let a = square_at(0.0, 0.0, half_a);
            let pts: Vec<Vec2> = square_at(0.0, 0.0, half_b)
                .vertices()
                .iter()
                .map(|v| v.rotated(yaw) + Vec2::new(cx, cy))
                .collect();
            let b = ConvexPolygon::new(pts);
            let ab = a.intersection_area(&b);
            let ba = b.intersection_area(&a);
            prop_assert!((ab - ba).abs() < 1e-7);
        }

        #[test]
        fn prop_clip_result_convex(
            cx in -1.5f64..1.5, cy in -1.5f64..1.5, yaw in -3.2f64..3.2,
        ) {
            let a = square_at(0.0, 0.0, 1.0);
            let pts: Vec<Vec2> = square_at(0.0, 0.0, 1.0)
                .vertices()
                .iter()
                .map(|v| v.rotated(yaw) + Vec2::new(cx, cy))
                .collect();
            let b = ConvexPolygon::new(pts);
            let inter = a.intersect(&b);
            if !inter.is_empty() {
                prop_assert!(inter.is_convex());
            }
        }

        #[test]
        fn prop_centroid_inside(
            half in 0.2f64..2.0, yaw in -3.2f64..3.2,
        ) {
            let pts: Vec<Vec2> = square_at(0.0, 0.0, half)
                .vertices()
                .iter()
                .map(|v| v.rotated(yaw))
                .collect();
            let p = ConvexPolygon::new(pts);
            let n = p.vertices().len() as f64;
            let centroid = p.vertices().iter().fold(Vec2::ZERO, |acc, &v| acc + v) / n;
            prop_assert!(p.contains(centroid));
        }
    }
}
