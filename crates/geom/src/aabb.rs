//! Axis-aligned BEV bounding rectangles.
//!
//! Association predicates (BEV IOU, footprint intersection) can only fire
//! when the boxes' footprints actually overlap, and a footprint overlap
//! implies its axis-aligned bounds overlap. [`Aabb2`] is that necessary
//! condition made cheap: four comparisons instead of a polygon clip —
//! the primitive the [`BevGrid`](crate::BevGrid) spatial index bins and
//! queries.

use crate::vec::Vec2;

/// An axis-aligned rectangle in the BEV plane (`min` ≤ `max` per axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb2 {
    pub min: Vec2,
    pub max: Vec2,
}

impl Aabb2 {
    pub const fn new(min: Vec2, max: Vec2) -> Self {
        Aabb2 { min, max }
    }

    /// The empty rectangle: the identity of [`union`](Self::union)
    /// (intersects nothing).
    pub const EMPTY: Aabb2 = Aabb2 {
        min: Vec2::new(f64::INFINITY, f64::INFINITY),
        max: Vec2::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
    };

    /// Whether two rectangles overlap (inclusive: touching edges count —
    /// as a pruning predicate this only errs on the safe side).
    /// All four comparisons are evaluated (`&`, not `&&`).
    #[inline]
    pub fn intersects(&self, other: &Aabb2) -> bool {
        (self.min.x <= other.max.x)
            & (other.min.x <= self.max.x)
            & (self.min.y <= other.max.y)
            & (other.min.y <= self.max.y)
    }

    /// The smallest rectangle containing both.
    #[inline]
    pub fn union(&self, other: &Aabb2) -> Aabb2 {
        Aabb2 {
            min: Vec2::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Vec2::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// The rectangle grown by `pad` on every side.
    #[inline]
    pub fn inflated(&self, pad: f64) -> Aabb2 {
        Aabb2 {
            min: Vec2::new(self.min.x - pad, self.min.y - pad),
            max: Vec2::new(self.max.x + pad, self.max.y + pad),
        }
    }

    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// True when min ≤ max on both axes and all coordinates are finite.
    pub fn is_valid(&self) -> bool {
        self.min.x.is_finite()
            && self.min.y.is_finite()
            && self.max.x.is_finite()
            && self.max.y.is_finite()
            && self.min.x <= self.max.x
            && self.min.y <= self.max.y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Aabb2 {
        Aabb2::new(Vec2::new(x0, y0), Vec2::new(x1, y1))
    }

    #[test]
    fn intersects_basic() {
        let a = rect(0.0, 0.0, 2.0, 2.0);
        assert!(a.intersects(&rect(1.0, 1.0, 3.0, 3.0)));
        assert!(!a.intersects(&rect(3.0, 0.0, 4.0, 2.0)));
        assert!(!a.intersects(&rect(0.0, 3.0, 2.0, 4.0)));
        // Touching edges count as intersecting (safe for pruning).
        assert!(a.intersects(&rect(2.0, 0.0, 3.0, 2.0)));
        assert!(a.intersects(&a));
    }

    #[test]
    fn union_and_inflate() {
        let u = rect(0.0, 0.0, 1.0, 1.0).union(&rect(2.0, -1.0, 3.0, 0.5));
        assert_eq!(u, rect(0.0, -1.0, 3.0, 1.0));
        assert_eq!(rect(0.0, 0.0, 1.0, 1.0).inflated(0.5), rect(-0.5, -0.5, 1.5, 1.5));
        assert_eq!(Aabb2::EMPTY.union(&u), u);
    }

    #[test]
    fn validity() {
        assert!(rect(0.0, 0.0, 1.0, 1.0).is_valid());
        assert!(rect(1.0, 1.0, 1.0, 1.0).is_valid());
        assert!(!rect(1.0, 0.0, 0.0, 1.0).is_valid());
        assert!(!Aabb2::EMPTY.is_valid());
        assert!(!rect(f64::NAN, 0.0, 1.0, 1.0).is_valid());
    }

    #[test]
    fn dimensions() {
        let r = rect(-1.0, 2.0, 3.0, 4.0);
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 2.0);
    }
}
