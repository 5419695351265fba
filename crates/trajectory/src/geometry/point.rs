//! 2-D points and the Euclidean distance `D` of Definition 1.

use std::ops::{Add, Mul, Sub};

/// A point (or free vector) in the 2-D spatial domain.
///
/// Coordinates are `f64`. The type is `Copy` and all operations are
/// allocation-free; it is used both as a position and as a displacement
/// vector (e.g. in the closest-point-of-approach computation).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// x coordinate.
    pub x: f64,
    /// y coordinate.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a new point.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance `D(self, other)` (Definition 1).
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance. Cheaper than [`Point::distance`] and
    /// sufficient for comparisons against a squared threshold.
    #[inline]
    pub fn distance_squared(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Dot product, treating both points as vectors.
    #[inline]
    pub fn dot(&self, other: &Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Euclidean norm, treating the point as a vector.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_squared(&self) -> f64 {
        self.dot(self)
    }

    /// Linear interpolation between `self` (at `ratio = 0`) and `other`
    /// (at `ratio = 1`). `ratio` is *not* clamped; callers that need clamping
    /// (e.g. segment parameterisation) must clamp themselves.
    #[inline]
    pub fn lerp(&self, other: &Point, ratio: f64) -> Point {
        Point {
            x: self.x + (other.x - self.x) * ratio,
            y: self.y + (other.y - self.y) * ratio,
        }
    }

    /// Returns `true` when both coordinates are finite (neither NaN nor ±∞).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Midpoint between `self` and `other`.
    #[inline]
    pub fn midpoint(&self, other: &Point) -> Point {
        self.lerp(other, 0.5)
    }
}

impl Add for Point {
    type Output = Point;

    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;

    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;

    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distance_basic() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_squared(&b), 25.0);
    }

    #[test]
    fn distance_is_zero_for_identical_points() {
        let p = Point::new(-2.5, 7.25);
        assert_eq!(p.distance(&p), 0.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 10.0);
        let b = Point::new(10.0, 0.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.lerp(&b, 0.5), Point::new(5.0, 5.0));
        assert_eq!(a.midpoint(&b), Point::new(5.0, 5.0));
    }

    #[test]
    fn vector_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(a - b, Point::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(a.dot(&b), 1.0);
    }

    #[test]
    fn norm_matches_distance_from_origin() {
        let p = Point::new(3.0, 4.0);
        assert_eq!(p.norm(), 5.0);
        assert_eq!(p.norm_squared(), 25.0);
        assert_eq!(p.norm(), Point::ORIGIN.distance(&p));
    }

    #[test]
    fn finiteness_detection() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn conversion_from_tuple() {
        let p: Point = (1.5, -2.5).into();
        assert_eq!(p, Point::new(1.5, -2.5));
    }

    fn finite_coord() -> impl Strategy<Value = f64> {
        -1.0e6..1.0e6
    }

    proptest! {
        #[test]
        fn distance_is_symmetric(ax in finite_coord(), ay in finite_coord(),
                                 bx in finite_coord(), by in finite_coord()) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            prop_assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-9);
        }

        #[test]
        fn distance_is_nonnegative(ax in finite_coord(), ay in finite_coord(),
                                   bx in finite_coord(), by in finite_coord()) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            prop_assert!(a.distance(&b) >= 0.0);
        }

        #[test]
        fn triangle_inequality(ax in finite_coord(), ay in finite_coord(),
                               bx in finite_coord(), by in finite_coord(),
                               cx in finite_coord(), cy in finite_coord()) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let c = Point::new(cx, cy);
            prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-6);
        }

        #[test]
        fn lerp_stays_on_segment(ax in finite_coord(), ay in finite_coord(),
                                 bx in finite_coord(), by in finite_coord(),
                                 r in 0.0f64..1.0) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let p = a.lerp(&b, r);
            // The interpolated point must never be farther from either endpoint
            // than the endpoints are from each other.
            let ab = a.distance(&b);
            prop_assert!(a.distance(&p) <= ab + 1e-6);
            prop_assert!(b.distance(&p) <= ab + 1e-6);
        }
    }
}
