//! Axis-aligned bounding boxes and the `Dmin` distance of Definition 1.
//!
//! Bounding boxes are used by Lemma 2 of the paper to prune whole groups of
//! simplified line segments before their pairwise distances are examined.

use super::point::Point;

/// An axis-aligned minimum bounding rectangle in the 2-D spatial domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Corner with the smallest coordinates.
    pub min: Point,
    /// Corner with the largest coordinates.
    pub max: Point,
}

impl BoundingBox {
    /// Creates a bounding box from two opposite corners, normalising the
    /// coordinate order so that `min <= max` component-wise.
    pub fn new(a: Point, b: Point) -> Self {
        BoundingBox {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates the minimum bounding box of a set of points. Returns `None`
    /// for an empty iterator.
    pub fn from_points<I>(points: I) -> Option<Self>
    where
        I: IntoIterator<Item = Point>,
    {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut bbox = BoundingBox {
            min: first,
            max: first,
        };
        for p in iter {
            bbox.expand_to(&p);
        }
        Some(bbox)
    }

    /// Width (x extent) of the box.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (y extent) of the box.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Centre point of the box.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(&self.max)
    }

    /// Grows the box in place so that it contains `p`.
    pub fn expand_to(&mut self, p: &Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Returns the smallest box containing both `self` and `other`.
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        BoundingBox {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Returns a box enlarged by `margin` on every side. A negative margin
    /// shrinks the box (possibly producing an empty box, which callers should
    /// guard against).
    pub fn expanded(&self, margin: f64) -> BoundingBox {
        BoundingBox {
            min: Point::new(self.min.x - margin, self.min.y - margin),
            max: Point::new(self.max.x + margin, self.max.y + margin),
        }
    }

    /// Returns `true` when `p` lies inside or on the border of the box.
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Returns `true` when the two boxes share at least one point.
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// `Dmin(B_u, B_v)`: the minimum distance between any pair of points
    /// belonging to the two boxes (Definition 1). Zero when they intersect.
    pub fn min_distance(&self, other: &BoundingBox) -> f64 {
        let dx = if other.min.x > self.max.x {
            other.min.x - self.max.x
        } else if self.min.x > other.max.x {
            self.min.x - other.max.x
        } else {
            0.0
        };
        let dy = if other.min.y > self.max.y {
            other.min.y - self.max.y
        } else if self.min.y > other.max.y {
            self.min.y - other.max.y
        } else {
            0.0
        };
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_normalises_corners() {
        let b = BoundingBox::new(Point::new(5.0, -1.0), Point::new(-2.0, 3.0));
        assert_eq!(b.min, Point::new(-2.0, -1.0));
        assert_eq!(b.max, Point::new(5.0, 3.0));
        assert_eq!(b.width(), 7.0);
        assert_eq!(b.height(), 4.0);
    }

    #[test]
    fn from_points_empty_is_none() {
        assert!(BoundingBox::from_points(std::iter::empty()).is_none());
    }

    #[test]
    fn from_points_covers_all() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, -2.0),
            Point::new(-1.0, 5.0),
        ];
        let b = BoundingBox::from_points(pts.clone()).unwrap();
        for p in &pts {
            assert!(b.contains(p));
        }
        assert_eq!(b.min, Point::new(-1.0, -2.0));
        assert_eq!(b.max, Point::new(3.0, 5.0));
    }

    #[test]
    fn min_distance_overlapping_is_zero() {
        let a = BoundingBox::new(Point::new(0.0, 0.0), Point::new(5.0, 5.0));
        let b = BoundingBox::new(Point::new(3.0, 3.0), Point::new(8.0, 8.0));
        assert!(a.intersects(&b));
        assert_eq!(a.min_distance(&b), 0.0);
    }

    #[test]
    fn min_distance_horizontally_separated() {
        let a = BoundingBox::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let b = BoundingBox::new(Point::new(5.0, 0.0), Point::new(7.0, 2.0));
        assert_eq!(a.min_distance(&b), 3.0);
    }

    #[test]
    fn min_distance_diagonally_separated() {
        let a = BoundingBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let b = BoundingBox::new(Point::new(4.0, 5.0), Point::new(6.0, 7.0));
        assert_eq!(a.min_distance(&b), 5.0);
    }

    #[test]
    fn union_contains_both() {
        let a = BoundingBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let b = BoundingBox::new(Point::new(4.0, -2.0), Point::new(5.0, 3.0));
        let u = a.union(&b);
        assert!(u.contains(&a.min) && u.contains(&a.max));
        assert!(u.contains(&b.min) && u.contains(&b.max));
    }

    #[test]
    fn expanded_grows_every_side() {
        let a = BoundingBox::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let e = a.expanded(1.5);
        assert_eq!(e.min, Point::new(-1.5, -1.5));
        assert_eq!(e.max, Point::new(3.5, 3.5));
    }

    fn coord() -> impl Strategy<Value = f64> {
        -1000.0f64..1000.0
    }

    proptest! {
        #[test]
        fn min_distance_is_symmetric(a1 in coord(), a2 in coord(), a3 in coord(), a4 in coord(),
                                     b1 in coord(), b2 in coord(), b3 in coord(), b4 in coord()) {
            let a = BoundingBox::new(Point::new(a1, a2), Point::new(a3, a4));
            let b = BoundingBox::new(Point::new(b1, b2), Point::new(b3, b4));
            prop_assert!((a.min_distance(&b) - b.min_distance(&a)).abs() < 1e-9);
        }

        #[test]
        fn min_distance_lower_bounds_contained_point_distances(
            a1 in coord(), a2 in coord(), a3 in coord(), a4 in coord(),
            b1 in coord(), b2 in coord(), b3 in coord(), b4 in coord(),
            s in 0.0f64..1.0, t in 0.0f64..1.0, u in 0.0f64..1.0, v in 0.0f64..1.0) {
            // Dmin(Bu, Bv) <= D(p, q) for every p in Bu, q in Bv.
            let a = BoundingBox::new(Point::new(a1, a2), Point::new(a3, a4));
            let b = BoundingBox::new(Point::new(b1, b2), Point::new(b3, b4));
            let p = Point::new(a.min.x + s * a.width(), a.min.y + t * a.height());
            let q = Point::new(b.min.x + u * b.width(), b.min.y + v * b.height());
            prop_assert!(a.min_distance(&b) <= p.distance(&q) + 1e-9);
        }

        #[test]
        fn union_distance_never_exceeds_parts(
            a1 in coord(), a2 in coord(), a3 in coord(), a4 in coord(),
            b1 in coord(), b2 in coord(), b3 in coord(), b4 in coord(),
            c1 in coord(), c2 in coord(), c3 in coord(), c4 in coord()) {
            // Dmin to a union is a lower bound of Dmin to either constituent —
            // the monotonicity Lemma 2 relies on.
            let a = BoundingBox::new(Point::new(a1, a2), Point::new(a3, a4));
            let b = BoundingBox::new(Point::new(b1, b2), Point::new(b3, b4));
            let probe = BoundingBox::new(Point::new(c1, c2), Point::new(c3, c4));
            let u = a.union(&b);
            prop_assert!(probe.min_distance(&u) <= probe.min_distance(&a) + 1e-9);
            prop_assert!(probe.min_distance(&u) <= probe.min_distance(&b) + 1e-9);
        }
    }
}
