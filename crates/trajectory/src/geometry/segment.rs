//! Line segments, the distances `DPL` and `DLL` of Definition 1, and the
//! timestamped segments with closest-point-of-approach distance `D*` used by
//! CuTS* (Section 6.2 of the paper).

use super::bbox::BoundingBox;
use super::point::Point;
use crate::time::TimeInterval;

/// A purely spatial line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub start: Point,
    /// End point.
    pub end: Point,
}

impl Segment {
    /// Creates a segment from `start` to `end`. Degenerate segments
    /// (`start == end`) are allowed and behave like points.
    #[inline]
    pub const fn new(start: Point, end: Point) -> Self {
        Segment { start, end }
    }

    /// Length of the segment.
    #[inline]
    pub fn length(&self) -> f64 {
        self.start.distance(&self.end)
    }

    /// The point on the segment at parameter `t ∈ [0, 1]` (clamped).
    #[inline]
    pub fn point_at(&self, t: f64) -> Point {
        let t = t.clamp(0.0, 1.0);
        self.start.lerp(&self.end, t)
    }

    /// Parameter `t ∈ [0, 1]` of the point on the segment closest to `p`.
    pub fn closest_point_parameter(&self, p: &Point) -> f64 {
        // lint: allow(checked-time-arithmetic) — Point vector subtraction (f64 coordinates), not ticks
        let d = self.end - self.start;
        let len_sq = d.norm_squared();
        if len_sq == 0.0 {
            return 0.0;
        }
        // lint: allow(checked-time-arithmetic) — Point vector subtraction (f64 coordinates), not ticks
        let t = (*p - self.start).dot(&d) / len_sq;
        t.clamp(0.0, 1.0)
    }

    /// The point on the segment closest to `p`.
    #[inline]
    pub fn closest_point(&self, p: &Point) -> Point {
        self.point_at(self.closest_point_parameter(p))
    }

    /// `DPL(p, l)`: the shortest Euclidean distance from point `p` to any
    /// point on this segment (Definition 1).
    #[inline]
    pub fn distance_to_point(&self, p: &Point) -> f64 {
        self.closest_point(p).distance(p)
    }

    /// `DLL(l_u, l_v)`: the shortest Euclidean distance between any two points
    /// on the two segments (Definition 1). Returns `0` when the segments
    /// intersect.
    pub fn distance_to_segment(&self, other: &Segment) -> f64 {
        if self.intersects(other) {
            return 0.0;
        }
        // When the segments do not intersect, the minimum distance is attained
        // at an endpoint of one of the segments.
        let d1 = self.distance_to_point(&other.start);
        let d2 = self.distance_to_point(&other.end);
        let d3 = other.distance_to_point(&self.start);
        let d4 = other.distance_to_point(&self.end);
        d1.min(d2).min(d3).min(d4)
    }

    /// Returns `true` when the two segments intersect (including touching at
    /// endpoints and collinear overlap).
    pub fn intersects(&self, other: &Segment) -> bool {
        fn orientation(a: &Point, b: &Point, c: &Point) -> i8 {
            let v = (b.y - a.y) * (c.x - b.x) - (b.x - a.x) * (c.y - b.y);
            if v.abs() < 1e-12 {
                0
            } else if v > 0.0 {
                1
            } else {
                -1
            }
        }
        fn on_segment(a: &Point, b: &Point, c: &Point) -> bool {
            b.x <= a.x.max(c.x) + 1e-12
                && b.x + 1e-12 >= a.x.min(c.x)
                && b.y <= a.y.max(c.y) + 1e-12
                && b.y + 1e-12 >= a.y.min(c.y)
        }

        let (p1, q1) = (&self.start, &self.end);
        let (p2, q2) = (&other.start, &other.end);
        let o1 = orientation(p1, q1, p2);
        let o2 = orientation(p1, q1, q2);
        let o3 = orientation(p2, q2, p1);
        let o4 = orientation(p2, q2, q1);

        if o1 != o2 && o3 != o4 {
            return true;
        }
        (o1 == 0 && on_segment(p1, p2, q1))
            || (o2 == 0 && on_segment(p1, q2, q1))
            || (o3 == 0 && on_segment(p2, p1, q2))
            || (o4 == 0 && on_segment(p2, q1, q2))
    }

    /// The minimum axis-aligned bounding box `B(l)` of the segment.
    pub fn bounding_box(&self) -> BoundingBox {
        // lint: allow(no-unwrap-in-lib) — a two-point array is statically non-empty
        BoundingBox::from_points([self.start, self.end]).expect("two points are never empty")
    }
}

/// A line segment of a **simplified trajectory**: spatial endpoints plus the
/// time interval `l'.τ` they span (Section 5.2).
///
/// The location at a time `t` inside the interval is obtained by the time-ratio
/// parameterisation of Section 6.2:
/// `l'(t) = p_u + (t - u)/(v - u) · (p_v - p_u)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedSegment {
    /// Spatial endpoints.
    pub segment: Segment,
    /// Time interval `[start, end]` covered by the segment.
    pub interval: TimeInterval,
}

impl TimedSegment {
    /// Creates a timed segment.
    #[inline]
    pub const fn new(segment: Segment, interval: TimeInterval) -> Self {
        TimedSegment { segment, interval }
    }

    /// The time-ratio location of the segment at time `t` (Section 6.2).
    ///
    /// `t` is clamped to the segment's interval; for a zero-length interval
    /// the start point is returned.
    #[inline]
    pub fn location_at(&self, t: i64) -> Point {
        let (u, v) = (self.interval.start, self.interval.end);
        if v == u {
            return self.segment.start;
        }
        let t = t.clamp(u, v);
        // Saturating: identical to bare `-` unless the interval spans more
        // than the i64 range, where bare subtraction would wrap.
        let ratio = t.saturating_sub(u) as f64 / v.saturating_sub(u) as f64;
        self.segment.start.lerp(&self.segment.end, ratio)
    }

    /// The velocity vector (displacement per unit time) of the segment.
    /// Zero for a zero-length time interval.
    pub fn velocity(&self) -> Point {
        let dt = self.interval.duration() as f64;
        if dt == 0.0 {
            return Point::ORIGIN;
        }
        // lint: allow(checked-time-arithmetic) — Point vector subtraction (f64 coordinates), not ticks
        (self.segment.end - self.segment.start) * (1.0 / dt)
    }

    /// The closest-point-of-approach time `t_CPA` between `self` and `other`,
    /// restricted to their common time interval. Returns `None` when the time
    /// intervals do not intersect.
    ///
    /// The CPA time minimises `|self(t) - other(t)|` over the common interval
    /// (Section 6.2 and [Arumugam & Jermaine, ICDE 2006]).
    pub fn cpa_time(&self, other: &TimedSegment) -> Option<f64> {
        let common = self.interval.intersection(&other.interval)?;
        let p0 = self.location_at(common.start);
        let q0 = other.location_at(common.start);
        let dv = self.velocity() - other.velocity();
        let dv2 = dv.norm_squared();
        let lo = common.start as f64;
        let hi = common.end as f64;
        if dv2 == 0.0 {
            // Relative velocity is zero: distance is constant over the common
            // interval, any time attains the minimum.
            return Some(lo);
        }
        let w0 = p0 - q0;
        let t_rel = -w0.dot(&dv) / dv2;
        Some((lo + t_rel).clamp(lo, hi))
    }

    /// `D*(l'_1, l'_2)`: the distance between the two segments at their CPA
    /// time within their common time interval (Section 6.2). Returns
    /// `f64::INFINITY` when the time intervals do not intersect, exactly as
    /// the paper prescribes.
    pub fn cpa_distance(&self, other: &TimedSegment) -> f64 {
        match self.cpa_time(other) {
            None => f64::INFINITY,
            Some(t) => {
                // Evaluate at the (possibly fractional) CPA time using the
                // time-ratio parameterisation directly.
                let a = self.location_at_f64(t);
                let b = other.location_at_f64(t);
                a.distance(&b)
            }
        }
    }

    /// Time-ratio location at a fractional time, used for CPA evaluation.
    pub fn location_at_f64(&self, t: f64) -> Point {
        let (u, v) = (self.interval.start as f64, self.interval.end as f64);
        if v == u {
            return self.segment.start;
        }
        let t = t.clamp(u, v);
        // lint: allow(checked-time-arithmetic) — f64 CPA arithmetic, wrap-free by construction
        let ratio = (t - u) / (v - u);
        self.segment.start.lerp(&self.segment.end, ratio)
    }

    /// Minimum bounding box of the spatial extent of this segment.
    #[inline]
    pub fn bounding_box(&self) -> BoundingBox {
        self.segment.bounding_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seg(x1: f64, y1: f64, x2: f64, y2: f64) -> Segment {
        Segment::new(Point::new(x1, y1), Point::new(x2, y2))
    }

    #[test]
    fn point_distance_to_horizontal_segment() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(s.distance_to_point(&Point::new(5.0, 3.0)), 3.0);
        // Beyond the end: distance to the endpoint, not the infinite line.
        assert_eq!(s.distance_to_point(&Point::new(13.0, 4.0)), 5.0);
        // On the segment.
        assert_eq!(s.distance_to_point(&Point::new(2.0, 0.0)), 0.0);
    }

    #[test]
    fn degenerate_segment_behaves_like_point() {
        let s = seg(1.0, 1.0, 1.0, 1.0);
        assert_eq!(s.length(), 0.0);
        assert_eq!(s.distance_to_point(&Point::new(4.0, 5.0)), 5.0);
    }

    #[test]
    fn segment_segment_distance_parallel() {
        let a = seg(0.0, 0.0, 10.0, 0.0);
        let b = seg(0.0, 4.0, 10.0, 4.0);
        assert_eq!(a.distance_to_segment(&b), 4.0);
        assert_eq!(b.distance_to_segment(&a), 4.0);
    }

    #[test]
    fn segment_segment_distance_intersecting_is_zero() {
        let a = seg(0.0, 0.0, 10.0, 10.0);
        let b = seg(0.0, 10.0, 10.0, 0.0);
        assert!(a.intersects(&b));
        assert_eq!(a.distance_to_segment(&b), 0.0);
    }

    #[test]
    fn segment_segment_distance_skew() {
        let a = seg(0.0, 0.0, 1.0, 0.0);
        let b = seg(3.0, 4.0, 3.0, 10.0);
        assert_eq!(
            a.distance_to_segment(&b),
            Point::new(1.0, 0.0).distance(&Point::new(3.0, 4.0))
        );
    }

    #[test]
    fn intersection_detection_touching_endpoints() {
        let a = seg(0.0, 0.0, 1.0, 1.0);
        let b = seg(1.0, 1.0, 2.0, 0.0);
        assert!(a.intersects(&b));
    }

    #[test]
    fn intersection_detection_collinear_overlap() {
        let a = seg(0.0, 0.0, 5.0, 0.0);
        let b = seg(3.0, 0.0, 8.0, 0.0);
        assert!(a.intersects(&b));
        let c = seg(6.0, 0.0, 8.0, 0.0);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn closest_point_clamps_to_endpoints() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(
            s.closest_point(&Point::new(-5.0, 2.0)),
            Point::new(0.0, 0.0)
        );
        assert_eq!(
            s.closest_point(&Point::new(50.0, 2.0)),
            Point::new(10.0, 0.0)
        );
    }

    #[test]
    fn bounding_box_covers_both_endpoints() {
        let s = seg(3.0, -1.0, -2.0, 5.0);
        let b = s.bounding_box();
        assert_eq!(b.min, Point::new(-2.0, -1.0));
        assert_eq!(b.max, Point::new(3.0, 5.0));
    }

    // ---- TimedSegment ----

    fn tseg(x1: f64, y1: f64, x2: f64, y2: f64, t1: i64, t2: i64) -> TimedSegment {
        TimedSegment::new(seg(x1, y1, x2, y2), TimeInterval::new(t1, t2))
    }

    #[test]
    fn timed_location_interpolates_by_time_ratio() {
        let s = tseg(0.0, 0.0, 10.0, 0.0, 0, 10);
        assert_eq!(s.location_at(0), Point::new(0.0, 0.0));
        assert_eq!(s.location_at(5), Point::new(5.0, 0.0));
        assert_eq!(s.location_at(10), Point::new(10.0, 0.0));
        // Clamped outside the interval.
        assert_eq!(s.location_at(20), Point::new(10.0, 0.0));
    }

    #[test]
    fn timed_location_zero_length_interval() {
        let s = tseg(1.0, 2.0, 3.0, 4.0, 5, 5);
        assert_eq!(s.location_at(5), Point::new(1.0, 2.0));
        assert_eq!(s.velocity(), Point::ORIGIN);
    }

    #[test]
    fn cpa_distance_disjoint_intervals_is_infinite() {
        let a = tseg(0.0, 0.0, 1.0, 0.0, 0, 5);
        let b = tseg(0.0, 0.0, 1.0, 0.0, 6, 10);
        assert_eq!(a.cpa_distance(&b), f64::INFINITY);
    }

    #[test]
    fn cpa_distance_identical_motion_is_zero() {
        let a = tseg(0.0, 0.0, 10.0, 10.0, 0, 10);
        let b = tseg(0.0, 0.0, 10.0, 10.0, 0, 10);
        assert!(a.cpa_distance(&b).abs() < 1e-12);
    }

    #[test]
    fn cpa_distance_crossing_objects() {
        // Two objects crossing paths: one moves east, the other north, both
        // passing through (5, 5) at t=5. CPA distance should be ~0.
        let a = tseg(0.0, 5.0, 10.0, 5.0, 0, 10);
        let b = tseg(5.0, 0.0, 5.0, 10.0, 0, 10);
        assert!(a.cpa_distance(&b) < 1e-9);
    }

    #[test]
    fn cpa_distance_parallel_constant_gap() {
        let a = tseg(0.0, 0.0, 10.0, 0.0, 0, 10);
        let b = tseg(0.0, 3.0, 10.0, 3.0, 0, 10);
        assert!((a.cpa_distance(&b) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn cpa_is_at_least_the_spatial_segment_distance() {
        // The paper's key observation: D* >= DLL, because D* restricts the
        // comparison to time-synchronised positions.
        let a = tseg(0.0, 0.0, 10.0, 0.0, 0, 10);
        let b = tseg(10.0, 1.0, 0.0, 1.0, 0, 10); // moving the opposite way
        let dll = a.segment.distance_to_segment(&b.segment);
        let dstar = a.cpa_distance(&b);
        assert!(dstar + 1e-9 >= dll, "D*={dstar} must be >= DLL={dll}");
    }

    #[test]
    fn cpa_time_partial_overlap_clamps_to_common_interval() {
        let a = tseg(0.0, 0.0, 10.0, 0.0, 0, 10);
        let b = tseg(0.0, 5.0, 0.0, 0.0, 8, 13);
        let t = a.cpa_time(&b).unwrap();
        assert!(
            (8.0..=10.0).contains(&t),
            "CPA time {t} outside common interval"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The CuTS filter computes one distance per segment pair and uses it
        /// for both directions of the ω test, which is exact only if `DLL`
        /// and `D*` are *bitwise* symmetric. Coordinates are drawn either as
        /// reals or on a quarter-unit lattice (`lattice` odd), so shared
        /// endpoints, collinear overlaps and degenerate segments turn up.
        #[test]
        fn segment_distances_are_bitwise_symmetric(
            c in proptest::collection::vec(-100.0f64..100.0, 8),
            t in proptest::collection::vec(-6i64..6, 4),
            lattice in 0u8..4,
            degenerate in 0u8..4) {
            let c: Vec<f64> = if lattice % 2 == 1 {
                c.iter().map(|v| (v / 8.0).round() * 0.25).collect()
            } else {
                c
            };
            let (bx, by) = if degenerate == 0 { (c[0], c[1]) } else { (c[2], c[3]) };
            let a = tseg(c[0], c[1], bx, by, t[0].min(t[1]), t[0].max(t[1]));
            let b = tseg(c[4], c[5], c[6], c[7], t[2].min(t[3]), t[2].max(t[3]));
            let (ab, ba) = (a.segment.distance_to_segment(&b.segment), b.segment.distance_to_segment(&a.segment));
            prop_assert_eq!(ab.to_bits(), ba.to_bits(), "DLL {} vs {}", ab, ba);
            let (ab, ba) = (a.cpa_distance(&b), b.cpa_distance(&a));
            prop_assert_eq!(ab.to_bits(), ba.to_bits(), "D* {} vs {}", ab, ba);
        }
    }

    proptest! {
        #[test]
        fn dll_is_symmetric(ax in -100.0f64..100.0, ay in -100.0f64..100.0,
                            bx in -100.0f64..100.0, by in -100.0f64..100.0,
                            cx in -100.0f64..100.0, cy in -100.0f64..100.0,
                            dx in -100.0f64..100.0, dy in -100.0f64..100.0) {
            let s1 = seg(ax, ay, bx, by);
            let s2 = seg(cx, cy, dx, dy);
            prop_assert!((s1.distance_to_segment(&s2) - s2.distance_to_segment(&s1)).abs() < 1e-9);
        }


        #[test]
        fn dll_lower_bounds_endpoint_distances(ax in -100.0f64..100.0, ay in -100.0f64..100.0,
                                               bx in -100.0f64..100.0, by in -100.0f64..100.0,
                                               cx in -100.0f64..100.0, cy in -100.0f64..100.0,
                                               dx in -100.0f64..100.0, dy in -100.0f64..100.0) {
            let s1 = seg(ax, ay, bx, by);
            let s2 = seg(cx, cy, dx, dy);
            let dll = s1.distance_to_segment(&s2);
            prop_assert!(dll <= s1.start.distance(&s2.start) + 1e-9);
            prop_assert!(dll <= s1.end.distance(&s2.end) + 1e-9);
        }

        #[test]
        fn dpl_lower_bounds_point_to_endpoint(ax in -100.0f64..100.0, ay in -100.0f64..100.0,
                                              bx in -100.0f64..100.0, by in -100.0f64..100.0,
                                              px in -100.0f64..100.0, py in -100.0f64..100.0) {
            let s = seg(ax, ay, bx, by);
            let p = Point::new(px, py);
            let d = s.distance_to_point(&p);
            prop_assert!(d <= p.distance(&s.start) + 1e-9);
            prop_assert!(d <= p.distance(&s.end) + 1e-9);
        }

        #[test]
        fn cpa_distance_dominates_dll(ax in -50.0f64..50.0, ay in -50.0f64..50.0,
                                      bx in -50.0f64..50.0, by in -50.0f64..50.0,
                                      cx in -50.0f64..50.0, cy in -50.0f64..50.0,
                                      dx in -50.0f64..50.0, dy in -50.0f64..50.0,
                                      start in 0i64..20, len in 1i64..20) {
            let a = TimedSegment::new(seg(ax, ay, bx, by), TimeInterval::new(start, start + len));
            let b = TimedSegment::new(seg(cx, cy, dx, dy), TimeInterval::new(start, start + len));
            let dll = a.segment.distance_to_segment(&b.segment);
            let dstar = a.cpa_distance(&b);
            prop_assert!(dstar + 1e-6 >= dll,
                "D* ({dstar}) must be at least DLL ({dll}) for overlapping intervals");
        }

        #[test]
        fn cpa_distance_is_attainable_synchronous_distance(
            ax in -50.0f64..50.0, ay in -50.0f64..50.0,
            bx in -50.0f64..50.0, by in -50.0f64..50.0,
            cx in -50.0f64..50.0, cy in -50.0f64..50.0,
            dx in -50.0f64..50.0, dy in -50.0f64..50.0,
            probe in 0u8..=10) {
            // D* is the minimum synchronous distance, so it can never exceed
            // the synchronous distance at any sampled time in the interval.
            let a = TimedSegment::new(seg(ax, ay, bx, by), TimeInterval::new(0, 10));
            let b = TimedSegment::new(seg(cx, cy, dx, dy), TimeInterval::new(0, 10));
            let dstar = a.cpa_distance(&b);
            let t = i64::from(probe);
            let sync = a.location_at(t).distance(&b.location_at(t));
            prop_assert!(dstar <= sync + 1e-6);
        }
    }
}
