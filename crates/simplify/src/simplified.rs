//! Simplified trajectories and their segments.

use crate::dp::{chord, SimplificationMethod};
use trajectory::geometry::segment::{Segment, TimedSegment};
use trajectory::geometry::{BoundingBox, Point};
use trajectory::{TimeInterval, TimePoint, TrajPoint, Trajectory};

/// One line segment `l′` of a simplified trajectory `o′`.
///
/// A segment keeps, besides its spatial endpoints and time interval, the
/// **actual tolerance** `δ(l′)` of Definition 4 — the maximum distance from
/// any original sample whose timestamp falls inside the segment's interval to
/// the segment — and the index range of the original samples it replaces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimplifiedSegment {
    /// Spatial endpoints plus time interval.
    pub timed: TimedSegment,
    /// Actual tolerance `δ(l′)` (Definition 4). Always `<=` the global
    /// tolerance used for the simplification.
    pub actual_tolerance: f64,
    /// Index (into the original trajectory's samples) of the segment's first
    /// endpoint.
    pub start_index: usize,
    /// Index (into the original trajectory's samples) of the segment's second
    /// endpoint.
    pub end_index: usize,
}

impl SimplifiedSegment {
    /// The segment's time interval `l′.τ`.
    #[inline]
    pub fn interval(&self) -> TimeInterval {
        self.timed.interval
    }

    /// The segment's spatial geometry.
    #[inline]
    pub fn segment(&self) -> Segment {
        self.timed.segment
    }

    /// The segment's spatial bounding box.
    #[inline]
    pub fn bounding_box(&self) -> BoundingBox {
        self.timed.bounding_box()
    }
}

/// A simplified trajectory `o′`: the retained samples of the original
/// trajectory plus the derived segments with their actual tolerances.
#[derive(Debug, Clone, PartialEq)]
pub struct SimplifiedTrajectory {
    /// The retained samples (a subset of the original samples, in time order).
    points: Vec<TrajPoint>,
    /// The segments between consecutive retained samples. Empty only for a
    /// single-sample trajectory.
    segments: Vec<SimplifiedSegment>,
    /// The global tolerance δ the simplification was run with.
    global_tolerance: f64,
    /// Number of samples in the original trajectory.
    original_len: usize,
}

impl SimplifiedTrajectory {
    /// Assembles `method`'s simplification of `original` from the sorted
    /// indices of the retained samples, measuring each segment's actual
    /// tolerance with the method's deviation over the samples it replaces.
    pub(crate) fn from_kept(
        original: &Trajectory,
        kept: &[usize],
        global_tolerance: f64,
        method: SimplificationMethod,
    ) -> SimplifiedTrajectory {
        debug_assert!(!kept.is_empty(), "at least one sample must be kept");
        debug_assert!(
            kept.windows(2).all(|w| w[0] < w[1]),
            "indices must be sorted"
        );
        let samples = original.points();
        let points: Vec<TrajPoint> = kept.iter().map(|&i| samples[i]).collect();
        let segments = kept
            .windows(2)
            .map(|w| {
                let (si, ei) = (w[0], w[1]);
                let timed = chord(&samples[si], &samples[ei]);
                SimplifiedSegment {
                    timed,
                    actual_tolerance: method.max_deviation(&timed, &samples[si..=ei]),
                    start_index: si,
                    end_index: ei,
                }
            })
            .collect();
        SimplifiedTrajectory {
            points,
            segments,
            global_tolerance,
            original_len: samples.len(),
        }
    }

    /// The retained samples.
    #[inline]
    pub fn points(&self) -> &[TrajPoint] {
        &self.points
    }

    /// The simplified segments.
    #[inline]
    pub fn segments(&self) -> &[SimplifiedSegment] {
        &self.segments
    }

    /// Number of retained samples `|o′|`.
    #[inline]
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Number of samples in the original trajectory `|o|`.
    #[inline]
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// The global tolerance δ used for the simplification.
    #[inline]
    pub fn global_tolerance(&self) -> f64 {
        self.global_tolerance
    }

    /// The trajectory's time interval `o′.τ` (identical to the original's
    /// interval because the first and last samples are always kept).
    pub fn time_interval(&self) -> TimeInterval {
        TimeInterval::new(self.points[0].t, self.points[self.points.len() - 1].t)
    }

    /// The largest actual tolerance over all segments, i.e. `δ(o′)` of
    /// Definition 4. Zero for a single-sample trajectory.
    pub fn max_actual_tolerance(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| s.actual_tolerance)
            .fold(0.0, f64::max)
    }

    /// Vertex reduction ratio in percent: `(1 - |o′| / |o|) × 100`.
    pub fn reduction_percent(&self) -> f64 {
        if self.original_len == 0 {
            return 0.0;
        }
        (1.0 - self.num_points() as f64 / self.original_len as f64) * 100.0
    }

    /// The segment whose time interval covers `t`, if any. When `t` is a
    /// boundary between two segments the earlier segment is returned.
    pub fn segment_covering(&self, t: TimePoint) -> Option<&SimplifiedSegment> {
        // Segments are ordered by time; binary search on interval start.
        let idx = self.segments.partition_point(|s| s.interval().end < t);
        let seg = self.segments.get(idx)?;
        if seg.interval().contains(t) {
            Some(seg)
        } else {
            None
        }
    }

    /// The time-ratio position of the simplified trajectory at `t`, or `None`
    /// when `t` is outside its interval. For a single-sample trajectory the
    /// sample position is returned for its own timestamp.
    pub fn location_at(&self, t: TimePoint) -> Option<Point> {
        if self.segments.is_empty() {
            let only = &self.points[0];
            return (only.t == t).then(|| only.position());
        }
        self.segment_covering(t).map(|s| s.timed.location_at(t))
    }

    /// The segments whose time intervals intersect `window`.
    ///
    /// Segments are stored in time order and consecutive segments share their
    /// boundary timestamp, so the matching segments form a contiguous range
    /// that two binary searches locate in `O(log |segments|)` — important
    /// because the CuTS filter calls this once per object per time partition.
    pub fn segments_intersecting(&self, window: TimeInterval) -> &[SimplifiedSegment] {
        let first = self
            .segments
            .partition_point(|s| s.interval().end < window.start);
        let last = self
            .segments
            .partition_point(|s| s.interval().start <= window.end);
        &self.segments[first..last]
    }

    /// Spatial bounding box of the retained samples.
    pub fn bounding_box(&self) -> BoundingBox {
        BoundingBox::from_points(self.points.iter().map(|p| p.position()))
            // lint: allow(no-unwrap-in-lib) — simplification always retains the endpoints
            .expect("simplified trajectory keeps at least one sample")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(pts: &[(f64, f64, i64)]) -> Trajectory {
        Trajectory::from_tuples(pts.iter().copied()).unwrap()
    }

    fn keep(original: &Trajectory, kept: &[usize], delta: f64) -> SimplifiedTrajectory {
        SimplifiedTrajectory::from_kept(original, kept, delta, SimplificationMethod::Dp)
    }

    #[test]
    fn from_kept_builds_segments_with_actual_tolerance() {
        // A detour at t=1 of height 2 above the straight line (0,0)->(4,0).
        let original = traj(&[(0.0, 0.0, 0), (1.0, 2.0, 1), (2.0, 0.0, 2), (4.0, 0.0, 4)]);
        let s = keep(&original, &[0, 3], 5.0);
        assert_eq!(s.num_points(), 2);
        assert_eq!(s.segments().len(), 1);
        let seg = &s.segments()[0];
        assert_eq!(seg.start_index, 0);
        assert_eq!(seg.end_index, 3);
        assert!((seg.actual_tolerance - 2.0).abs() < 1e-12);
        assert_eq!(s.max_actual_tolerance(), seg.actual_tolerance);
        assert_eq!(s.global_tolerance(), 5.0);
        assert_eq!(s.original_len(), 4);
        assert!((s.reduction_percent() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn keeping_everything_gives_zero_tolerance() {
        let original = traj(&[(0.0, 0.0, 0), (1.0, 2.0, 1), (2.0, 0.0, 2)]);
        let s = keep(&original, &[0, 1, 2], 0.0);
        assert_eq!(s.num_points(), 3);
        assert_eq!(s.max_actual_tolerance(), 0.0);
        assert_eq!(s.reduction_percent(), 0.0);
    }

    #[test]
    fn single_sample_trajectory_has_no_segments() {
        let original = traj(&[(3.0, 4.0, 7)]);
        let s = keep(&original, &[0], 1.0);
        assert!(s.segments().is_empty());
        assert_eq!(s.location_at(7), Some(Point::new(3.0, 4.0)));
        assert_eq!(s.location_at(8), None);
        assert_eq!(s.time_interval(), TimeInterval::instant(7));
        assert_eq!(s.max_actual_tolerance(), 0.0);
    }

    #[test]
    fn segment_covering_and_location() {
        let original = traj(&[(0.0, 0.0, 0), (2.0, 0.0, 2), (2.0, 4.0, 6)]);
        let s = keep(&original, &[0, 1, 2], 0.0);
        assert_eq!(s.segments().len(), 2);
        assert_eq!(s.segment_covering(1).unwrap().start_index, 0);
        assert_eq!(s.segment_covering(2).unwrap().start_index, 0); // boundary → earlier
        assert_eq!(s.segment_covering(3).unwrap().start_index, 1);
        assert!(s.segment_covering(9).is_none());
        // Time-ratio interpolation along the second segment.
        assert_eq!(s.location_at(4), Some(Point::new(2.0, 2.0)));
        assert_eq!(s.location_at(0), Some(Point::new(0.0, 0.0)));
        assert_eq!(s.location_at(7), None);
    }

    #[test]
    fn segments_intersecting_window() {
        let original = traj(&[(0.0, 0.0, 0), (1.0, 0.0, 4), (2.0, 0.0, 8), (3.0, 0.0, 12)]);
        let s = keep(&original, &[0, 1, 2, 3], 0.0);
        let hits = s.segments_intersecting(TimeInterval::new(5, 9));
        assert_eq!(hits.len(), 2);
        let hits = s.segments_intersecting(TimeInterval::new(0, 12));
        assert_eq!(hits.len(), 3);
        let hits = s.segments_intersecting(TimeInterval::new(20, 30));
        assert!(hits.is_empty());
    }

    #[test]
    fn bounding_box_covers_kept_points() {
        let original = traj(&[(0.0, 0.0, 0), (5.0, -3.0, 1), (2.0, 7.0, 2)]);
        let s = keep(&original, &[0, 1, 2], 0.0);
        let b = s.bounding_box();
        assert_eq!(b.min, Point::new(0.0, -3.0));
        assert_eq!(b.max, Point::new(5.0, 7.0));
    }
}
