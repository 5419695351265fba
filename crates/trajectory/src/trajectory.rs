//! Trajectories: timestamped polylines with interpolation and slicing.

use crate::error::{Result, TrajectoryError};
use crate::geometry::bbox::BoundingBox;
use crate::geometry::point::Point;
use crate::point::TrajPoint;
use crate::time::{TimeInterval, TimePoint};

/// The past trajectory of an object: a polyline given as a sequence of
/// timestamped locations `⟨p_a, p_{a+1}, …, p_b⟩` with strictly increasing
/// timestamps (the paper's Section 3 model).
///
/// Sampling may be *irregular*: consecutive samples may skip time points of
/// the global time domain. [`Trajectory::location_at`] therefore distinguishes
/// exact samples from linearly interpolated *virtual points* (the virtual
/// locations used by the CMC algorithm).
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    points: Vec<TrajPoint>,
}

impl Trajectory {
    /// Builds a trajectory from a sequence of timestamped points.
    ///
    /// # Errors
    ///
    /// * [`TrajectoryError::EmptyTrajectory`] when `points` is empty;
    /// * [`TrajectoryError::NonMonotonicTime`] when timestamps are not
    ///   strictly increasing;
    /// * [`TrajectoryError::NonFiniteCoordinate`] when a coordinate is NaN or
    ///   infinite.
    pub fn from_points(points: Vec<TrajPoint>) -> Result<Self> {
        if points.is_empty() {
            return Err(TrajectoryError::EmptyTrajectory);
        }
        for (i, p) in points.iter().enumerate() {
            if !p.is_finite() {
                return Err(TrajectoryError::NonFiniteCoordinate { index: i });
            }
            if i > 0 && points[i - 1].t >= p.t {
                return Err(TrajectoryError::NonMonotonicTime { index: i });
            }
        }
        Ok(Trajectory { points })
    }

    /// Builds a trajectory from `(x, y, t)` tuples.
    pub fn from_tuples<I>(tuples: I) -> Result<Self>
    where
        I: IntoIterator<Item = (f64, f64, TimePoint)>,
    {
        Self::from_points(tuples.into_iter().map(TrajPoint::from).collect())
    }

    /// The timestamped samples of the trajectory, in time order.
    #[inline]
    pub fn points(&self) -> &[TrajPoint] {
        &self.points
    }

    /// Number of samples (`|o|` in the paper's λ guideline).
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the trajectory has exactly one sample. (A
    /// trajectory is never empty by construction.)
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// First sample.
    #[inline]
    pub fn first(&self) -> &TrajPoint {
        &self.points[0]
    }

    /// Last sample.
    #[inline]
    pub fn last(&self) -> &TrajPoint {
        &self.points[self.points.len() - 1]
    }

    /// The trajectory's time interval `o.τ = [t_a, t_b]`.
    #[inline]
    pub fn time_interval(&self) -> TimeInterval {
        TimeInterval::new(self.first().t, self.last().t)
    }

    /// Start time `t_a`.
    #[inline]
    pub fn start_time(&self) -> TimePoint {
        self.first().t
    }

    /// End time `t_b`.
    #[inline]
    pub fn end_time(&self) -> TimePoint {
        self.last().t
    }

    /// Returns `true` when the trajectory's interval covers time `t`
    /// (`t ∈ o.τ`). Note this does *not* require an exact sample at `t`.
    #[inline]
    pub fn covers(&self, t: TimePoint) -> bool {
        self.time_interval().contains(t)
    }

    /// Returns the exact sample at time `t`, if one exists.
    pub fn sample_at(&self, t: TimePoint) -> Option<&TrajPoint> {
        self.points
            .binary_search_by_key(&t, |p| p.t)
            .ok()
            .map(|i| &self.points[i])
    }

    /// `o(t)`: the location of the object at time `t`.
    ///
    /// When `t` coincides with a sample the sampled position is returned;
    /// otherwise the position is linearly interpolated between the
    /// surrounding samples (the *virtual point* of Section 4). Returns `None`
    /// when `t` lies outside the trajectory's time interval.
    pub fn location_at(&self, t: TimePoint) -> Option<Point> {
        if !self.covers(t) {
            return None;
        }
        match self.points.binary_search_by_key(&t, |p| p.t) {
            Ok(i) => Some(self.points[i].position()),
            Err(i) => {
                // `i` is the insertion index: points[i-1].t < t < points[i].t.
                Some(TrajPoint::interpolate(
                    &self.points[i - 1],
                    &self.points[i],
                    t,
                ))
            }
        }
    }

    /// Returns the sub-trajectory restricted to the samples with timestamps
    /// inside `interval`, or `None` when no sample falls inside it.
    ///
    /// Only *exact* samples are retained; interpolation at the interval
    /// boundaries is the responsibility of callers that need it (the
    /// refinement step works directly on original samples).
    pub fn slice(&self, interval: TimeInterval) -> Option<Trajectory> {
        let first = self.points.partition_point(|p| p.t < interval.start);
        let last = self.points.partition_point(|p| p.t <= interval.end);
        if first >= last {
            return None;
        }
        Some(Trajectory {
            points: self.points[first..last].to_vec(),
        })
    }

    /// The total Euclidean length of the polyline (sum of consecutive sample
    /// distances).
    pub fn path_length(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| w[0].spatial_distance(&w[1]))
            .sum()
    }

    /// Spatial bounding box of all samples.
    pub fn bounding_box(&self) -> BoundingBox {
        BoundingBox::from_points(self.points.iter().map(|p| p.position()))
            // lint: allow(no-unwrap-in-lib) — Trajectory construction rejects empty point sets
            .expect("trajectory is never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn traj(pts: &[(f64, f64, i64)]) -> Trajectory {
        Trajectory::from_tuples(pts.iter().copied()).unwrap()
    }

    #[test]
    fn construction_rejects_empty() {
        assert_eq!(
            Trajectory::from_points(vec![]),
            Err(TrajectoryError::EmptyTrajectory)
        );
    }

    #[test]
    fn construction_rejects_unordered_times() {
        let err = Trajectory::from_tuples([(0.0, 0.0, 3), (1.0, 1.0, 2)]).unwrap_err();
        assert_eq!(err, TrajectoryError::NonMonotonicTime { index: 1 });
        // Equal timestamps are also rejected (strictly increasing).
        let err = Trajectory::from_tuples([(0.0, 0.0, 3), (1.0, 1.0, 3)]).unwrap_err();
        assert_eq!(err, TrajectoryError::NonMonotonicTime { index: 1 });
    }

    #[test]
    fn construction_rejects_nan() {
        let err = Trajectory::from_tuples([(0.0, 0.0, 0), (f64::NAN, 1.0, 1)]).unwrap_err();
        assert_eq!(err, TrajectoryError::NonFiniteCoordinate { index: 1 });
        let err = Trajectory::from_tuples([(0.0, f64::NAN, 0)]).unwrap_err();
        assert_eq!(err, TrajectoryError::NonFiniteCoordinate { index: 0 });
    }

    #[test]
    fn construction_rejects_infinities() {
        // Infinite coordinates would silently collapse into one grid cell in
        // the clustering layer, so they are refused at the door like NaN.
        let err = Trajectory::from_tuples([(f64::INFINITY, 0.0, 0)]).unwrap_err();
        assert_eq!(err, TrajectoryError::NonFiniteCoordinate { index: 0 });
        let err =
            Trajectory::from_tuples([(0.0, 0.0, 0), (1.0, f64::NEG_INFINITY, 1)]).unwrap_err();
        assert_eq!(err, TrajectoryError::NonFiniteCoordinate { index: 1 });
        // The incremental builder funnels through the same validation.
        let err = crate::builder::TrajectoryBuilder::new()
            .push(0.0, 0.0, 0)
            .push(f64::INFINITY, 0.0, 1)
            .build()
            .unwrap_err();
        assert_eq!(err, TrajectoryError::NonFiniteCoordinate { index: 1 });
    }

    #[test]
    fn single_point_trajectory() {
        let t = traj(&[(1.0, 2.0, 5)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.time_interval(), TimeInterval::instant(5));
        assert_eq!(t.location_at(5), Some(Point::new(1.0, 2.0)));
        assert_eq!(t.location_at(6), None);
        assert_eq!(t.path_length(), 0.0);
    }

    #[test]
    fn exact_and_interpolated_locations() {
        let t = traj(&[(0.0, 0.0, 0), (10.0, 0.0, 10)]);
        assert_eq!(t.location_at(0), Some(Point::new(0.0, 0.0)));
        assert_eq!(t.location_at(10), Some(Point::new(10.0, 0.0)));
        // Interpolated (virtual) point halfway through.
        assert_eq!(t.location_at(5), Some(Point::new(5.0, 0.0)));
        assert_eq!(t.location_at(3), Some(Point::new(3.0, 0.0)));
        assert!(t.sample_at(0).is_some());
        assert!(t.sample_at(5).is_none());
    }

    #[test]
    fn location_outside_interval_is_none() {
        let t = traj(&[(0.0, 0.0, 2), (1.0, 1.0, 4)]);
        assert_eq!(t.location_at(1), None);
        assert_eq!(t.location_at(5), None);
    }

    #[test]
    fn slice_selects_samples_within_interval() {
        let t = traj(&[(0.0, 0.0, 0), (1.0, 0.0, 2), (2.0, 0.0, 4), (3.0, 0.0, 6)]);
        let s = t.slice(TimeInterval::new(1, 5)).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.start_time(), 2);
        assert_eq!(s.end_time(), 4);
        // Interval with no samples.
        assert!(t.slice(TimeInterval::new(7, 9)).is_none());
        // Full-range slice returns everything.
        assert_eq!(t.slice(TimeInterval::new(0, 6)).unwrap().len(), 4);
    }

    #[test]
    fn path_length_and_bbox() {
        let t = traj(&[(0.0, 0.0, 0), (3.0, 4.0, 1), (3.0, 4.0, 2)]);
        assert_eq!(t.path_length(), 5.0);
        let b = t.bounding_box();
        assert_eq!(b.min, Point::new(0.0, 0.0));
        assert_eq!(b.max, Point::new(3.0, 4.0));
    }

    prop_compose! {
        fn arb_trajectory()(len in 1usize..40)
            (times in proptest::collection::btree_set(-500i64..500, len..len + 1),
             coords in proptest::collection::vec((-1000.0f64..1000.0, -1000.0f64..1000.0), len))
            -> Trajectory {
            let pts: Vec<TrajPoint> = times
                .into_iter()
                .zip(coords)
                .map(|(t, (x, y))| TrajPoint::new(x, y, t))
                .collect();
            Trajectory::from_points(pts).unwrap()
        }
    }

    proptest! {
        #[test]
        fn interpolation_stays_inside_bounding_box(t in arb_trajectory(), offset in 0i64..1000) {
            let interval = t.time_interval();
            let probe = interval.start + offset % interval.num_points().max(1);
            if let Some(p) = t.location_at(probe) {
                // Interpolated points lie on the polyline, hence inside the
                // (slightly expanded for numeric noise) bounding box.
                prop_assert!(t.bounding_box().expanded(1e-9).contains(&p));
            }
        }

        #[test]
        fn exact_samples_round_trip(t in arb_trajectory()) {
            for p in t.points() {
                prop_assert_eq!(t.location_at(p.t).unwrap(), p.position());
                prop_assert!(t.sample_at(p.t).is_some());
            }
        }

        #[test]
        fn slice_never_extends_interval(t in arb_trajectory(), a in -500i64..500, b in -500i64..500) {
            let interval = TimeInterval::new(a, b);
            if let Some(s) = t.slice(interval) {
                prop_assert!(s.start_time() >= interval.start);
                prop_assert!(s.end_time() <= interval.end);
                prop_assert!(s.len() <= t.len());
            }
        }
    }
}
