//! Incremental construction of trajectories.

use crate::error::Result;
use crate::point::TrajPoint;
use crate::time::TimePoint;
use crate::trajectory::Trajectory;

/// An incremental builder for [`Trajectory`] values.
///
/// Points may be pushed in any order; they are sorted by timestamp when the
/// trajectory is finalised. Duplicate timestamps are resolved by keeping the
/// **last** pushed sample for that timestamp, which matches how GPS feeds are
/// usually de-duplicated (later fix wins).
///
/// ```
/// use trajectory::TrajectoryBuilder;
///
/// let traj = TrajectoryBuilder::new()
///     .push(0.0, 0.0, 2)
///     .push(1.0, 1.0, 0)
///     .push(0.5, 0.5, 1)
///     .build()
///     .unwrap();
/// assert_eq!(traj.start_time(), 0);
/// assert_eq!(traj.end_time(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TrajectoryBuilder {
    points: Vec<TrajPoint>,
}

impl TrajectoryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TrajectoryBuilder { points: Vec::new() }
    }

    /// Creates an empty builder with space reserved for `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        TrajectoryBuilder {
            points: Vec::with_capacity(capacity),
        }
    }

    /// Adds a sample. Returns `self` for chaining.
    #[must_use]
    pub fn push(mut self, x: f64, y: f64, t: TimePoint) -> Self {
        self.points.push(TrajPoint::new(x, y, t));
        self
    }

    /// Adds a sample through a mutable reference (non-chaining form).
    pub fn add(&mut self, x: f64, y: f64, t: TimePoint) -> &mut Self {
        self.points.push(TrajPoint::new(x, y, t));
        self
    }

    /// Number of samples currently buffered.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when no samples have been buffered.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Finalises the builder into a [`Trajectory`], sorting samples by time
    /// and de-duplicating equal timestamps (**last sample wins** — a later
    /// duplicate is treated as a correction of the earlier fix). This is the
    /// batch half of the suite's duplicate policy; a live feed takes the
    /// opposite stance and *rejects* a duplicate timestamp, because it
    /// cannot retract what it has already emitted (see
    /// [`crate::FeedError::DuplicateTimestamp`]).
    pub fn build(mut self) -> Result<Trajectory> {
        // Stable sort preserves push order among equal timestamps, so keeping
        // the last occurrence implements "later fix wins".
        self.points.sort_by_key(|p| p.t);
        let mut deduped: Vec<TrajPoint> = Vec::with_capacity(self.points.len());
        for p in self.points {
            match deduped.last_mut() {
                Some(last) if last.t == p.t => *last = p,
                _ => deduped.push(p),
            }
        }
        Trajectory::from_points(deduped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TrajectoryError;

    #[test]
    fn builds_sorted_trajectory() {
        let t = TrajectoryBuilder::new()
            .push(2.0, 2.0, 2)
            .push(0.0, 0.0, 0)
            .push(1.0, 1.0, 1)
            .build()
            .unwrap();
        let times: Vec<_> = t.points().iter().map(|p| p.t).collect();
        assert_eq!(times, vec![0, 1, 2]);
    }

    #[test]
    fn duplicate_timestamps_keep_last_pushed() {
        let t = TrajectoryBuilder::new()
            .push(0.0, 0.0, 0)
            .push(9.0, 9.0, 1)
            .push(1.0, 1.0, 1)
            .build()
            .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.sample_at(1).unwrap().x, 1.0);
    }

    #[test]
    fn empty_builder_errors() {
        assert_eq!(
            TrajectoryBuilder::new().build().unwrap_err(),
            TrajectoryError::EmptyTrajectory
        );
    }

    #[test]
    fn mutable_add_interface() {
        let mut b = TrajectoryBuilder::with_capacity(3);
        b.add(0.0, 0.0, 0).add(1.0, 0.0, 1).add(2.0, 0.0, 2);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        let t = b.build().unwrap();
        assert_eq!(t.len(), 3);
    }
}
