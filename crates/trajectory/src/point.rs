//! Timestamped trajectory points `(x, y, t)`.

use crate::geometry::point::Point;
use crate::time::TimePoint;

/// A timestamped location: the `p_j = (x_j, y_j, t_j)` of the paper's
/// trajectory model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajPoint {
    /// x coordinate.
    pub x: f64,
    /// y coordinate.
    pub y: f64,
    /// Time point at which the location was sampled.
    pub t: TimePoint,
}

impl TrajPoint {
    /// Creates a new timestamped point.
    #[inline]
    pub const fn new(x: f64, y: f64, t: TimePoint) -> Self {
        TrajPoint { x, y, t }
    }

    /// The spatial component of the point.
    #[inline]
    pub const fn position(&self) -> Point {
        Point::new(self.x, self.y)
    }

    /// Euclidean distance between the spatial components of two samples
    /// (their timestamps are ignored).
    #[inline]
    pub fn spatial_distance(&self, other: &TrajPoint) -> f64 {
        self.position().distance(&other.position())
    }

    /// Returns `true` when both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// The linearly interpolated *virtual point* (Section 4 of the paper)
    /// between two bracketing samples at time `t`.
    ///
    /// This is **the** virtual-point arithmetic of the whole stack:
    /// [`crate::Trajectory::location_at`], the [`crate::SnapshotSweep`]
    /// cursor and the streaming ingest buffers all call it, which is what
    /// makes their snapshots bit-identical to one another.
    ///
    /// Requires `before.t < t < after.t` (callers handle the exact-sample
    /// case themselves, so the division is always well defined).
    #[inline]
    pub fn interpolate(before: &TrajPoint, after: &TrajPoint, t: TimePoint) -> Point {
        debug_assert!(
            before.t < t && t < after.t,
            "t must lie strictly between the samples"
        );
        // Saturating keeps the ratio well defined even for sample gaps wider
        // than the i64 range (identical to bare `-` whenever no overflow).
        let ratio = t.saturating_sub(before.t) as f64 / after.t.saturating_sub(before.t) as f64;
        before.position().lerp(&after.position(), ratio)
    }
}

impl From<(f64, f64, TimePoint)> for TrajPoint {
    #[inline]
    fn from((x, y, t): (f64, f64, TimePoint)) -> Self {
        TrajPoint::new(x, y, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_projection() {
        let p = TrajPoint::new(1.0, 2.0, 5);
        assert_eq!(p.position(), Point::new(1.0, 2.0));
        assert_eq!(p.t, 5);
    }

    #[test]
    fn spatial_distance_ignores_time() {
        let a = TrajPoint::new(0.0, 0.0, 0);
        let b = TrajPoint::new(3.0, 4.0, 1000);
        assert_eq!(a.spatial_distance(&b), 5.0);
    }

    #[test]
    fn finite_check() {
        assert!(TrajPoint::new(0.0, 0.0, 0).is_finite());
        assert!(!TrajPoint::new(f64::NAN, 0.0, 0).is_finite());
    }

    #[test]
    fn tuple_conversion() {
        let p: TrajPoint = (1.0, -1.0, 3).into();
        assert_eq!(p, TrajPoint::new(1.0, -1.0, 3));
    }
}
