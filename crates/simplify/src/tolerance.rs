//! Tolerance handling: the global-vs-actual tolerance switch (Figure 14 of
//! the paper) and vertex-reduction statistics (Figure 15).

use crate::simplified::SimplifiedTrajectory;

/// Which tolerance the filter step uses when enlarging its range searches
/// over simplified segments.
///
/// The paper observes (Section 7.2, Figure 14) that the **actual** tolerance
/// recorded per segment is never larger than — and usually much smaller than —
/// the global δ, so using it tightens the filter without risking correctness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ToleranceMode {
    /// Use each segment's recorded actual tolerance `δ(l′)` (the default and
    /// the paper's recommended setting).
    #[default]
    Actual,
    /// Use the global simplification tolerance δ for every segment.
    Global,
}

impl ToleranceMode {
    /// The tolerance value to use for a segment with actual tolerance
    /// `actual`, under a global tolerance `global`.
    #[inline]
    pub fn tolerance_for(&self, actual: f64, global: f64) -> f64 {
        match self {
            ToleranceMode::Actual => actual,
            ToleranceMode::Global => global,
        }
    }

    /// Display name used by the figure-regeneration binaries.
    pub fn name(&self) -> &'static str {
        match self {
            ToleranceMode::Actual => "actual",
            ToleranceMode::Global => "global",
        }
    }
}

/// Aggregate vertex-reduction statistics over a set of simplified
/// trajectories (one dataset), in the shape of Figure 15(a).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReductionStats {
    /// Total number of samples before simplification.
    pub original_points: usize,
    /// Total number of samples kept after simplification.
    pub simplified_points: usize,
    /// The largest actual tolerance observed over all segments.
    pub max_actual_tolerance: f64,
    /// Arithmetic mean of per-segment actual tolerances.
    pub mean_actual_tolerance: f64,
    /// Number of trajectories summarised.
    pub num_trajectories: usize,
}

impl ReductionStats {
    /// Computes reduction statistics for a set of simplified trajectories.
    pub fn from_simplified<'a, I>(simplified: I) -> ReductionStats
    where
        I: IntoIterator<Item = &'a SimplifiedTrajectory>,
    {
        let mut stats = ReductionStats::default();
        let mut tolerance_sum = 0.0f64;
        let mut segment_count = 0usize;
        for s in simplified {
            stats.num_trajectories += 1;
            stats.original_points += s.original_len();
            stats.simplified_points += s.num_points();
            for seg in s.segments() {
                tolerance_sum += seg.actual_tolerance;
                segment_count += 1;
                if seg.actual_tolerance > stats.max_actual_tolerance {
                    stats.max_actual_tolerance = seg.actual_tolerance;
                }
            }
        }
        if segment_count > 0 {
            stats.mean_actual_tolerance = tolerance_sum / segment_count as f64;
        }
        stats
    }

    /// Vertex reduction in percent: `(1 - kept / original) × 100`.
    pub fn reduction_percent(&self) -> f64 {
        if self.original_points == 0 {
            return 0.0;
        }
        (1.0 - self.simplified_points as f64 / self.original_points as f64) * 100.0
    }

    /// The reduction *factor* `Σ|o| / Σ|o′|` that Algorithm 2 feeds to the λ
    /// guideline (≥ 1; 1 when nothing was removed).
    pub fn reduction_factor(&self) -> f64 {
        if self.simplified_points == 0 {
            return 1.0;
        }
        self.original_points as f64 / self.simplified_points as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimplificationMethod;
    use trajectory::Trajectory;

    fn traj(pts: &[(f64, f64, i64)]) -> Trajectory {
        Trajectory::from_tuples(pts.iter().copied()).unwrap()
    }

    #[test]
    fn tolerance_mode_selection() {
        assert_eq!(ToleranceMode::Actual.tolerance_for(1.5, 10.0), 1.5);
        assert_eq!(ToleranceMode::Global.tolerance_for(1.5, 10.0), 10.0);
        assert_eq!(ToleranceMode::default(), ToleranceMode::Actual);
        assert_eq!(ToleranceMode::Actual.name(), "actual");
        assert_eq!(ToleranceMode::Global.name(), "global");
    }

    #[test]
    fn reduction_stats_aggregate_multiple_trajectories() {
        let t1 = traj(&[(0.0, 0.0, 0), (1.0, 0.0, 1), (2.0, 0.0, 2), (3.0, 0.0, 3)]);
        let t2 = traj(&[(0.0, 0.0, 0), (1.0, 5.0, 1), (2.0, 0.0, 2)]);
        let s1 = SimplificationMethod::Dp.simplify(&t1, 1.0); // collapses to 2 points
        let s2 = SimplificationMethod::Dp.simplify(&t2, 1.0); // spike kept: 3 points
        let stats = ReductionStats::from_simplified([&s1, &s2]);
        assert_eq!(stats.num_trajectories, 2);
        assert_eq!(stats.original_points, 7);
        assert_eq!(stats.simplified_points, 5);
        assert!((stats.reduction_percent() - (1.0 - 5.0 / 7.0) * 100.0).abs() < 1e-9);
        assert!((stats.reduction_factor() - 7.0 / 5.0).abs() < 1e-9);
        assert!(stats.max_actual_tolerance <= 1.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let stats = ReductionStats::from_simplified(std::iter::empty());
        assert_eq!(stats.reduction_percent(), 0.0);
        assert_eq!(stats.reduction_factor(), 1.0);
        assert_eq!(stats.num_trajectories, 0);
    }
}
