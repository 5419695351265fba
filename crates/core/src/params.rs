//! Automatic selection of the CuTS internal parameters δ and λ
//! (Section 7.4 of the paper), re-exported at the convoy level.

use traj_simplify::{select_delta_for_database, select_lambda, SimplifiedTrajectory};
use trajectory::TrajectoryDatabase;

/// Fraction of the database's trajectories sampled by the δ guideline
/// (the paper suggests "a sufficient time (e.g. 10 % of N)").
pub const DELTA_SAMPLE_FRACTION: f64 = 0.1;

/// Selects the simplification tolerance δ for a database and a neighbourhood
/// range `e`, following the Section 7.4 guideline: run DP with δ = 0 on a
/// sample of trajectories, look for the largest gap between adjacent recorded
/// tolerances below `e`, and average the per-trajectory selections.
pub fn auto_delta(db: &TrajectoryDatabase, e: f64) -> f64 {
    select_delta_for_database(db, e, DELTA_SAMPLE_FRACTION)
}

/// Selects the time-partition length λ from the simplified trajectories and
/// the convoy lifetime `k`, following the Section 7.4 guideline (see
/// [`traj_simplify::select_lambda`] for the exact formulation used).
pub fn auto_lambda<'a, I>(simplified: I, k: usize) -> usize
where
    I: IntoIterator<Item = &'a SimplifiedTrajectory>,
{
    select_lambda(simplified, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_simplify::SimplificationMethod;
    use trajectory::{ObjectId, TrajPoint, Trajectory};

    fn wiggly(n: i64, amplitude: f64) -> Trajectory {
        Trajectory::from_points(
            (0..n)
                .map(|t| {
                    let y = if t % 2 == 0 { amplitude } else { -amplitude };
                    TrajPoint::new(t as f64, y, t)
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn auto_delta_is_positive_and_below_e() {
        let mut db = TrajectoryDatabase::new();
        for i in 0..20u64 {
            db.insert(ObjectId(i), wiggly(50, 0.3 + i as f64 * 0.01));
        }
        let e = 5.0;
        let delta = auto_delta(&db, e);
        assert!(delta > 0.0);
        assert!(delta < e);
    }

    #[test]
    fn auto_lambda_respects_k() {
        let traj = wiggly(100, 0.1);
        let simplified = SimplificationMethod::Dp.simplify(&traj, 1.0);
        let lambda = auto_lambda([&simplified], 10);
        assert!((2..=10).contains(&lambda));
    }
}
