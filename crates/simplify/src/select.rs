//! Data-driven selection of the internal CuTS parameters δ and λ
//! (Section 7.4 of the paper).
//!
//! Neither parameter affects the *correctness* of convoy discovery — only its
//! running time — so the guidelines here aim for "reasonable" rather than
//! optimal values, exactly as the paper does.

use crate::simplified::SimplifiedTrajectory;
use trajectory::geometry::Segment;
use trajectory::{Trajectory, TrajectoryDatabase};

/// The outcome of the δ-selection guideline for a single trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaSelection {
    /// The selected tolerance δ_s (the smaller value of the adjacent pair
    /// with the largest gap, restricted to values below `e`).
    pub selected: f64,
    /// The sorted actual tolerance values collected by running DP with δ = 0.
    pub tolerances: Vec<f64>,
}

/// Runs the Section 7.4 δ-selection guideline on one trajectory.
///
/// 1. Run DP with δ = 0, recording the deviation of the split point at every
///    division step (these are the "actual tolerance values" of the guideline).
/// 2. Sort them ascending and keep only the values smaller than `e`.
/// 3. Find the adjacent pair with the largest gap and return the smaller of
///    the two.
///
/// Returns `None` when the trajectory yields no usable tolerance value (fewer
/// than three samples, or all deviations ≥ `e`, or a perfectly straight
/// trajectory whose deviations are all zero).
pub fn select_delta(trajectory: &Trajectory, e: f64) -> Option<DeltaSelection> {
    let points = trajectory.points();
    if points.len() < 3 {
        return None;
    }
    // DP with δ = 0: recurse until every intermediate point has been chosen as
    // a split point once, recording its deviation at the moment of the split.
    let mut deviations = Vec::with_capacity(points.len().saturating_sub(2));
    let mut stack = vec![(0usize, points.len() - 1)];
    while let Some((first, last)) = stack.pop() {
        if last <= first + 1 {
            continue;
        }
        let seg = Segment::new(points[first].position(), points[last].position());
        let mut max_dist = -1.0f64;
        let mut max_idx = first + 1;
        for (i, p) in points.iter().enumerate().take(last).skip(first + 1) {
            let d = seg.distance_to_point(&p.position());
            if d > max_dist {
                max_dist = d;
                max_idx = i;
            }
        }
        deviations.push(max_dist);
        stack.push((first, max_idx));
        stack.push((max_idx, last));
    }
    // lint: allow(no-unwrap-in-lib) — deviations are distances of finite points, never NaN
    deviations.sort_by(|a, b| a.partial_cmp(b).expect("deviations are finite"));
    // Keep only tolerances strictly below e, as the guideline prescribes.
    let usable: Vec<f64> = deviations.iter().copied().filter(|d| *d < e).collect();
    if usable.len() < 2 {
        // With fewer than two usable values there is no "gap" to inspect; fall
        // back to the single value if it is positive.
        return usable
            .first()
            .copied()
            .filter(|d| *d > 0.0)
            .map(|selected| DeltaSelection {
                selected,
                tolerances: usable,
            });
    }
    let mut best_gap = f64::NEG_INFINITY;
    let mut best_lower = usable[0];
    for w in usable.windows(2) {
        let gap = w[1] - w[0];
        if gap > best_gap {
            best_gap = gap;
            best_lower = w[0];
        }
    }
    if best_lower <= 0.0 {
        // A zero tolerance would disable simplification entirely; pick the
        // smallest positive usable value instead.
        best_lower = usable.iter().copied().find(|d| *d > 0.0)?;
    }
    Some(DeltaSelection {
        selected: best_lower,
        tolerances: usable,
    })
}

/// Runs the δ guideline over a sample of the database's trajectories
/// (the paper suggests around 10 % of N) and averages the selected values.
///
/// Falls back to `e / 2` when no trajectory yields a usable selection, so
/// callers always receive a positive tolerance.
pub fn select_delta_for_database(db: &TrajectoryDatabase, e: f64, sample_fraction: f64) -> f64 {
    let n = db.len();
    if n == 0 {
        return e / 2.0;
    }
    let sample_size = ((n as f64 * sample_fraction).ceil() as usize).clamp(1, n);
    // Deterministic sample: evenly spaced object indices. Reproducibility
    // matters more here than statistical purity.
    let step = (n / sample_size).max(1);
    let mut sum = 0.0f64;
    let mut count = 0usize;
    for (i, (_, traj)) in db.iter().enumerate() {
        if i % step != 0 {
            continue;
        }
        if let Some(sel) = select_delta(traj, e) {
            sum += sel.selected;
            count += 1;
        }
        if count >= sample_size {
            break;
        }
    }
    if count == 0 {
        e / 2.0
    } else {
        sum / count as f64
    }
}

/// The Section 7.4 guideline for the time-partition length λ.
///
/// The underlying intuition: the natural partition length λ₁ for an object is
/// the average number of original time points covered by one simplified
/// segment (the reduction factor of the simplification). That value is then
/// discounted by the object's *missing-sample* probability, because partitions
/// longer than the typical gap between shared samples weaken the filter. We
/// compute, per object,
///
/// ```text
/// λ₁(o)  = |o| / max(1, |o′| - 1)             (samples per simplified segment)
/// miss(o) = 1 - |o| / |o.τ|                   (fraction of missing time points)
/// λ(o)   = λ₁(o) - (λ₁(o) - 2) · miss(o)      (discount, never below 2)
/// ```
///
/// and average λ(o) over all objects, clamping the result to `[2, k]` — a
/// partition longer than the convoy lifetime k can never help the filter.
///
/// (The paper's closed-form expression is stated slightly differently but its
/// own Table 3 values do not satisfy it; this implementation follows the
/// stated *intent* — dense, long trajectories get long partitions, sparsely
/// sampled ones get short partitions — and reproduces the relative ordering of
/// the paper's chosen λ values across the four dataset profiles.)
pub fn select_lambda<'a, I>(simplified: I, k: usize) -> usize
where
    I: IntoIterator<Item = &'a SimplifiedTrajectory>,
{
    let mut sum = 0.0f64;
    let mut count = 0usize;
    for s in simplified {
        let original = s.original_len() as f64;
        let segments = (s.num_points().saturating_sub(1)).max(1) as f64;
        let lambda1 = original / segments;
        let covered = s.time_interval().num_points() as f64;
        let missing = if covered > 0.0 {
            (1.0 - original / covered).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let lambda = lambda1 - (lambda1 - 2.0) * missing;
        sum += lambda.max(2.0);
        count += 1;
    }
    if count == 0 {
        return 2;
    }
    let mean = sum / count as f64;
    let upper = k.max(2);
    (mean.round() as usize).clamp(2, upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimplificationMethod;
    use trajectory::{ObjectId, TrajPoint};

    fn traj(pts: &[(f64, f64, i64)]) -> Trajectory {
        Trajectory::from_tuples(pts.iter().copied()).unwrap()
    }

    /// A wiggly trajectory with two scales of deviation: small jitter (~0.2)
    /// and occasional large detours (~5.0).
    fn two_scale_trajectory() -> Trajectory {
        let mut pts = Vec::new();
        for i in 0..60i64 {
            let x = i as f64;
            let jitter = if i % 2 == 0 { 0.2 } else { -0.2 };
            let detour = if i % 15 == 7 { 5.0 } else { 0.0 };
            pts.push(TrajPoint::new(x, jitter + detour, i));
        }
        Trajectory::from_points(pts).unwrap()
    }

    #[test]
    fn select_delta_finds_the_gap_between_scales() {
        let t = two_scale_trajectory();
        let sel = select_delta(&t, 8.0).expect("selection must succeed");
        // The selected δ must sit at the top of the jitter scale, well below
        // the detour scale.
        assert!(sel.selected > 0.0);
        assert!(
            sel.selected < 5.0,
            "δ={} should stay below the detour scale",
            sel.selected
        );
        // Tolerances are sorted ascending and below e.
        assert!(sel.tolerances.windows(2).all(|w| w[0] <= w[1]));
        assert!(sel.tolerances.iter().all(|d| *d < 8.0));
    }

    #[test]
    fn select_delta_respects_e_ceiling() {
        let t = two_scale_trajectory();
        // With e below the jitter scale nothing is usable except possibly tiny
        // values; the selection must never return a value >= e.
        if let Some(sel) = select_delta(&t, 0.15) {
            assert!(sel.selected < 0.15);
        }
    }

    #[test]
    fn select_delta_degenerate_inputs() {
        assert!(select_delta(&traj(&[(0.0, 0.0, 0)]), 1.0).is_none());
        assert!(select_delta(&traj(&[(0.0, 0.0, 0), (1.0, 1.0, 1)]), 1.0).is_none());
        // Perfectly straight trajectory: all deviations zero → no usable δ.
        let straight = traj(&[(0.0, 0.0, 0), (1.0, 0.0, 1), (2.0, 0.0, 2), (3.0, 0.0, 3)]);
        assert!(select_delta(&straight, 1.0).is_none());
    }

    #[test]
    fn select_delta_for_database_averages_and_falls_back() {
        let mut db = TrajectoryDatabase::new();
        db.insert(ObjectId(1), two_scale_trajectory());
        db.insert(ObjectId(2), two_scale_trajectory());
        let delta = select_delta_for_database(&db, 8.0, 0.5);
        assert!(delta > 0.0 && delta < 8.0);
        // Empty database: fall back to e/2.
        let empty = TrajectoryDatabase::new();
        assert_eq!(select_delta_for_database(&empty, 8.0, 0.1), 4.0);
        // Database of straight lines: fall back to e/2.
        let mut straight_db = TrajectoryDatabase::new();
        straight_db.insert(
            ObjectId(1),
            traj(&[(0.0, 0.0, 0), (1.0, 0.0, 1), (2.0, 0.0, 2)]),
        );
        assert_eq!(select_delta_for_database(&straight_db, 8.0, 1.0), 4.0);
    }

    #[test]
    fn select_lambda_scales_with_reduction_and_density() {
        // Densely sampled, highly reducible trajectory → large λ.
        let dense = traj(
            &(0..100)
                .map(|i| (i as f64, 0.0, i as i64))
                .collect::<Vec<_>>(),
        );
        let dense_simplified = SimplificationMethod::Dp.simplify(&dense, 1.0);
        let lambda_dense = select_lambda([&dense_simplified], 200);
        assert!(
            lambda_dense >= 20,
            "a fully collapsible dense trajectory should yield a large λ, got {lambda_dense}"
        );

        // Sparsely sampled trajectory (many missing time points) → small λ.
        let sparse = traj(
            &(0..20)
                .map(|i| (i as f64, 0.0, i as i64 * 10))
                .collect::<Vec<_>>(),
        );
        let sparse_simplified = SimplificationMethod::Dp.simplify(&sparse, 1.0);
        let lambda_sparse = select_lambda([&sparse_simplified], 200);
        assert!(
            lambda_sparse < lambda_dense,
            "sparse sampling ({lambda_sparse}) must lower λ relative to dense sampling ({lambda_dense})"
        );
        assert!(lambda_sparse >= 2);
    }

    #[test]
    fn select_lambda_clamped_to_k_and_floor() {
        let dense = traj(
            &(0..100)
                .map(|i| (i as f64, 0.0, i as i64))
                .collect::<Vec<_>>(),
        );
        let s = SimplificationMethod::Dp.simplify(&dense, 1.0);
        assert_eq!(select_lambda([&s], 5), 5, "λ must not exceed k");
        assert_eq!(
            select_lambda(std::iter::empty(), 100),
            2,
            "empty input → floor"
        );
    }
}
