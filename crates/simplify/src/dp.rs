//! Douglas–Peucker simplification: one divide-and-conquer routine, three
//! methods.

use crate::simplified::SimplifiedTrajectory;
use trajectory::geometry::segment::{Segment, TimedSegment};
use trajectory::{TimeInterval, TrajPoint, Trajectory};

/// The three simplification methods of the paper.
///
/// All three are Douglas–Peucker: approximate the polyline `⟨p_1, …, p_T⟩`
/// by the chord `p_1 p_T`, and while some intermediate sample deviates from
/// the chord by more than δ, split at one of them and recurse on both
/// halves. A method is two choices — how deviation is measured and which
/// offending sample a range splits at:
///
/// | method | deviation | split at |
/// |---|---|---|
/// | DP | spatial `DPL` | the farthest sample |
/// | DP+ | spatial `DPL` | the offender nearest the middle index |
/// | DP* | time-synchronised | the farthest sample |
///
/// The deviation also measures each segment's recorded **actual tolerance**
/// `δ(l′)` (Definition 4), so the filter-step bounds hold: Lemma 1 (`DLL`,
/// CuTS and CuTS+) needs the spatial deviation within `δ(l′)`, Lemma 3
/// (`D*`, CuTS*) the synchronised one, which only DP* guarantees. In both
/// cases the maximum over the original samples equals the maximum over the
/// continuous interval, since the trajectory is piecewise linear and both
/// deviations are convex along each piece.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimplificationMethod {
    /// Classic Douglas–Peucker (Section 2.2 / 5.1). Distances are `DPL`
    /// (point-to-*segment*), never smaller than the perpendicular distance,
    /// so the error stays bounded by δ, and self-intersecting trajectories,
    /// which the paper allows, behave sanely.
    Dp,
    /// Midpoint-biased DP+ (Section 6.1). Splitting near the middle balances
    /// the recursion, and the split sample's deviation is typically smaller
    /// than DP's, so actual tolerances are tighter (the δ₄ < δ₆ example of
    /// Figure 10). DP+ generally keeps more samples than DP (Figure 15).
    DpPlus,
    /// Temporal DP* (Section 2.2 / 6.2, after Meratnia & de By). A sample
    /// `p_i` is compared with the chord's *time-ratio* position at `t_i`
    /// (Figure 3(b)). DP* keeps more samples than DP, but its synchronised
    /// guarantee is what lets CuTS* use the tighter `D*` segment distance.
    DpStar,
}

impl SimplificationMethod {
    /// All methods, in the order the paper's figures list them.
    pub const ALL: [SimplificationMethod; 3] = [
        SimplificationMethod::Dp,
        SimplificationMethod::DpPlus,
        SimplificationMethod::DpStar,
    ];

    /// The method's display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            SimplificationMethod::Dp => "DP",
            SimplificationMethod::DpPlus => "DP+",
            SimplificationMethod::DpStar => "DP*",
        }
    }

    /// Simplifies `trajectory` with tolerance `delta`: the first and last
    /// samples are always kept, and every segment records its actual
    /// tolerance under this method's deviation.
    pub fn simplify(&self, trajectory: &Trajectory, delta: f64) -> SimplifiedTrajectory {
        let points = trajectory.points();
        let last = points.len() - 1; // trajectories are never empty
        let mut kept = vec![0, last];
        // Work stack of (first, last) index ranges still to examine. The
        // method is matched once per range, so the per-sample scans are
        // monomorphic.
        let mut stack = vec![(0usize, last)];
        while let Some((first, last)) = stack.pop() {
            if last <= first + 1 {
                continue;
            }
            let range = &points[first..=last];
            let chord = chord(&points[first], &points[last]);
            let split = match self {
                SimplificationMethod::Dp => farthest(range, delta, spatial(&chord)),
                SimplificationMethod::DpPlus => nearest_middle(range, delta, spatial(&chord)),
                SimplificationMethod::DpStar => farthest(range, delta, synchronised(&chord)),
            };
            if let Some(offset) = split {
                let split = first + offset;
                kept.push(split);
                stack.push((first, split));
                stack.push((split, last));
            }
        }
        kept.sort_unstable();
        kept.dedup(); // a single sample is both first and last
        SimplifiedTrajectory::from_kept(trajectory, &kept, delta, *self)
    }

    /// The largest deviation of `samples` from `chord` under this method's
    /// measure: the actual tolerance `δ(l′)` of the segment `chord`.
    pub(crate) fn max_deviation(self, chord: &TimedSegment, samples: &[TrajPoint]) -> f64 {
        match self {
            SimplificationMethod::Dp | SimplificationMethod::DpPlus => {
                largest(samples, spatial(chord))
            }
            SimplificationMethod::DpStar => largest(samples, synchronised(chord)),
        }
    }
}

impl std::fmt::Display for SimplificationMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The timed chord from sample `a` to sample `b`.
pub(crate) fn chord(a: &TrajPoint, b: &TrajPoint) -> TimedSegment {
    TimedSegment::new(
        Segment::new(a.position(), b.position()),
        TimeInterval::new(a.t, b.t),
    )
}

/// Spatial deviation `DPL(p, chord)` (DP and DP+).
fn spatial(chord: &TimedSegment) -> impl Fn(&TrajPoint) -> f64 + '_ {
    move |p| chord.segment.distance_to_point(&p.position())
}

/// Time-synchronised deviation `D(p, p′)` (DP*), where `p′` is the chord's
/// time-ratio position at `p.t`.
fn synchronised(chord: &TimedSegment) -> impl Fn(&TrajPoint) -> f64 + '_ {
    move |p| chord.location_at(p.t).distance(&p.position())
}

/// Maximum of `deviation` over `samples`, at least zero.
fn largest(samples: &[TrajPoint], deviation: impl Fn(&TrajPoint) -> f64) -> f64 {
    samples
        .iter()
        .map(deviation)
        .fold(0.0, |max, d| if d > max { d } else { max })
}

/// DP and DP*: the offset in `range` of the interior sample farthest from
/// the chord (the earliest on a tie), if it deviates by more than δ.
fn farthest(
    range: &[TrajPoint],
    delta: f64,
    deviation: impl Fn(&TrajPoint) -> f64,
) -> Option<usize> {
    let mut max = -1.0f64;
    let mut split = 0;
    for (i, p) in range.iter().enumerate().take(range.len() - 1).skip(1) {
        let d = deviation(p);
        if d > max {
            max = d;
            split = i;
        }
    }
    (max > delta).then_some(split)
}

/// DP+: the offset in `range` of the interior sample nearest the middle
/// index (the earlier on a tie) among those deviating by more than δ.
fn nearest_middle(
    range: &[TrajPoint],
    delta: f64,
    deviation: impl Fn(&TrajPoint) -> f64,
) -> Option<usize> {
    let middle = (range.len() - 1) / 2;
    let mut best: Option<(usize, usize)> = None; // (distance to middle, offset)
    for (i, p) in range.iter().enumerate().take(range.len() - 1).skip(1) {
        if deviation(p) > delta {
            let to_middle = i.abs_diff(middle);
            match best {
                Some((nearest, _)) if to_middle >= nearest => {}
                _ => best = Some((to_middle, i)),
            }
        }
    }
    best.map(|(_, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use SimplificationMethod::{Dp, DpPlus, DpStar};

    fn traj(pts: &[(f64, f64, i64)]) -> Trajectory {
        Trajectory::from_tuples(pts.iter().copied()).unwrap()
    }

    /// Indices of the retained samples, read off the segments.
    fn kept(s: &SimplifiedTrajectory) -> Vec<usize> {
        let mut kept: Vec<usize> = s.segments().iter().map(|seg| seg.start_index).collect();
        kept.push(s.segments().last().map_or(0, |seg| seg.end_index));
        kept
    }

    /// The synchronised error of a simplification: for every original sample,
    /// the distance to the time-ratio position of the simplified trajectory
    /// at that sample's timestamp.
    fn max_synchronised_error(original: &Trajectory, simplified: &SimplifiedTrajectory) -> f64 {
        original
            .points()
            .iter()
            .map(|p| {
                simplified
                    .location_at(p.t)
                    .map(|q| q.distance(&p.position()))
                    .unwrap_or(0.0)
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn method_names_match_paper() {
        assert_eq!(Dp.name(), "DP");
        assert_eq!(DpPlus.name(), "DP+");
        assert_eq!(DpStar.name(), "DP*");
        assert_eq!(SimplificationMethod::ALL.len(), 3);
        assert_eq!(DpStar.to_string(), "DP*");
    }

    #[test]
    fn constant_speed_straight_line_collapses_under_every_method() {
        let t = traj(&[(0.0, 0.0, 0), (1.0, 1.0, 1), (2.0, 2.0, 2), (3.0, 3.0, 3)]);
        for m in SimplificationMethod::ALL {
            let s = m.simplify(&t, 0.01);
            assert_eq!(kept(&s), [0, 3], "{m} keeps only the endpoints");
            assert!(s.max_actual_tolerance() < 1e-12);
        }
    }

    #[test]
    fn single_and_two_point_trajectories() {
        for m in SimplificationMethod::ALL {
            let s1 = m.simplify(&traj(&[(5.0, 5.0, 0)]), 1.0);
            assert_eq!(s1.num_points(), 1);
            assert!(s1.segments().is_empty());

            let s2 = m.simplify(&traj(&[(0.0, 0.0, 0), (4.0, 4.0, 9)]), 1.0);
            assert_eq!(s2.num_points(), 2);
            assert_eq!(s2.segments().len(), 1);
            assert_eq!(s2.segments()[0].actual_tolerance, 0.0);
        }
    }

    #[test]
    fn detour_above_tolerance_is_kept() {
        let t = traj(&[(0.0, 0.0, 0), (1.0, 3.0, 1), (2.0, 0.0, 2)]);
        let s = Dp.simplify(&t, 1.0);
        assert_eq!(s.num_points(), 3, "the spike exceeds δ and must survive");
        let s_loose = Dp.simplify(&t, 5.0);
        assert_eq!(s_loose.num_points(), 2, "a loose δ removes the spike");
        assert!((s_loose.max_actual_tolerance() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zigzag_partial_simplification() {
        // Alternating bumps of heights 2 and 0.4: with δ=1 only the tall bumps
        // must survive.
        let t = traj(&[
            (0.0, 0.0, 0),
            (1.0, 2.0, 1),
            (2.0, 0.0, 2),
            (3.0, 0.4, 3),
            (4.0, 0.0, 4),
            (5.0, 2.0, 5),
            (6.0, 0.0, 6),
        ]);
        let s = Dp.simplify(&t, 1.0);
        let kept_times: Vec<i64> = s.points().iter().map(|p| p.t).collect();
        assert!(kept_times.contains(&1));
        assert!(kept_times.contains(&5));
        assert!(!kept_times.contains(&3));
        assert!(s.max_actual_tolerance() <= 1.0);
    }

    #[test]
    fn zero_tolerance_keeps_every_non_collinear_point() {
        let t = traj(&[(0.0, 0.0, 0), (1.0, 0.5, 1), (2.0, -0.5, 2), (3.0, 0.0, 3)]);
        assert_eq!(Dp.simplify(&t, 0.0).num_points(), 4);
    }

    #[test]
    fn self_intersecting_trajectory_is_handled() {
        // A loop: the trajectory crosses itself; DP must not panic and the
        // error bound must hold.
        let t = traj(&[
            (0.0, 0.0, 0),
            (4.0, 0.0, 1),
            (4.0, 4.0, 2),
            (2.0, -2.0, 3),
            (0.0, 4.0, 4),
        ]);
        let s = Dp.simplify(&t, 1.0);
        assert!(s.max_actual_tolerance() <= 1.0);
        assert!(s.num_points() >= 2);
    }

    #[test]
    fn actual_tolerance_equals_max_removed_deviation() {
        // One spike of height 2 over the chord (0,0)–(2,0). With δ=2.5 the
        // spike is removed and the recorded actual tolerance (Definition 4)
        // must be exactly its deviation, 2.0 — not the global δ.
        let t = traj(&[(0.0, 0.0, 0), (1.0, 2.0, 1), (2.0, 0.0, 2)]);
        let s = Dp.simplify(&t, 2.5);
        assert_eq!(s.num_points(), 2);
        assert!((s.max_actual_tolerance() - 2.0).abs() < 1e-12);
        // Just under the spike height, the point must survive instead.
        let s_tight = Dp.simplify(&t, 1.9);
        assert_eq!(s_tight.num_points(), 3);
        assert_eq!(s_tight.max_actual_tolerance(), 0.0);
    }

    #[test]
    fn figure10_dp_plus_splits_at_point_nearest_middle() {
        // Figure 10: seven samples p1..p7; p4 and p6 both exceed δ, but p4 is
        // closer to the middle, so DP+ splits at p4 (index 3) while DP splits
        // at the farthest point p6 (index 5).
        let t = traj(&[
            (0.0, 0.0, 0), // p1
            (1.0, 0.2, 1), // p2
            (2.0, 0.1, 2), // p3
            (3.0, 1.5, 3), // p4 — exceeds δ, closest to middle
            (4.0, 0.0, 4), // p5
            (5.0, 2.5, 5), // p6 — exceeds δ, farthest
            (6.0, 0.0, 6), // p7
        ]);
        let dp_plus_kept = kept(&DpPlus.simplify(&t, 1.0));
        let dp_kept = kept(&Dp.simplify(&t, 1.0));
        assert!(dp_plus_kept.contains(&3));
        assert!(dp_kept.contains(&5));
        // DP+ keeps at least as many points (lower reduction power).
        assert!(dp_plus_kept.len() >= dp_kept.len());
    }

    #[test]
    fn dp_plus_without_offenders_keeps_endpoints_only() {
        let t = traj(&[(0.0, 0.0, 0), (1.0, 0.3, 1), (2.0, -0.2, 2), (3.0, 0.0, 3)]);
        assert_eq!(DpPlus.simplify(&t, 0.5).num_points(), 2);
    }

    #[test]
    fn single_offender_gives_same_split_as_dp() {
        // Only index 2 exceeds δ=1 over the chord (0,0)–(4,0): DP+ and DP must
        // both keep exactly {0, 2, 4}, and the remaining deviations (0.2) set
        // the actual tolerance.
        let t = traj(&[
            (0.0, 0.0, 0),
            (1.0, 0.2, 1),
            (2.0, 3.0, 2),
            (3.0, 0.2, 3),
            (4.0, 0.0, 4),
        ]);
        let s = DpPlus.simplify(&t, 1.0);
        assert_eq!(kept(&s), [0, 2, 4]);
        assert_eq!(s, Dp.simplify(&t, 1.0));
        assert!(s.max_actual_tolerance() > 0.0, "0.2-deviations remain");
    }

    #[test]
    fn figure3_dp_star_keeps_temporal_outlier_that_dp_drops() {
        // Figure 3: p2 lies spatially near the segment p1–p3 but at its own
        // timestamp the object should already be most of the way along the
        // segment, so the synchronised deviation is large. DP drops p2 (a),
        // DP* keeps it (b).
        let t = traj(&[(0.0, 0.0, 1), (1.0, 0.2, 2), (10.0, 0.0, 3)]);
        assert_eq!(Dp.simplify(&t, 1.0).num_points(), 2);
        assert_eq!(DpStar.simplify(&t, 1.0).num_points(), 3);
    }

    #[test]
    fn straight_variable_speed_motion_is_kept_by_dp_star() {
        // Spatially collinear, but the object lingers: the time-ratio
        // positions diverge, so DP* keeps intermediate samples.
        let t = traj(&[(0.0, 0.0, 0), (0.2, 0.2, 1), (0.4, 0.4, 2), (3.0, 3.0, 3)]);
        assert!(DpStar.simplify(&t, 0.5).num_points() > 2);
        assert_eq!(Dp.simplify(&t, 0.5).num_points(), 2);
    }

    #[test]
    fn synchronised_distance_formula() {
        let chord = chord(&TrajPoint::new(0.0, 0.0, 0), &TrajPoint::new(10.0, 0.0, 10));
        let deviation = synchronised(&chord);
        // At t=5 the reference position is (5, 0); a sample at (5, 3) deviates by 3.
        assert!((deviation(&TrajPoint::new(5.0, 3.0, 5)) - 3.0).abs() < 1e-12);
        // A sample early in time but far along the path deviates by its x offset.
        assert!((deviation(&TrajPoint::new(9.0, 0.0, 1)) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn dp_star_threshold_is_the_synchronised_distance() {
        // Collinear motion with a speed change: (0,0)→(4,0) in 2 ticks, then
        // (4,0)→(10,0) in 2 ticks. The time-ratio position of the middle
        // sample on the chord is (5, 0), so its synchronised deviation is
        // exactly 1.0: δ just below keeps it, δ just above removes it, and
        // the removed segment records 1.0 as its (synchronised) tolerance.
        let t = traj(&[(0.0, 0.0, 0), (4.0, 0.0, 2), (10.0, 0.0, 4)]);
        assert_eq!(DpStar.simplify(&t, 0.99).num_points(), 3);
        let dropped = DpStar.simplify(&t, 1.01);
        assert_eq!(dropped.num_points(), 2);
        assert!((dropped.max_actual_tolerance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dp_star_handles_timestamps_spanning_the_i64_range() {
        // Collinear at constant speed, so DP* must drop the middle sample.
        // `t - a.t` overflows i64 on this chord; the time ratio saturates
        // instead of wrapping, leaving the middle sample within δ.
        let t = traj(&[
            (0.0, 0.0, -9_000_000_000_000_000_000),
            (1.0, 0.0, 0),
            (2.0, 0.0, 9_000_000_000_000_000_000),
        ]);
        let s = DpStar.simplify(&t, 1.0);
        assert_eq!(s.num_points(), 2);
        assert!(s.max_actual_tolerance() <= 1.0);
    }

    prop_compose! {
        fn arb_traj()(len in 2usize..60)
            (xs in proptest::collection::vec(-100.0f64..100.0, len),
             ys in proptest::collection::vec(-100.0f64..100.0, len),
             gaps in proptest::collection::vec(1i64..5, len))
            -> Trajectory {
            let mut t = 0i64;
            let mut pts = Vec::with_capacity(xs.len());
            for ((x, y), g) in xs.into_iter().zip(ys).zip(gaps) {
                pts.push(TrajPoint::new(x, y, t));
                t += g;
            }
            Trajectory::from_points(pts).unwrap()
        }
    }

    proptest! {
        #[test]
        fn error_never_exceeds_delta(t in arb_traj(), delta in 0.1f64..50.0) {
            // Definition 4: every original sample is within δ of the segment
            // that replaced it, under each method's own deviation.
            for m in SimplificationMethod::ALL {
                let s = m.simplify(&t, delta);
                for seg in s.segments() {
                    prop_assert!(seg.actual_tolerance <= delta + 1e-9, "{}", m);
                }
            }
        }

        #[test]
        fn keeps_endpoints_and_is_subset(t in arb_traj(), delta in 0.0f64..50.0) {
            for m in SimplificationMethod::ALL {
                let kept = kept(&m.simplify(&t, delta));
                prop_assert_eq!(kept[0], 0);
                prop_assert_eq!(*kept.last().unwrap(), t.len() - 1);
                prop_assert!(kept.windows(2).all(|w| w[0] < w[1]));
            }
        }

        #[test]
        fn dp_is_monotone_in_delta(t in arb_traj(), d1 in 0.1f64..10.0, factor in 1.0f64..10.0) {
            // A larger tolerance can only keep fewer or equally many points.
            let small = Dp.simplify(&t, d1);
            let large = Dp.simplify(&t, d1 * factor);
            prop_assert!(large.num_points() <= small.num_points());
        }

        #[test]
        fn dp_plus_split_deviation_never_exceeds_dp_split(t in arb_traj(), delta in 0.1f64..20.0) {
            // Section 6.1: at the *first* division step, the deviation of the
            // sample DP+ splits at can never exceed the deviation of the
            // sample DP splits at — DP picks the maximum by definition. This
            // is the mechanism that tightens DP+'s actual tolerances.
            let points = t.points();
            let chord = chord(&points[0], &points[points.len() - 1]);
            let deviation = spatial(&chord);
            if let (Some(dp), Some(plus)) = (
                farthest(points, delta, &deviation),
                nearest_middle(points, delta, &deviation),
            ) {
                prop_assert!(deviation(&points[plus]) <= deviation(&points[dp]));
            }
        }

        #[test]
        fn dp_star_synchronised_error_never_exceeds_delta(t in arb_traj(), delta in 0.1f64..50.0) {
            // The defining guarantee of DP*: at every original timestamp the
            // time-ratio position of the simplified trajectory is within δ of
            // the original sample.
            let s = DpStar.simplify(&t, delta);
            prop_assert!(max_synchronised_error(&t, &s) <= delta + 1e-9);
        }

        #[test]
        fn synchronised_distance_dominates_segment_distance(t in arb_traj()) {
            // The pointwise fact behind DP*'s lower reduction power: for the
            // same chord, the synchronised deviation of a sample is never
            // smaller than its spatial distance to the segment.
            let pts = t.points();
            let chord = chord(&pts[0], &pts[pts.len() - 1]);
            for p in pts {
                prop_assert!(synchronised(&chord)(p) + 1e-9 >= spatial(&chord)(p));
            }
        }
    }
}
