//! DP-equivalence property tests: [`SimplificationMethod::simplify`] against
//! frozen copies of the three separate Douglas–Peucker loops (DP, DP+, DP*)
//! and the actual-tolerance pass they used to share, kept here as the oracle.
//!
//! The generated random walks mix fresh steps with repeated positions and
//! collinear runs at constant and at changing speed, so split ties, zero
//! deviations and exactly-δ deviations all occur; single-sample and
//! two-sample trajectories ride along. Every walk runs at δ = 0, a small δ,
//! δ = 1 (hit exactly by integer steps) and a large δ. The kept sample
//! times and every segment's actual tolerance must match the oracle bit for
//! bit. Timestamps stay within ±2⁴⁰, where the oracle's bare DP* tick
//! subtraction cannot overflow.

use proptest::prelude::*;
use traj_simplify::SimplificationMethod;
use trajectory::geometry::segment::{Segment, TimedSegment};
use trajectory::geometry::Point;
use trajectory::{TimeInterval, TrajPoint, Trajectory};

/// Frozen DP: split at the farthest interior sample while it exceeds δ.
fn frozen_dp(points: &[TrajPoint], delta: f64) -> Vec<usize> {
    let n = points.len();
    let mut kept = vec![0];
    if n == 1 {
        return kept;
    }
    kept.push(n - 1);
    let mut stack = vec![(0usize, n - 1)];
    while let Some((first, last)) = stack.pop() {
        if last <= first + 1 {
            continue;
        }
        let seg = Segment::new(points[first].position(), points[last].position());
        let mut max_dist = -1.0f64;
        let mut max_idx = first;
        for (i, p) in points.iter().enumerate().take(last).skip(first + 1) {
            let d = seg.distance_to_point(&p.position());
            if d > max_dist {
                max_dist = d;
                max_idx = i;
            }
        }
        if max_dist > delta {
            kept.push(max_idx);
            stack.push((first, max_idx));
            stack.push((max_idx, last));
        }
    }
    kept.sort_unstable();
    kept.dedup();
    kept
}

/// Frozen DP+: split at the offender nearest the middle index.
fn frozen_dp_plus(points: &[TrajPoint], delta: f64) -> Vec<usize> {
    let n = points.len();
    let mut kept = vec![0];
    if n == 1 {
        return kept;
    }
    kept.push(n - 1);
    let mut stack = vec![(0usize, n - 1)];
    while let Some((first, last)) = stack.pop() {
        if last <= first + 1 {
            continue;
        }
        let seg = Segment::new(points[first].position(), points[last].position());
        let middle = (first + last) / 2;
        let mut best: Option<(usize, usize)> = None;
        for (i, p) in points.iter().enumerate().take(last).skip(first + 1) {
            let d = seg.distance_to_point(&p.position());
            if d > delta {
                let dist_to_mid = i.abs_diff(middle);
                match best {
                    Some((best_dist, _)) if dist_to_mid >= best_dist => {}
                    _ => best = Some((dist_to_mid, i)),
                }
            }
        }
        if let Some((_, split)) = best {
            kept.push(split);
            stack.push((first, split));
            stack.push((split, last));
        }
    }
    kept.sort_unstable();
    kept.dedup();
    kept
}

/// Frozen DP*'s time-ratio position, with its bare tick subtraction.
fn frozen_time_ratio_position(a: &TrajPoint, b: &TrajPoint, t: i64) -> Point {
    if b.t == a.t {
        return a.position();
    }
    let ratio = (t - a.t) as f64 / (b.t - a.t) as f64;
    a.position().lerp(&b.position(), ratio)
}

/// Frozen DP*: split at the sample with the largest synchronised deviation.
fn frozen_dp_star(points: &[TrajPoint], delta: f64) -> Vec<usize> {
    let n = points.len();
    let mut kept = vec![0];
    if n == 1 {
        return kept;
    }
    kept.push(n - 1);
    let mut stack = vec![(0usize, n - 1)];
    while let Some((first, last)) = stack.pop() {
        if last <= first + 1 {
            continue;
        }
        let a = &points[first];
        let b = &points[last];
        let mut max_dev = -1.0f64;
        let mut max_idx = first;
        for (i, p) in points.iter().enumerate().take(last).skip(first + 1) {
            let d = frozen_time_ratio_position(a, b, p.t).distance(&p.position());
            if d > max_dev {
                max_dev = d;
                max_idx = i;
            }
        }
        if max_dev > delta {
            kept.push(max_idx);
            stack.push((first, max_idx));
            stack.push((max_idx, last));
        }
    }
    kept.sort_unstable();
    kept.dedup();
    kept
}

/// Frozen actual-tolerance pass: per kept pair, the largest spatial or
/// synchronised deviation of the samples it replaces, endpoints included.
fn frozen_tolerances(points: &[TrajPoint], kept: &[usize], synchronised: bool) -> Vec<f64> {
    kept.windows(2)
        .map(|w| {
            let (a, b) = (points[w[0]], points[w[1]]);
            let seg = Segment::new(a.position(), b.position());
            let timed = TimedSegment::new(seg, TimeInterval::new(a.t, b.t));
            let mut actual = 0.0f64;
            for p in &points[w[0]..=w[1]] {
                let d = if synchronised {
                    timed.location_at(p.t).distance(&p.position())
                } else {
                    seg.distance_to_point(&p.position())
                };
                if d > actual {
                    actual = d;
                }
            }
            actual
        })
        .collect()
}

/// The oracle's kept indices and actual tolerances for `method`.
fn frozen(
    method: SimplificationMethod,
    points: &[TrajPoint],
    delta: f64,
) -> (Vec<usize>, Vec<f64>) {
    let (kept, synchronised) = match method {
        SimplificationMethod::Dp => (frozen_dp(points, delta), false),
        SimplificationMethod::DpPlus => (frozen_dp_plus(points, delta), false),
        SimplificationMethod::DpStar => (frozen_dp_star(points, delta), true),
    };
    let tolerances = frozen_tolerances(points, &kept, synchronised);
    (kept, tolerances)
}

prop_compose! {
    /// A random walk whose steps are fresh integer or fractional moves,
    /// pauses on the same position, or repeats of the previous move with the
    /// previous or a new time gap (collinear runs at constant or changing
    /// speed).
    fn arb_walk()(len in 1usize..80)
        (start in -(1i64 << 40)..(1i64 << 39),
         kinds in proptest::collection::vec(0u8..5, len),
         steps in proptest::collection::vec((-3i64..4, -3i64..4), len),
         fractions in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), len),
         gaps in proptest::collection::vec(1i64..1000, len))
        -> Trajectory {
        let (mut x, mut y, mut t) = (0.0f64, 0.0f64, start);
        let (mut dx, mut dy, mut gap) = (1.0f64, 0.0f64, 1i64);
        let mut pts = Vec::with_capacity(len);
        for i in 0..len {
            match kinds[i] {
                0 => (dx, dy) = (steps[i].0 as f64, steps[i].1 as f64),
                1 => (dx, dy) = (10.0 * fractions[i].0 - 5.0, 10.0 * fractions[i].1 - 5.0),
                2 => (dx, dy) = (0.0, 0.0),
                3 => {}
                _ => gap = gaps[i],
            }
            if kinds[i] < 3 {
                gap = gaps[i];
            }
            if i > 0 {
                (x, y, t) = (x + dx, y + dy, t + gap);
            }
            pts.push(TrajPoint::new(x, y, t));
        }
        Trajectory::from_points(pts).unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_method_matches_the_frozen_loops(
        walk in arb_walk(),
        small in 0.0f64..1.0,
        large in 1.0f64..200.0,
    ) {
        let points = walk.points();
        for delta in [0.0, small, 1.0, large] {
            for method in SimplificationMethod::ALL {
                let s = method.simplify(&walk, delta);
                let (kept, tolerances) = frozen(method, points, delta);
                let kept_times: Vec<i64> = kept.iter().map(|&i| points[i].t).collect();
                let times: Vec<i64> = s.points().iter().map(|p| p.t).collect();
                prop_assert_eq!(times, kept_times, "{} at δ = {}", method, delta);
                let bits: Vec<u64> = s.segments().iter().map(|g| g.actual_tolerance.to_bits()).collect();
                let frozen_bits: Vec<u64> = tolerances.iter().map(|d| d.to_bits()).collect();
                prop_assert_eq!(bits, frozen_bits, "{} at δ = {}", method, delta);
                prop_assert_eq!(s.global_tolerance().to_bits(), delta.to_bits());
                prop_assert_eq!(s.original_len(), points.len());
            }
        }
    }
}
