//! Clustering of simplified sub-trajectories — the "TRAJ-DBSCAN" used by the
//! CuTS filter step (Algorithm 2, Sections 5.2–5.3 and 6.2 of the paper).
//!
//! Within one time partition, every object contributes the portion of its
//! simplified trajectory whose segments intersect the partition (a
//! [`SubTrajectory`]). Two sub-trajectories are neighbours when their ω
//! distance does not exceed `e`:
//!
//! ```text
//! ω(o′q, o′i) = min { dist(l′q, l′i) − δ(l′q) − δ(l′i)
//!                     | l′q ∈ o′q, l′i ∈ o′i, l′q.τ ∩ l′i.τ ≠ ∅ }
//! ```
//!
//! where `dist` is `DLL` (Lemma 1, used by CuTS and CuTS+) or the tighter CPA
//! distance `D*` (Lemma 3, used by CuTS*). Lemma 2 is applied first: when the
//! minimum distance between the sub-trajectories' bounding boxes already
//! exceeds `e + δ(l′q) + δ_max`, no segment pair needs to be examined.

use crate::cluster::Cluster;
use crate::dbscan::{dbscan, labels_to_clusters, RegionQuery};
use traj_simplify::{SimplifiedSegment, SimplifiedTrajectory, ToleranceMode};
use trajectory::geometry::BoundingBox;
use trajectory::{ObjectId, TimeInterval};

/// Which segment-to-segment distance the filter step uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentDistance {
    /// The spatial shortest distance `DLL` between segments (Lemma 1;
    /// CuTS and CuTS+).
    Dll,
    /// The closest-point-of-approach distance `D*` restricted to the common
    /// time interval (Lemma 3; CuTS*). The Lemma 3 bound holds only when
    /// each segment's tolerance bounds the *synchronised* deviation of the
    /// original samples from the segment's time-ratio positions, which DP*
    /// guarantees and DP and DP+ do not; that is why `CutsVariant` pairs
    /// `D*` with DP* alone.
    DStar,
}

impl SegmentDistance {
    /// Display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            SegmentDistance::Dll => "DLL",
            SegmentDistance::DStar => "D*",
        }
    }

    /// The distance between two simplified segments under this function.
    /// Returns `f64::INFINITY` when `D*` is requested and the segments' time
    /// intervals do not intersect.
    pub fn distance(&self, a: &SimplifiedSegment, b: &SimplifiedSegment) -> f64 {
        match self {
            SegmentDistance::Dll => a.segment().distance_to_segment(&b.segment()),
            SegmentDistance::DStar => a.timed.cpa_distance(&b.timed),
        }
    }
}

/// The portion of one object's simplified trajectory that falls into one time
/// partition: the unit of clustering in the CuTS filter step.
#[derive(Debug, Clone, PartialEq)]
pub struct SubTrajectory {
    /// The object the sub-trajectory belongs to.
    pub object: ObjectId,
    /// The simplified segments whose time intervals intersect the partition.
    pub segments: Vec<SimplifiedSegment>,
    /// The global simplification tolerance the segments were produced with.
    pub global_tolerance: f64,
}

impl SubTrajectory {
    /// Builds the sub-trajectory of `simplified` for the given partition
    /// window: the segments whose time interval intersects `window`.
    /// Returns `None` when no segment intersects the window (the object is
    /// absent from this partition).
    ///
    /// Single-sample simplified trajectories (no segments) are represented by
    /// a degenerate segment so that such objects can still join clusters.
    pub fn for_window(
        object: ObjectId,
        simplified: &SimplifiedTrajectory,
        window: TimeInterval,
    ) -> Option<SubTrajectory> {
        let mut segments: Vec<SimplifiedSegment> =
            simplified.segments_intersecting(window).to_vec();
        if segments.is_empty() {
            if simplified.segments().is_empty() {
                // Single-sample trajectory: include it when its instant lies
                // inside the window.
                let only = simplified.points()[0];
                if window.contains(only.t) {
                    let seg = trajectory::geometry::Segment::new(only.position(), only.position());
                    segments.push(SimplifiedSegment {
                        timed: trajectory::geometry::segment::TimedSegment::new(
                            seg,
                            TimeInterval::instant(only.t),
                        ),
                        actual_tolerance: 0.0,
                        start_index: 0,
                        end_index: 0,
                    });
                } else {
                    return None;
                }
            } else {
                return None;
            }
        }
        Some(SubTrajectory {
            object,
            segments,
            global_tolerance: simplified.global_tolerance(),
        })
    }

    /// The time interval covered by the sub-trajectory's segments.
    pub fn time_interval(&self) -> TimeInterval {
        let first = self.segments[0].interval();
        self.segments
            .iter()
            .skip(1)
            .fold(first, |acc, s| acc.hull(&s.interval()))
    }

    /// The spatial bounding box `B(S)` of all segments (Lemma 2).
    pub fn bounding_box(&self) -> BoundingBox {
        let mut bbox = self.segments[0].bounding_box();
        for s in &self.segments[1..] {
            bbox = bbox.union(&s.bounding_box());
        }
        bbox
    }

    /// The largest per-segment tolerance, `δ_max(S)` of Lemma 2, under the
    /// chosen tolerance mode.
    pub fn max_tolerance(&self, mode: ToleranceMode) -> f64 {
        self.segments
            .iter()
            .map(|s| mode.tolerance_for(s.actual_tolerance, self.global_tolerance))
            .fold(0.0, f64::max)
    }
}

/// The ω distance between two sub-trajectories (Section 5.2, "Extension for
/// trajectories"), under the chosen segment distance and tolerance mode.
///
/// Returns `f64::INFINITY` when no segment pair shares a time interval — such
/// objects can never be density-connected within the partition.
pub fn omega_distance(
    a: &SubTrajectory,
    b: &SubTrajectory,
    distance: SegmentDistance,
    mode: ToleranceMode,
) -> f64 {
    let mut best = f64::INFINITY;
    for sa in &a.segments {
        let tol_a = mode.tolerance_for(sa.actual_tolerance, a.global_tolerance);
        for sb in &b.segments {
            if !sa.interval().intersects(&sb.interval()) {
                continue;
            }
            let tol_b = mode.tolerance_for(sb.actual_tolerance, b.global_tolerance);
            let d = distance.distance(sa, sb) - tol_a - tol_b;
            if d < best {
                best = d;
            }
        }
    }
    best
}

struct SubTrajectoryQuery<'a> {
    items: &'a [SubTrajectory],
    epsilon: f64,
    distance: SegmentDistance,
    mode: ToleranceMode,
    bboxes: Vec<BoundingBox>,
    max_tolerances: Vec<f64>,
    intervals: Vec<TimeInterval>,
    /// Uniform grid over the items' tolerance-expanded bounding boxes. An
    /// item is registered in every cell its expanded box overlaps, so a range
    /// search only has to inspect the cells overlapped by the query's
    /// expanded box grown by `epsilon` — the spatial "prune a subset of
    /// segments fast" step the paper motivates Lemma 2 with, generalised to
    /// whole sub-trajectories.
    cells: std::collections::HashMap<(i64, i64), Vec<usize>>,
    cell_size: f64,
}

impl<'a> SubTrajectoryQuery<'a> {
    fn new(
        items: &'a [SubTrajectory],
        epsilon: f64,
        distance: SegmentDistance,
        mode: ToleranceMode,
    ) -> Self {
        let bboxes: Vec<BoundingBox> = items.iter().map(|s| s.bounding_box()).collect();
        let max_tolerances: Vec<f64> = items.iter().map(|s| s.max_tolerance(mode)).collect();
        let intervals = items.iter().map(|s| s.time_interval()).collect();

        // Cell side: the average expanded-box extent plus the search radius,
        // so a typical box overlaps only a handful of cells.
        let mut extent_sum = 0.0f64;
        for (bbox, tol) in bboxes.iter().zip(&max_tolerances) {
            extent_sum += (bbox.width() + bbox.height()) * 0.5 + 2.0 * tol;
        }
        let mean_extent = if items.is_empty() {
            0.0
        } else {
            extent_sum / items.len() as f64
        };
        let cell_size = (mean_extent + epsilon).max(epsilon).max(f64::EPSILON);

        let mut cells: std::collections::HashMap<(i64, i64), Vec<usize>> =
            std::collections::HashMap::new();
        for (i, (bbox, tol)) in bboxes.iter().zip(&max_tolerances).enumerate() {
            let expanded = bbox.expanded(*tol);
            let (x0, y0) = Self::cell_of(expanded.min.x, expanded.min.y, cell_size);
            let (x1, y1) = Self::cell_of(expanded.max.x, expanded.max.y, cell_size);
            for cx in x0..=x1 {
                for cy in y0..=y1 {
                    cells.entry((cx, cy)).or_default().push(i);
                }
            }
        }

        SubTrajectoryQuery {
            items,
            epsilon,
            distance,
            mode,
            bboxes,
            max_tolerances,
            intervals,
            cells,
            cell_size,
        }
    }

    #[inline]
    fn cell_of(x: f64, y: f64, cell_size: f64) -> (i64, i64) {
        (
            (x / cell_size).floor() as i64,
            (y / cell_size).floor() as i64,
        )
    }

    /// Candidate item indices whose tolerance-expanded bounding box can lie
    /// within `epsilon` of item `idx`'s expanded bounding box.
    fn spatial_candidates(&self, idx: usize) -> Vec<usize> {
        let probe = self.bboxes[idx]
            .expanded(self.max_tolerances[idx])
            .expanded(self.epsilon);
        let (x0, y0) = Self::cell_of(probe.min.x, probe.min.y, self.cell_size);
        let (x1, y1) = Self::cell_of(probe.max.x, probe.max.y, self.cell_size);
        let mut seen = vec![false; self.items.len()];
        let mut out = Vec::new();
        for cx in x0..=x1 {
            for cy in y0..=y1 {
                if let Some(bucket) = self.cells.get(&(cx, cy)) {
                    for &j in bucket {
                        if !seen[j] {
                            seen[j] = true;
                            out.push(j);
                        }
                    }
                }
            }
        }
        out
    }
}

impl RegionQuery for SubTrajectoryQuery<'_> {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn neighbors(&self, idx: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let query = &self.items[idx];
        for j in self.spatial_candidates(idx) {
            if j == idx {
                out.push(j);
                continue;
            }
            // Temporal pre-filter: objects absent from each other's time range
            // cannot be neighbours.
            if !self.intervals[idx].intersects(&self.intervals[j]) {
                continue;
            }
            // Lemma 2: bounding-box pre-filter with δ_max values.
            let bound = self.epsilon + self.max_tolerances[idx] + self.max_tolerances[j];
            if self.bboxes[idx].min_distance(&self.bboxes[j]) > bound {
                continue;
            }
            // Lemma 1 / Lemma 3: exact ω computation over segment pairs.
            if omega_distance(query, &self.items[j], self.distance, self.mode) <= self.epsilon {
                out.push(j);
            }
        }
        out.sort_unstable();
        out
    }
}

/// Density-clusters the sub-trajectories of one time partition
/// (TRAJ-DBSCAN of Algorithm 2), returning clusters of object ids.
pub fn cluster_sub_trajectories(
    items: &[SubTrajectory],
    epsilon: f64,
    m: usize,
    distance: SegmentDistance,
    mode: ToleranceMode,
) -> Vec<Cluster> {
    if items.len() < m {
        return Vec::new();
    }
    let query = SubTrajectoryQuery::new(items, epsilon, distance, mode);
    let labels = dbscan(&query, m);
    labels_to_clusters(&labels)
        .into_iter()
        .map(|member_indices| {
            Cluster::new(
                member_indices
                    .into_iter()
                    .map(|i| items[i].object)
                    .collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use traj_simplify::SimplificationMethod;
    use trajectory::{TrajPoint, Trajectory};

    fn straight_trajectory(x0: f64, y0: f64, dx: f64, dy: f64, len: i64) -> Trajectory {
        Trajectory::from_points(
            (0..len)
                .map(|t| TrajPoint::new(x0 + dx * t as f64, y0 + dy * t as f64, t))
                .collect(),
        )
        .unwrap()
    }

    fn sub(object: u64, traj: &Trajectory, delta: f64, window: TimeInterval) -> SubTrajectory {
        let simplified = SimplificationMethod::Dp.simplify(traj, delta);
        SubTrajectory::for_window(ObjectId(object), &simplified, window).unwrap()
    }

    #[test]
    fn omega_of_parallel_trajectories_is_their_gap_minus_tolerances() {
        let a = straight_trajectory(0.0, 0.0, 1.0, 0.0, 10);
        let b = straight_trajectory(0.0, 5.0, 1.0, 0.0, 10);
        let window = TimeInterval::new(0, 9);
        let sa = sub(1, &a, 0.5, window);
        let sb = sub(2, &b, 0.5, window);
        // Straight lines simplify losslessly: actual tolerances are zero, so
        // ω equals the spatial gap.
        let omega = omega_distance(&sa, &sb, SegmentDistance::Dll, ToleranceMode::Actual);
        assert!((omega - 5.0).abs() < 1e-9);
        // With the global tolerance the bound is looser by 2·δ.
        let omega_global = omega_distance(&sa, &sb, SegmentDistance::Dll, ToleranceMode::Global);
        assert!((omega_global - 4.0).abs() < 1e-9);
    }

    #[test]
    fn omega_is_infinite_for_temporally_disjoint_objects() {
        let a = Trajectory::from_tuples([(0.0, 0.0, 0), (5.0, 0.0, 5)]).unwrap();
        let b = Trajectory::from_tuples([(0.0, 0.0, 10), (5.0, 0.0, 15)]).unwrap();
        let sa = SubTrajectory::for_window(
            ObjectId(1),
            &SimplificationMethod::Dp.simplify(&a, 0.1),
            TimeInterval::new(0, 20),
        )
        .unwrap();
        let sb = SubTrajectory::for_window(
            ObjectId(2),
            &SimplificationMethod::Dp.simplify(&b, 0.1),
            TimeInterval::new(0, 20),
        )
        .unwrap();
        assert_eq!(
            omega_distance(&sa, &sb, SegmentDistance::Dll, ToleranceMode::Actual),
            f64::INFINITY
        );
    }

    #[test]
    fn dstar_distance_is_at_least_dll_distance() {
        // Two objects moving in opposite directions along nearby parallel
        // lines: spatially the segments nearly touch, but synchronously they
        // are only close in the middle.
        let a = straight_trajectory(0.0, 0.0, 1.0, 0.0, 11);
        let b = straight_trajectory(10.0, 1.0, -1.0, 0.0, 11);
        let window = TimeInterval::new(0, 10);
        let sa = sub(1, &a, 0.1, window);
        let sb = sub(2, &b, 0.1, window);
        let dll = omega_distance(&sa, &sb, SegmentDistance::Dll, ToleranceMode::Actual);
        let dstar = omega_distance(&sa, &sb, SegmentDistance::DStar, ToleranceMode::Actual);
        assert!(
            dstar >= dll - 1e-9,
            "D* ω ({dstar}) must be ≥ DLL ω ({dll})"
        );
    }

    #[test]
    fn for_window_selects_intersecting_segments_only() {
        // A trajectory with a sharp corner at t=10 so the simplification keeps
        // two segments: [0,10] and [10,20].
        let mut pts: Vec<TrajPoint> = (0..=10).map(|t| TrajPoint::new(t as f64, 0.0, t)).collect();
        pts.extend((11..=20).map(|t| TrajPoint::new(10.0, (t - 10) as f64, t)));
        let traj = Trajectory::from_points(pts).unwrap();
        let simplified = SimplificationMethod::Dp.simplify(&traj, 0.5);
        assert_eq!(simplified.segments().len(), 2);
        let early =
            SubTrajectory::for_window(ObjectId(1), &simplified, TimeInterval::new(0, 5)).unwrap();
        assert_eq!(early.segments.len(), 1);
        let spanning =
            SubTrajectory::for_window(ObjectId(1), &simplified, TimeInterval::new(5, 15)).unwrap();
        assert_eq!(spanning.segments.len(), 2);
        assert!(
            SubTrajectory::for_window(ObjectId(1), &simplified, TimeInterval::new(30, 40))
                .is_none()
        );
    }

    #[test]
    fn single_sample_object_gets_degenerate_segment() {
        let traj = Trajectory::from_tuples([(3.0, 3.0, 5)]).unwrap();
        let simplified = SimplificationMethod::Dp.simplify(&traj, 0.5);
        let s =
            SubTrajectory::for_window(ObjectId(1), &simplified, TimeInterval::new(0, 10)).unwrap();
        assert_eq!(s.segments.len(), 1);
        let segment = s.segments[0].segment();
        assert_eq!(segment.start, segment.end);
        assert!(
            SubTrajectory::for_window(ObjectId(1), &simplified, TimeInterval::new(6, 10)).is_none()
        );
    }

    #[test]
    fn clustering_groups_co_moving_objects() {
        // Three objects moving together, two moving together elsewhere, one loner.
        let window = TimeInterval::new(0, 19);
        let items: Vec<SubTrajectory> = vec![
            sub(1, &straight_trajectory(0.0, 0.0, 1.0, 0.0, 20), 0.5, window),
            sub(2, &straight_trajectory(0.0, 1.0, 1.0, 0.0, 20), 0.5, window),
            sub(3, &straight_trajectory(0.0, 2.0, 1.0, 0.0, 20), 0.5, window),
            sub(
                4,
                &straight_trajectory(100.0, 0.0, 0.0, 1.0, 20),
                0.5,
                window,
            ),
            sub(
                5,
                &straight_trajectory(101.0, 0.0, 0.0, 1.0, 20),
                0.5,
                window,
            ),
            sub(
                6,
                &straight_trajectory(500.0, 500.0, -1.0, 1.0, 20),
                0.5,
                window,
            ),
        ];
        let clusters =
            cluster_sub_trajectories(&items, 1.5, 2, SegmentDistance::Dll, ToleranceMode::Actual);
        assert_eq!(clusters.len(), 2);
        assert_eq!(
            clusters[0].members(),
            &[ObjectId(1), ObjectId(2), ObjectId(3)]
        );
        assert_eq!(clusters[1].members(), &[ObjectId(4), ObjectId(5)]);
    }

    #[test]
    fn clustering_respects_min_points() {
        let window = TimeInterval::new(0, 9);
        let items: Vec<SubTrajectory> = vec![
            sub(1, &straight_trajectory(0.0, 0.0, 1.0, 0.0, 10), 0.5, window),
            sub(2, &straight_trajectory(0.0, 1.0, 1.0, 0.0, 10), 0.5, window),
        ];
        assert!(cluster_sub_trajectories(
            &items,
            1.5,
            3,
            SegmentDistance::Dll,
            ToleranceMode::Actual
        )
        .is_empty());
        assert!(cluster_sub_trajectories(
            &items[..1],
            1.5,
            2,
            SegmentDistance::Dll,
            ToleranceMode::Actual
        )
        .is_empty());
    }

    /// The filter-step soundness property behind Lemmas 1 and 3: whenever the
    /// ω distance between two objects' simplified sub-trajectories exceeds e,
    /// the true synchronous distance between the *original* objects exceeds e
    /// at every shared time point.
    fn check_pruning_soundness(
        a: &Trajectory,
        b: &Trajectory,
        delta: f64,
        e: f64,
        distance: SegmentDistance,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let (sa, sb) = match distance {
            SegmentDistance::Dll => (
                SimplificationMethod::Dp.simplify(a, delta),
                SimplificationMethod::Dp.simplify(b, delta),
            ),
            SegmentDistance::DStar => (
                SimplificationMethod::DpStar.simplify(a, delta),
                SimplificationMethod::DpStar.simplify(b, delta),
            ),
        };
        let window = a.time_interval().hull(&b.time_interval());
        let (Some(sub_a), Some(sub_b)) = (
            SubTrajectory::for_window(ObjectId(1), &sa, window),
            SubTrajectory::for_window(ObjectId(2), &sb, window),
        ) else {
            return Ok(());
        };
        let omega = omega_distance(&sub_a, &sub_b, distance, ToleranceMode::Actual);
        if omega > e {
            // Pruned: verify no shared time point has the originals within e.
            if let Some(common) = a.time_interval().intersection(&b.time_interval()) {
                for t in common.iter() {
                    let (Some(pa), Some(pb)) = (a.location_at(t), b.location_at(t)) else {
                        continue;
                    };
                    prop_assert!(
                        pa.distance(&pb) > e,
                        "pruned pair is actually within e={e} at t={t} (ω={omega})"
                    );
                }
            }
        }
        Ok(())
    }

    prop_compose! {
        fn arb_walk(seed_x: f64)(len in 4usize..30)
            (steps in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), len),
             start_y in -20.0f64..20.0)
            -> Trajectory {
            let mut x = seed_x;
            let mut y = start_y;
            let mut pts = Vec::with_capacity(steps.len());
            for (t, (dx, dy)) in steps.into_iter().enumerate() {
                x += dx;
                y += dy;
                pts.push(TrajPoint::new(x, y, t as i64));
            }
            Trajectory::from_points(pts).unwrap()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn lemma1_pruning_is_sound(a in arb_walk(0.0), b in arb_walk(5.0),
                                   delta in 0.1f64..3.0, e in 0.5f64..5.0) {
            check_pruning_soundness(&a, &b, delta, e, SegmentDistance::Dll)?;
        }

        #[test]
        fn lemma3_pruning_is_sound(a in arb_walk(0.0), b in arb_walk(5.0),
                                   delta in 0.1f64..3.0, e in 0.5f64..5.0) {
            check_pruning_soundness(&a, &b, delta, e, SegmentDistance::DStar)?;
        }

        #[test]
        fn lemma2_box_prefilter_never_prunes_a_true_neighbour(
            a in arb_walk(0.0), b in arb_walk(3.0),
            delta in 0.1f64..3.0, e in 0.5f64..5.0) {
            // If the Lemma 2 test would discard the pair, the exact ω distance
            // must also exceed e (the pre-filter is conservative).
            let sa = SimplificationMethod::Dp.simplify(&a, delta);
            let sb = SimplificationMethod::Dp.simplify(&b, delta);
            let window = a.time_interval().hull(&b.time_interval());
            if let (Some(sub_a), Some(sub_b)) = (
                SubTrajectory::for_window(ObjectId(1), &sa, window),
                SubTrajectory::for_window(ObjectId(2), &sb, window),
            ) {
                let mode = ToleranceMode::Actual;
                let bound = e + sub_a.max_tolerance(mode) + sub_b.max_tolerance(mode);
                let box_dist = sub_a.bounding_box().min_distance(&sub_b.bounding_box());
                if box_dist > bound {
                    let omega = omega_distance(&sub_a, &sub_b, SegmentDistance::Dll, mode);
                    prop_assert!(omega > e,
                        "Lemma 2 pruned a pair whose ω={omega} is within e={e}");
                }
            }
        }
    }
}
