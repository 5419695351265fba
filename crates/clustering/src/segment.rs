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
//!
//! ## The region query: one sweep per partition
//!
//! [`SubTrajectoryIndex`] answers every region query of a partition from
//! one pass. Each item gets a *probe box*: its bounding box grown by its
//! `δ_max` and then by `e / 2`. A pair can pass Lemma 2 only if its boxes
//! lie within `e + δ_max(i) + δ_max(j)` of each other on both axes, which
//! is exactly when the two probe boxes overlap — and overlap is symmetric,
//! so the candidates are the unordered overlapping pairs, none counted
//! from one side only. Sorting the probes by min-x and sweeping forward
//! from each while the next probe starts inside its x-extent (testing
//! y-overlap) visits every such pair once, in O(n log n + pairs in the
//! x-strips), with no cell structure whose size depends on the items'
//! extents. Each visit decides `j ∈ NH(i)` and `i ∈ NH(j)` together and the
//! results become a CSR adjacency that DBSCAN reads directly.

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

/// Relative widening of every probe box, so floating-point rounding can only
/// add candidates: two items whose boxes pass Lemma 2 overlap with a margin
/// of about a billionth of their coordinates' magnitude to spare.
const PROBE_SLACK: f64 = 1e-9;

/// One item's probe box, an entry of the sweep order: the bounding box grown
/// by `δ_max` and then by `e / 2`, widened by [`PROBE_SLACK`].
#[derive(Debug, Clone, Copy)]
struct Probe {
    min_x: f64,
    max_x: f64,
    min_y: f64,
    max_y: f64,
    item: u32,
}

impl Probe {
    fn new(bbox: &BoundingBox, max_tolerance: f64, epsilon: f64, item: u32) -> Probe {
        let reach = max_tolerance + 0.5 * epsilon;
        let magnitude = [bbox.min.x, bbox.max.x, bbox.min.y, bbox.max.y]
            .into_iter()
            .fold(reach.abs(), |m, v| m.max(v.abs()));
        let reach = reach + magnitude * PROBE_SLACK;
        Probe {
            min_x: bbox.min.x - reach,
            max_x: bbox.max.x + reach,
            min_y: bbox.min.y - reach,
            max_y: bbox.max.y + reach,
            item,
        }
    }
}

/// The e-neighbourhoods of one partition's sub-trajectories, computed once
/// and stored as a CSR adjacency: the region query TRAJ-DBSCAN runs on.
///
/// Construction sorts the items by the min-x of their probe boxes (see the
/// module docs) and sweeps forward from each item while the next probe
/// still starts inside its x-extent, testing y-overlap. Probe overlap is
/// symmetric, so every unordered candidate pair is met exactly once, and
/// that one visit decides both directions: the interval test and the box
/// distance are shared, each direction keeps its own Lemma 2 bound
/// (`e + δ_max(i) + δ_max(j)` for `j ∈ NH(i)`), and each segment pair's
/// distance is computed once and reduced by the two tolerances in each
/// direction's own order — the floating-point results the per-item query
/// produced, so the lists are the same bit for bit. The ω scan stops once
/// both directions are decided.
///
/// Memory is linear in the partition: the per-item boxes, the sorted probe
/// order and the adjacency (one `u32` per neighbour, each item listed in its
/// own, ascending) — whatever the items' extents, where a hash grid with a
/// mean-extent cell side registers one far-flung item in about n² cells.
#[derive(Debug, Clone)]
pub struct SubTrajectoryIndex {
    /// `adjacency[offsets[i]..offsets[i + 1]]` is item `i`'s neighbourhood.
    offsets: Vec<usize>,
    adjacency: Vec<u32>,
    /// Unordered item pairs whose probe boxes overlap: the pairs the sweep
    /// tests.
    pub candidate_pairs: u64,
    /// Candidate pairs whose time intervals meet and whose bounding boxes
    /// pass Lemma 2 in at least one direction: the pairs ω is evaluated for.
    pub lemma2_pass: u64,
    /// Segment-pair distances (`DLL` or `D*`) those ω tests computed.
    pub distance_evals: u64,
    /// Neighbour relations found: the adjacency's entries other than each
    /// item's own (a mutual pair counts twice).
    pub neighbours: u64,
}

impl SubTrajectoryIndex {
    /// Computes every item's e-neighbourhood under `distance` and `mode`:
    /// the items `j` whose ω distance `ω(items[i], items[j])` is at most
    /// `epsilon`, plus `i` itself. A negative `epsilon` passes no pair's
    /// Lemma 2 test, so each item is then alone in its neighbourhood.
    pub fn new(
        items: &[SubTrajectory],
        epsilon: f64,
        distance: SegmentDistance,
        mode: ToleranceMode,
    ) -> Self {
        let n = items.len();
        assert!(
            n < u32::MAX as usize,
            "a partition holds fewer than u32::MAX sub-trajectories"
        );
        let bboxes: Vec<BoundingBox> = items.iter().map(SubTrajectory::bounding_box).collect();
        let tolerances: Vec<f64> = items.iter().map(|s| s.max_tolerance(mode)).collect();
        let intervals: Vec<TimeInterval> = items.iter().map(SubTrajectory::time_interval).collect();
        let mut probes: Vec<Probe> = bboxes
            .iter()
            .zip(&tolerances)
            .enumerate()
            // lint: allow(cast-audit) — item count < u32::MAX, asserted above
            .map(|(i, (bbox, &tol))| Probe::new(bbox, tol, epsilon, i as u32))
            .collect();
        probes.sort_unstable_by(|p, q| p.min_x.total_cmp(&q.min_x));

        let mut index = SubTrajectoryIndex {
            offsets: Vec::new(),
            adjacency: Vec::new(),
            candidate_pairs: 0,
            lemma2_pass: 0,
            distance_evals: 0,
            neighbours: 0,
        };
        // Directed neighbour relations `(i, j)`: `j ∈ NH(i)`, `i ≠ j`.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (a, p) in probes.iter().enumerate() {
            for q in &probes[a + 1..] {
                let reaches = q.min_x <= p.max_x;
                if !reaches {
                    break;
                }
                if q.min_y > p.max_y || p.min_y > q.max_y {
                    continue;
                }
                index.candidate_pairs += 1;
                let (i, j) = (p.item as usize, q.item as usize);
                // Temporal pre-filter: objects absent from each other's time
                // range cannot be neighbours.
                if !intervals[i].intersects(&intervals[j]) {
                    continue;
                }
                // Lemma 2: bounding-box pre-filter with δ_max values, one
                // bound per direction.
                let gap = bboxes[i].min_distance(&bboxes[j]);
                let pruned = (
                    gap > epsilon + tolerances[i] + tolerances[j],
                    gap > epsilon + tolerances[j] + tolerances[i],
                );
                if pruned.0 && pruned.1 {
                    continue;
                }
                index.lemma2_pass += 1;
                // Lemma 1 / Lemma 3: the exact ω test over segment pairs.
                let (ij, ji) = omega_within(
                    &items[i],
                    &items[j],
                    epsilon,
                    distance,
                    mode,
                    (!pruned.0, !pruned.1),
                    &mut index.distance_evals,
                );
                if ij {
                    edges.push((p.item, q.item));
                }
                if ji {
                    edges.push((q.item, p.item));
                }
            }
        }
        index.neighbours = edges.len() as u64;
        index.fill_adjacency(n, &edges);
        index
    }

    /// Builds the CSR arrays from the directed relations, adding each item
    /// to its own list.
    fn fill_adjacency(&mut self, n: usize, edges: &[(u32, u32)]) {
        // Counts, then inclusive prefix sums: `offsets[i]` is the end of
        // item i's list; placing an entry steps it back, so once every entry
        // is placed it is the start.
        self.offsets = vec![1; n + 1];
        for &(i, _) in edges {
            self.offsets[i as usize] += 1;
        }
        let mut end = 0;
        for offset in &mut self.offsets[..n] {
            end += *offset;
            *offset = end;
        }
        self.offsets[n] = end;
        self.adjacency = vec![0; end];
        // lint: allow(cast-audit) — item count < u32::MAX, asserted in `new`
        let own = (0..n).map(|i| (i as u32, i as u32));
        for (i, j) in own.chain(edges.iter().copied()) {
            let slot = &mut self.offsets[i as usize];
            *slot -= 1;
            self.adjacency[*slot] = j;
        }
        for i in 0..n {
            self.adjacency[self.offsets[i]..self.offsets[i + 1]].sort_unstable();
        }
    }

    /// Item `idx`'s e-neighbourhood, ascending, `idx` included.
    fn neighbourhood(&self, idx: usize) -> &[u32] {
        &self.adjacency[self.offsets[idx]..self.offsets[idx + 1]]
    }

    /// TRAJ-DBSCAN over the indexed `items` (the slice the index was built
    /// from): clusters of object ids, in DBSCAN's discovery order.
    pub fn clusters(&self, items: &[SubTrajectory], m: usize) -> Vec<Cluster> {
        debug_assert_eq!(items.len(), self.len(), "the index's own items");
        labels_to_clusters(&dbscan(self, m))
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
}

/// Decides `ω(a, b) ≤ e` and `ω(b, a) ≤ e` in one pass over the segment
/// pairs, for the directions `need` asks about (a direction not needed is
/// reported `false`).
///
/// `ω ≤ e` holds exactly when some term `d − tol − tol` is `≤ e` (NaN terms
/// never lower [`omega_distance`]'s minimum and never compare `≤ e`), or when
/// `e` is `+∞`, which even the empty minimum meets. `DLL` and `D*` are
/// bitwise symmetric, so one `d` serves both directions; each subtracts the
/// two tolerances in its own ω's order. Returns as soon as both directions
/// are decided.
fn omega_within(
    a: &SubTrajectory,
    b: &SubTrajectory,
    epsilon: f64,
    distance: SegmentDistance,
    mode: ToleranceMode,
    need: (bool, bool),
    distance_evals: &mut u64,
) -> (bool, bool) {
    let unbounded = f64::INFINITY <= epsilon;
    let mut within = (need.0 && unbounded, need.1 && unbounded);
    if within == need {
        return within;
    }
    for sa in &a.segments {
        let tol_a = mode.tolerance_for(sa.actual_tolerance, a.global_tolerance);
        for sb in &b.segments {
            if !sa.interval().intersects(&sb.interval()) {
                continue;
            }
            let tol_b = mode.tolerance_for(sb.actual_tolerance, b.global_tolerance);
            let d = distance.distance(sa, sb);
            *distance_evals += 1;
            within.0 |= need.0 && d - tol_a - tol_b <= epsilon;
            within.1 |= need.1 && d - tol_b - tol_a <= epsilon;
            if within == need {
                return within;
            }
        }
    }
    within
}

impl RegionQuery for SubTrajectoryIndex {
    fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    fn neighbors(&self, idx: usize) -> Vec<usize> {
        self.neighbourhood(idx)
            .iter()
            .map(|&j| j as usize)
            .collect()
    }

    fn neighbors_into(&self, idx: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.neighbourhood(idx).iter().map(|&j| j as usize));
    }

    /// The neighbourhood's exact size, so DBSCAN skips the copy of every
    /// list too short to make its item core.
    fn neighbor_bound(&self, idx: usize) -> usize {
        self.neighbourhood(idx).len()
    }
}

/// Density-clusters the sub-trajectories of one time partition
/// (TRAJ-DBSCAN of Algorithm 2), returning clusters of object ids.
///
/// Fewer than `m` items can never form a cluster, so no index is built for
/// them.
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
    SubTrajectoryIndex::new(items, epsilon, distance, mode).clusters(items, m)
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
