//! CuTS filter-query equivalence: the sweep-and-CSR
//! [`SubTrajectoryIndex`] answers every region query exactly as the
//! per-item hash-grid query it replaced, frozen below as [`FrozenQuery`].
//!
//! The frozen copy registers every sub-trajectory in each cell of a uniform
//! grid (cell side: the mean tolerance-expanded extent plus `e`) that its
//! tolerance-expanded box overlaps, gathers a query's candidates from the
//! cells its probe box overlaps, and tests each candidate on its own: the
//! interval test, the Lemma 2 bound `e + δ_max(query) + δ_max(candidate)`,
//! then a full ω from the query's side. The index visits each unordered
//! pair once and decides both directions from that one visit, so this suite
//! checks that nothing of the per-direction arithmetic was lost:
//!
//! * every item's neighbour list (ascending, the item included) is the
//!   frozen query's, for both [`SegmentDistance`]s and both
//!   [`ToleranceMode`]s;
//! * the partition's clusters (DBSCAN over the frozen query, which has no
//!   `neighbor_bound`) are the index's clusters and
//!   [`cluster_sub_trajectories`]'s, for several `m`.
//!
//! The inputs mix single-sample (degenerate) segments, coincident boxes,
//! coordinates and tolerances on a quarter-unit lattice so that many pairs
//! sit at exactly `e` (where `≤` against `<` and the subtraction order
//! decide), random real-valued walks, and the glitch shape: one object
//! whose fix jumps far away and back inside the partition.

use proptest::prelude::*;
use std::collections::HashMap;
use traj_cluster::dbscan::labels_to_clusters;
use traj_cluster::{
    cluster_sub_trajectories, dbscan, Cluster, RegionQuery, SegmentDistance, SubTrajectory,
    SubTrajectoryIndex,
};
use traj_simplify::{SimplificationMethod, SimplifiedSegment, ToleranceMode};
use trajectory::geometry::segment::TimedSegment;
use trajectory::geometry::{BoundingBox, Point, Segment};
use trajectory::{ObjectId, TimeInterval, TrajPoint, Trajectory};

/// The ω distance, frozen: minimum over time-overlapping segment pairs of
/// `d − tol(query segment) − tol(candidate segment)`.
fn frozen_omega(
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

/// The per-item hash-grid region query the index replaced, frozen.
struct FrozenQuery<'a> {
    items: &'a [SubTrajectory],
    epsilon: f64,
    distance: SegmentDistance,
    mode: ToleranceMode,
    bboxes: Vec<BoundingBox>,
    max_tolerances: Vec<f64>,
    intervals: Vec<TimeInterval>,
    cells: HashMap<(i64, i64), Vec<usize>>,
    cell_size: f64,
}

impl<'a> FrozenQuery<'a> {
    fn new(
        items: &'a [SubTrajectory],
        epsilon: f64,
        distance: SegmentDistance,
        mode: ToleranceMode,
    ) -> Self {
        let bboxes: Vec<BoundingBox> = items.iter().map(|s| s.bounding_box()).collect();
        let max_tolerances: Vec<f64> = items.iter().map(|s| s.max_tolerance(mode)).collect();
        let intervals = items.iter().map(|s| s.time_interval()).collect();
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
        let mut cells: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
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
        FrozenQuery {
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

    fn cell_of(x: f64, y: f64, cell_size: f64) -> (i64, i64) {
        (
            (x / cell_size).floor() as i64,
            (y / cell_size).floor() as i64,
        )
    }

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

impl RegionQuery for FrozenQuery<'_> {
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
            if !self.intervals[idx].intersects(&self.intervals[j]) {
                continue;
            }
            let bound = self.epsilon + self.max_tolerances[idx] + self.max_tolerances[j];
            if self.bboxes[idx].min_distance(&self.bboxes[j]) > bound {
                continue;
            }
            if frozen_omega(query, &self.items[j], self.distance, self.mode) <= self.epsilon {
                out.push(j);
            }
        }
        out.sort_unstable();
        out
    }
}

/// The frozen TRAJ-DBSCAN: DBSCAN over the frozen query.
fn frozen_clusters(query: &FrozenQuery<'_>, m: usize) -> Vec<Cluster> {
    if query.items.len() < m {
        return Vec::new();
    }
    labels_to_clusters(&dbscan(query, m))
        .into_iter()
        .map(|members| Cluster::new(members.into_iter().map(|i| query.items[i].object).collect()))
        .collect()
}

const MODES: [(SegmentDistance, ToleranceMode); 4] = [
    (SegmentDistance::Dll, ToleranceMode::Actual),
    (SegmentDistance::Dll, ToleranceMode::Global),
    (SegmentDistance::DStar, ToleranceMode::Actual),
    (SegmentDistance::DStar, ToleranceMode::Global),
];

/// Checks every neighbour list and the clusters for `m ∈ {1, 2, 3, 5}`
/// under every distance and tolerance mode.
fn assert_equivalent(items: &[SubTrajectory], epsilon: f64) {
    for (distance, mode) in MODES {
        let frozen = FrozenQuery::new(items, epsilon, distance, mode);
        let index = SubTrajectoryIndex::new(items, epsilon, distance, mode);
        assert_eq!(index.len(), items.len());
        let mut entries = 0;
        for i in 0..items.len() {
            let expected = frozen.neighbors(i);
            assert_eq!(
                index.neighbors(i),
                expected,
                "item {i}, {} {}, e = {epsilon}",
                distance.name(),
                mode.name()
            );
            assert_eq!(index.neighbor_bound(i), expected.len());
            entries += expected.len() - 1;
        }
        assert_eq!(index.neighbours, entries as u64);
        for m in [1, 2, 3, 5] {
            let expected = frozen_clusters(&frozen, m);
            assert_eq!(index.clusters(items, m), expected, "m = {m}");
            assert_eq!(
                cluster_sub_trajectories(items, epsilon, m, distance, mode),
                expected,
                "m = {m}"
            );
        }
    }
}

/// Deterministic xorshift64* stream for building items from a case seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A quarter-unit lattice value in `[0, quarters / 4)`.
    fn quarter(&mut self, quarters: u64) -> f64 {
        self.below(quarters) as f64 * 0.25
    }
}

fn segment(a: Point, b: Point, t0: i64, t1: i64, actual: f64) -> SimplifiedSegment {
    SimplifiedSegment {
        timed: TimedSegment::new(Segment::new(a, b), TimeInterval::new(t0, t1)),
        actual_tolerance: actual,
        start_index: 0,
        end_index: 0,
    }
}

/// Lattice items: chains of 1–3 time-contiguous segments (or one
/// single-sample degenerate segment) with quarter-unit coordinates and
/// tolerances, over a world small enough that boxes coincide and many gaps
/// equal `e` plus the tolerances exactly. With `glitch`, the first item
/// jumps to (1e6, 1e6) and back.
fn lattice_items(seed: u64, n: usize, glitch: bool) -> Vec<SubTrajectory> {
    let mut rng = Rng(seed | 1);
    (0..n)
        .map(|i| {
            let global = rng.quarter(5);
            let start = rng.below(12) as i64;
            let mut at = Point::new(rng.quarter(48), rng.quarter(48));
            let segments = if rng.below(5) == 0 {
                vec![segment(at, at, start, start, 0.0)]
            } else {
                let mut t = start;
                (0..1 + rng.below(3))
                    .map(|_| {
                        let next = Point::new(rng.quarter(48), rng.quarter(48));
                        let dt = 1 + rng.below(4) as i64;
                        let actual = global.min(rng.quarter(5));
                        let s = segment(at, next, t, t + dt, actual);
                        (at, t) = (next, t + dt);
                        s
                    })
                    .collect()
            };
            let mut item = SubTrajectory {
                object: ObjectId(100 + i as u64),
                segments,
                global_tolerance: global,
            };
            if glitch && i == 0 {
                let far = Point::new(1e6, 1e6);
                let (t0, t1) = (item.time_interval().end, item.time_interval().end + 1);
                item.segments.push(segment(at, far, t0, t1, 0.0));
                item.segments.push(segment(far, at, t1, t1 + 1, 0.0));
            }
            item
        })
        .collect()
}

/// Real-valued items from the filter's own pipeline: random walks
/// simplified by DP or DP* and cut to a partition window.
fn walk_items(seed: u64, n: usize, delta: f64) -> Vec<SubTrajectory> {
    let mut rng = Rng(seed | 1);
    let window = TimeInterval::new(4, 16);
    (0..n)
        .filter_map(|i| {
            let start = rng.below(14) as i64;
            let len = 1 + rng.below(12) as i64;
            let (mut x, mut y) = (rng.below(4000) as f64 * 0.01, rng.below(4000) as f64 * 0.01);
            let points: Vec<TrajPoint> = (start..start + len)
                .map(|t| {
                    x += (rng.below(400) as f64 - 200.0) * 0.01;
                    y += (rng.below(400) as f64 - 200.0) * 0.01;
                    TrajPoint::new(x, y, t)
                })
                .collect();
            let traj = Trajectory::from_points(points).unwrap();
            let method = if i % 2 == 0 {
                SimplificationMethod::Dp
            } else {
                SimplificationMethod::DpStar
            };
            SubTrajectory::for_window(ObjectId(i as u64), &method.simplify(&traj, delta), window)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lattice_partitions_match_the_frozen_grid_query(
        seed in 0u64..u64::MAX,
        n in 0usize..40,
        quarters in 1u64..13,
        glitch in 0u8..4,
    ) {
        let items = lattice_items(seed, n, glitch == 0);
        assert_equivalent(&items, quarters as f64 * 0.25);
    }

    #[test]
    fn simplified_walks_match_the_frozen_grid_query(
        seed in 0u64..u64::MAX,
        n in 0usize..40,
        epsilon in 0.05f64..6.0,
        delta in 0.05f64..2.0,
    ) {
        let items = walk_items(seed, n, delta);
        assert_equivalent(&items, epsilon);
    }
}

#[test]
fn coincident_and_degenerate_items_match() {
    // Three identical single-sample items, two identical segments, and a
    // pair whose boxes sit exactly e apart with zero tolerances.
    let p = Point::new(2.0, 3.0);
    let at = |object: u64, segments: Vec<SimplifiedSegment>| SubTrajectory {
        object: ObjectId(object),
        segments,
        global_tolerance: 0.5,
    };
    let items = vec![
        at(1, vec![segment(p, p, 4, 4, 0.0)]),
        at(2, vec![segment(p, p, 4, 4, 0.0)]),
        at(3, vec![segment(p, p, 4, 4, 0.0)]),
        at(4, vec![segment(p, Point::new(6.0, 3.0), 0, 8, 0.25)]),
        at(5, vec![segment(p, Point::new(6.0, 3.0), 0, 8, 0.25)]),
        at(
            6,
            vec![segment(
                Point::new(8.0, 3.0),
                Point::new(9.0, 3.0),
                0,
                8,
                0.0,
            )],
        ),
        at(
            7,
            vec![segment(
                Point::new(10.0, 3.0),
                Point::new(11.0, 3.0),
                0,
                8,
                0.0,
            )],
        ),
    ];
    for epsilon in [0.0, 0.5, 1.0, 1.5, 2.0] {
        assert_equivalent(&items, epsilon);
    }
    // Item 6 ends 1.0 before item 7 starts: at e = 1 they are neighbours.
    let index = SubTrajectoryIndex::new(&items, 1.0, SegmentDistance::Dll, ToleranceMode::Actual);
    assert_eq!(index.neighbors(5), [5, 6]);
}

#[test]
fn the_glitch_shape_matches() {
    // A lattice of co-moving objects plus one whose fix jumps to (1e6, 1e6)
    // and back: the shape that registered one item in about n² grid cells.
    let mut items: Vec<SubTrajectory> = (0..200)
        .map(|i| {
            let p = Point::new((i % 20) as f64 * 10.0, (i / 20) as f64 * 10.0);
            SubTrajectory {
                object: ObjectId(i),
                segments: vec![segment(p, Point::new(p.x + 1.0, p.y), 0, 10, 0.5)],
                global_tolerance: 1.0,
            }
        })
        .collect();
    let home = Point::new(55.0, 55.0);
    let far = Point::new(1e6, 1e6);
    items.push(SubTrajectory {
        object: ObjectId(1000),
        segments: vec![
            segment(home, far, 0, 5, 0.0),
            segment(far, home, 5, 10, 0.0),
        ],
        global_tolerance: 1.0,
    });
    for epsilon in [9.0, 10.0, 12.0] {
        assert_equivalent(&items, epsilon);
    }
}

#[test]
fn each_direction_keeps_its_own_bound_and_subtraction_order() {
    // Parallel segments 1.0 apart with tolerances 0.1 and 0.2:
    // (1 − 0.1) − 0.2 = 0.7 but (1 − 0.2) − 0.1 = 0.7000000000000001, so at
    // e = 0.7 the second item is in the first one's neighbourhood and not
    // the reverse. A second segment with tolerance 1.0 (meeting no segment
    // of the other item in time) keeps Lemma 2 from deciding the pair.
    let item = |object: u64, y: f64, tol: f64, (t0, t1): (i64, i64)| SubTrajectory {
        object: ObjectId(object),
        segments: vec![
            segment(Point::new(0.0, y), Point::new(4.0, y), 0, 4, tol),
            segment(Point::new(4.0, y), Point::new(4.0, y), t0, t1, 1.0),
        ],
        global_tolerance: 1.0,
    };
    let items = vec![item(1, 0.0, 0.1, (6, 9)), item(2, 1.0, 0.2, (-5, -1))];
    for distance in [SegmentDistance::Dll, SegmentDistance::DStar] {
        let index = SubTrajectoryIndex::new(&items, 0.7, distance, ToleranceMode::Actual);
        assert_eq!(index.neighbors(0), [0, 1], "{}", distance.name());
        assert_eq!(index.neighbors(1), [1], "{}", distance.name());
    }
    assert_equivalent(&items, 0.7);

    // Lemma 2 alone: (0.3 + 0.2) + 0.35 = 0.85 but (0.3 + 0.35) + 0.2 =
    // 0.8499999999999999, so boxes exactly 0.85 apart pass the first item's
    // bound and fail the second's, although both ω terms are within e.
    let item = |object: u64, y: f64, tol: f64| SubTrajectory {
        object: ObjectId(object),
        segments: vec![segment(Point::new(0.0, y), Point::new(4.0, y), 0, 4, tol)],
        global_tolerance: 1.0,
    };
    let items = vec![item(1, 0.0, 0.2), item(2, 0.85, 0.35)];
    for distance in [SegmentDistance::Dll, SegmentDistance::DStar] {
        let index = SubTrajectoryIndex::new(&items, 0.3, distance, ToleranceMode::Actual);
        assert_eq!(index.neighbors(0), [0, 1], "{}", distance.name());
        assert_eq!(index.neighbors(1), [1], "{}", distance.name());
    }
    assert_equivalent(&items, 0.3);
}
