//! Bit-exactness suite for the batched structure-of-arrays kernel path.
//!
//! The production [`GridIndex`] answers every e-range query through
//! `kernel::scan_soa` — fixed-width lanes, mask-then-emit. This suite pins
//! that path, hit-for-hit and order-for-order, against **two** frozen
//! scalar references:
//!
//! * [`reference::HashMapGrid`] — the original per-cell `HashMap` grid
//!   (the order every engine-equivalence suite anchors to), and
//! * [`aos::AosGridIndex`] — the pre-SoA CSR grid with the scalar
//!   array-of-structs bucket scan (isolates the layout + kernel change
//!   from the CSR restructuring that came before it).
//!
//! The fixtures are chosen adversarially for a lane-based kernel: NaN and
//! ±∞ coordinates, thousands of duplicate points packed into a single cell
//! (every lane of every batch a hit), points at *exactly* distance `e`
//! (closed-ball inclusivity in every lane slot), and extent sizes covering
//! every remainder class `n mod LANE_WIDTH` (the scalar tail).

use proptest::prelude::*;
use traj_cluster::dbscan::RegionQuery;
use traj_cluster::kernel::LANE_WIDTH;
use traj_cluster::{dbscan, GridIndex};
use traj_cluster_baselines::aos::AosGridIndex;
use traj_cluster_baselines::reference::HashMapGrid;
use trajectory::geometry::Point;

/// Asserts that the batched grid reports exactly the hits and order of both
/// frozen references, for a standalone range query at every point and for
/// the indexed-point `neighbors_into` fast path.
fn assert_all_paths_agree(pts: &[Point], e: f64) {
    let soa = GridIndex::build(pts.to_vec(), e);
    let aos = AosGridIndex::build(pts.to_vec(), e);
    let hashmap = HashMapGrid::build(pts.to_vec(), e);

    let mut soa_buf = Vec::new();
    let mut aos_buf = Vec::new();
    for (i, p) in pts.iter().enumerate() {
        let expected = hashmap.range_query(p);

        soa.range_query_into(p, &mut soa_buf);
        assert_eq!(
            soa_buf, expected,
            "SoA range_query diverged from HashMap reference at point {i}"
        );
        aos.range_query_into(p, &mut aos_buf);
        assert_eq!(
            soa_buf, aos_buf,
            "SoA range_query diverged from frozen AoS baseline at point {i}"
        );

        soa.neighbors_into(i, &mut soa_buf);
        assert_eq!(
            soa_buf, expected,
            "SoA neighbors_into diverged from HashMap reference at point {i}"
        );
        aos.neighbors_into(i, &mut aos_buf);
        assert_eq!(
            soa_buf, aos_buf,
            "SoA neighbors_into diverged from frozen AoS baseline at point {i}"
        );
    }
}

#[test]
fn non_finite_coordinates_agree_with_both_references() {
    // NaN cells hash to cell 0, ±∞ clamps to the world edge; none of them
    // may ever appear in a neighbourhood, and their presence must not
    // disturb the hits of finite points sharing their (clamped) cells.
    let pts = vec![
        Point::new(0.0, 0.0),
        Point::new(f64::NAN, 0.0),
        Point::new(0.5, f64::NAN),
        Point::new(f64::INFINITY, f64::INFINITY),
        Point::new(f64::NEG_INFINITY, 2.0),
        Point::new(0.4, 0.3),
        Point::new(f64::NAN, f64::NAN),
        Point::new(-0.2, 0.1),
        Point::new(1e308, -1e308),
    ];
    assert_all_paths_agree(&pts, 1.0);
}

#[test]
fn grid_fixtures_agree_with_both_references() {
    // A regular lattice, negative coordinates, a mix of finite, huge and
    // non-finite points, and two astronomical points clamped into one cell.
    let lattice: Vec<Point> = (0..50)
        .map(|i| Point::new((i % 10) as f64 * 0.7, (i / 10) as f64 * 0.7))
        .collect();
    assert_all_paths_agree(&lattice, 1.0);
    let negative = vec![
        Point::new(-5.0, -5.0),
        Point::new(-5.5, -5.2),
        Point::new(5.0, 5.0),
    ];
    assert_all_paths_agree(&negative, 1.0);
    let pathological = vec![
        Point::new(0.0, 0.0),
        Point::new(0.5, 0.0),
        Point::new(1e300, -1e300),
        Point::new(f64::INFINITY, 0.0),
        Point::new(f64::NEG_INFINITY, f64::INFINITY),
        Point::new(f64::NAN, 3.0),
    ];
    assert_all_paths_agree(&pathological, 1.0);
    let astronomical = vec![Point::new(1e300, 0.0), Point::new(2e300, 0.0)];
    assert_all_paths_agree(&astronomical, 5.0);
}

#[test]
fn thousands_of_duplicates_in_one_cell_agree_with_both_references() {
    // ~4096 coincident points: one giant bucket, hundreds of completely
    // full batches, every lane a hit — the mask drain must reproduce the
    // scalar emit order (strictly ascending point index) exactly.
    let mut pts = vec![Point::new(2.5, 2.5); 4096];
    // A few satellites in the 3×3 halo so the merged-extent path also runs.
    pts.push(Point::new(3.2, 2.5));
    pts.push(Point::new(2.5, 1.8));
    pts.push(Point::new(-50.0, -50.0));
    assert_all_paths_agree(&pts, 1.0);

    let labels_soa = dbscan(&GridIndex::build(pts.clone(), 1.0), 3);
    let labels_aos = dbscan(&AosGridIndex::build(pts.clone(), 1.0), 3);
    assert_eq!(labels_soa, labels_aos, "DBSCAN labels diverged");
}

#[test]
fn points_at_exactly_distance_e_agree_in_every_lane_slot() {
    // A 3-4-5 triangle puts neighbours at exactly distance 5 with an
    // exactly representable squared distance (25 == eps_sq bit-for-bit).
    // Rotating the boundary point through every slot of a lane batch
    // checks the closed-ball comparison in each lane position.
    for slot in 0..LANE_WIDTH {
        let mut pts = vec![Point::new(0.0, 0.0)];
        for i in 0..LANE_WIDTH + 3 {
            // Filler co-located with the boundary cell so the bucket is
            // bigger than one batch; only `slot` sits exactly on the rim.
            let off = if i == slot {
                0.0
            } else {
                0.25 + i as f64 * 0.01
            };
            pts.push(Point::new(3.0 - off, 4.0));
        }
        assert_all_paths_agree(&pts, 5.0);
        // The exact-rim point really is a hit of the centre point.
        let grid = GridIndex::build(pts.clone(), 5.0);
        let mut out = Vec::new();
        grid.range_query_into(&pts[0], &mut out);
        assert!(
            out.contains(&(slot + 1)),
            "exact-distance-e point missed in lane slot {slot}"
        );
    }
}

#[test]
fn every_remainder_class_mod_lane_width_agrees() {
    // Bucket sizes congruent to 1..LANE_WIDTH-1 (and full multiples) drive
    // every scalar-tail length through the grid path: n points in one cell
    // plus a probe from an adjacent cell.
    for extra in 0..=LANE_WIDTH {
        for batches in 0..3usize {
            let n = batches * LANE_WIDTH + extra;
            let mut pts: Vec<Point> = (0..n)
                .map(|i| Point::new(1.0 + (i as f64) * 1e-6, 1.0))
                .collect();
            pts.push(Point::new(-0.4, 1.0)); // neighbouring-cell probe
            if pts.len() < 2 {
                continue;
            }
            assert_all_paths_agree(&pts, 2.0);
        }
    }
}

#[test]
fn grid_rebuild_reuse_keeps_the_kernel_path_exact() {
    // The radix sort and the SoA columns are all reused scratch; a rebuild
    // over a completely different world must leave no stale hits behind.
    let mut grid = GridIndex::build(vec![Point::new(9.0, 9.0); 100], 1.0);
    let pts: Vec<Point> = (0..257)
        .map(|i| Point::new((i % 17) as f64 * 0.7, (i / 17) as f64 * 0.7))
        .collect();
    grid.rebuild(1.0, pts.iter().copied());
    let hashmap = HashMapGrid::build(pts.clone(), 1.0);
    let mut buf = Vec::new();
    for (i, p) in pts.iter().enumerate() {
        grid.neighbors_into(i, &mut buf);
        assert_eq!(buf, hashmap.range_query(p), "stale state at point {i}");
    }
}

proptest! {
    #[test]
    fn random_worlds_agree_with_both_references(
        coords in proptest::collection::vec((-30.0f64..30.0, -30.0f64..30.0), 1..120),
        e in 0.3f64..5.0,
    ) {
        let pts: Vec<Point> = coords.iter().map(|(x, y)| Point::new(*x, *y)).collect();
        assert_all_paths_agree(&pts, e);
    }

    #[test]
    fn salted_random_worlds_agree_with_both_references(
        coords in proptest::collection::vec((-30.0f64..30.0, -30.0f64..30.0), 1..80),
        e in 0.3f64..5.0,
    ) {
        // Salt the set with the pathological fixtures so clamped and NaN
        // cells are exercised under the same order contract.
        let mut pts: Vec<Point> = coords.iter().map(|(x, y)| Point::new(*x, *y)).collect();
        pts.push(Point::new(1e300, -1e300));
        pts.push(Point::new(f64::INFINITY, 0.0));
        pts.push(Point::new(f64::NAN, 3.0));
        assert_all_paths_agree(&pts, e);
    }

    #[test]
    fn clustered_worlds_with_dense_cells_agree(
        anchors in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..6),
        per_cell in 1usize..40,
        e in 0.5f64..4.0,
    ) {
        // Duplicate-heavy anchors produce the multi-batch buckets and
        // merged column extents the kernel cares about.
        let mut pts = Vec::new();
        for (ax, ay) in &anchors {
            for i in 0..per_cell {
                let nudge = (i % 7) as f64 * 1e-3;
                pts.push(Point::new(ax + nudge, ay - nudge));
            }
        }
        assert_all_paths_agree(&pts, e);
        let labels_soa = dbscan(&GridIndex::build(pts.clone(), e), 3);
        let labels_aos = dbscan(&AosGridIndex::build(pts.clone(), e), 3);
        prop_assert_eq!(labels_soa, labels_aos);
    }
}
