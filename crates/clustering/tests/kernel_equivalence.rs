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
//!
//! The same fixtures check the grid's [`RegionQuery::neighbor_bound`], the
//! 3×3 cell count DBSCAN uses to skip region queries that cannot find a
//! core point: it must never undercount a neighbourhood, it must equal the
//! brute-force block count (cells straddling the `0 / −1` key wrap on both
//! axes included), and the pruned DBSCAN must label exactly like the frozen,
//! unpruned reference loop.
//!
//! Finally the suite pins [`SnapshotClusterer::cluster_into`] and
//! [`snapshot_clusters`] — which drop points that cannot reach a cluster
//! before the grid is built — to the clusters of the frozen loop over the
//! frozen `HashMap` grid of *all* points: same clusters, same members, same
//! order. Fixtures straddle the 2e-wide coarse cells on both sides of the
//! origin, put border points exactly 2e from the far side of their core's
//! neighbourhood, and salt worlds with a far outlier, ±∞ and NaN, which
//! forces the coarse grid to widen its cells.

use proptest::prelude::*;
use traj_cluster::dbscan::Label;
use traj_cluster::dbscan::RegionQuery;
use traj_cluster::kernel::LANE_WIDTH;
use traj_cluster::{
    dbscan, dbscan_into, snapshot_clusters, Cluster, DbscanScratch, GridIndex, SnapshotClusterer,
};
use traj_cluster_baselines::aos::AosGridIndex;
use traj_cluster_baselines::reference::{self, HashMapGrid};
use trajectory::database::SnapshotEntry;
use trajectory::geometry::Point;
use trajectory::{ObjectId, Snapshot};

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

/// The grid cell of one coordinate, as every grid in the suite computes it:
/// `floor(v / e)`, NaN parked in cell 0, clamped to ±2⁶².
fn cell_coord(v: f64, e: f64) -> i64 {
    let cell = (v / e).floor();
    if cell.is_nan() {
        return 0;
    }
    let limit = (1i64 << 62) as f64;
    cell.clamp(-limit, limit) as i64
}

/// Asserts that the grid's `neighbor_bound` at every point equals the
/// brute-force count of points in its 3×3 cell block, and so never falls
/// below the true neighbourhood size.
fn assert_bound_is_exact_block_count(pts: &[Point], e: f64) {
    let grid = GridIndex::build(pts.to_vec(), e);
    let e = if e > 0.0 { e } else { f64::EPSILON };
    let cells: Vec<(i64, i64)> = pts
        .iter()
        .map(|p| (cell_coord(p.x, e), cell_coord(p.y, e)))
        .collect();
    for (i, &(cx, cy)) in cells.iter().enumerate() {
        let block = cells
            .iter()
            // i128: cells at opposite ends of the ±2⁶² clamp differ by 2⁶³.
            .filter(|&&(x, y)| {
                (i128::from(x) - i128::from(cx)).abs() <= 1
                    && (i128::from(y) - i128::from(cy)).abs() <= 1
            })
            .count();
        let bound = grid.neighbor_bound(i);
        assert_eq!(
            bound, block,
            "bound is not the 3×3 block count at point {i}"
        );
        let hits = grid.neighbors(i).len();
        assert!(
            bound >= hits,
            "bound {bound} undercounts {hits} hits at point {i}"
        );
    }
}

#[test]
fn neighbor_bound_resolves_the_key_wrap_on_both_axes() {
    // Cells 0 and −1 are neighbours, but their packed key halves (0 and
    // u64::MAX) sit at opposite ends of the sorted key table.
    let mut pts = Vec::new();
    for x in [-0.5, 0.5] {
        for y in [-0.5, 0.5] {
            pts.push(Point::new(x, y));
        }
    }
    pts.extend([
        Point::new(-1.5, 0.5),
        Point::new(1.5, -1.5),
        Point::new(0.5, -1.5),
        Point::new(-0.5, 1.5),
        Point::new(-1.5, -1.5),
    ]);
    assert_bound_is_exact_block_count(&pts, 1.0);
    // Only the wrap neighbours: one point in each of the four cells around
    // the origin, so each point's bound must see all four.
    let corners = vec![
        Point::new(-0.1, -0.1),
        Point::new(0.1, -0.1),
        Point::new(-0.1, 0.1),
        Point::new(0.1, 0.1),
    ];
    assert_bound_is_exact_block_count(&corners, 1.0);
    let grid = GridIndex::build(corners.clone(), 1.0);
    for i in 0..corners.len() {
        assert_eq!(grid.neighbor_bound(i), 4);
        assert_eq!(grid.neighbors(i).len(), 4);
    }
    assert_eq!(
        dbscan(&grid, 4),
        reference::dbscan(&HashMapGrid::build(corners, 1.0), 4)
    );
}

#[test]
fn neighbor_bound_holds_at_the_clamp_and_for_non_finite_points() {
    let limit = (1i64 << 62) as f64;
    let pts = vec![
        Point::new(limit, limit),
        Point::new(limit * 4.0, limit),
        Point::new(-limit, -limit),
        Point::new(-limit * 4.0, -limit * 2.0),
        Point::new(limit, -limit),
        Point::new(f64::INFINITY, f64::INFINITY),
        Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        Point::new(f64::INFINITY, f64::NEG_INFINITY),
        Point::new(f64::NAN, 0.0),
        Point::new(0.0, f64::NAN),
        Point::new(f64::NAN, f64::NAN),
        Point::new(0.2, 0.2),
        Point::new(-0.2, -0.2),
        Point::new(1e308, -1e308),
    ];
    assert_bound_is_exact_block_count(&pts, 1.0);
    assert_bound_is_exact_block_count(&pts, 0.0);
    for m in 1..5 {
        assert_eq!(
            dbscan(&GridIndex::build(pts.clone(), 1.0), m),
            reference::dbscan(&HashMapGrid::build(pts.clone(), 1.0), m),
            "pruned DBSCAN diverged at m = {m}"
        );
    }
}

#[test]
fn neighbor_bound_counts_thousands_of_duplicates_in_one_cell() {
    let mut pts = vec![Point::new(-0.5, -0.5); 4096];
    pts.push(Point::new(0.5, 0.5));
    pts.push(Point::new(-1.5, 0.5));
    pts.push(Point::new(30.0, 30.0));
    assert_bound_is_exact_block_count(&pts, 1.0);
    let grid = GridIndex::build(pts.clone(), 1.0);
    assert_eq!(grid.neighbor_bound(0), 4098);
    assert_eq!(grid.neighbor_bound(4096), 4097);
    assert_eq!(grid.neighbor_bound(4098), 1);
}

#[test]
fn pruned_dbscan_matches_the_unpruned_reference_on_a_sparse_world() {
    // Mostly isolated points — the regime where almost every region query
    // is skipped — plus a few dense clumps, chains and near-misses of size
    // m − 1 that the bound admits but the query rejects.
    let mut state = 0x243f_6a88_85a3_08d3_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1_000_000) as f64 * 1e-3 - 500.0
    };
    let mut pts: Vec<Point> = (0..3_000).map(|_| Point::new(next(), next())).collect();
    for clump in 0..12 {
        let (ax, ay) = (next(), next());
        for i in 0..(clump % 5 + 1) {
            pts.push(Point::new(ax + i as f64 * 0.3, ay - i as f64 * 0.2));
        }
    }
    let chain: Vec<Point> = (0..20).map(|i| Point::new(i as f64 * 0.9, -0.4)).collect();
    pts.extend(chain);
    for (e, m) in [(1.0, 2), (1.0, 3), (2.0, 3), (0.5, 4), (3.0, 5)] {
        assert_bound_is_exact_block_count(&pts, e);
        let grid = GridIndex::build(pts.clone(), e);
        let pruned = dbscan(&grid, m);
        assert_eq!(
            pruned,
            reference::dbscan(&HashMapGrid::build(pts.clone(), e), m),
            "pruned DBSCAN diverged from the frozen reference at e = {e}, m = {m}"
        );
    }
}

#[test]
fn production_sized_uniform_worlds_agree_with_both_references() {
    // The engines' per-tick shape at 1k to 100k points: uniform points at
    // constant density (the side grows with √n, ≈7 points per e-disc at
    // e = 3), so key ranges are wide and the radix build takes several
    // passes, unlike the small proptest worlds above.
    const EPS: f64 = 3.0;
    const MIN_PTS: usize = 3;
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for n in [1_000usize, 10_000, 100_000] {
        let side = (n as f64).sqrt() * 2.0;
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(unit() * side, unit() * side))
            .collect();
        assert_all_paths_agree(&pts, EPS);
        assert_eq!(
            dbscan(&GridIndex::build(pts.clone(), EPS), MIN_PTS),
            reference::dbscan(&HashMapGrid::build(pts, EPS), MIN_PTS),
            "pruned DBSCAN diverged from the frozen reference at n = {n}"
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

/// A snapshot of `pts` whose ids are spaced apart (`7 + 3·i`), so a
/// clusterer that mixed up point indices and ids would show.
fn snapshot_of(pts: &[Point]) -> Snapshot {
    Snapshot {
        time: 0,
        entries: pts
            .iter()
            .enumerate()
            .map(|(i, &position)| SnapshotEntry {
                id: ObjectId(7 + 3 * i as u64),
                position,
            })
            .collect(),
    }
}

/// The clusters of the frozen, unpruned DBSCAN loop over the frozen
/// `HashMap` grid of every point of `snapshot`, in cluster-id order.
fn reference_clusters(snapshot: &Snapshot, e: f64, m: usize) -> Vec<Cluster> {
    let pts: Vec<Point> = snapshot
        .entries
        .iter()
        .map(|entry| entry.position)
        .collect();
    let labels = reference::dbscan(&HashMapGrid::build(pts, e), m);
    let mut members: Vec<Vec<ObjectId>> = Vec::new();
    for (entry, label) in snapshot.entries.iter().zip(labels) {
        if let Label::Cluster(c) = label {
            if members.len() <= c {
                members.resize(c + 1, Vec::new());
            }
            members[c].push(entry.id);
        }
    }
    members.into_iter().map(Cluster::new).collect()
}

/// Asserts that a reused clusterer and the one-shot entry point report the
/// frozen reference's clusters for `pts` at `(e, m)`, and that dropping
/// points left every other work count equal to those of DBSCAN over a grid
/// of all points. Returns how many points the clusterer dropped.
fn assert_clusters_match_reference(
    clusterer: &mut SnapshotClusterer,
    pts: &[Point],
    e: f64,
    m: usize,
) -> u64 {
    let snapshot = snapshot_of(pts);
    let expected = reference_clusters(&snapshot, e, m);
    clusterer.take_counts();
    assert_eq!(
        clusterer.cluster_into(&snapshot, e, m),
        &expected[..],
        "cluster_into diverged from the frozen reference at e = {e}, m = {m}"
    );
    assert_eq!(
        snapshot_clusters(&snapshot, e, m),
        expected,
        "snapshot_clusters diverged from the frozen reference at e = {e}, m = {m}"
    );
    let counts = clusterer.take_counts();
    assert!(counts.points_dropped <= counts.region_queries_skipped);
    if pts.len() >= m {
        let full = GridIndex::build(pts.to_vec(), e);
        let mut scratch = DbscanScratch::new();
        dbscan_into(&full, m, &mut scratch);
        assert_eq!(
            (counts.region_queries, counts.region_queries_skipped),
            scratch.query_counts(),
            "dropping changed the region-query counts at e = {e}, m = {m}"
        );
        assert_eq!(
            (counts.kernel_batches, counts.kernel_lanes),
            full.take_kernel_counts(),
            "dropping changed the kernel work at e = {e}, m = {m}"
        );
    }
    counts.points_dropped
}

/// A sparse world: mostly isolated points, clumps of one to five points
/// and a chain through the origin.
fn sparse_world() -> Vec<Point> {
    let mut state = 0x1319_8a2e_0370_7344_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1_000_000) as f64 * 1e-3 - 500.0
    };
    let mut pts: Vec<Point> = (0..2_000).map(|_| Point::new(next(), next())).collect();
    for clump in 0..15 {
        let (ax, ay) = (next(), next());
        for i in 0..(clump % 5 + 1) {
            pts.push(Point::new(ax + i as f64 * 0.3, ay - i as f64 * 0.2));
        }
    }
    pts.extend((0..25).map(|i| Point::new(i as f64 * 0.9 - 11.0, -0.4)));
    pts.extend((0..25).map(|i| Point::new(3.3, i as f64 * 1.4 - 17.0)));
    pts
}

#[test]
fn clusterer_matches_the_reference_on_a_sparse_world() {
    let pts = sparse_world();
    let mut clusterer = SnapshotClusterer::new();
    for (e, m) in [(1.0, 1), (1.0, 2), (1.0, 3), (2.0, 3), (0.5, 5), (3.0, 5)] {
        let dropped = assert_clusters_match_reference(&mut clusterer, &pts, e, m);
        if m > 1 {
            assert!(
                dropped > pts.len() as u64 / 2,
                "a sparse world drops most points (dropped {dropped} at e = {e}, m = {m})"
            );
        } else {
            assert_eq!(dropped, 0, "m = 1 makes every point core");
        }
    }
}

#[test]
fn clusterer_matches_the_reference_across_coarse_cell_edges() {
    // Coarse cells are 2e wide, so their edges sit at even multiples of e;
    // pairs and triples straddle each edge from −6e to 6e on both axes, at
    // distances just inside and just outside e.
    for e in [1.0, 0.75] {
        let mut pts = Vec::new();
        for edge in -3..=3 {
            let at = f64::from(edge) * 2.0 * e;
            for gap in [0.49, 0.51] {
                let (lo, hi) = (at - gap * e, at + gap * e);
                pts.extend([Point::new(lo, 0.3), Point::new(hi, 0.3)]);
                pts.extend([Point::new(-0.3 * e, lo), Point::new(-0.3 * e, hi)]);
                pts.extend([Point::new(lo, lo), Point::new(hi, hi), Point::new(hi, lo)]);
            }
        }
        let mut clusterer = SnapshotClusterer::new();
        for m in [1, 2, 3, 5] {
            assert_clusters_match_reference(&mut clusterer, &pts, e, m);
        }
    }
}

#[test]
fn a_border_point_2e_from_its_cores_far_neighbours_is_kept() {
    // A core point `c` whose m − 1 other neighbours sit exactly e away on
    // one side, and a border point exactly e away on the other: the border
    // point is 2e from those neighbours, alone in its own block, and must
    // still join the cluster. Integer coordinates keep every distance
    // exact; the shift walks the triple across every parity of the coarse
    // cells on both sides of the origin, along both axes and a 3-4-5
    // diagonal.
    for m in [2, 3, 5] {
        let mut clusterer = SnapshotClusterer::new();
        for (e, step) in [(1.0, (1.0, 0.0)), (1.0, (0.0, -1.0)), (5.0, (3.0, 4.0))] {
            for shift in -5..=5 {
                let c = Point::new(f64::from(shift) * e, f64::from(-shift) * e);
                let far = Point::new(c.x - step.0, c.y - step.1);
                let border = Point::new(c.x + step.0, c.y + step.1);
                let mut pts = vec![c, border];
                pts.extend(std::iter::repeat_n(far, m - 1));
                pts.push(Point::new(c.x + 40.0 * e, c.y));
                let expected = reference_clusters(&snapshot_of(&pts), e, m);
                assert_eq!(expected.len(), 1);
                assert!(
                    expected[0].contains(ObjectId(10)),
                    "fixture: the border point belongs to the cluster"
                );
                assert_clusters_match_reference(&mut clusterer, &pts, e, m);
            }
        }
    }
}

#[test]
fn a_far_outlier_and_non_finite_salt_coarsen_without_changing_clusters() {
    // One point 10¹² away stretches the bounding box far past the count
    // array's cap, so the coarse cells widen until it fits; ±∞ and 10³⁰⁰
    // clamp to the edge of the cell range and NaN parks in cell 0.
    let mut pts = sparse_world();
    pts.push(Point::new(1e12, -1e12));
    pts.extend([
        Point::new(f64::INFINITY, 0.0),
        Point::new(f64::NEG_INFINITY, f64::INFINITY),
        Point::new(1e300, -1e300),
        Point::new(-1e300, 1e300),
        Point::new(f64::NAN, 0.0),
        Point::new(0.0, f64::NAN),
        Point::new(f64::NAN, f64::NAN),
    ]);
    let mut clusterer = SnapshotClusterer::new();
    for m in [1, 2, 3, 5] {
        for e in [1.0, 3.0] {
            assert_clusters_match_reference(&mut clusterer, &pts, e, m);
        }
    }
    // The salt alone, and the salt around one small clump.
    let salt = pts[pts.len() - 8..].to_vec();
    let mut clump = salt.clone();
    clump.extend([
        Point::new(0.1, 0.1),
        Point::new(0.2, 0.1),
        Point::new(0.1, 0.3),
    ]);
    for m in [1, 2, 3, 5] {
        assert_clusters_match_reference(&mut clusterer, &salt, 1.0, m);
        assert_clusters_match_reference(&mut clusterer, &clump, 1.0, m);
    }
}

#[test]
fn non_positive_e_matches_the_reference() {
    // e ≤ 0 clamps to f64::EPSILON: only coincident points are neighbours.
    let mut pts = vec![Point::new(1.0, 1.0); 4];
    pts.extend([
        Point::new(-2.0, 0.5),
        Point::new(-2.0, 0.5),
        Point::new(0.0, 0.0),
    ]);
    pts.extend([Point::new(1.0 + 1e-9, 1.0), Point::new(f64::NAN, 1.0)]);
    let mut clusterer = SnapshotClusterer::new();
    for e in [0.0, -1.0] {
        for m in [1, 2, 3, 5] {
            assert_clusters_match_reference(&mut clusterer, &pts, e, m);
        }
    }
}

proptest! {
    #[test]
    fn neighbor_bound_never_undercounts(
        coords in proptest::collection::vec((-12.0f64..12.0, -12.0f64..12.0), 1..150),
        e in 0.2f64..4.0,
        m in 1usize..6,
    ) {
        // Worlds straddle the origin, so the `0 / −1` wrap is in play on
        // both axes in most cases.
        let pts: Vec<Point> = coords.iter().map(|(x, y)| Point::new(*x, *y)).collect();
        assert_bound_is_exact_block_count(&pts, e);
        prop_assert_eq!(
            dbscan(&GridIndex::build(pts.clone(), e), m),
            reference::dbscan(&HashMapGrid::build(pts, e), m)
        );
    }

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

    #[test]
    fn clusterer_matches_the_reference_on_random_worlds(
        coords in proptest::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 0..150),
        clumps in proptest::collection::vec((-40.0f64..40.0, -40.0f64..40.0, 1usize..6), 0..6),
        e in 0.2f64..4.0,
        m in 1usize..6,
    ) {
        let mut pts: Vec<Point> = coords.iter().map(|(x, y)| Point::new(*x, *y)).collect();
        for (x, y, size) in clumps {
            pts.extend((0..size).map(|i| Point::new(x + i as f64 * 0.1 * e, y)));
        }
        let mut clusterer = SnapshotClusterer::new();
        assert_clusters_match_reference(&mut clusterer, &pts, e, m);
    }
}
