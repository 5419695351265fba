//! Micro-benchmarks of the primitives the discovery algorithms spend their
//! time in: distance functions, DBSCAN over a snapshot, trajectory
//! simplification, and the ω sub-trajectory distance. These are not paper
//! figures; they exist to catch performance regressions at the component
//! level.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traj_cluster::{
    snapshot_clusters, GridIndex, SegmentDistance, SnapshotClusterer, SubTrajectory,
};
use traj_simplify::{DouglasPeucker, DouglasPeuckerStar, Simplifier, ToleranceMode};
use trajectory::database::SnapshotEntry;
use trajectory::geometry::{Point, Segment, TimedSegment};
use trajectory::{
    ObjectId, Snapshot, SnapshotPolicy, TimeInterval, TrajPoint, Trajectory, TrajectoryDatabase,
};

/// The pre-CSR clustering hot path — `traj_cluster_baselines::reference`,
/// the one frozen copy of the `HashMap`-bucket grid and the pre-scratch
/// DBSCAN loop (also pinned by the clustering crate's order-equivalence
/// tests).
/// The `micro/grid_build`, `micro/range_query` and
/// `micro/snapshot_clusters` groups time it against the CSR +
/// scratch-reuse path so `BENCH_baseline.json` always records both sides
/// of the trade.
use traj_cluster_baselines::reference as old_path;
use traj_cluster_baselines::reference::HashMapGrid as OldHashMapGrid;

fn random_trajectory(rng: &mut StdRng, len: usize) -> Trajectory {
    let mut x = 0.0f64;
    let mut y = 0.0f64;
    let points = (0..len)
        .map(|t| {
            x += rng.gen_range(-1.0..1.0);
            y += rng.gen_range(-1.0..1.0);
            TrajPoint::new(x, y, t as i64)
        })
        .collect();
    Trajectory::from_points(points).expect("non-empty")
}

fn bench_distances(c: &mut Criterion) {
    let a = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 3.0));
    let b = Segment::new(Point::new(5.0, 8.0), Point::new(-2.0, 4.0));
    let ta = TimedSegment::new(a, TimeInterval::new(0, 10));
    let tb = TimedSegment::new(b, TimeInterval::new(3, 12));
    let mut group = c.benchmark_group("micro/distances");
    group.bench_function("segment_dll", |bench| {
        bench.iter(|| a.distance_to_segment(&b))
    });
    group.bench_function("segment_dstar_cpa", |bench| {
        bench.iter(|| ta.cpa_distance(&tb))
    });
    group.finish();
}

fn bench_snapshot_clustering(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut group = c.benchmark_group("micro/snapshot_dbscan");
    for n in [100usize, 500] {
        let mut db = TrajectoryDatabase::new();
        for i in 0..n {
            let x = rng.gen_range(0.0..100.0);
            let y = rng.gen_range(0.0..100.0);
            db.insert(
                ObjectId(i as u64),
                Trajectory::from_tuples([(x, y, 0)]).unwrap(),
            );
        }
        let snapshot = db.snapshot(0, SnapshotPolicy::Interpolate);
        group.bench_with_input(BenchmarkId::from_parameter(n), &snapshot, |bench, snap| {
            bench.iter(|| snapshot_clusters(snap, 3.0, 3))
        });
    }
    group.finish();
}

/// Uniform points at constant density: the world side scales with √n, so
/// every size has the same expected neighbourhood population (≈7 points per
/// e-disc at `EPS` = 3).
fn scatter_points(rng: &mut StdRng, n: usize) -> Vec<Point> {
    let side = (n as f64).sqrt() * 2.0;
    (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect()
}

fn scatter_snapshot(rng: &mut StdRng, n: usize) -> Snapshot {
    Snapshot {
        time: 0,
        entries: scatter_points(rng, n)
            .into_iter()
            .enumerate()
            .map(|(i, position)| SnapshotEntry {
                id: ObjectId(i as u64),
                position,
                interpolated: false,
            })
            .collect(),
    }
}

/// Point counts for the clustering-primitive scaling cases.
const SIZES: [usize; 3] = [1_000, 10_000, 100_000];
/// Query radius for the scaling cases (constant density, see
/// [`scatter_points`]).
const EPS: f64 = 3.0;
/// Density threshold for the scaling cases.
const MIN_PTS: usize = 3;

fn bench_grid_build(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(21);
    let mut group = c.benchmark_group("micro/grid_build");
    for n in SIZES {
        let points = scatter_points(&mut rng, n);
        group.bench_with_input(BenchmarkId::new("old_hashmap", n), &points, |b, pts| {
            b.iter(|| OldHashMapGrid::build(pts.clone(), EPS))
        });
        group.bench_with_input(BenchmarkId::new("new_csr", n), &points, |b, pts| {
            b.iter(|| GridIndex::build(pts.clone(), EPS))
        });
        // The engines' steady state: re-index into retained buffers.
        let mut reused = GridIndex::default();
        group.bench_with_input(BenchmarkId::new("new_csr_rebuild", n), &points, |b, pts| {
            b.iter(|| {
                reused.rebuild(EPS, pts.iter().copied());
                reused.len()
            })
        });
    }
    group.finish();
}

fn bench_range_query(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(22);
    let mut group = c.benchmark_group("micro/range_query");
    for n in SIZES {
        let points = scatter_points(&mut rng, n);
        let old = OldHashMapGrid::build(points.clone(), EPS);
        let new = GridIndex::build(points.clone(), EPS);
        // Each iteration answers one e-range query per indexed point.
        group.bench_with_input(BenchmarkId::new("old_hashmap", n), &points, |b, pts| {
            b.iter(|| {
                let mut hits = 0usize;
                for p in pts {
                    hits += old.range_query(p).len();
                }
                hits
            })
        });
        group.bench_with_input(BenchmarkId::new("new_csr_into", n), &points, |b, pts| {
            let mut buf = Vec::new();
            b.iter(|| {
                let mut hits = 0usize;
                for p in pts {
                    new.range_query_into(p, &mut buf);
                    hits += buf.len();
                }
                hits
            })
        });
    }
    group.finish();
}

fn bench_snapshot_clusters_scaling(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(23);
    let mut group = c.benchmark_group("micro/snapshot_clusters");
    for n in SIZES {
        let snapshot = scatter_snapshot(&mut rng, n);
        group.bench_with_input(BenchmarkId::new("old_hashmap", n), &snapshot, |b, snap| {
            b.iter(|| old_path::snapshot_clusters(snap, EPS, MIN_PTS))
        });
        group.bench_with_input(
            BenchmarkId::new("new_csr_fresh", n),
            &snapshot,
            |b, snap| b.iter(|| snapshot_clusters(snap, EPS, MIN_PTS)),
        );
        // What every engine actually runs per tick: a warmed clusterer.
        group.bench_with_input(
            BenchmarkId::new("new_csr_warmed", n),
            &snapshot,
            |b, snap| {
                let mut clusterer = SnapshotClusterer::new();
                clusterer.cluster_into(snap, EPS, MIN_PTS);
                b.iter(|| clusterer.cluster_into(snap, EPS, MIN_PTS).len())
            },
        );
    }
    group.finish();
}

fn bench_simplification(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let traj = random_trajectory(&mut rng, 5_000);
    let mut group = c.benchmark_group("micro/simplification");
    group.bench_function("dp_5000pts", |bench| {
        bench.iter(|| DouglasPeucker.simplify(&traj, 2.0))
    });
    group.bench_function("dp_star_5000pts", |bench| {
        bench.iter(|| DouglasPeuckerStar.simplify(&traj, 2.0))
    });
    group.finish();
}

fn bench_omega(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(13);
    let a = DouglasPeucker.simplify(&random_trajectory(&mut rng, 2_000), 2.0);
    let b = DouglasPeucker.simplify(&random_trajectory(&mut rng, 2_000), 2.0);
    let window = TimeInterval::new(0, 1_999);
    let sa = SubTrajectory::for_window(ObjectId(1), &a, window).unwrap();
    let sb = SubTrajectory::for_window(ObjectId(2), &b, window).unwrap();
    c.bench_function("micro/omega_distance", |bench| {
        bench.iter(|| {
            traj_cluster::omega_distance(&sa, &sb, SegmentDistance::Dll, ToleranceMode::Actual)
        })
    });
}

criterion_group!(
    benches,
    bench_distances,
    bench_snapshot_clustering,
    bench_grid_build,
    bench_range_query,
    bench_snapshot_clusters_scaling,
    bench_simplification,
    bench_omega
);
criterion_main!(benches);
