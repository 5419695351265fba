//! Scalar array-of-structs vs batched structure-of-arrays: the benchmark
//! behind `BENCH_kernels.json`.
//!
//! Every group pits the production [`GridIndex`] (SoA columns + the
//! mask-then-emit kernel in `traj_cluster::kernel`) against the frozen
//! pre-SoA baseline [`AosGridIndex`] (`traj_cluster_baselines::aos` — scalar
//! `distance_squared` per bucket point, comparison-sorted build), so the
//! numbers isolate precisely the layout + kernel change:
//!
//! * `kernel_batch/distance_scan` — the raw microbench: one dense extent
//!   scanned start to finish, no grid around it (the ≥ 1.5× target).
//! * `kernel_batch/range_query` — per-point e-range queries over
//!   constant-density worlds at 1k/10k/100k.
//! * `kernel_batch/grid_build` — the radix-vs-comparison-sort build path
//!   (the `grid_build/100000` regression fix).
//! * `kernel_batch/snapshot_dbscan` — full DBSCAN over a warmed index,
//!   the engines' per-tick shape.
//!
//! Regenerate the JSON with:
//! `CRITERION_JSON=/tmp/kernels.json cargo bench -p convoy-bench --bench kernel_batch -- --quick`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traj_cluster::dbscan::{dbscan_into, DbscanScratch};
use traj_cluster::{kernel, GridIndex};
use traj_cluster_baselines::aos::AosGridIndex;
use trajectory::geometry::Point;

/// Uniform points at constant density (same recipe as `micro_primitives`):
/// the world side scales with √n, so every size has the same expected
/// neighbourhood population (≈7 points per e-disc at `EPS` = 3).
fn scatter_points(rng: &mut StdRng, n: usize) -> Vec<Point> {
    let side = (n as f64).sqrt() * 2.0;
    (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect()
}

const SIZES: [usize; 3] = [1_000, 10_000, 100_000];
const EPS: f64 = 3.0;
const MIN_PTS: usize = 3;

/// The raw kernel microbench: one contiguous extent of `n` candidates,
/// scanned against one target — scalar AoS loop vs the batched SoA kernel,
/// nothing else in the way. This is where the ≥ 1.5× acceptance target is
/// measured.
fn bench_distance_scan(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(31);
    let mut group = c.benchmark_group("kernel_batch/distance_scan");
    for n in SIZES {
        // ~half the candidates hit: distances spread across [0, 2e].
        let pts: Vec<Point> = (0..n)
            .map(|_| {
                let r = rng.gen_range(0.0..(2.0 * EPS));
                let theta = rng.gen_range(0.0..std::f64::consts::TAU);
                Point::new(r * theta.cos(), r * theta.sin())
            })
            .collect();
        let xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.y).collect();
        let idxs: Vec<u32> = (0..n as u32).collect();
        let eps_sq = EPS * EPS;

        group.bench_with_input(BenchmarkId::new("scalar_aos", n), &pts, |b, pts| {
            let mut out = Vec::with_capacity(n);
            let target = Point::new(0.0, 0.0);
            b.iter(|| {
                out.clear();
                for (i, p) in pts.iter().enumerate() {
                    if p.distance_squared(&target) <= eps_sq {
                        out.push(i);
                    }
                }
                out.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("batched_soa", n), &xs, |b, xs| {
            let mut out = Vec::with_capacity(n);
            b.iter(|| {
                out.clear();
                kernel::scan_soa(xs, &ys, &idxs, 0.0, 0.0, eps_sq, &mut out);
                out.len()
            })
        });
    }
    group.finish();
}

fn bench_range_query(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(22);
    let mut group = c.benchmark_group("kernel_batch/range_query");
    for n in SIZES {
        let points = scatter_points(&mut rng, n);
        let aos = AosGridIndex::build(points.clone(), EPS);
        let soa = GridIndex::build(points.clone(), EPS);
        group.bench_with_input(BenchmarkId::new("scalar_aos", n), &points, |b, pts| {
            let mut buf = Vec::new();
            b.iter(|| {
                let mut hits = 0usize;
                for p in pts {
                    aos.range_query_into(p, &mut buf);
                    hits += buf.len();
                }
                hits
            })
        });
        group.bench_with_input(BenchmarkId::new("batched_soa", n), &points, |b, pts| {
            let mut buf = Vec::new();
            b.iter(|| {
                let mut hits = 0usize;
                for p in pts {
                    soa.range_query_into(p, &mut buf);
                    hits += buf.len();
                }
                hits
            })
        });
    }
    group.finish();
}

/// Build cost: the frozen comparison-sorted baseline vs the radix-grouped
/// production build, fresh and in the engines' retained-buffer steady state.
fn bench_grid_build(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(21);
    let mut group = c.benchmark_group("kernel_batch/grid_build");
    for n in SIZES {
        let points = scatter_points(&mut rng, n);
        group.bench_with_input(BenchmarkId::new("scalar_aos", n), &points, |b, pts| {
            b.iter(|| AosGridIndex::build(pts.clone(), EPS))
        });
        group.bench_with_input(BenchmarkId::new("batched_soa", n), &points, |b, pts| {
            b.iter(|| GridIndex::build(pts.clone(), EPS))
        });
        let mut reused = GridIndex::default();
        group.bench_with_input(
            BenchmarkId::new("batched_soa_rebuild", n),
            &points,
            |b, pts| {
                b.iter(|| {
                    reused.rebuild(EPS, pts.iter().copied());
                    reused.len()
                })
            },
        );
    }
    group.finish();
}

/// Full DBSCAN over a warmed index — both grids drive the identical
/// production `dbscan_into` loop, so the gap is purely the neighbourhood-scan
/// kernel.
fn bench_snapshot_dbscan(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(23);
    let mut group = c.benchmark_group("kernel_batch/snapshot_dbscan");
    for n in SIZES {
        let points = scatter_points(&mut rng, n);
        let aos = AosGridIndex::build(points.clone(), EPS);
        let soa = GridIndex::build(points.clone(), EPS);
        group.bench_with_input(BenchmarkId::new("scalar_aos", n), &points, |b, _| {
            let mut scratch = DbscanScratch::new();
            b.iter(|| {
                dbscan_into(&aos, MIN_PTS, &mut scratch);
                scratch.labels().len()
            })
        });
        group.bench_with_input(BenchmarkId::new("batched_soa", n), &points, |b, _| {
            let mut scratch = DbscanScratch::new();
            b.iter(|| {
                dbscan_into(&soa, MIN_PTS, &mut scratch);
                scratch.labels().len()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_distance_scan,
    bench_range_query,
    bench_grid_build,
    bench_snapshot_dbscan
);
criterion_main!(benches);
