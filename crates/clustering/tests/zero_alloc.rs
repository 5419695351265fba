//! Allocation regression harness for the snapshot-clustering hot path, and
//! the memory bounds of the snapshot clusterer's drop pass and of the CuTS
//! filter's sub-trajectory index.
//!
//! The CSR grid + scratch-reuse rewrite promises that a *warmed*
//! [`SnapshotClusterer`] — one whose buffers have grown to the working-set
//! fixpoint — performs **zero heap allocations** per
//! [`SnapshotClusterer::cluster_into`] call. This test installs a counting
//! global allocator and asserts exactly that; any future change that
//! reintroduces per-tick allocation (a fresh `Vec` per neighbourhood query,
//! a rebuilt hash map, an allocating sort) fails it immediately. The
//! allocator also tracks the bytes each thread holds, which bounds what a
//! clusterer retains after a tick with a far outlier.
//!
//! The counting allocator is process-global, which is why this test lives in
//! its own integration-test binary: the `#[global_allocator]` would
//! otherwise count every other test's allocations too. It counts per
//! thread, so the tests of this binary, which the harness runs in parallel,
//! never see each other's allocations.

// The counting allocator is the one place in the workspace that needs
// `unsafe`: implementing `GlobalAlloc` requires it by definition. The
// workspace-level `unsafe_code = "deny"` is relaxed here only.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use traj_cluster::{
    cluster_sub_trajectories, snapshot_clusters, SegmentDistance, SnapshotClusterer, SubTrajectory,
};
use traj_simplify::{SimplificationMethod, ToleranceMode};
use trajectory::database::SnapshotEntry;
use trajectory::geometry::Point;
use trajectory::{ObjectId, Snapshot, TimeInterval, TrajPoint, Trajectory};

/// Forwards to the system allocator, counting every allocation call
/// (`alloc`, `realloc` growth included — a `Vec` growing its capacity is an
/// allocation the steady state must not perform) and the bytes held on the
/// calling thread.
struct CountingAllocator;

thread_local! {
    /// This thread's allocation count. Every measured region runs on its
    /// test's own thread, so the harness (spawning threads, printing
    /// results) and sibling tests never leak into a measured window.
    /// `const`-initialised without a destructor, so reaching it never
    /// allocates; `try_with` skips threads that are being torn down.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn count_bytes(delta: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + delta));
}

/// A layout size as a signed byte count (layout sizes never exceed
/// `isize::MAX`, so the cast is exact).
fn signed_bytes(size: usize) -> i64 {
    size as i64
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        count_bytes(signed_bytes(layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-signed_bytes(layout.size()));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        count_bytes(signed_bytes(new_size) - signed_bytes(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// Deterministic xorshift64* stream, so the snapshots are reproducible
/// without pulling a RNG dependency into the measured binary.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn coord(&mut self) -> f64 {
        (self.next() % 10_000) as f64 * 0.01
    }
}

/// A "tick": `n` objects scattered over a 100×100 world, id-ordered like
/// database snapshots are.
fn snapshot(rng: &mut XorShift, time: i64, n: usize) -> Snapshot {
    Snapshot {
        time,
        entries: (0..n)
            .map(|i| SnapshotEntry {
                id: ObjectId(i as u64),
                position: Point::new(rng.coord(), rng.coord()),
            })
            .collect(),
    }
}

#[test]
fn warmed_clusterer_performs_zero_steady_state_allocations() {
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    // Steady-state workload: 60 ticks of 400 objects (dense enough for real
    // clusters — e = 3 over a 100×100 world groups most of them).
    let ticks: Vec<Snapshot> = (0..60).map(|t| snapshot(&mut rng, t, 400)).collect();

    let mut clusterer = SnapshotClusterer::new();
    // Warm-up: two full passes grow every buffer (ids, points, CSR arrays,
    // DBSCAN scratch, pair buffer, cluster pool and each pooled cluster's
    // member vec) to the workload's fixpoint.
    for pass in 0..2 {
        for snap in &ticks {
            let clusters = clusterer.cluster_into(snap, 3.0, 3);
            assert!(
                !clusters.is_empty(),
                "warm-up pass {pass} found no clusters"
            );
        }
    }

    // Measured pass: not a single heap allocation across 60 further ticks.
    let before = allocations();
    let mut total_clusters = 0usize;
    for snap in &ticks {
        total_clusters += clusterer.cluster_into(snap, 3.0, 3).len();
    }
    let after = allocations();
    assert!(total_clusters > 0, "steady state produced no clusters");
    assert_eq!(
        after - before,
        0,
        "a warmed SnapshotClusterer must not allocate in steady state \
         ({} allocations over {} ticks)",
        after - before,
        ticks.len()
    );
}

#[test]
fn warmed_clusterer_stays_allocation_free_across_varying_tick_sizes() {
    // Shrinking ticks must also be free: every buffer is sized by the
    // *largest* snapshot seen, so smaller ones fit without growth.
    let mut rng = XorShift(0x2545f4914f6cdd1d);
    let sizes = [500usize, 120, 333, 60, 499, 7, 250];
    let ticks: Vec<Snapshot> = sizes
        .iter()
        .enumerate()
        .map(|(t, &n)| snapshot(&mut rng, t as i64, n))
        .collect();

    let mut clusterer = SnapshotClusterer::new();
    for snap in &ticks {
        clusterer.cluster_into(snap, 3.0, 2);
    }
    let before = allocations();
    for snap in &ticks {
        clusterer.cluster_into(snap, 3.0, 2);
    }
    assert_eq!(
        allocations() - before,
        0,
        "shrinking or revisited ticks must reuse the grown buffers"
    );
}

#[test]
fn clusterer_output_still_matches_one_shot_clustering() {
    // Sanity inside the counting binary: the allocation-free path is the
    // same clustering, not a cheaper approximation.
    let mut rng = XorShift(0xdeadbeefcafef00d);
    let mut clusterer = SnapshotClusterer::new();
    for t in 0..10 {
        let snap = snapshot(&mut rng, t, 150);
        assert_eq!(
            clusterer.cluster_into(&snap, 2.5, 3).to_vec(),
            snapshot_clusters(&snap, 2.5, 3),
        );
    }
}

/// A sparse tick: `n` objects scattered over a 2,000 × 2,000 world, plus
/// `clumps` groups of four objects within e = 3 of each other, so almost
/// every point is dropped but a few clusters remain.
fn sparse_tick(rng: &mut XorShift, time: i64, n: usize, clumps: usize) -> Snapshot {
    let mut tick = snapshot(rng, time, n);
    for entry in &mut tick.entries {
        entry.position = Point::new(entry.position.x * 20.0, entry.position.y * 20.0);
    }
    for clump in 0..clumps {
        let (x, y) = (rng.coord() * 20.0, rng.coord() * 20.0);
        for i in 0..4 {
            tick.entries.push(SnapshotEntry {
                id: ObjectId((n + 4 * clump + i) as u64),
                position: Point::new(x + i as f64, y),
            });
        }
    }
    tick
}

/// `tick` with one more object 10¹² away from the others.
fn with_outlier(tick: &Snapshot) -> Snapshot {
    let mut tick = tick.clone();
    tick.entries.push(SnapshotEntry {
        id: ObjectId(tick.entries.len() as u64),
        position: Point::new(1e12, -1e12),
    });
    tick
}

#[test]
fn warmed_clusterer_drops_points_without_allocating() {
    let mut rng = XorShift(0x6a09e667f3bcc908);
    let mut ticks: Vec<Snapshot> = (0..20).map(|t| sparse_tick(&mut rng, t, 400, 3)).collect();
    // A lattice 20 e apart: every point is alone in its coarse block.
    let lonely = Snapshot {
        time: 20,
        entries: (0..400)
            .map(|i| SnapshotEntry {
                id: ObjectId(i as u64),
                position: Point::new((i % 20) as f64 * 60.0, (i / 20) as f64 * 60.0),
            })
            .collect(),
    };
    ticks.push(lonely.clone());
    ticks.push(with_outlier(&ticks[3]));

    let mut clusterer = SnapshotClusterer::new();
    for _ in 0..2 {
        for tick in &ticks {
            clusterer.cluster_into(tick, 3.0, 3);
        }
    }
    let warm = clusterer.take_counts();
    assert!(
        warm.points_dropped > warm.points * 9 / 10,
        "sparse ticks drop most points ({} of {})",
        warm.points_dropped,
        warm.points
    );
    assert!(warm.clusters_found > 0, "the clumps form clusters");
    assert!(clusterer.cluster_into(&lonely, 3.0, 3).is_empty());
    assert_eq!(clusterer.take_counts().points_dropped, 400);

    let before = allocations();
    let mut total_clusters = 0usize;
    for tick in &ticks {
        total_clusters += clusterer.cluster_into(tick, 3.0, 3).len();
    }
    assert!(total_clusters > 0);
    assert_eq!(
        allocations() - before,
        0,
        "sparse, all-dropped and outlier ticks must reuse the grown buffers"
    );
}

#[test]
fn an_outlier_tick_keeps_the_clusterers_memory_linear() {
    // Without a cap the outlier would stretch the coarse count array over
    // about 10²³ cells; capped, the array's cells stay a fixed multiple of
    // the tick's points, and the clusterer retains a small multiple of what
    // the same tick costs it without the outlier.
    let mut rng = XorShift(0xbb67ae8584caa73b);
    let plain = snapshot(&mut rng, 0, 400);
    let salted = with_outlier(&plain);
    let retained = |tick: &Snapshot| {
        let before = live_bytes();
        let mut clusterer = SnapshotClusterer::new();
        let clusters = clusterer.cluster_into(tick, 3.0, 3).len();
        assert!(clusters > 0);
        let held = live_bytes() - before;
        drop(clusterer);
        held
    };
    let (without, with) = (retained(&plain), retained(&salted));
    assert!(without > 0);
    assert!(
        with <= 3 * without,
        "the outlier tick retains {with} bytes against {without} without it"
    );
}

/// One λ-partition of the glitch shape: `n` objects drifting east from the
/// points of a 10-unit lattice, plus one object whose fix jumps to
/// (1e6, 1e6) and back inside the partition.
fn glitch_partition(n: usize) -> Vec<SubTrajectory> {
    let window = TimeInterval::new(0, 4);
    let side = (n as f64).sqrt().ceil() as usize;
    let sub = |id: usize, points: Vec<TrajPoint>| {
        let simplified =
            SimplificationMethod::Dp.simplify(&Trajectory::from_points(points).unwrap(), 0.5);
        SubTrajectory::for_window(ObjectId(id as u64), &simplified, window).unwrap()
    };
    let mut items: Vec<SubTrajectory> = (0..n)
        .map(|i| {
            let (x, y) = ((i % side) as f64 * 10.0, (i / side) as f64 * 10.0);
            sub(
                i,
                (0..5).map(|t| TrajPoint::new(x + t as f64, y, t)).collect(),
            )
        })
        .collect();
    let (x, y) = (15.0, 15.0);
    items.push(sub(
        n,
        vec![
            TrajPoint::new(x, y, 0),
            TrajPoint::new(x, y, 1),
            TrajPoint::new(1e6, 1e6, 2),
            TrajPoint::new(x, y, 3),
            TrajPoint::new(x, y, 4),
        ],
    ));
    items
}

#[test]
fn sub_trajectory_index_memory_is_linear_in_a_glitching_partition() {
    // One far-flung sub-trajectory used to span about n cells per axis of a
    // hash grid whose cell side was the mean extent, so it was registered in
    // about n² cells — one `Vec` each, millions of allocations at n = 3,000.
    // The sweep's buffers are sized by the items and pairs alone.
    let n = 3_000;
    let items = glitch_partition(n);
    let before = allocations();
    let clusters =
        cluster_sub_trajectories(&items, 12.0, 3, SegmentDistance::Dll, ToleranceMode::Actual);
    let spent = allocations() - before;
    assert_eq!(
        clusters.len(),
        1,
        "the lattice is one density-connected cluster"
    );
    // Linear in n with room to spare: a few dozen buffers and one member
    // list per cluster fit, a list (or grid cell) per item does not.
    assert!(
        spent <= n as u64 / 4,
        "clustering {} sub-trajectories took {spent} allocations",
        items.len()
    );
}
