//! Allocation regression harness for the *instrumented* CMC hot path.
//!
//! `crates/clustering/tests/zero_alloc.rs` proves a warmed
//! [`SnapshotClusterer`] allocates nothing per tick with the default no-op
//! recorder. This binary proves the same promise survives instrumentation:
//! with a live [`Registry`] attached, steady-state updates of
//! already-registered gauges and histograms perform no heap allocation
//! (the registry's documented contract — map nodes exist, histogram
//! buckets are fixed arrays), so turning recording on cannot reintroduce
//! per-tick allocation into `// lint: hot-path` regions.
//!
//! Four angles:
//! 1. a warmed clusterer with a live registry still does **0** allocations
//!    per `cluster_into` call;
//! 2. a warmed [`CmcState`]'s per-tick fold — including its `cmc.*` obs
//!    block — does **0** allocations once the candidate set has drained
//!    (quiescent ticks: the fold itself has no allocating work left, so any
//!    count > 0 is the recorder's fault);
//! 3. a warmed fold whose candidates share fewer than `m` objects with every
//!    cluster does **0** allocations per tick: the overlap index rejects
//!    every pair without materializing an intersection, and the fresh
//!    chains reuse the member buffers of the chains they replace;
//! 4. over a *full* workload (clusters extending, closing and spawning
//!    candidates every tick, which inherently allocates — candidate
//!    intersection and creation own their member storage), a live registry
//!    adds **exactly zero** allocations over the no-op recorder.
//!
//! The counting allocator is process-global, which is why this lives in its
//! own integration-test binary; it counts per thread, so tests running in
//! parallel on the harness's threads never see each other's allocations.

// The counting allocator is one of the two sanctioned `unsafe` exceptions in
// the workspace (see the workspace Cargo.toml's lints comment): implementing
// `GlobalAlloc` requires it by definition. `unsafe_code = "deny"` is relaxed
// here only.
#![allow(unsafe_code)]

use convoy_core::{CmcState, ConvoyQuery};
use convoy_obs::{Obs, Registry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use traj_cluster::{Cluster, SnapshotClusterer};
use trajectory::database::SnapshotEntry;
use trajectory::geometry::Point;
use trajectory::{ObjectId, Snapshot};

/// Forwards to the system allocator, counting every allocation call
/// (`alloc`, `realloc` growth included — a `Vec` growing its capacity is an
/// allocation the steady state must not perform) on the calling thread.
struct CountingAllocator;

thread_local! {
    /// This thread's allocation count. Every measured region runs on its
    /// test's own thread, so the harness (spawning threads, printing
    /// results) and sibling tests never leak into a measured window.
    /// `const`-initialised without a destructor, so reaching it never
    /// allocates; `try_with` skips threads that are being torn down.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
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

/// A tick of five-object groups travelling together: each group jitters
/// within ±1 of a drifting anchor (well inside `e = 3`, anchors 25 apart),
/// except on its churn tick — every 15 ticks, staggered by group index —
/// when its members scatter far away, breaking the candidate chain so
/// convoys actually close during the run.
fn convoy_snapshot(rng: &mut XorShift, time: i64, groups: usize) -> Snapshot {
    const PER_GROUP: usize = 5;
    let mut entries = Vec::with_capacity(groups * PER_GROUP);
    for g in 0..groups {
        let scattered = (time + g as i64) % 15 == 0;
        let anchor_x = (g % 8) as f64 * 25.0 + time as f64 * 0.2;
        let anchor_y = (g / 8) as f64 * 25.0;
        for i in 0..PER_GROUP {
            let position = if scattered {
                Point::new(rng.coord() + 500.0, rng.coord() + 500.0)
            } else {
                let jitter_x = (rng.next() % 200) as f64 * 0.01 - 1.0;
                let jitter_y = (rng.next() % 200) as f64 * 0.01 - 1.0;
                Point::new(anchor_x + jitter_x, anchor_y + jitter_y)
            };
            entries.push(SnapshotEntry {
                id: ObjectId((g * PER_GROUP + i) as u64),
                position,
            });
        }
    }
    Snapshot { time, entries }
}

#[test]
fn warmed_clusterer_with_live_registry_performs_zero_allocations() {
    let registry = Arc::new(Registry::new());
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    let ticks: Vec<Snapshot> = (0..40).map(|t| snapshot(&mut rng, t, 300)).collect();

    let mut clusterer = SnapshotClusterer::with_obs(Obs::registry(registry.clone()));
    // Warm-up: two passes grow every scratch buffer to the working-set
    // fixpoint and register the `cluster.call_ns` histogram in the registry.
    for _ in 0..2 {
        for snap in &ticks {
            clusterer.cluster_into(snap, 3.0, 3);
        }
    }

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
        "a warmed clusterer with a live Registry must not allocate in \
         steady state ({} allocations over {} instrumented ticks)",
        after - before,
        ticks.len()
    );
    // The instrumentation actually ran: 3 passes × 40 ticks of calls.
    let timed_calls = registry
        .snapshot()
        .histogram("cluster.call_ns")
        .map(|h| h.count);
    assert_eq!(timed_calls, Some(120));
    let counts = clusterer.take_counts();
    assert_eq!(counts.calls, 120);
    // The batched-kernel utilisation counters accrued through the same
    // zero-allocation path: every DBSCAN neighbourhood query scans at least
    // the queried point itself, and full batches can never account for more
    // lanes than were scanned in total.
    let lanes = counts.kernel_lanes;
    let batches = counts.kernel_batches;
    assert!(lanes > 0, "kernel scans recorded no candidate lanes");
    assert!(
        batches * (traj_cluster::kernel::LANE_WIDTH as u64) <= lanes,
        "kernel batch accounting inconsistent: {batches} batches vs {lanes} lanes"
    );
    // Every point of a tick with at least m entries is visited exactly once,
    // and each visit either runs its region query or skips it on the 3×3
    // density bound.
    let queries = counts.region_queries;
    let skipped = counts.region_queries_skipped;
    assert!(queries > 0, "no region query ran");
    assert!(skipped > 0, "the density bound skipped no region query");
    assert_eq!(
        queries + skipped,
        counts.points,
        "region queries ({queries}) + skipped ({skipped}) must cover every point"
    );
}

#[test]
fn quiescent_cmc_fold_with_live_registry_performs_zero_allocations() {
    let registry = Arc::new(Registry::new());
    let mut rng = XorShift(0x2545f4914f6cdd1d);

    let mut state = CmcState::new(&ConvoyQuery::new(3, 3, 3.0));
    state.set_obs(Obs::registry(registry.clone()));
    // Warm-up: real ticks register every per-tick metric name and grow the
    // fold's scratch buffers.
    for t in 0..30 {
        state.ingest_snapshot(&snapshot(&mut rng, t, 300));
    }
    // Quiesce: an empty tick closes every open candidate; draining the
    // closed set leaves nothing for later ticks to push into.
    state.ingest_clusters(30, &[]);
    drop(state.drain_closed());
    assert_eq!(state.active_candidates(), 0);

    // Measured: empty ticks exercise the whole per-tick obs block (two
    // histograms and a gauge against a live registry) with no fold work
    // left, so every allocation counted here is the recorder's.
    let before = allocations();
    for t in 31..81 {
        state.ingest_clusters(t, &[]);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state metric updates must not allocate ({} allocations \
         over 50 quiescent instrumented ticks)",
        after - before
    );
    assert_eq!(state.stats().ticks_ingested, 81);
    let recorded_ticks = registry
        .snapshot()
        .histogram("cmc.clusters_per_tick")
        .map(|h| h.count);
    assert_eq!(recorded_ticks, Some(81), "the live registry saw every tick");
}

#[test]
fn warmed_fold_without_extensions_performs_zero_allocations() {
    const GROUPS: u64 = 10;
    // Layout A groups ids 6g..6g+5; layout B takes two ids from each of
    // three consecutive A groups. Every A cluster shares exactly two objects
    // with three B clusters and none with the rest, so under m = 3 no chain
    // ever extends: each tick closes all chains and opens fresh ones.
    let layout_a: Vec<Cluster> = (0..GROUPS)
        .map(|g| (6 * g..6 * g + 6).map(ObjectId).collect())
        .collect();
    let layout_b: Vec<Cluster> = (0..GROUPS)
        .map(|g| {
            (0..3u64)
                .flat_map(|j| {
                    let base = 6 * ((g + j) % GROUPS) + 2 * j;
                    [ObjectId(base), ObjectId(base + 1)]
                })
                .collect()
        })
        .collect();
    let layouts = [&layout_a, &layout_b];

    let registry = Arc::new(Registry::new());
    // k = 5 keeps the one-tick chains from closing as convoys, so nothing
    // accumulates in the output either.
    let mut state = CmcState::new(&ConvoyQuery::new(3, 5, 1.0));
    state.set_obs(Obs::registry(registry.clone()));
    for t in 0..10 {
        state.ingest_clusters(t, layouts[t as usize % 2]);
    }
    let warm_up = state.take_work();

    let before = allocations();
    for t in 10..60 {
        state.ingest_clusters(t, layouts[t as usize % 2]);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "a warmed fold with no extensions must not allocate ({} allocations \
         over 50 ticks)",
        after - before
    );
    assert_eq!(state.active_candidates(), GROUPS as usize);
    assert_eq!(state.stats().convoys_closed, 0);
    // Every tick looked up all 60 members of the open chains; none reached m.
    let work = state.take_work();
    assert_eq!(work.overlap_lookups, 50 * 60);
    assert_eq!(warm_up.extensions + work.extensions, 0);
    let recorded_ticks = registry
        .snapshot()
        .histogram("cmc.clusters_per_tick")
        .map(|h| h.count);
    assert_eq!(recorded_ticks, Some(60), "the live registry saw every tick");
}

#[test]
fn live_registry_adds_zero_allocations_to_a_full_cmc_workload() {
    // Candidate extension and creation own their member storage, so a busy
    // fold allocates by design; the obs guarantee is that recording adds
    // *nothing on top*. Run the identical warmed workload twice — no-op
    // recorder vs live registry — and require equal allocation counts.
    let measured = |obs: Obs| -> (u64, u64, u64) {
        let mut rng = XorShift(0xdeadbeefcafef00d);
        let ticks: Vec<Snapshot> = (0..120).map(|t| convoy_snapshot(&mut rng, t, 40)).collect();
        let mut state = CmcState::new(&ConvoyQuery::new(3, 3, 3.0));
        state.set_obs(obs);
        for snap in &ticks[..60] {
            state.ingest_snapshot(snap);
        }
        let before = allocations();
        for snap in &ticks[60..] {
            state.ingest_snapshot(snap);
        }
        let allocs = allocations() - before;
        let calls = state.take_work().cluster.calls;
        (allocs, state.stats().convoys_closed, calls)
    };

    let (noop_allocs, noop_closed, _) = measured(Obs::noop());
    let registry = Arc::new(Registry::new());
    let (live_allocs, live_closed, calls) = measured(Obs::registry(registry.clone()));
    let recorded_ticks = registry
        .snapshot()
        .histogram("cmc.clusters_per_tick")
        .map_or(0, |h| h.count);
    assert_eq!(calls, 120);

    assert_eq!(
        noop_closed, live_closed,
        "recording must not change results"
    );
    assert!(noop_closed > 0, "workload closed no convoys");
    assert_eq!(recorded_ticks, 120, "live run was not instrumented");
    assert_eq!(
        live_allocs, noop_allocs,
        "a live Registry must add zero allocations over the no-op recorder \
         on an identical workload (no-op {noop_allocs}, live {live_allocs})"
    );
}
