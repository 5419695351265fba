//! The CuTS refinement step: CMC over the filter's coverage.
//!
//! Where the paper's Algorithm 3 runs CMC once per candidate convoy, here
//! CMC runs once over the filtered domain, each tick's snapshot holding only
//! the objects that co-clustered in the λ-partition(s) covering it. An
//! object's *covered runs* are the windows of the partitions whose clusters
//! hold it, merged where two windows share their boundary tick, and
//! [`SnapshotSweep::over_runs`] reads it only there. Batch refinement
//! ([`refine_partitions`], and [`crate::Discovery`]'s CuTS arm with its
//! [`crate::CmcEngine`]) hands that covered sweep to the CMC engines' own
//! driver, so the swept and the parallel engines both serve it; its cost
//! scales with the covered object-ticks — typically a small fraction of
//! objects × ticks — and objects the filter dismissed are never read. The
//! streaming pipeline folds the same covered sweep one partition at a time
//! (`convoy_stream`).
//!
//! ## Why the coverage fold is exact (and filter-independent)
//!
//! Restricting the snapshot at tick `t` to the partition clusters' object
//! union `U_t` leaves the snapshot's DBSCAN output **bit-identical** to the
//! full snapshot's, for *any* sound filter:
//!
//! 1. The filter's no-false-dismissal lemmas (Lemmas 1–3) guarantee that two
//!    objects within `e` of each other at `t` are ω-neighbours in the
//!    partition covering `t`, so every snapshot cluster at `t` maps into a
//!    single partition cluster — all of its members, cores *and* the border
//!    objects reached through them, are in `U_t`.
//! 2. The objects removed by the restriction are therefore snapshot *noise*:
//!    none is within `e` of any core object (an `e`-neighbour of a core
//!    belongs to its cluster). Removing them changes no core's neighbour
//!    count, no expansion frontier and no scan order among survivors, so
//!    DBSCAN discovers the same clusters in the same order.
//!
//! Folding identical per-tick cluster sequences through one [`crate::CmcState`]
//! yields identical convoys — which is why a streaming filter whose
//! sliding-window simplification differs from the batch simplification still
//! produces refinement output bit-identical to the batch run, and why the
//! equivalence harness (`tests/stream_equivalence.rs`) can assert raw
//! `Vec<Convoy>` equality rather than set equivalence.

use crate::cuts::partition::PartitionClusters;
use crate::engine::{CmcEngine, CmcStats};
use crate::metrics::FoldWork;
use crate::query::{Convoy, ConvoyQuery};
use convoy_obs::{Obs, SpanId};
use trajectory::{
    ObjectId, SnapshotPolicy, SnapshotSweep, TimeInterval, TrajPoint, Trajectory,
    TrajectoryDatabase,
};

/// Every object's covered runs: the windows of the partitions whose clusters
/// hold it, merged where two windows share their boundary tick, each clipped
/// to the object's sampled interval. An id the database does not hold, or
/// whose samples miss its windows, gets no run.
fn covered_runs<'a>(
    db: &'a TrajectoryDatabase,
    partitions: &[PartitionClusters],
) -> Vec<(ObjectId, &'a [TrajPoint], TimeInterval)> {
    let mut windows: Vec<(ObjectId, TimeInterval)> = partitions
        .iter()
        .flat_map(|p| {
            p.clusters
                .iter()
                .flat_map(move |c| c.members().iter().map(move |&id| (id, p.window)))
        })
        .collect();
    windows.sort_unstable_by_key(|&(id, w)| (id, w.start, w.end));
    windows.dedup_by(|(id, next), (kept, run)| {
        let joins = id == kept && run.end >= next.start;
        if joins {
            run.end = run.end.max(next.end);
        }
        joins
    });
    windows
        .into_iter()
        .filter_map(|(id, run)| {
            let points = db.get(id).map(Trajectory::points)?;
            let sampled = TimeInterval::new(points.first()?.t, points.last()?.t);
            Some((id, points, run.intersection(&sampled)?))
        })
        .collect()
}

/// Refines a filter's λ-partition clusters: CMC over the covered sweep of
/// the filtered domain, run by `engine`'s driver (see the module docs).
///
/// Returns what [`refine_partitions`] does plus the [`FoldWork`], whose
/// `refine_snapshot_points` is the covered object-ticks read; the fold
/// records into `obs` under `parent` exactly as a CMC run does. Panics like
/// [`refine_partitions`].
pub(crate) fn refine(
    engine: CmcEngine,
    db: &TrajectoryDatabase,
    query: &ConvoyQuery,
    partitions: &[PartitionClusters],
    obs: &Obs,
    parent: SpanId,
) -> (Vec<Convoy>, CmcStats, FoldWork) {
    assert!(
        partitions
            .windows(2)
            .all(|w| w[0].window.end == w[1].window.start),
        "refinement requires contiguous partitions sharing boundary ticks"
    );
    let (Some(first), Some(last)) = (partitions.first(), partitions.last()) else {
        return Default::default();
    };
    let runs = covered_runs(db, partitions);
    let policy = SnapshotPolicy::Interpolate;
    let sweep = |window| SnapshotSweep::over_runs(runs.iter().copied(), window, policy, None);
    let window = TimeInterval::new(first.window.start, last.window.end);
    let (convoys, stats, work) = engine.run_sweep(sweep, query, window, obs, parent);
    // Without a horizon a covered object has an entry at every tick of its
    // clipped runs.
    let refine_snapshot_points = runs.iter().map(|(_, _, run)| run.num_points() as u64).sum();
    (
        convoys,
        stats,
        FoldWork {
            refine_snapshot_points,
            ..work
        },
    )
}

/// Refines a filter's λ-partition clusters on the swept engine: every tick
/// of the filtered domain is folded through one [`crate::CmcState`], its
/// snapshot holding the objects of the partition clusters covering it.
///
/// Returns the raw (un-normalised) convoys in closure order together with
/// the fold's counters. The module docs explain why this output is
/// bit-identical to plain CMC over the same database — and therefore to the
/// streaming pipeline's output, whatever its filter decided.
///
/// **Cost profile.** Building the covered runs sorts the partition clusters'
/// memberships and looks each merged run's object up once. The sweep then
/// admits an object's cursor at the start of each of its runs (one binary
/// search) and steps it forward while the run lasts, so extraction scales
/// with the *covered object-ticks*, not objects × ticks: objects outside
/// every partition cluster are never read, and a tick with empty coverage
/// costs one empty snapshot (it is still folded, because it closes open
/// chains).
/// Unlike the per-candidate Algorithm 3, the fold clusters the coverage of
/// every partition — including clusters that never persisted `k` ticks — so
/// on data that clusters densely but briefly the clustering cost approaches
/// CMC's, while on the paper's workloads (most objects are noise most of
/// the time) refinement stays far below it. The trade buys the
/// exactness-for-any-filter property above, which is what lets batch and
/// streaming share one refinement.
///
/// # Panics
///
/// When consecutive partitions do not share their boundary tick — the
/// contract [`trajectory::TimePartition`] and the streaming tracker both
/// satisfy.
pub fn refine_partitions(
    db: &TrajectoryDatabase,
    query: &ConvoyQuery,
    partitions: &[PartitionClusters],
) -> (Vec<Convoy>, CmcStats) {
    let (convoys, stats, _) = refine(
        CmcEngine::Swept,
        db,
        query,
        partitions,
        &Obs::noop(),
        SpanId::NONE,
    );
    (convoys, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CmcEngine;
    use traj_cluster::Cluster;

    fn db() -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new();
        // Objects 0, 1 together for t ∈ [0, 19]; object 2 only nearby for t ∈ [0, 9].
        db.insert(
            ObjectId(0),
            Trajectory::from_tuples((0..20).map(|t| (t as f64, 0.0, t))).unwrap(),
        );
        db.insert(
            ObjectId(1),
            Trajectory::from_tuples((0..20).map(|t| (t as f64, 0.5, t))).unwrap(),
        );
        db.insert(
            ObjectId(2),
            Trajectory::from_tuples((0..20).map(|t| {
                let y = if t < 10 { 1.0 } else { 200.0 };
                (t as f64, y, t)
            }))
            .unwrap(),
        );
        db
    }

    fn cluster(ids: &[u64]) -> Cluster {
        Cluster::new(ids.iter().map(|i| ObjectId(*i)).collect())
    }

    #[test]
    fn coverage_fold_is_bit_identical_to_plain_cmc() {
        // The module-level exactness argument, checked on a real filter run:
        // refining the partition clusters with the coverage fold produces the
        // raw convoy sequence of full CMC — order included.
        use crate::cuts::filter::filter;
        use crate::cuts::{CutsConfig, CutsVariant};

        let db = db();
        let query = ConvoyQuery::new(2, 5, 1.5);
        let domain = db.time_domain().unwrap();
        for variant in CutsVariant::ALL {
            let output = filter(&db, &query, &CutsConfig::new(variant));
            let (refined, fold_stats) = refine_partitions(&db, &query, &output.partitions);
            let (reference, reference_stats) =
                CmcEngine::Swept.run_windowed_with_stats(&db, &query, domain);
            assert_eq!(refined, reference, "{variant} coverage fold diverged");
            // Every tick of the domain is folded, so the counters match the
            // unrestricted run too.
            assert_eq!(fold_stats.ticks_ingested, reference_stats.ticks_ingested);
            assert_eq!(fold_stats.convoys_closed, reference_stats.convoys_closed);
        }
    }

    #[test]
    fn coverage_fold_handles_empty_and_single_tick_inputs() {
        let query = ConvoyQuery::new(2, 1, 1.5);
        let empty_db = TrajectoryDatabase::new();
        let (convoys, stats) = refine_partitions(&empty_db, &query, &[]);
        assert!(convoys.is_empty());
        assert_eq!(stats, crate::engine::CmcStats::default());

        // A single-tick domain: the sole partition's start and end coincide;
        // the fold must ingest that tick exactly once.
        let mut db = TrajectoryDatabase::new();
        for i in 0..2u64 {
            db.insert(
                ObjectId(i),
                Trajectory::from_tuples([(i as f64 * 0.5, 0.0, 5)]).unwrap(),
            );
        }
        let partitions = vec![crate::cuts::partition::PartitionClusters {
            window: trajectory::TimeInterval::instant(5),
            clusters: vec![cluster(&[0, 1])],
        }];
        let (convoys, stats) = refine_partitions(&db, &query, &partitions);
        assert_eq!(stats.ticks_ingested, 1);
        assert_eq!(convoys.len(), 1);
        assert_eq!(convoys[0].interval(), trajectory::TimeInterval::instant(5));
    }
}
