//! The CuTS refinement step: the **coverage fold** ([`RefineFold`] /
//! [`refine_partitions`]), shared with the streaming pipeline
//! (`convoy_stream`).
//!
//! Where the paper's Algorithm 3 runs CMC once per candidate convoy, here one
//! [`CmcState`] folds every tick of the filtered domain, with each tick's
//! snapshot built from only the objects that co-clustered in the
//! λ-partition(s) covering it. Batch refinement reads those objects through
//! one [`CoverageReader`], which seeks an object's cursor when it enters the
//! coverage and steps it forward while it stays, so its cost scales with
//! the covered object-ticks — typically a small fraction of objects × ticks —
//! and objects the filter dismissed are never read.
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
//! Folding identical per-tick cluster sequences through one [`CmcState`]
//! yields identical convoys — which is why a streaming filter whose
//! sliding-window simplification differs from the batch simplification still
//! produces refinement output bit-identical to the batch run, and why the
//! equivalence harness (`tests/stream_equivalence.rs`) can assert raw
//! `Vec<Convoy>` equality rather than set equivalence.

use crate::cuts::partition::PartitionClusters;
use crate::engine::{CmcState, CmcStats};
use crate::metrics::FoldWork;
use crate::query::{Convoy, ConvoyQuery};
use convoy_obs::Obs;
use std::collections::BTreeSet;
use trajectory::{
    CoverageReader, ObjectId, Snapshot, TimeInterval, TimePoint, Trajectory, TrajectoryDatabase,
};

/// The coverage-restricted [`CmcState`] fold shared by batch refinement
/// ([`refine_partitions`]) and the streaming pipeline (see the module docs
/// for the exactness argument).
///
/// The fold is agnostic of where positions come from: every tick's
/// restricted snapshot is produced by a caller-supplied source. Batch and
/// stream both read through a [`CoverageReader`], over the database and
/// over the ingest buffers respectively — and both drive the identical
/// per-tick loop, eviction hooks included.
#[derive(Debug, Clone)]
pub struct RefineFold {
    state: CmcState,
    /// The last pushed partition's window and object coverage, kept so the
    /// shared boundary tick can be folded with the union of both partitions'
    /// coverage once the next partition (or the stream end) is known.
    prev: Option<(TimeInterval, BTreeSet<ObjectId>)>,
    last_tick: Option<TimePoint>,
    /// Maximum open-chain lifetime in ticks (`None` = unbounded): before a
    /// tick extends the chains, every chain that has already lived this long
    /// is closed (and reported if it satisfies `k`).
    horizon: Option<i64>,
    /// Maximum number of open chains (`None` = unbounded): after each tick,
    /// the oldest chains are closed until the bound holds again.
    max_candidates: Option<usize>,
    evicted: u64,
}

impl RefineFold {
    /// Creates an unbounded fold (the batch configuration).
    pub fn new(query: &ConvoyQuery) -> Self {
        Self::with_eviction(query, None, None)
    }

    /// Creates a fold with windowed eviction: `horizon` caps each open
    /// chain's lifetime, `max_candidates` caps the number of open chains.
    pub fn with_eviction(
        query: &ConvoyQuery,
        horizon: Option<i64>,
        max_candidates: Option<usize>,
    ) -> Self {
        RefineFold {
            state: CmcState::new(query),
            prev: None,
            last_tick: None,
            horizon,
            max_candidates,
            evicted: 0,
        }
    }

    fn ingest<S>(&mut self, t: TimePoint, coverage: &BTreeSet<ObjectId>, snapshot_at: &mut S)
    where
        S: FnMut(TimePoint, &BTreeSet<ObjectId>) -> Snapshot,
    {
        // A single-tick domain makes the sole partition's start and end the
        // same time point; fold it once.
        if self.last_tick.is_some_and(|last| last >= t) {
            return;
        }
        self.last_tick = Some(t);
        if let Some(horizon) = self.horizon {
            self.evicted += self.state.evict_longer_than(horizon) as u64;
        }
        self.state.ingest_snapshot(&snapshot_at(t, coverage));
        if let Some(max) = self.max_candidates {
            self.evicted += self.state.evict_to_capacity(max) as u64;
        }
    }

    /// Folds one λ-partition: the shared boundary tick with the previous
    /// partition (coverage = union of both partitions' clusters), then the
    /// partition's interior ticks. The partition's own end tick is held back
    /// until the next partition — or [`RefineFold::finish`] — supplies the
    /// other half of its coverage.
    ///
    /// Partitions must arrive in window order, consecutive windows sharing
    /// their boundary tick (the shape [`trajectory::TimePartition`] and the
    /// streaming tracker both produce).
    pub fn push_partition<S>(&mut self, partition: &PartitionClusters, snapshot_at: &mut S)
    where
        S: FnMut(TimePoint, &BTreeSet<ObjectId>) -> Snapshot,
    {
        let window = partition.window;
        let coverage: BTreeSet<ObjectId> = partition
            .clusters
            .iter()
            .flat_map(|c| c.members().iter().copied())
            .collect();

        let boundary_coverage: BTreeSet<ObjectId> = match &self.prev {
            Some((prev_window, prev_coverage)) => {
                // A hard assert, not a debug_assert: a gap between windows
                // would silently desynchronise callers that pair the fold
                // with a tick-ordered snapshot source.
                assert_eq!(
                    prev_window.end, window.start,
                    "partitions must share their boundary tick"
                );
                prev_coverage.union(&coverage).copied().collect()
            }
            None => coverage.clone(),
        };
        self.ingest(window.start, &boundary_coverage, snapshot_at);
        for t in window.start.saturating_add(1)..window.end {
            self.ingest(t, &coverage, snapshot_at);
        }
        self.prev = Some((window, coverage));
    }

    /// Exports the resumable state for checkpointing. The eviction policy is
    /// configuration, not state: [`RefineFold::from_state`] takes it again
    /// from the caller, so only the cursor/coverage/counter state is here.
    pub fn export_state(&self) -> RefineFoldSnapshot {
        RefineFoldSnapshot {
            state: self.state.export_state(),
            prev: self
                .prev
                .as_ref()
                .map(|(window, coverage)| (*window, coverage.iter().copied().collect())),
            last_tick: self.last_tick,
            evicted: self.evicted,
        }
    }

    /// Rebuilds a fold for `query` with the given eviction policy from an
    /// exported view.
    pub fn from_state(
        query: &ConvoyQuery,
        horizon: Option<i64>,
        max_candidates: Option<usize>,
        snapshot: RefineFoldSnapshot,
    ) -> Self {
        RefineFold {
            state: CmcState::from_state(query, snapshot.state),
            prev: snapshot
                .prev
                .map(|(window, coverage)| (window, coverage.into_iter().collect())),
            last_tick: snapshot.last_tick,
            horizon,
            max_candidates,
            evicted: snapshot.evicted,
        }
    }

    /// Attaches a metrics recorder to the inner [`CmcState`]: its per-tick
    /// histograms and gauge (see [`CmcState::set_obs`]).
    pub fn set_obs(&mut self, obs: Obs) {
        self.state.set_obs(obs);
    }

    /// Convoys whose chains closed since the last drain (the streaming
    /// consumption path).
    pub fn drain_closed(&mut self) -> Vec<Convoy> {
        self.state.drain_closed()
    }

    /// Number of chains force-closed by the eviction policy so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The fold's [`CmcStats`] so far (counters survive drains).
    pub fn stats(&self) -> CmcStats {
        self.state.stats()
    }

    /// Hands out the work done since the last call (see
    /// [`CmcState::take_work`]).
    pub fn take_work(&mut self) -> FoldWork {
        self.state.take_work()
    }

    /// Ends the fold: ingests the final partition's end tick, closes every
    /// open chain, and returns the convoys not yet drained plus the fold's
    /// lifetime counters.
    pub fn finish<S>(mut self, snapshot_at: &mut S) -> FoldOutcome
    where
        S: FnMut(TimePoint, &BTreeSet<ObjectId>) -> Snapshot,
    {
        if let Some((window, coverage)) = self.prev.take() {
            self.ingest(window.end, &coverage, snapshot_at);
        }
        let evicted = self.evicted;
        let work = self.state.take_work();
        let (convoys, stats) = self.state.finish_with_stats();
        FoldOutcome {
            convoys,
            stats,
            evicted,
            work,
        }
    }
}

/// A serializable view of a [`RefineFold`]'s resumable state: the inner
/// [`CmcState`] view, the held-back boundary partition (window + coverage,
/// the coverage as a sorted object list), the fold cursor, and the eviction
/// counter.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineFoldSnapshot {
    /// The inner CMC state view.
    pub state: crate::engine::CmcStateSnapshot,
    /// The last pushed partition's window and coverage (objects ascending),
    /// if a boundary tick is still held back.
    pub prev: Option<(TimeInterval, Vec<ObjectId>)>,
    /// The last folded tick.
    pub last_tick: Option<TimePoint>,
    /// Chains force-closed by the eviction policy so far.
    pub evicted: u64,
}

/// What a finished [`RefineFold`] hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldOutcome {
    /// Convoys not yet drained, in closure order.
    pub convoys: Vec<Convoy>,
    /// The fold's lifetime counters.
    pub stats: CmcStats,
    /// Chains force-closed by the eviction policy over the fold's lifetime
    /// (final boundary tick included).
    pub evicted: u64,
    /// The work done since the last [`RefineFold::take_work`].
    pub work: FoldWork,
}

/// Refines a filter's λ-partition clusters with the coverage fold: every
/// tick of the filtered domain is folded through one [`CmcState`], its
/// snapshot built from the objects of the partition clusters covering it
/// (one [`CoverageReader`] over the database).
///
/// Returns the raw (un-normalised) convoys in closure order together with
/// the fold's counters. The module docs explain why this output is
/// bit-identical to plain CMC over the same database — and therefore to the
/// streaming pipeline's output, whatever its filter decided.
///
/// **Cost profile.** Each tick's snapshot reads only the covered objects:
/// an object entering the coverage costs one lookup and one binary search,
/// and every further covered tick one forward cursor step. Extraction
/// therefore scales with the *covered object-ticks*, not objects × ticks:
/// objects outside every partition cluster are never read, and a tick with
/// empty coverage costs one empty snapshot (it is still folded, because it
/// closes open chains).
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
/// satisfy. (A silent gap would pair later ticks with the wrong snapshots.)
pub fn refine_partitions(
    db: &TrajectoryDatabase,
    query: &ConvoyQuery,
    partitions: &[PartitionClusters],
) -> (Vec<Convoy>, CmcStats) {
    let (convoys, stats, _) = refine_partitions_obs(db, query, partitions, &Obs::noop());
    (convoys, stats)
}

/// Like [`refine_partitions`], also returning the fold's [`FoldWork`] and
/// recording into `obs` the fold's per-tick histograms plus
/// `cuts.refine.snapshot_points`: the entries of the coverage snapshots
/// folded. (The surrounding `discover.refine` span is the caller's —
/// [`crate::discovery::Discovery`] wraps this call.)
pub fn refine_partitions_obs(
    db: &TrajectoryDatabase,
    query: &ConvoyQuery,
    partitions: &[PartitionClusters],
    obs: &Obs,
) -> (Vec<Convoy>, CmcStats, FoldWork) {
    assert!(
        partitions
            .windows(2)
            .all(|w| w[0].window.end == w[1].window.start),
        "refine_partitions requires contiguous partitions sharing boundary ticks"
    );
    let mut snapshot_points = 0u64;
    let mut reader = CoverageReader::new(None);
    let mut snapshot_at = |t: TimePoint, coverage: &BTreeSet<ObjectId>| -> Snapshot {
        let snapshot = reader.snapshot(t, coverage, |id| db.get(id).map(Trajectory::points));
        snapshot_points += snapshot.len() as u64;
        snapshot
    };
    let mut fold = RefineFold::new(query);
    fold.set_obs(obs.clone());
    for partition in partitions {
        fold.push_partition(partition, &mut snapshot_at);
    }
    let outcome = fold.finish(&mut snapshot_at);
    obs.counter_add("cuts.refine.snapshot_points", snapshot_points);
    (outcome.convoys, outcome.stats, outcome.work)
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
