//! The CuTS filter step (Algorithm 2 of the paper).
//!
//! The filter simplifies every trajectory, partitions the time domain into
//! λ-length partitions, density-clusters the simplified sub-trajectories of
//! each partition using the Lemma 1 / Lemma 3 bounds, and chains clusters
//! across partitions into **candidate convoys** — a superset of the true
//! convoys, which the refinement step then verifies.

use crate::cuts::partition::{cluster_partition_with_work, PartitionClusters};
use crate::cuts::CutsConfig;
use crate::engine::CmcState;
use crate::metrics::FilterWork;
use crate::params::{auto_delta, auto_lambda};
use crate::query::{Convoy, ConvoyQuery};
use std::collections::BTreeSet;
use traj_cluster::SubTrajectory;
use traj_simplify::SimplifiedTrajectory;
use trajectory::{ObjectId, TimeInterval, TimePartition, TrajectoryDatabase};

/// The output of the filter step: candidate convoys plus the bookkeeping the
/// refinement step and the benchmark harness need.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterOutput {
    /// Candidate convoys: the chains of partition clusters that lived at
    /// least `k` points, at partition granularity and not yet refined (a
    /// superset of the true convoys, which the refinement verifies tick by
    /// tick).
    pub candidates: Vec<Convoy>,
    /// Every λ-partition's clusters, in window order — the per-tick object
    /// coverage the refinement fold restricts its snapshots to
    /// ([`crate::cuts::refine::refine_partitions`]).
    pub partitions: Vec<PartitionClusters>,
    /// The simplification tolerance δ actually used.
    pub delta: f64,
    /// The partition length λ: the configured one (which
    /// [`CutsConfig::with_lambda`] normalises to the λ the partitioning
    /// runs) or the automatic one.
    pub lambda: usize,
    /// Total number of samples before simplification.
    pub original_points: usize,
    /// Total number of samples after simplification.
    pub simplified_points: usize,
}

impl FilterOutput {
    /// Vertex reduction of the simplification step, in percent.
    pub fn reduction_percent(&self) -> f64 {
        if self.original_points == 0 {
            return 0.0;
        }
        (1.0 - self.simplified_points as f64 / self.original_points as f64) * 100.0
    }
}

/// Simplifies every trajectory of `db` with the variant's simplifier and the
/// given δ. Exposed separately so the benchmark harness can time the
/// simplification stage on its own (Figure 13).
pub fn simplify_database(
    db: &TrajectoryDatabase,
    config: &CutsConfig,
    delta: f64,
) -> Vec<(ObjectId, SimplifiedTrajectory)> {
    let method = config.variant.simplification();
    db.iter()
        .map(|(id, traj)| (id, method.simplify(traj, delta)))
        .collect()
}

/// Runs the filter step on already-simplified trajectories.
///
/// This is the partition-and-cluster half of Algorithm 2; [`filter`] is the
/// convenience wrapper that also performs the simplification.
pub fn filter_simplified(
    simplified: &[(ObjectId, SimplifiedTrajectory)],
    db: &TrajectoryDatabase,
    query: &ConvoyQuery,
    config: &CutsConfig,
    delta: f64,
) -> FilterOutput {
    filter_simplified_with_work(simplified, db, query, config, delta).0
}

/// [`filter_simplified`], also returning the work of every partition's
/// region queries, summed: what [`crate::Discovery`] reports in its
/// [`crate::DiscoveryStats`].
pub(crate) fn filter_simplified_with_work(
    simplified: &[(ObjectId, SimplifiedTrajectory)],
    db: &TrajectoryDatabase,
    query: &ConvoyQuery,
    config: &CutsConfig,
    delta: f64,
) -> (FilterOutput, FilterWork) {
    let original_points = db.total_points();
    let simplified_points = simplified.iter().map(|(_, s)| s.num_points()).sum();

    let lambda = config
        .lambda
        .unwrap_or_else(|| auto_lambda(simplified.iter().map(|(_, s)| s), query.k));

    let Some(domain) = db.time_domain() else {
        let output = FilterOutput {
            candidates: Vec::new(),
            partitions: Vec::new(),
            delta,
            lambda,
            original_points,
            simplified_points,
        };
        return (output, FilterWork::default());
    };

    let distance = config.variant.segment_distance();
    let mode = config.tolerance_mode;
    let partition = TimePartition::new(domain, TimePartition::clamp_lambda(lambda) as i64);

    // The partition loop is shared with the streaming filter: cluster each
    // λ-partition's sub-trajectories (`cuts::partition`), fold the clusters
    // into candidate chains through the CMC fold.
    let mut partitions: Vec<PartitionClusters> = Vec::with_capacity(partition.len());
    let mut chain = CmcState::new(query);
    let mut work = FilterWork::default();

    // The active set: indices into `simplified` of the trajectories whose
    // interval can still meet the current window. Simplified segments cover
    // `[first.t, last.t]` without gaps, so `SubTrajectory::for_window` is
    // `Some` exactly when that interval meets the window: an index is
    // admitted once its first tick reaches the window and retired once its
    // last tick falls behind it (windows only move forward). The set is
    // ordered by slice index, so the items keep the slice's order — DBSCAN's
    // scan order, and with it the cluster order.
    let intervals: Vec<TimeInterval> = simplified.iter().map(|(_, s)| s.time_interval()).collect();
    let mut by_start: Vec<usize> = (0..simplified.len()).collect();
    by_start.sort_by_key(|&i| intervals[i].start);
    let mut pending = by_start.into_iter().peekable();
    let mut active: BTreeSet<usize> = BTreeSet::new();

    for window in partition.iter() {
        while let Some(i) = pending.next_if(|&i| intervals[i].start <= window.end) {
            active.insert(i);
        }
        active.retain(|&i| intervals[i].end >= window.start);
        // Collect the sub-trajectories of every object present in this
        // partition (line 9–10 of Algorithm 2).
        let items: Vec<SubTrajectory> = active
            .iter()
            .filter_map(|&i| {
                let (id, s) = &simplified[i];
                SubTrajectory::for_window(*id, s, window)
            })
            .collect();
        let (clustered, partition_work) =
            cluster_partition_with_work(window, &items, query, distance, mode);
        work += partition_work;
        chain.ingest_partition(&clustered);
        partitions.push(clustered);
    }

    let output = FilterOutput {
        candidates: chain.finish(),
        partitions,
        delta,
        lambda,
        original_points,
        simplified_points,
    };
    (output, work)
}

/// Runs the complete filter step (simplification + partitioned clustering) of
/// Algorithm 2.
pub fn filter(db: &TrajectoryDatabase, query: &ConvoyQuery, config: &CutsConfig) -> FilterOutput {
    let delta = config.delta.unwrap_or_else(|| auto_delta(db, query.e));
    let simplified = simplify_database(db, config, delta);
    filter_simplified(&simplified, db, query, config, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts::CutsVariant;
    use trajectory::{ObjectId, Trajectory};

    fn convoy_db() -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new();
        // Three objects moving together with a little jitter, one far away.
        for i in 0..3u64 {
            let traj = Trajectory::from_tuples((0..30).map(|t| {
                let jitter = if (t + i as i64) % 2 == 0 { 0.1 } else { -0.1 };
                (t as f64, i as f64 * 0.4 + jitter, t)
            }))
            .unwrap();
            db.insert(ObjectId(i), traj);
        }
        db.insert(
            ObjectId(9),
            Trajectory::from_tuples((0..30).map(|t| (t as f64, 400.0, t))).unwrap(),
        );
        db
    }

    #[test]
    fn filter_produces_a_candidate_covering_the_true_convoy() {
        let db = convoy_db();
        let query = ConvoyQuery::new(3, 10, 1.5);
        for variant in CutsVariant::ALL {
            let output = filter(&db, &query, &CutsConfig::new(variant));
            assert!(
                !output.candidates.is_empty(),
                "{variant} filter must produce at least one candidate"
            );
            // Some candidate must contain all three convoy members over the
            // full window — the no-false-dismissal guarantee.
            let covered = output.candidates.iter().any(|c| {
                (0..3u64).all(|i| c.objects.contains(ObjectId(i))) && c.start <= 0 && c.end >= 29
            });
            assert!(covered, "{variant} filter lost the true convoy");
            // The far-away object must not force itself into every candidate.
            assert!(output
                .candidates
                .iter()
                .any(|c| !c.objects.contains(ObjectId(9))));
            assert!(output.delta > 0.0);
            assert!(output.lambda >= 2);
            assert!(output.simplified_points <= output.original_points);
        }
    }

    #[test]
    fn filter_reduces_vertex_count_on_smooth_trajectories() {
        let db = convoy_db();
        let query = ConvoyQuery::new(3, 10, 1.5);
        // With a tolerance above the ±0.1 jitter the trajectories collapse to
        // a handful of points.
        let config = CutsConfig::new(CutsVariant::Cuts).with_delta(0.5);
        let output = filter(&db, &query, &config);
        assert!(
            output.reduction_percent() > 60.0,
            "nearly-straight trajectories should simplify well, got {:.1}%",
            output.reduction_percent()
        );
    }

    #[test]
    fn explicit_parameters_are_respected() {
        let db = convoy_db();
        let query = ConvoyQuery::new(3, 10, 1.5);
        let config = CutsConfig::new(CutsVariant::CutsStar)
            .with_delta(0.75)
            .with_lambda(6);
        let output = filter(&db, &query, &config);
        assert_eq!(output.delta, 0.75);
        assert_eq!(output.lambda, 6);
        // Out-of-range requests report the λ the partitioning ran.
        for (requested, used) in [(0, 2), (1, 2), (usize::MAX, i64::MAX as usize)] {
            let output = filter(&db, &query, &config.with_lambda(requested));
            assert_eq!(output.lambda, used, "requested λ = {requested}");
        }
    }

    #[test]
    fn empty_database_produces_no_candidates() {
        let db = TrajectoryDatabase::new();
        let query = ConvoyQuery::new(2, 3, 1.0);
        let output = filter(&db, &query, &CutsConfig::new(CutsVariant::Cuts));
        assert!(output.candidates.is_empty());
        assert_eq!(output.original_points, 0);
    }

    #[test]
    fn lifetime_constraint_prunes_short_candidates() {
        let db = convoy_db();
        // k far larger than the domain: no candidate can qualify.
        let query = ConvoyQuery::new(3, 500, 1.5);
        let output = filter(&db, &query, &CutsConfig::new(CutsVariant::Cuts));
        assert!(output.candidates.is_empty());
    }
}
