//! The λ-partition primitive shared by the batch filter (Algorithm 2) and
//! the streaming filter (`convoy_stream`).
//!
//! Both filters do the same two things per λ-partition, just at different
//! moments:
//!
//! ```text
//! sub-trajectories ──► cluster_partition ──► PartitionClusters ──► CmcState::ingest_partition
//!   (one λ-window)       (TRAJ-DBSCAN)        (window + clusters)    (candidate chains, the
//!                                                                     fold CMC runs per tick)
//! ```
//!
//! Clustering lives here ([`cluster_partition`]), so there is exactly one
//! implementation of the partition loop of Algorithm 2 — the batch filter
//! calls it with whole-trajectory simplifications partition by partition,
//! the streaming filter calls it with sliding-window simplifications as each
//! partition closes. Chaining the clusters is Algorithm 1's extend-or-close
//! step over a window instead of a tick, so both filters fold their
//! partitions through [`crate::engine::CmcState::ingest_partition`].

use crate::metrics::FilterWork;
use crate::query::ConvoyQuery;
use traj_cluster::{Cluster, SegmentDistance, SubTrajectory, SubTrajectoryIndex};
use traj_simplify::ToleranceMode;
use trajectory::TimeInterval;

/// The clusters discovered in one λ-partition, tagged with the partition's
/// window. This is the currency between the filter and the refinement stage:
/// the refinement only ever inspects objects that co-clustered in the
/// partition covering each time point.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionClusters {
    /// The partition's time window (consecutive partitions share their
    /// boundary time point, matching [`trajectory::TimePartition`]).
    pub window: TimeInterval,
    /// The density clusters of the partition's sub-trajectories.
    pub clusters: Vec<Cluster>,
}

/// Density-clusters one λ-partition's sub-trajectories (lines 9–12 of
/// Algorithm 2) — the partition-clustering routine shared by the batch
/// filter and the streaming filter.
///
/// Fewer than `m` sub-trajectories can never form a cluster, so the
/// clustering is skipped outright in that case.
pub fn cluster_partition(
    window: TimeInterval,
    items: &[SubTrajectory],
    query: &ConvoyQuery,
    distance: SegmentDistance,
    mode: ToleranceMode,
) -> PartitionClusters {
    cluster_partition_with_work(window, items, query, distance, mode).0
}

/// [`cluster_partition`], also returning the work of the partition's region
/// queries (all zero when fewer than `m` items skip the clustering): what
/// the batch filter sums. [`PartitionClusters`] does not carry it, because
/// the window and clusters are what the refinement and the stream consume.
pub(crate) fn cluster_partition_with_work(
    window: TimeInterval,
    items: &[SubTrajectory],
    query: &ConvoyQuery,
    distance: SegmentDistance,
    mode: ToleranceMode,
) -> (PartitionClusters, FilterWork) {
    if items.len() < query.m {
        let clusters = Vec::new();
        return (
            PartitionClusters { window, clusters },
            FilterWork::default(),
        );
    }
    let index = SubTrajectoryIndex::new(items, query.e, distance, mode);
    let clusters = index.clusters(items, query.m);
    (
        PartitionClusters { window, clusters },
        FilterWork::from(&index),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CmcState;
    use trajectory::ObjectId;

    fn cluster(ids: &[u64]) -> Cluster {
        Cluster::new(ids.iter().map(|i| ObjectId(*i)).collect())
    }

    fn partition(start: i64, end: i64, clusters: &[&[u64]]) -> PartitionClusters {
        PartitionClusters {
            window: TimeInterval::new(start, end),
            clusters: clusters.iter().map(|ids| cluster(ids)).collect(),
        }
    }

    #[test]
    fn chains_extend_across_partitions_and_close_on_failure() {
        let query = ConvoyQuery::new(2, 6, 1.0);
        let mut chain = CmcState::new(&query);
        chain.ingest_partition(&partition(0, 3, &[&[1, 2, 3]]));
        chain.ingest_partition(&partition(3, 6, &[&[1, 2, 9]]));
        // The cluster extended the open chain, so it was assigned and does
        // not additionally open a fresh chain.
        assert_eq!(chain.active_candidates(), 1);
        // Nothing extends: the {1,2} chain (lifetime 7 ≥ k) closes.
        chain.ingest_partition(&partition(6, 9, &[]));
        let closed = chain.drain_closed();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].objects, cluster(&[1, 2]));
        assert_eq!(closed[0].start, 0);
        assert_eq!(closed[0].end, 6);
        assert_eq!(chain.active_candidates(), 0);
        assert_eq!(chain.stats().ticks_ingested, 3);
    }

    #[test]
    fn fresh_chains_only_from_unassigned_clusters() {
        let query = ConvoyQuery::new(2, 4, 1.0);
        let mut chain = CmcState::new(&query);
        chain.ingest_partition(&partition(0, 3, &[&[1, 2]]));
        // The cluster extends the open chain, so no fresh chain appears.
        chain.ingest_partition(&partition(3, 6, &[&[1, 2, 3]]));
        assert_eq!(chain.active_candidates(), 1);
        assert_eq!(chain.export_state().current[0].start, 0);
        // An unrelated cluster starts a fresh chain spanning its window.
        chain.ingest_partition(&partition(6, 9, &[&[1, 2], &[7, 8]]));
        assert_eq!(chain.active_candidates(), 2);
        assert_eq!(
            chain.export_state().current[1].interval(),
            TimeInterval::new(6, 9)
        );
        assert_eq!(chain.peak_candidates(), 2);
    }

    #[test]
    fn finish_reports_only_lifetime_satisfying_chains() {
        let query = ConvoyQuery::new(2, 10, 1.0);
        let mut chain = CmcState::new(&query);
        chain.ingest_partition(&partition(0, 3, &[&[1, 2]]));
        assert!(chain.finish().is_empty(), "lifetime 4 < k = 10");

        let query = ConvoyQuery::new(2, 3, 1.0);
        let mut chain = CmcState::new(&query);
        chain.ingest_partition(&partition(0, 3, &[&[1, 2]]));
        let closed = chain.finish();
        assert_eq!(closed.len(), 1);
    }

    #[test]
    fn eviction_closes_old_chains_only() {
        let query = ConvoyQuery::new(2, 2, 1.0);
        let mut chain = CmcState::new(&query);
        chain.ingest_partition(&partition(0, 3, &[&[1, 2]]));
        chain.ingest_partition(&partition(3, 6, &[&[1, 2], &[7, 8]]));
        assert_eq!(chain.active_candidates(), 2);
        // Cutoff between the two chains' starts: only the old one closes.
        assert_eq!(chain.close_started_before(2), 1);
        assert_eq!(chain.active_candidates(), 1);
        assert_eq!(chain.export_state().current[0].objects, cluster(&[7, 8]));
        let closed = chain.drain_closed();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].objects, cluster(&[1, 2]));
        // A cutoff at the survivor's exact start does not close it.
        assert_eq!(chain.close_started_before(3), 0);
        assert_eq!(chain.active_candidates(), 1);
    }

    #[test]
    fn a_gap_between_partitions_closes_chains_and_a_shared_boundary_does_not() {
        let query = ConvoyQuery::new(2, 2, 1.0);
        let mut chain = CmcState::new(&query);
        // Windows sharing their boundary point are contiguous, even a
        // one-point window on the previous end.
        chain.ingest_partition(&partition(0, 3, &[&[1, 2]]));
        chain.ingest_partition(&partition(3, 6, &[&[1, 2]]));
        chain.ingest_partition(&partition(6, 6, &[&[1, 2]]));
        // The next window starting one point later is contiguous too.
        chain.ingest_partition(&partition(7, 9, &[&[1, 2]]));
        assert_eq!(chain.stats().gap_closures, 0);
        assert_eq!(chain.active_candidates(), 1);
        // Points 10..=11 were never observed: the open chain closes before
        // the window folds, and the cluster starts a fresh chain.
        chain.ingest_partition(&partition(12, 15, &[&[1, 2]]));
        assert_eq!(chain.stats().gap_closures, 1);
        let closed = chain.drain_closed();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].interval(), TimeInterval::new(0, 9));
        assert_eq!(
            chain.export_state().current[0].interval(),
            TimeInterval::new(12, 15)
        );
    }

    #[test]
    fn cluster_partition_respects_the_m_floor() {
        let query = ConvoyQuery::new(3, 2, 1.0);
        let out = cluster_partition(
            TimeInterval::new(0, 4),
            &[],
            &query,
            SegmentDistance::Dll,
            ToleranceMode::Actual,
        );
        assert!(out.clusters.is_empty());
        assert_eq!(out.window, TimeInterval::new(0, 4));
    }
}
