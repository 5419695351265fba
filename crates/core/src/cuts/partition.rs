//! The λ-partition primitive shared by the batch filter (Algorithm 2) and
//! the streaming filter (`convoy_stream`).
//!
//! ```text
//! sub-trajectories ──► cluster_partition ──► PartitionClusters ──► refinement
//!   (one λ-window)       (TRAJ-DBSCAN)        (window + clusters)    (coverage fold)
//! ```
//!
//! Clustering lives here ([`cluster_partition`]), so there is exactly one
//! implementation of the partition loop of Algorithm 2 — the batch filter
//! calls it with whole-trajectory simplifications partition by partition,
//! the streaming filter calls it with sliding-window simplifications as each
//! partition closes. Both hand the clusters to the refinement, which folds
//! each tick's snapshot restricted to the partition's cluster members
//! ([`crate::cuts::refine`]); neither chains the clusters across
//! partitions.

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
