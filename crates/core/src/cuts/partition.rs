//! The λ-partition primitives shared by the batch filter (Algorithm 2) and
//! the streaming filter (`convoy_stream`).
//!
//! Both filters do the same two things per λ-partition, just at different
//! moments: density-cluster the partition's simplified sub-trajectories
//! ([`cluster_partition`]) and fold the resulting clusters into candidate
//! chains ([`CandidateChain`]). Extracting them here means there is exactly
//! one implementation of the partition loop of Algorithm 2 — the batch
//! filter calls it with whole-trajectory simplifications partition by
//! partition, the streaming filter calls it with sliding-window
//! simplifications as each partition closes.

use crate::candidate::{CandidateConvoy, OverlapIndex};
use crate::query::ConvoyQuery;
use serde::{Deserialize, Serialize};
use traj_cluster::{cluster_sub_trajectories, Cluster, SegmentDistance, SubTrajectory};
use traj_simplify::ToleranceMode;
use trajectory::TimeInterval;

/// The clusters discovered in one λ-partition, tagged with the partition's
/// window. This is the currency between the filter and the refinement stage:
/// the refinement only ever inspects objects that co-clustered in the
/// partition covering each time point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    let clusters = if items.len() < query.m {
        Vec::new()
    } else {
        cluster_sub_trajectories(items, query.e, query.m, distance, mode)
    };
    PartitionClusters { window, clusters }
}

/// The candidate-chaining state machine of Algorithm 2 (lines 13–22): fold
/// one partition's clusters at a time, extending open candidate chains with
/// every cluster that keeps at least `m` common objects and closing chains
/// that fail to extend.
///
/// This is the partition-granularity sibling of
/// [`crate::engine::CmcState`]: the same extend-or-close dynamics, but over
/// λ-length windows instead of single ticks and producing *candidates* (to
/// be refined) instead of verified convoys.
#[derive(Debug, Clone)]
pub struct CandidateChain {
    query: ConvoyQuery,
    current: Vec<CandidateConvoy>,
    closed: Vec<CandidateConvoy>,
    peak_open: usize,
    partitions_folded: u64,
    /// Double buffer for the per-partition chain turnover (swapped with
    /// `current` at the end of every [`CandidateChain::fold`]).
    next: Vec<CandidateConvoy>,
    /// Per-partition "cluster extended some chain" flags.
    assigned: Vec<bool>,
    /// Per-partition object → cluster index.
    index: OverlapIndex,
}

/// A serializable view of a [`CandidateChain`]'s resumable state (open and
/// undrained chains plus counters; the query is configuration and comes back
/// from the caller on restore).
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateChainSnapshot {
    /// Open chains, in fold order.
    pub current: Vec<CandidateConvoy>,
    /// Chains closed but not yet drained.
    pub closed: Vec<CandidateConvoy>,
    /// Largest number of simultaneously open chains observed.
    pub peak_open: usize,
    /// Partitions folded so far.
    pub partitions_folded: u64,
}

impl CandidateChain {
    /// Creates an empty chain for `query`.
    pub fn new(query: &ConvoyQuery) -> Self {
        CandidateChain {
            query: *query,
            current: Vec::new(),
            closed: Vec::new(),
            peak_open: 0,
            partitions_folded: 0,
            next: Vec::new(),
            assigned: Vec::new(),
            index: OverlapIndex::default(),
        }
    }

    /// Exports the resumable state for checkpointing.
    pub fn export_state(&self) -> CandidateChainSnapshot {
        CandidateChainSnapshot {
            current: self.current.clone(),
            closed: self.closed.clone(),
            peak_open: self.peak_open,
            partitions_folded: self.partitions_folded,
        }
    }

    /// Rebuilds a chain for `query` from an exported view.
    pub fn from_state(query: &ConvoyQuery, snapshot: CandidateChainSnapshot) -> Self {
        CandidateChain {
            current: snapshot.current,
            closed: snapshot.closed,
            peak_open: snapshot.peak_open,
            partitions_folded: snapshot.partitions_folded,
            ..CandidateChain::new(query)
        }
    }

    /// Folds one partition's clusters into the open chains. Partitions must
    /// arrive in ascending window order.
    ///
    /// Each open chain is extended through the partition's object → cluster
    /// index, so only the clusters it shares at least `m` objects
    /// with are intersected, in the order of the all-pairs loop.
    pub fn fold(&mut self, partition: &PartitionClusters) {
        let window = partition.window;
        let clusters = &partition.clusters;
        self.next.clear();
        self.assigned.clear();
        self.assigned.resize(clusters.len(), false);
        let probing = !self.current.is_empty() && !clusters.is_empty();
        if probing {
            self.index.rebuild(clusters);
        }

        for candidate in self.current.drain(..) {
            let extending: &[usize] = if probing {
                self.index.extending(&candidate.objects, self.query.m)
            } else {
                &[]
            };
            for &ci in extending {
                self.assigned[ci] = true;
                self.next
                    .push(candidate.extended(&clusters[ci], window.end, Cluster::default()));
            }
            if extending.is_empty() && candidate.lifetime() >= self.query.k as i64 {
                self.closed.push(candidate);
            }
        }

        for (ci, cluster) in clusters.iter().enumerate() {
            if !self.assigned[ci] {
                self.next.push(CandidateConvoy::new(
                    cluster.clone(),
                    window.start,
                    window.end,
                ));
            }
        }

        std::mem::swap(&mut self.current, &mut self.next);
        self.peak_open = self.peak_open.max(self.current.len());
        self.partitions_folded += 1;
    }

    /// The chains currently open.
    pub fn open(&self) -> &[CandidateConvoy] {
        &self.current
    }

    /// The largest number of simultaneously open chains observed so far.
    pub fn peak_open(&self) -> usize {
        self.peak_open
    }

    /// Number of partitions folded so far.
    pub fn partitions_folded(&self) -> u64 {
        self.partitions_folded
    }

    /// Closes chains that started before `cutoff`, reporting those that
    /// satisfy the lifetime constraint. Returns the number of chains closed.
    /// This is the coarse-filter side of windowed eviction: a long-lived
    /// feed must not keep chains from an unbounded past open.
    pub fn close_started_before(&mut self, cutoff: trajectory::TimePoint) -> usize {
        let k = self.query.k as i64;
        let mut closed = 0;
        self.current.retain(|candidate| {
            if candidate.start < cutoff {
                if candidate.lifetime() >= k {
                    self.closed.push(candidate.clone());
                }
                closed += 1;
                false
            } else {
                true
            }
        });
        closed
    }

    /// Takes the candidates that have closed since the last drain.
    pub fn drain_closed(&mut self) -> Vec<CandidateConvoy> {
        std::mem::take(&mut self.closed)
    }

    /// Ends the stream: closes every remaining open chain (reporting the
    /// lifetime-satisfying ones) and returns all candidates not yet drained.
    pub fn finish(mut self) -> Vec<CandidateConvoy> {
        let k = self.query.k as i64;
        for candidate in std::mem::take(&mut self.current) {
            if candidate.lifetime() >= k {
                self.closed.push(candidate);
            }
        }
        self.closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut chain = CandidateChain::new(&query);
        chain.fold(&partition(0, 3, &[&[1, 2, 3]]));
        chain.fold(&partition(3, 6, &[&[1, 2, 9]]));
        // The cluster extended the open chain, so it was assigned and does
        // not additionally open a fresh chain.
        assert_eq!(chain.open().len(), 1);
        // Nothing extends: the {1,2} chain (lifetime 7 ≥ k) closes.
        chain.fold(&partition(6, 9, &[]));
        let closed = chain.drain_closed();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].objects, cluster(&[1, 2]));
        assert_eq!(closed[0].start, 0);
        assert_eq!(closed[0].end, 6);
        assert!(chain.open().is_empty());
        assert_eq!(chain.partitions_folded(), 3);
    }

    #[test]
    fn fresh_chains_only_from_unassigned_clusters() {
        let query = ConvoyQuery::new(2, 4, 1.0);
        let mut chain = CandidateChain::new(&query);
        chain.fold(&partition(0, 3, &[&[1, 2]]));
        // The cluster extends the open chain, so no fresh chain appears.
        chain.fold(&partition(3, 6, &[&[1, 2, 3]]));
        assert_eq!(chain.open().len(), 1);
        assert_eq!(chain.open()[0].start, 0);
        // An unrelated cluster starts a fresh chain.
        chain.fold(&partition(6, 9, &[&[1, 2], &[7, 8]]));
        assert_eq!(chain.open().len(), 2);
        assert_eq!(chain.peak_open(), 2);
    }

    #[test]
    fn finish_reports_only_lifetime_satisfying_chains() {
        let query = ConvoyQuery::new(2, 10, 1.0);
        let mut chain = CandidateChain::new(&query);
        chain.fold(&partition(0, 3, &[&[1, 2]]));
        assert!(chain.finish().is_empty(), "lifetime 4 < k = 10");

        let query = ConvoyQuery::new(2, 3, 1.0);
        let mut chain = CandidateChain::new(&query);
        chain.fold(&partition(0, 3, &[&[1, 2]]));
        let closed = chain.finish();
        assert_eq!(closed.len(), 1);
    }

    #[test]
    fn eviction_closes_old_chains_only() {
        let query = ConvoyQuery::new(2, 2, 1.0);
        let mut chain = CandidateChain::new(&query);
        chain.fold(&partition(0, 3, &[&[1, 2]]));
        chain.fold(&partition(3, 6, &[&[1, 2], &[7, 8]]));
        assert_eq!(chain.open().len(), 2);
        // Cutoff between the two chains' starts: only the old one closes.
        assert_eq!(chain.close_started_before(2), 1);
        assert_eq!(chain.open().len(), 1);
        assert_eq!(chain.open()[0].objects, cluster(&[7, 8]));
        let closed = chain.drain_closed();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].objects, cluster(&[1, 2]));
        // A cutoff at the survivor's exact start does not close it.
        assert_eq!(chain.close_started_before(3), 0);
        assert_eq!(chain.open().len(), 1);
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
