//! The stream's refinement: the coverage-restricted [`CmcState`] fold of
//! [`convoy_core::cuts::refine`], one λ-partition at a time, with the
//! eviction hooks a long-lived feed needs.

use crate::config::EvictionPolicy;
use convoy_core::{CmcState, CmcStats, Convoy, ConvoyQuery, FoldWork, PartitionClusters};
use trajectory::{ObjectId, SnapshotPolicy, SnapshotSweep, TimeInterval, TrajPoint};

/// Folds each closed partition's covered sweep ([`SnapshotSweep::over_runs`])
/// over the sample slices a lookup returns — the ingest buffers —
/// interpolating only across gaps [`trajectory::sweep::bridgeable`] within
/// the horizon. `state` and `evicted` are checkpointed.
#[derive(Debug, Clone)]
pub(crate) struct RefineFold {
    pub(crate) state: CmcState,
    /// Chains force-closed by the eviction policy so far.
    pub(crate) evicted: u64,
    /// Entries of the snapshots folded since the last
    /// [`RefineFold::take_work`].
    snapshot_points: u64,
}

impl RefineFold {
    pub fn new(query: &ConvoyQuery) -> Self {
        RefineFold {
            state: CmcState::new(query),
            evicted: 0,
            snapshot_points: 0,
        }
    }

    /// Folds one λ-partition: every tick of its window after the last folded
    /// tick, its end tick included, each snapshot holding only the
    /// partition's cluster members. A tick two partitions share is folded
    /// once, with the earlier partition's coverage: the restriction theorem
    /// of [`convoy_core::cuts::refine`] holds for each partition covering a
    /// tick alone. `points_of` returns an object's samples (`None` skips the
    /// object).
    ///
    /// `eviction` applies per tick: before a tick extends the chains, every
    /// chain that has lived `horizon` ticks is closed (the horizon is also
    /// the sweep's interpolation bound); after it, the oldest chains are
    /// closed until at most `max_candidates` remain.
    ///
    /// Partitions must arrive in window order, consecutive windows sharing
    /// their boundary tick.
    pub fn push_partition<'a>(
        &mut self,
        partition: &PartitionClusters,
        eviction: EvictionPolicy,
        points_of: impl Fn(ObjectId) -> Option<&'a [TrajPoint]>,
    ) {
        let window = partition.window;
        let last = self.state.last_tick();
        // A hard assert: a gap between windows would fold ticks no
        // partition covered as feed outages.
        assert!(
            last.is_none_or(|last| last >= window.start),
            "partitions must share their boundary tick"
        );
        // An instant partition's one tick may be the tick folded last.
        let next = last.map_or(Some(window.start), |last| last.checked_add(1));
        let Some(start) = next.filter(|&start| start <= window.end) else {
            return;
        };
        let window = TimeInterval::new(start, window.end);
        let mut coverage: Vec<ObjectId> =
            partition.clusters.iter().flat_map(|c| c.iter()).collect();
        coverage.sort_unstable();
        coverage.dedup();
        let runs = coverage
            .into_iter()
            .filter_map(|id| points_of(id).map(|points| (id, points, window)));
        let policy = SnapshotPolicy::Interpolate;
        for snapshot in SnapshotSweep::over_runs(runs, window, policy, eviction.horizon) {
            if let Some(horizon) = eviction.horizon {
                self.evicted += self.state.evict_longer_than(horizon) as u64;
            }
            self.snapshot_points += snapshot.len() as u64;
            self.state.ingest_snapshot(&snapshot);
            if let Some(max) = eviction.max_candidates {
                self.evicted += self.state.evict_to_capacity(max) as u64;
            }
        }
    }

    /// Hands out the work done since the last call (see
    /// [`CmcState::take_work`]), with the entries of the coverage snapshots
    /// folded as [`FoldWork::refine_snapshot_points`].
    pub fn take_work(&mut self) -> FoldWork {
        FoldWork {
            refine_snapshot_points: std::mem::take(&mut self.snapshot_points),
            ..self.state.take_work()
        }
    }

    /// Ends the fold: closes every open chain and returns the convoys not
    /// yet drained, the fold's lifetime counters and the work not yet taken.
    pub fn finish(mut self) -> (Vec<Convoy>, CmcStats, FoldWork) {
        let work = self.take_work();
        let (convoys, stats) = self.state.finish_with_stats();
        (convoys, stats, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_cluster::Cluster;

    #[test]
    fn an_instant_partition_folds_its_tick_once() {
        // A single-tick feed closes one partition whose start is its end.
        let points = [TrajPoint::new(0.0, 0.0, 5), TrajPoint::new(0.5, 0.0, 5)];
        let partition = PartitionClusters {
            window: TimeInterval::instant(5),
            clusters: vec![Cluster::new(vec![ObjectId(1), ObjectId(2)])],
        };
        let points_of = |id: ObjectId| Some(&points[id.0 as usize - 1..id.0 as usize]);
        let mut fold = RefineFold::new(&ConvoyQuery::new(2, 1, 1.0));
        fold.push_partition(&partition, EvictionPolicy::unbounded(), points_of);
        let (convoys, stats, work) = fold.finish();
        assert_eq!(stats.ticks_ingested, 1);
        assert_eq!(work.refine_snapshot_points, 2);
        assert_eq!(convoys.len(), 1);
        assert_eq!(convoys[0].interval(), TimeInterval::instant(5));
    }
}
