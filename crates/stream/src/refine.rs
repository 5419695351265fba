//! The stream's refinement: the coverage-restricted [`CmcState`] fold of
//! [`convoy_core::cuts::refine`], one λ-partition at a time, with the
//! eviction hooks a long-lived feed needs.

use convoy_core::{CmcState, CmcStats, Convoy, ConvoyQuery, FoldWork, PartitionClusters};
use trajectory::{
    ObjectId, Snapshot, SnapshotPolicy, SnapshotSweep, TimeInterval, TimePoint, TrajPoint,
};

/// Folds each closed partition's covered sweep ([`SnapshotSweep::over_runs`])
/// over the sample slices a lookup returns — the ingest buffers —
/// interpolating only across gaps [`trajectory::sweep::bridgeable`] within
/// the horizon. Every field but the eviction policy and the work count is
/// checkpointed.
#[derive(Debug, Clone)]
pub(crate) struct RefineFold {
    pub(crate) state: CmcState,
    /// The last pushed partition's window and object coverage (ascending),
    /// kept so the shared boundary tick can be folded with the union of both
    /// partitions' coverage once the next partition (or the stream end) is
    /// known.
    pub(crate) prev: Option<(TimeInterval, Vec<ObjectId>)>,
    pub(crate) last_tick: Option<TimePoint>,
    /// Maximum open-chain lifetime in ticks (`None` = unbounded): before a
    /// tick extends the chains, every chain that has already lived this long
    /// is closed (and reported if it satisfies `k`). It is also the
    /// interpolation horizon of the fold's sweeps.
    horizon: Option<i64>,
    /// Maximum number of open chains (`None` = unbounded): after each tick,
    /// the oldest chains are closed until the bound holds again.
    max_candidates: Option<usize>,
    /// Chains force-closed by the eviction policy so far.
    pub(crate) evicted: u64,
    /// Entries of the snapshots folded since the last
    /// [`RefineFold::take_work`].
    snapshot_points: u64,
}

impl RefineFold {
    pub fn new(query: &ConvoyQuery, horizon: Option<i64>, max_candidates: Option<usize>) -> Self {
        RefineFold {
            state: CmcState::new(query),
            prev: None,
            last_tick: None,
            horizon,
            max_candidates,
            evicted: 0,
            snapshot_points: 0,
        }
    }

    /// Folds the sweep of `runs` over `window`, less a tick already folded
    /// (an instant partition's start and end are the same tick).
    fn fold<'a>(
        &mut self,
        runs: impl Iterator<Item = (ObjectId, TimeInterval)>,
        points_of: impl Fn(ObjectId) -> Option<&'a [TrajPoint]>,
        window: TimeInterval,
    ) {
        let next = self
            .last_tick
            .map_or(Some(window.start), |last| last.checked_add(1));
        let Some(start) = next.map(|next| next.max(window.start)) else {
            return;
        };
        if start > window.end {
            return;
        }
        let window = TimeInterval::new(start, window.end);
        let runs = runs.filter_map(|(id, run)| points_of(id).map(|points| (id, points, run)));
        let policy = SnapshotPolicy::Interpolate;
        for snapshot in SnapshotSweep::over_runs(runs, window, policy, self.horizon) {
            self.ingest(&snapshot);
        }
    }

    fn ingest(&mut self, snapshot: &Snapshot) {
        self.last_tick = Some(snapshot.time);
        if let Some(horizon) = self.horizon {
            self.evicted += self.state.evict_longer_than(horizon) as u64;
        }
        self.snapshot_points += snapshot.len() as u64;
        self.state.ingest_snapshot(snapshot);
        if let Some(max) = self.max_candidates {
            self.evicted += self.state.evict_to_capacity(max) as u64;
        }
    }

    /// Folds one λ-partition: the shared boundary tick with the previous
    /// partition (coverage = union of both partitions' clusters), then the
    /// partition's interior ticks. The partition's own end tick is held back
    /// until the next partition — or [`RefineFold::finish`] — supplies the
    /// other half of its coverage. `points_of` returns an object's samples
    /// (`None` skips the object).
    ///
    /// Partitions must arrive in window order, consecutive windows sharing
    /// their boundary tick.
    pub fn push_partition<'a>(
        &mut self,
        partition: &PartitionClusters,
        points_of: impl Fn(ObjectId) -> Option<&'a [TrajPoint]>,
    ) {
        let window = partition.window;
        let mut coverage: Vec<ObjectId> =
            partition.clusters.iter().flat_map(|c| c.iter()).collect();
        coverage.sort_unstable();
        coverage.dedup();
        let mut boundary_only = Vec::new();
        if let Some((prev_window, prev_coverage)) = self.prev.take() {
            // A hard assert: a gap between windows would silently fold the
            // wrong coverage at later ticks.
            assert_eq!(
                prev_window.end, window.start,
                "partitions must share their boundary tick"
            );
            boundary_only = prev_coverage;
            boundary_only.retain(|id| coverage.binary_search(id).is_err());
        }
        // An instant partition's one tick is its boundary tick.
        let last_interior = window.end.saturating_sub(1).max(window.start);
        let interior = TimeInterval::new(window.start, last_interior);
        let boundary = TimeInterval::instant(window.start);
        let runs = (coverage.iter().map(|&id| (id, interior)))
            .chain(boundary_only.into_iter().map(|id| (id, boundary)));
        self.fold(runs, points_of, interior);
        self.prev = Some((window, coverage));
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

    /// Ends the fold: ingests the final partition's end tick, closes every
    /// open chain, and returns the convoys not yet drained, the fold's
    /// lifetime counters and the work not yet taken.
    pub fn finish<'a>(
        mut self,
        points_of: impl Fn(ObjectId) -> Option<&'a [TrajPoint]>,
    ) -> (Vec<Convoy>, CmcStats, FoldWork) {
        if let Some((window, coverage)) = self.prev.take() {
            let end = TimeInterval::instant(window.end);
            self.fold(coverage.into_iter().map(|id| (id, end)), points_of, end);
        }
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
        let mut fold = RefineFold::new(&ConvoyQuery::new(2, 1, 1.0), None, None);
        fold.push_partition(&partition, points_of);
        let (convoys, stats, work) = fold.finish(points_of);
        assert_eq!(stats.ticks_ingested, 1);
        assert_eq!(work.refine_snapshot_points, 2);
        assert_eq!(convoys.len(), 1);
        assert_eq!(convoys[0].interval(), TimeInterval::instant(5));
    }
}
