//! Instrumentation: a discovery run's statistics, a fold's and the CuTS
//! filter's work counts, and the registry views of them. Stage timings are
//! the `discover.*` spans themselves.

use crate::discovery::DiscoveryOutcome;
use crate::engine::CmcStats;
use crate::query::Convoy;
use convoy_obs::Registry;
use traj_cluster::{ClusterCounts, SubTrajectoryIndex};

/// Summary statistics of one discovery run, consumed by the benchmark
/// harness.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DiscoveryStats {
    /// Number of convoys reported after normalisation.
    pub num_convoys: usize,
    /// The simplification tolerance δ used (0 for CMC).
    pub delta: f64,
    /// The time-partition length λ used (0 for CMC).
    pub lambda: usize,
    /// Vertex reduction of the simplification step in percent (0 for CMC).
    pub reduction_percent: f64,
    /// Counters of the [`crate::engine::CmcState`] fold that produced the
    /// result: the whole run for CMC, the coverage-restricted refinement
    /// fold for the CuTS family.
    pub fold: CmcStats,
    /// The work of that fold and of every clusterer that fed it.
    pub work: FoldWork,
    /// The work of the CuTS filter's region queries (zero for CMC).
    pub filter: FilterWork,
}

/// The work a [`crate::engine::CmcState`] fold did in this process: the
/// counts of the clusterers that fed it, its own overlap-index lookups and
/// extensions, and — for a CuTS refinement fold — the entries of the
/// coverage snapshots it folded. These are session counts, kept out of
/// [`CmcStats`] and out of checkpoints; see
/// [`crate::engine::CmcState::take_work`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FoldWork {
    /// The snapshot clusterers' counts (every parallel worker's summed).
    pub cluster: ClusterCounts,
    /// Candidate members looked up in the per-tick object → cluster index.
    pub overlap_lookups: u64,
    /// Candidate × cluster pairs that kept at least `m` objects.
    pub extensions: u64,
    /// Entries of the coverage snapshots a CuTS refinement folded (covered
    /// object-ticks); 0 for a plain CMC fold.
    pub refine_snapshot_points: u64,
}

impl FoldWork {
    /// Every count under its registry name. The batch path stores these
    /// ([`publish_discovery`]) and the stream adds them as it drains them,
    /// so this is the one place the names are written.
    pub fn counters(&self) -> [(&'static str, u64); 11] {
        let c = &self.cluster;
        [
            ("cluster.calls", c.calls),
            ("cluster.points", c.points),
            ("cluster.clusters_found", c.clusters_found),
            ("cluster.kernel_batches", c.kernel_batches),
            ("cluster.kernel_lanes", c.kernel_lanes),
            ("cluster.region_queries", c.region_queries),
            ("prune.region_queries_skipped", c.region_queries_skipped),
            ("prune.points_dropped", c.points_dropped),
            ("cmc.overlap_lookups", self.overlap_lookups),
            ("cmc.extensions", self.extensions),
            ("cuts.refine.snapshot_points", self.refine_snapshot_points),
        ]
    }
}

/// The work of the CuTS filter's TRAJ-DBSCAN region queries: the counts a
/// [`SubTrajectoryIndex`] keeps while it builds one λ-partition's
/// neighbourhoods, summed over the partitions a batch filter clustered.
/// Session counts like [`FoldWork`], published once through
/// [`FilterWork::counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterWork {
    /// Unordered sub-trajectory pairs whose probe boxes overlap.
    pub candidate_pairs: u64,
    /// Of those, the pairs whose intervals meet and whose bounding boxes
    /// pass Lemma 2 in at least one direction: the pairs whose ω is tested.
    pub lemma2_pass: u64,
    /// Segment-pair distances (`DLL` or `D*`) the ω tests computed.
    pub distance_evals: u64,
    /// Neighbour relations found, each item's own entry excluded (a mutual
    /// pair counts twice).
    pub neighbours: u64,
}

impl FilterWork {
    /// Every count under its registry name, as [`FoldWork::counters`].
    pub fn counters(&self) -> [(&'static str, u64); 4] {
        [
            ("cuts.filter.candidate_pairs", self.candidate_pairs),
            ("cuts.filter.lemma2_pass", self.lemma2_pass),
            ("cuts.filter.distance_evals", self.distance_evals),
            ("cuts.filter.neighbours", self.neighbours),
        ]
    }
}

impl From<&SubTrajectoryIndex> for FilterWork {
    fn from(index: &SubTrajectoryIndex) -> Self {
        FilterWork {
            candidate_pairs: index.candidate_pairs,
            lemma2_pass: index.lemma2_pass,
            distance_evals: index.distance_evals,
            neighbours: index.neighbours,
        }
    }
}

impl std::ops::AddAssign for FilterWork {
    fn add_assign(&mut self, other: FilterWork) {
        self.candidate_pairs += other.candidate_pairs;
        self.lemma2_pass += other.lemma2_pass;
        self.distance_evals += other.distance_evals;
        self.neighbours += other.neighbours;
    }
}

/// The *refinement unit* of a set of candidates (Section 7.3): for each
/// candidate, the clustering cost of its objects — counted as `|objects|²`,
/// i.e. clustering without index support, exactly as the paper chooses —
/// multiplied by the candidate's lifetime, summed over all candidates.
///
/// The paper's example: a candidate with 3 objects and lifetime 2 contributes
/// `3² × 2 = 18` units.
///
/// Nothing in the suite builds candidates any more: the refinement's real
/// work is [`FoldWork::refine_snapshot_points`].
#[deprecated(
    note = "the filter builds no candidates to cost; read `FoldWork::refine_snapshot_points`. \
            Removed by the benchmark migration, once the ledger stops calling it."
)]
pub fn refinement_unit(candidates: &[Convoy]) -> f64 {
    candidates
        .iter()
        .map(|c| {
            let n = c.objects.len() as f64;
            // lint: allow(checked-time-arithmetic) — f64 cost-model arithmetic, wrap-free
            n * n * c.lifetime() as f64
        })
        .sum()
}

/// Publishes a [`CmcStats`] into `registry` under the canonical `cmc.*`
/// names. Store semantics: the struct is the fold's whole lifetime (it
/// survives checkpoints), so each publish replaces the previous values.
pub fn publish_fold_stats(registry: &Registry, fold: &CmcStats) {
    registry.counter_store("cmc.ticks_ingested", fold.ticks_ingested);
    registry.counter_store("cmc.gap_closures", fold.gap_closures);
    registry.counter_store("cmc.convoys_closed", fold.convoys_closed);
    registry.gauge_set(
        "cmc.peak_candidates",
        i64::try_from(fold.peak_candidates).unwrap_or(i64::MAX),
    );
}

/// Publishes a [`DiscoveryOutcome`]'s *deterministic* statistics (fold
/// counters and work, the filter's work, the convoy count, λ) under
/// the `cmc.*` / `cluster.*` / `prune.*` / `cuts.*` / `discover.*` names,
/// with store semantics.
/// Wall-clock timings are deliberately not included — publish those
/// separately with [`publish_stage_timings`] into recorders whose output may
/// vary run to run (the metrics-JSON/trace export), never into the registry
/// that renders `--stats` (whose text must be byte-stable for equivalence
/// checks).
pub fn publish_discovery(registry: &Registry, outcome: &DiscoveryOutcome) {
    publish_fold_stats(registry, &outcome.stats.fold);
    let work = outcome.stats.work.counters();
    for (name, value) in work.into_iter().chain(outcome.stats.filter.counters()) {
        registry.counter_store(name, value);
    }
    registry.counter_store("discover.convoys", outcome.stats.num_convoys as u64);
    registry.counter_store("discover.lambda", outcome.stats.lambda as u64);
}

/// Publishes the wall-clock stage timings (Figure 13) as `discover.*_ns`
/// counters, each the total of the matching span [`crate::Discovery`]
/// recorded into `registry`: `discover.simplify` / `discover.filter` /
/// `discover.refine`, and the `discover` root for the total. Non-deterministic
/// by nature; see [`publish_discovery`] for why this is a separate call.
pub fn publish_stage_timings(registry: &Registry) {
    for (counter, span) in [
        ("discover.simplify_ns", "discover.simplify"),
        ("discover.filter_ns", "discover.filter"),
        ("discover.refine_ns", "discover.refine"),
        ("discover.total_ns", "discover"),
    ] {
        registry.counter_store(counter, registry.span_total_ns(span));
    }
}

#[cfg(test)]
#[allow(deprecated)] // `refinement_unit` stays until the benchmark migration
mod tests {
    use super::*;
    use traj_cluster::Cluster;
    use trajectory::ObjectId;

    fn candidate(ids: &[u64], start: i64, end: i64) -> Convoy {
        Convoy::new(
            Cluster::new(ids.iter().map(|i| ObjectId(*i)).collect()),
            start,
            end,
        )
    }

    #[test]
    fn refinement_unit_matches_paper_example() {
        // 3 objects, lifetime 2 → 18 units.
        let c = candidate(&[1, 2, 3], 0, 1);
        assert_eq!(refinement_unit(&[c]), 18.0);
    }

    #[test]
    fn refinement_unit_sums_over_candidates() {
        let a = candidate(&[1, 2], 0, 4); // 4 × 5 = 20
        let b = candidate(&[1, 2, 3, 4], 0, 0); // 16 × 1 = 16
        assert_eq!(refinement_unit(&[a, b]), 36.0);
        assert_eq!(refinement_unit(&[]), 0.0);
    }
}
