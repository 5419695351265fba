//! Instrumentation: candidate statistics, the *refinement unit* cost model
//! used by the paper's Figures 16 and 17, a fold's work counts, and the
//! registry views of them. Stage timings are the `discover.*` spans
//! themselves.

use crate::candidate::CandidateConvoy;
use crate::discovery::DiscoveryOutcome;
use crate::engine::CmcStats;
use convoy_obs::Registry;
use traj_cluster::ClusterCounts;

/// Summary statistics of one discovery run, consumed by the benchmark
/// harness.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DiscoveryStats {
    /// Number of candidate convoys the filter produced (0 for CMC).
    pub num_candidates: usize,
    /// The refinement-unit cost of those candidates (0 for CMC).
    pub refinement_units: f64,
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
}

/// The work a [`crate::engine::CmcState`] fold did in this process: the
/// counts of the clusterers that fed it, plus its own overlap-index lookups
/// and extensions. These are session counts, kept out of [`CmcStats`] and
/// out of checkpoints; see [`crate::engine::CmcState::take_work`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FoldWork {
    /// The snapshot clusterers' counts (every parallel worker's summed).
    pub cluster: ClusterCounts,
    /// Candidate members looked up in the per-tick object → cluster index.
    pub overlap_lookups: u64,
    /// Candidate × cluster pairs that kept at least `m` objects.
    pub extensions: u64,
}

impl FoldWork {
    /// Every count under its registry name. The batch path stores these
    /// ([`publish_discovery`]) and the stream adds them as it drains them,
    /// so this is the one place the names are written.
    pub fn counters(&self) -> [(&'static str, u64); 9] {
        let c = &self.cluster;
        [
            ("cluster.calls", c.calls),
            ("cluster.points", c.points),
            ("cluster.clusters_found", c.clusters_found),
            ("cluster.kernel_batches", c.kernel_batches),
            ("cluster.kernel_lanes", c.kernel_lanes),
            ("cluster.region_queries", c.region_queries),
            ("prune.region_queries_skipped", c.region_queries_skipped),
            ("cmc.overlap_lookups", self.overlap_lookups),
            ("cmc.extensions", self.extensions),
        ]
    }
}

/// The *refinement unit* of a set of candidates (Section 7.3): for each
/// candidate, the clustering cost of its objects — counted as `|objects|²`,
/// i.e. clustering without index support, exactly as the paper chooses —
/// multiplied by the candidate's lifetime, summed over all candidates.
///
/// The paper's example: a candidate with 3 objects and lifetime 2 contributes
/// `3² × 2 = 18` units.
pub fn refinement_unit(candidates: &[CandidateConvoy]) -> f64 {
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
/// counters and work, candidate counts, parameters) under the `cmc.*` /
/// `cluster.*` / `prune.*` / `discover.*` names, with store semantics.
/// Wall-clock timings are deliberately not included — publish those
/// separately with [`publish_stage_timings`] into recorders whose output may
/// vary run to run (the metrics-JSON/trace export), never into the registry
/// that renders `--stats` (whose text must be byte-stable for equivalence
/// checks).
pub fn publish_discovery(registry: &Registry, outcome: &DiscoveryOutcome) {
    publish_fold_stats(registry, &outcome.stats.fold);
    for (name, value) in outcome.stats.work.counters() {
        registry.counter_store(name, value);
    }
    registry.counter_store("discover.candidates", outcome.stats.num_candidates as u64);
    registry.counter_store("discover.convoys", outcome.stats.num_convoys as u64);
    // The paper's Fig. 17 cost model is a f64; whole units are enough for
    // the counter view (saturating `as` keeps absurd models finite).
    registry.counter_store(
        "discover.refinement_units",
        outcome.stats.refinement_units as u64,
    );
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
mod tests {
    use super::*;
    use traj_cluster::Cluster;
    use trajectory::ObjectId;

    fn candidate(ids: &[u64], start: i64, end: i64) -> CandidateConvoy {
        CandidateConvoy::new(
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
