//! The discovery façade: one entry point that runs either CMC or a CuTS
//! variant, opens one span per stage on its recorder, and returns a
//! normalised result set together with the statistics the benchmark harness
//! consumes.

use crate::cuts::filter::{filter_simplified_with_work, simplify_database};
use crate::cuts::refine::refine;
use crate::cuts::{CutsConfig, CutsVariant};
use crate::engine::CmcEngine;
use crate::metrics::DiscoveryStats;
use crate::params::auto_delta;
use crate::query::{normalize_convoys, Convoy, ConvoyQuery};
use convoy_obs::{Obs, SpanId};
use trajectory::{TimeInterval, TrajectoryDatabase, TrajectorySource};

/// Which discovery algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// The CMC baseline (Algorithm 1).
    Cmc,
    /// CuTS: DP simplification with `DLL` bounds.
    Cuts,
    /// CuTS+: DP+ simplification with `DLL` bounds.
    CutsPlus,
    /// CuTS*: DP* simplification with `D*` bounds.
    CutsStar,
}

impl Method {
    /// All methods in the order the paper's figures list them.
    pub const ALL: [Method; 4] = [
        Method::Cmc,
        Method::Cuts,
        Method::CutsPlus,
        Method::CutsStar,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Cmc => "CMC",
            Method::Cuts => "CuTS",
            Method::CutsPlus => "CuTS+",
            Method::CutsStar => "CuTS*",
        }
    }

    /// The CuTS variant corresponding to this method, when it is one.
    pub fn cuts_variant(&self) -> Option<CutsVariant> {
        match self {
            Method::Cmc => None,
            Method::Cuts => Some(CutsVariant::Cuts),
            Method::CutsPlus => Some(CutsVariant::CutsPlus),
            Method::CutsStar => Some(CutsVariant::CutsStar),
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The result of one discovery run.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveryOutcome {
    /// The method that produced the result.
    pub method: Method,
    /// The normalised convoy result set.
    pub convoys: Vec<Convoy>,
    /// Parameter and work statistics.
    pub stats: DiscoveryStats,
}

/// A configured convoy-discovery run.
#[derive(Debug, Clone)]
pub struct Discovery {
    method: Method,
    config: CutsConfig,
    cmc_engine: CmcEngine,
    obs: Obs,
}

impl Discovery {
    /// Creates a discovery run for `method` with automatic parameter
    /// selection. CMC and the CuTS refinement run on the swept streaming
    /// engine by default.
    pub fn new(method: Method) -> Self {
        let variant = method.cuts_variant().unwrap_or(CutsVariant::Cuts);
        Discovery {
            method,
            config: CutsConfig::new(variant),
            cmc_engine: CmcEngine::default(),
            obs: Obs::noop(),
        }
    }

    /// Attaches a metrics recorder: the run emits a `discover` root span
    /// with one child span per stage — `discover.simplify` (δ selection and
    /// simplification) / `discover.filter` / `discover.refine` for the CuTS
    /// family, the refine span holding the engine's span tree; a single
    /// `discover.filter` holding it for CMC, which has no simplify or refine
    /// stage — plus the per-tick histograms of whatever fold executes.
    /// Counts are returned in [`DiscoveryStats`] instead, recorder or not.
    /// These spans are the run's only clock: read stage times with
    /// [`convoy_obs::Registry::span_total_ns`]. The default is the no-op
    /// recorder.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Overrides the CuTS configuration (ignored for CMC).
    #[must_use]
    pub fn with_config(mut self, config: CutsConfig) -> Self {
        self.config = CutsConfig {
            variant: self.method.cuts_variant().unwrap_or(config.variant),
            ..config
        };
        self
    }

    /// Selects the CMC execution engine (swept streaming or time-partitioned
    /// parallel). It runs CMC for [`Method::Cmc`] and the refinement for the
    /// CuTS methods, which is CMC over the filter's covered sweep (see
    /// [`crate::cuts::refine`]); the outcome is the same on every engine.
    #[must_use]
    pub fn with_cmc_engine(mut self, engine: CmcEngine) -> Self {
        self.cmc_engine = engine;
        self
    }

    /// The CuTS configuration this run uses.
    pub fn config(&self) -> &CutsConfig {
        &self.config
    }

    /// Loads a database from any [`TrajectorySource`] backend and executes
    /// the discovery on it. The result is byte-identical across backends:
    /// a source's only job is to materialise the same database the CSV
    /// reader would.
    pub fn run_source(
        &self,
        source: &mut dyn TrajectorySource,
        query: &ConvoyQuery,
    ) -> trajectory::Result<DiscoveryOutcome> {
        Ok(self.run(&source.load()?, query))
    }

    /// Like [`Discovery::run_source`], but restricted to the samples inside
    /// `window` — block-indexed backends read only the touched blocks. The
    /// windowed contract is sample-selecting (see
    /// [`TrajectorySource::load_window`]), so the outcome equals running on
    /// `load()?.restrict(window)` regardless of backend.
    pub fn run_source_window(
        &self,
        source: &mut dyn TrajectorySource,
        query: &ConvoyQuery,
        window: TimeInterval,
    ) -> trajectory::Result<DiscoveryOutcome> {
        Ok(self.run(&source.load_window(window)?, query))
    }

    /// Executes the discovery and returns the normalised result set together
    /// with its statistics; stage times go to the recorder as spans.
    pub fn run(&self, db: &TrajectoryDatabase, query: &ConvoyQuery) -> DiscoveryOutcome {
        let root = self.obs.span_start("discover", SpanId::NONE);
        let outcome = self.run_under(db, query, root);
        self.obs.span_end(root);
        outcome
    }

    fn run_under(
        &self,
        db: &TrajectoryDatabase,
        query: &ConvoyQuery,
        root: SpanId,
    ) -> DiscoveryOutcome {
        match self.method {
            Method::Cmc => {
                // CMC is all filter: it has no simplify or refine stage.
                let filter_span = self.obs.span_start("discover.filter", root);
                let (raw, fold, work) = match db.time_domain() {
                    Some(window) => self.cmc_engine.run_windowed_with_stats_obs(
                        db,
                        query,
                        window,
                        &self.obs,
                        filter_span,
                    ),
                    None => Default::default(),
                };
                self.obs.span_end(filter_span);
                let convoys = normalize_convoys(raw, query);
                DiscoveryOutcome {
                    method: self.method,
                    stats: DiscoveryStats {
                        num_convoys: convoys.len(),
                        fold,
                        work,
                        ..DiscoveryStats::default()
                    },
                    convoys,
                }
            }
            Method::Cuts | Method::CutsPlus | Method::CutsStar => {
                // Stage 1: simplification, including the δ selection (itself
                // a DP pass over a sample of the trajectories).
                let simplify_span = self.obs.span_start("discover.simplify", root);
                let delta = self.config.delta.unwrap_or_else(|| auto_delta(db, query.e));
                let simplified = simplify_database(db, &self.config, delta);
                self.obs.span_end(simplify_span);

                // Stage 2: filter (partitioned clustering of simplified
                // sub-trajectories).
                let filter_span = self.obs.span_start("discover.filter", root);
                let (output, filter) =
                    filter_simplified_with_work(&simplified, db, query, &self.config, delta);
                self.obs.span_end(filter_span);

                // Stage 3: refinement — this run's CMC engine over the
                // partition clusters' covered sweep (see `cuts::refine` for
                // the exactness argument).
                let refine_span = self.obs.span_start("discover.refine", root);
                let (raw, fold, work) = refine(
                    self.cmc_engine,
                    db,
                    query,
                    &output.partitions,
                    &self.obs,
                    refine_span,
                );
                self.obs.span_end(refine_span);

                let convoys = normalize_convoys(raw, query);
                DiscoveryOutcome {
                    method: self.method,
                    stats: DiscoveryStats {
                        num_convoys: convoys.len(),
                        delta: output.delta,
                        lambda: output.lambda,
                        reduction_percent: output.reduction_percent(),
                        fold,
                        work,
                        filter,
                    },
                    convoys,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::result_sets_equivalent;
    use trajectory::{ObjectId, Trajectory};

    /// Two convoys of different shapes plus background noise objects.
    fn scenario_db() -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new();
        let mut next_id = 0u64;
        // Convoy A: 3 objects drifting north-east for the whole domain.
        for lane in 0..3 {
            let traj = Trajectory::from_tuples((0..40).map(|t| {
                (
                    t as f64 + (lane as f64) * 0.3,
                    t as f64 * 0.5 + lane as f64 * 0.4,
                    t,
                )
            }))
            .unwrap();
            db.insert(ObjectId(next_id), traj);
            next_id += 1;
        }
        // Convoy B: 4 objects circling a roundabout only during [10, 30].
        for lane in 0..4 {
            let traj = Trajectory::from_tuples((0..40).map(|t| {
                if (10..=30).contains(&t) {
                    let angle = t as f64 * 0.2;
                    (
                        200.0 + angle.cos() * 3.0 + lane as f64 * 0.3,
                        200.0 + angle.sin() * 3.0,
                        t,
                    )
                } else {
                    // Scattered before and after.
                    (
                        200.0 + lane as f64 * 50.0 + t as f64,
                        400.0 + lane as f64 * 30.0,
                        t,
                    )
                }
            }))
            .unwrap();
            db.insert(ObjectId(next_id), traj);
            next_id += 1;
        }
        // Noise: 5 independent wanderers.
        for w in 0..5i64 {
            let traj = Trajectory::from_tuples((0..40).map(|t| {
                (
                    -300.0 - (w as f64) * 40.0 + (t as f64) * ((w % 3) as f64 - 1.0),
                    -300.0 + (w as f64) * 35.0 + t as f64,
                    t,
                )
            }))
            .unwrap();
            db.insert(ObjectId(next_id + w as u64), traj);
        }
        db
    }

    #[test]
    fn all_methods_agree_on_the_result_set() {
        let db = scenario_db();
        let query = ConvoyQuery::new(3, 10, 2.0);
        let reference = Discovery::new(Method::Cmc).run(&db, &query);
        assert!(
            !reference.convoys.is_empty(),
            "the scenario must contain at least one convoy"
        );
        for method in [Method::Cuts, Method::CutsPlus, Method::CutsStar] {
            let outcome = Discovery::new(method).run(&db, &query);
            assert!(
                result_sets_equivalent(&outcome.convoys, &reference.convoys),
                "{method} disagreed with CMC:\n  {:?}\nvs reference\n  {:?}",
                outcome.convoys,
                reference.convoys
            );
        }
    }

    #[test]
    fn cmc_engines_agree_through_the_facade() {
        let db = scenario_db();
        let query = ConvoyQuery::new(3, 10, 2.0);
        let reference = Discovery::new(Method::Cmc)
            .with_cmc_engine(CmcEngine::Swept)
            .run(&db, &query);
        assert!(!reference.convoys.is_empty());
        for engine in [
            CmcEngine::Parallel { threads: 2 },
            CmcEngine::Parallel { threads: 5 },
        ] {
            let outcome = Discovery::new(Method::Cmc)
                .with_cmc_engine(engine)
                .run(&db, &query);
            assert_eq!(
                outcome.convoys,
                reference.convoys,
                "{} engine disagreed with swept",
                engine.name()
            );
        }
        assert_eq!(
            Discovery::new(Method::Cmc).cmc_engine,
            CmcEngine::Swept,
            "streaming sweep is the default engine"
        );
    }

    #[test]
    fn cuts_outcome_reports_stage_statistics() {
        let db = scenario_db();
        let query = ConvoyQuery::new(3, 10, 2.0);
        let outcome = Discovery::new(Method::CutsStar).run(&db, &query);
        assert!(outcome.stats.work.refine_snapshot_points > 0);
        assert!(outcome.stats.filter.candidate_pairs > 0);
        assert!(outcome.stats.delta > 0.0);
        assert!(outcome.stats.lambda >= 2);
        assert_eq!(outcome.stats.num_convoys, outcome.convoys.len());
    }

    #[test]
    fn cmc_outcome_has_no_filter_statistics() {
        let db = scenario_db();
        let query = ConvoyQuery::new(3, 10, 2.0);
        let outcome = Discovery::new(Method::Cmc).run(&db, &query);
        assert_eq!(outcome.stats.work.refine_snapshot_points, 0);
        assert_eq!(outcome.stats.filter, crate::FilterWork::default());
    }

    #[test]
    fn discovery_emits_its_documented_span_tree() {
        use convoy_obs::Registry;
        use std::sync::Arc;

        let db = scenario_db();
        let query = ConvoyQuery::new(3, 10, 2.0);
        let stages: &[&str] = &["discover.simplify", "discover.filter", "discover.refine"];
        for (method, children) in [
            (Method::Cmc, &["discover.filter"][..]),
            (Method::CutsStar, stages),
        ] {
            let registry = Arc::new(Registry::new());
            let recorded = Discovery::new(method)
                .with_obs(Obs::registry(registry.clone()))
                .run(&db, &query);
            let unrecorded = Discovery::new(method).run(&db, &query);
            assert_eq!(recorded.convoys, unrecorded.convoys, "{method}");
            assert_eq!(recorded.stats, unrecorded.stats, "{method}");
            assert!(!recorded.convoys.is_empty(), "{method}");

            let spans = registry.spans();
            assert!(spans.iter().all(|s| s.closed), "{method}");
            let roots: Vec<_> = spans.iter().filter(|s| s.parent == 0).collect();
            assert_eq!(roots.len(), 1, "{method}");
            assert_eq!(roots[0].name, "discover");
            let stage_spans: Vec<_> = spans.iter().filter(|s| s.parent == roots[0].id).collect();
            let names: Vec<&str> = stage_spans.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(names, children, "{method}");
            let stage_total: u64 = stage_spans.iter().map(|s| s.dur_ns).sum();
            assert!(
                stage_total <= roots[0].dur_ns,
                "{method}: stages outlast the run"
            );
            assert_eq!(
                registry.span_total_ns("discover"),
                roots[0].dur_ns,
                "{method}"
            );
        }
    }

    #[test]
    fn refine_snapshot_points_count_the_covered_object_ticks() {
        use crate::cuts::filter::filter;
        use convoy_obs::Registry;
        use std::collections::BTreeSet;

        // Convoy B's objects (ids 3–6) join late and leave early, so some
        // partitions cover them at ticks their trajectories do not reach.
        let mut db = scenario_db();
        for id in (3..7).map(ObjectId) {
            let clipped = db
                .get(id)
                .unwrap()
                .slice(TimeInterval::new(11, 33))
                .unwrap();
            db.insert(id, clipped);
        }
        let query = ConvoyQuery::new(3, 10, 2.0);
        let outcome = Discovery::new(Method::CutsStar).run(&db, &query);
        let registry = Registry::new();
        crate::metrics::publish_discovery(&registry, &outcome);

        // Recompute: each tick of the filtered domain is folded once, with
        // the union of the clusters of every partition containing it, and
        // contributes the covered objects whose trajectory covers the tick.
        let output = filter(&db, &query, &CutsConfig::new(CutsVariant::CutsStar));
        let (first, last) = (&output.partitions[0], output.partitions.last().unwrap());
        let (mut covered, mut expected) = (0, 0);
        for t in first.window.start..=last.window.end {
            let coverage: BTreeSet<_> = output
                .partitions
                .iter()
                .filter(|p| p.window.contains(t))
                .flat_map(|p| p.clusters.iter().flat_map(|c| c.members().iter().copied()))
                .collect();
            covered += coverage.len();
            expected += coverage
                .into_iter()
                .filter(|&id| db.get(id).is_some_and(|traj| traj.covers(t)))
                .count();
        }
        // Some covered objects are absent at some ticks, so the counter must
        // count snapshot entries, not coverage.
        assert!(
            0 < expected && expected < covered,
            "{expected} vs {covered}"
        );
        assert_eq!(
            registry.counter("cuts.refine.snapshot_points"),
            expected as u64
        );
    }

    #[test]
    fn method_metadata() {
        assert_eq!(Method::Cmc.name(), "CMC");
        assert_eq!(Method::CutsStar.to_string(), "CuTS*");
        assert_eq!(Method::Cmc.cuts_variant(), None);
        assert_eq!(Method::CutsPlus.cuts_variant(), Some(CutsVariant::CutsPlus));
        assert_eq!(Method::ALL.len(), 4);
    }

    #[test]
    fn with_config_keeps_the_method_variant() {
        let discovery = Discovery::new(Method::CutsStar)
            .with_config(CutsConfig::new(CutsVariant::Cuts).with_delta(1.0));
        assert_eq!(discovery.config().variant, CutsVariant::CutsStar);
        assert_eq!(discovery.config().delta, Some(1.0));
        assert_eq!(discovery.method, Method::CutsStar);
    }
}
