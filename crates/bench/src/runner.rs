//! One measured discovery run, timed by the spans it records.

use crate::prepare::PreparedDataset;
use convoy_core::{CutsConfig, Discovery, DiscoveryOutcome, Method};
use convoy_obs::{Obs, Registry};
use std::sync::Arc;

/// One discovery run together with the registry that recorded its spans.
pub struct MeasuredRun {
    /// The discovery outcome (convoys, statistics).
    pub outcome: DiscoveryOutcome,
    registry: Arc<Registry>,
}

impl MeasuredRun {
    /// Seconds spent in the spans named `span`: `discover.simplify`,
    /// `discover.filter` or `discover.refine` for the Figure 13 stages.
    pub fn seconds(&self, span: &str) -> f64 {
        self.registry.span_total_ns(span) as f64 / 1e9
    }

    /// Elapsed seconds of the whole run: its `discover` root span.
    pub fn elapsed_secs(&self) -> f64 {
        self.seconds("discover")
    }
}

/// Runs one method on a prepared dataset with an optional CuTS configuration
/// override, timed by a fresh registry behind [`Obs::spans_only`]. That
/// handle keeps only the spans and reports itself disabled, so the engines
/// skip their per-tick clock reads and metrics just as when off. The timing
/// columns thus cost a handful of spans per run, the same for every method,
/// rather than full recording, whose cost differs by method (a full registry
/// inflated CMC's sub-second runs up to 3×).
pub fn run_method(
    prepared: &PreparedDataset,
    method: Method,
    config: Option<CutsConfig>,
) -> MeasuredRun {
    let registry = Arc::new(Registry::new());
    let mut discovery = Discovery::new(method).with_obs(Obs::spans_only(registry.clone()));
    if let Some(config) = config {
        discovery = discovery.with_config(config);
    }
    let outcome = discovery.run(&prepared.dataset.database, &prepared.query);
    MeasuredRun { outcome, registry }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare::prepared;
    use convoy_core::query::result_sets_equivalent;
    use traj_datasets::ProfileName;

    #[test]
    fn all_methods_produce_equivalent_results_on_a_profile() {
        let data = prepared(ProfileName::Truck, 0.02);
        let reference = run_method(&data, Method::Cmc, None);
        for method in [Method::Cuts, Method::CutsPlus, Method::CutsStar] {
            let run = run_method(&data, method, None);
            assert!(
                result_sets_equivalent(&run.outcome.convoys, &reference.outcome.convoys),
                "{method} and CMC disagree on {:?}",
                data.name
            );
        }
    }

    #[test]
    fn stage_times_come_from_the_run_spans() {
        let data = prepared(ProfileName::Taxi, 0.02);
        let cmc = run_method(&data, Method::Cmc, None);
        assert!(cmc.elapsed_secs() > 0.0);
        assert!(cmc.seconds("discover.filter") <= cmc.elapsed_secs());
        assert_eq!(cmc.seconds("discover.simplify"), 0.0, "CMC is all filter");

        let run = run_method(&data, Method::CutsStar, None);
        let stages: f64 = ["discover.simplify", "discover.filter", "discover.refine"]
            .iter()
            .map(|s| run.seconds(s))
            .sum();
        assert!(run.seconds("discover.simplify") > 0.0);
        assert!(stages <= run.elapsed_secs() + 1e-9);

        for measured in [&cmc, &run] {
            let metrics = measured.registry.snapshot();
            let names = metrics
                .counters
                .keys()
                .chain(metrics.gauges.keys())
                .chain(metrics.histograms.keys());
            for name in names {
                assert!(
                    !name.starts_with("cmc.") && !name.starts_with("cluster."),
                    "a spans-only run recorded the metric {name}"
                );
            }
            assert!(measured.registry.span_total_ns("discover") > 0);
        }
        assert!(run.registry.span_total_ns("discover.filter") > 0);
        assert!(run.registry.span_total_ns("discover.refine") > 0);
    }
}
