//! One measured discovery run, timed by the spans it records.

use crate::prepare::PreparedDataset;
use convoy_core::{CutsConfig, Discovery, DiscoveryOutcome, Method};
use convoy_obs::{Obs, Recorder, Registry, SpanId};
use std::sync::Arc;

/// One discovery run together with the clock that recorded its spans.
pub struct MeasuredRun {
    /// The discovery outcome (convoys, statistics).
    pub outcome: DiscoveryOutcome,
    clock: Arc<StageClock>,
}

impl MeasuredRun {
    /// Seconds spent in the spans named `span`: `discover.simplify`,
    /// `discover.filter` or `discover.refine` for the Figure 13 stages.
    pub fn seconds(&self, span: &str) -> f64 {
        self.clock.registry.span_total_ns(span) as f64 / 1e9
    }

    /// Elapsed seconds of the whole run: its `discover` root span.
    pub fn elapsed_secs(&self) -> f64 {
        self.seconds("discover")
    }
}

/// Runs one method on a prepared dataset with an optional CuTS configuration
/// override, timed by a fresh [`StageClock`].
pub fn run_method(
    prepared: &PreparedDataset,
    method: Method,
    config: Option<CutsConfig>,
) -> MeasuredRun {
    let clock = Arc::new(StageClock {
        registry: Registry::new(),
    });
    let mut discovery = Discovery::new(method).with_obs(Obs::new(clock.clone()));
    if let Some(config) = config {
        discovery = discovery.with_config(config);
    }
    let outcome = discovery.run(&prepared.dataset.database, &prepared.query);
    MeasuredRun { outcome, clock }
}

/// The recorder of a measured run: a [`Registry`] that keeps only the
/// `discover` spans and drops everything else. It reports itself disabled,
/// so the engines skip their per-tick clock reads and histograms just as
/// under the no-op recorder (spans are opened whatever `enabled` says). The
/// timing columns thus cost a handful of spans per run, the same for every
/// method, rather than full recording, whose cost differs by method.
struct StageClock {
    registry: Registry,
}

impl Recorder for StageClock {
    fn enabled(&self) -> bool {
        false
    }
    fn counter_add(&self, _name: &'static str, _delta: u64) {}
    fn gauge_set(&self, _name: &'static str, _value: i64) {}
    fn gauge_max(&self, _name: &'static str, _value: i64) {}
    fn histogram_record(&self, _name: &'static str, _value: u64) {}
    fn now_ns(&self) -> u64 {
        0
    }
    fn span_start(&self, name: &'static str, parent: SpanId) -> SpanId {
        if name.starts_with("discover") {
            self.registry.span_start(name, parent)
        } else {
            SpanId::NONE
        }
    }
    fn span_end(&self, span: SpanId) {
        self.registry.span_end(span);
    }
    fn span_at(&self, _name: &'static str, _parent: SpanId, _start: u64, _dur: u64) -> SpanId {
        SpanId::NONE
    }
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

        let kept = run.clock.registry.spans();
        assert!(
            kept.iter().all(|s| s.name.starts_with("discover")),
            "{kept:?}"
        );
    }
}
