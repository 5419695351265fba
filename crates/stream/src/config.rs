//! Configuration and observability types of the streaming pipeline.

use convoy_core::{CmcStats, ConvoyQuery, CutsVariant};
use convoy_obs::Registry;
use traj_simplify::ToleranceMode;
use trajectory::{TimePartition, TimePoint};

/// Windowed-eviction policy of a [`crate::ConvoyStream`].
///
/// Both knobs bound the stream's working set on an unbounded feed; both
/// default to unbounded, in which case replaying a finite database is
/// bit-identical to the batch pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvictionPolicy {
    /// Maximum age in ticks. Three effects, one knob:
    ///
    /// * a refinement chain that has lived `horizon` ticks is closed (and
    ///   reported, if it satisfies `k`) before the next tick would extend it,
    ///   so no reported convoy ever exceeds `horizon` ticks;
    /// * an object silent for more than `horizon` ticks is *severed*: its
    ///   later samples never interpolate across the silence, so no convoy
    ///   bridges a feed gap larger than the horizon;
    /// * a λ-partition stops waiting for a silent object once the watermark
    ///   is more than `horizon` ticks past the object's last sample, which
    ///   bounds the stream's result latency.
    ///
    /// `None` means unbounded: chains live forever, any sample gap is
    /// interpolated (the batch semantics), and a partition only closes when
    /// every known object has reported past it (or the stream finishes).
    pub horizon: Option<TimePoint>,
    /// Maximum number of simultaneously open refinement chains. When a tick
    /// pushes the working set past the bound, the oldest chains are closed
    /// mid-tick (and reported if they satisfy `k`). `None` means unbounded.
    pub max_candidates: Option<usize>,
}

impl EvictionPolicy {
    /// No eviction: the configuration under which a finite replay is
    /// bit-identical to batch CuTS.
    pub fn unbounded() -> Self {
        EvictionPolicy::default()
    }

    /// Sets the age horizon in ticks.
    #[must_use]
    pub fn with_horizon(mut self, horizon: TimePoint) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Sets the open-chain capacity.
    #[must_use]
    pub fn with_max_candidates(mut self, max_candidates: usize) -> Self {
        self.max_candidates = Some(max_candidates);
        self
    }
}

/// Configuration of a [`crate::ConvoyStream`].
///
/// Unlike the batch [`convoy_core::CutsConfig`], δ and λ are mandatory: the
/// automatic Section 7.4 guidelines need the whole database, which a live
/// feed does not have. [`crate::ReplayStream`] derives them the batch way
/// when replaying a finite database.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// The convoy query to answer.
    pub query: ConvoyQuery,
    /// The CuTS variant whose simplifier and segment distance the
    /// incremental filter uses.
    pub variant: CutsVariant,
    /// Simplification tolerance δ for the sliding-window DP.
    pub delta: f64,
    /// λ-partition length in time points (clamped to `2..=i64::MAX` by
    /// [`TimePartition::clamp_lambda`]).
    pub lambda: usize,
    /// Tolerance mode of the filter's range searches.
    pub tolerance_mode: ToleranceMode,
    /// The windowed-eviction policy.
    pub eviction: EvictionPolicy,
}

impl StreamConfig {
    /// Creates a CuTS-variant stream configuration with no eviction.
    pub fn new(query: ConvoyQuery, delta: f64, lambda: usize) -> Self {
        StreamConfig {
            query,
            variant: CutsVariant::Cuts,
            delta,
            lambda: TimePartition::clamp_lambda(lambda),
            tolerance_mode: ToleranceMode::Actual,
            eviction: EvictionPolicy::unbounded(),
        }
    }

    /// Selects the CuTS variant.
    #[must_use]
    pub fn with_variant(mut self, variant: CutsVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Selects the tolerance mode of the filter's range searches.
    #[must_use]
    pub fn with_tolerance_mode(mut self, mode: ToleranceMode) -> Self {
        self.tolerance_mode = mode;
        self
    }

    /// Sets the eviction policy.
    #[must_use]
    pub fn with_eviction(mut self, eviction: EvictionPolicy) -> Self {
        self.eviction = eviction;
        self
    }

    /// The partition step in ticks (consecutive partitions share a boundary
    /// point, so a λ-point partition advances by λ − 1).
    pub(crate) fn step(&self) -> i64 {
        TimePartition::clamp_lambda(self.lambda) as i64 - 1
    }
}

/// Lifetime counters of a [`crate::ConvoyStream`], built on the refinement
/// fold's [`CmcStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Counters of the refinement [`convoy_core::CmcState`] fold: peak open
    /// candidates, ticks ingested, gap closures, convoys closed. With an
    /// unbounded policy these agree bit-for-bit with the batch refinement
    /// fold's counters on a replay.
    pub fold: CmcStats,
    /// λ-partitions closed (clustered and folded) so far.
    pub partitions_closed: u64,
    /// Refinement chains force-closed by the eviction policy.
    pub candidates_evicted: u64,
    /// Samples currently buffered across all objects.
    pub samples_buffered: usize,
    /// Largest number of samples ever buffered at once.
    pub peak_samples_buffered: usize,
}

/// Publishes a [`StreamStats`] into `registry` under the canonical
/// `stream.*` (and nested `cmc.*`) names. Store semantics like
/// [`convoy_core::publish_fold_stats`]: the struct is the stream's whole
/// lifetime (it survives checkpoint/restore), so each publish replaces the
/// previous values.
pub fn publish_stream_stats(registry: &Registry, stats: &StreamStats) {
    convoy_core::publish_fold_stats(registry, &stats.fold);
    registry.counter_store("stream.partitions_closed", stats.partitions_closed);
    registry.counter_store("stream.candidates_evicted", stats.candidates_evicted);
    registry.gauge_set(
        "stream.samples_buffered",
        i64::try_from(stats.samples_buffered).unwrap_or(i64::MAX),
    );
    registry.gauge_set(
        "stream.peak_samples_buffered",
        i64::try_from(stats.peak_samples_buffered).unwrap_or(i64::MAX),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_policy_builders() {
        let policy = EvictionPolicy::unbounded();
        assert_eq!(policy.horizon, None);
        assert_eq!(policy.max_candidates, None);
        let policy = EvictionPolicy::unbounded()
            .with_horizon(50)
            .with_max_candidates(1000);
        assert_eq!(policy.horizon, Some(50));
        assert_eq!(policy.max_candidates, Some(1000));
    }

    #[test]
    fn config_clamps_lambda_and_chains_builders() {
        let query = ConvoyQuery::new(3, 5, 1.0);
        let config = StreamConfig::new(query, 0.5, 0)
            .with_variant(CutsVariant::CutsStar)
            .with_tolerance_mode(ToleranceMode::Global)
            .with_eviction(EvictionPolicy::unbounded().with_horizon(9));
        assert_eq!(config.lambda, 2);
        assert_eq!(config.step(), 1);
        assert_eq!(config.variant, CutsVariant::CutsStar);
        assert_eq!(config.tolerance_mode, ToleranceMode::Global);
        assert_eq!(config.eviction.horizon, Some(9));
        assert_eq!(StreamConfig::new(query, 0.5, 8).step(), 7);
        let longest = StreamConfig::new(query, 0.5, usize::MAX);
        assert_eq!(longest.lambda, i64::MAX as usize);
        assert_eq!(longest.step(), i64::MAX - 1);
    }

    #[test]
    fn stream_stats_publish_round_trips() {
        let stats = StreamStats {
            fold: CmcStats {
                peak_candidates: 7,
                ticks_ingested: 40,
                gap_closures: 2,
                convoys_closed: 3,
            },
            partitions_closed: 9,
            candidates_evicted: 1,
            samples_buffered: 80,
            peak_samples_buffered: 120,
        };
        let registry = Registry::new();
        // Publishing over earlier values replaces them.
        registry.counter_add("stream.partitions_closed", 1000);
        publish_stream_stats(&registry, &stats);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.gauge("cmc.peak_candidates"), 7);
        assert_eq!(snapshot.counter("cmc.ticks_ingested"), 40);
        assert_eq!(snapshot.counter("cmc.gap_closures"), 2);
        assert_eq!(snapshot.counter("cmc.convoys_closed"), 3);
        assert_eq!(snapshot.counter("stream.partitions_closed"), 9);
        assert_eq!(snapshot.counter("stream.candidates_evicted"), 1);
        assert_eq!(snapshot.gauge("stream.samples_buffered"), 80);
        assert_eq!(snapshot.gauge("stream.peak_samples_buffered"), 120);
    }
}
