//! `convoy-obs` — the suite's observability core: monotonic counters,
//! gauges, fixed-bucket log-scale histograms and hierarchical timed spans,
//! kept by one concrete [`Registry`] and reached through the [`Obs`] handle.
//!
//! The design constraints come straight from the hot paths this crate
//! instruments (`SnapshotClusterer::cluster_into`, `CmcState::ingest_clusters`):
//!
//! * **Counts are not recorded per event.** A count lives in a field of the
//!   struct that does the work and leaves it as one typed value, whose names
//!   one `publish_*` function writes (see the table below). Per event, hot
//!   paths record only clock values and per-tick histograms.
//! * **Zero-cost when off.** [`Obs`] is in one of three fixed states: off
//!   (the default), spans-only or full. Off allocates nothing and every call
//!   is one inlined match on the state; call sites batch their work behind
//!   one [`Obs::enabled`] check, so a disabled handle costs at most one
//!   branch per instrumented region. Spans-only records the coarse spans a
//!   stage clock needs and is disabled for everything else. This keeps the
//!   handle safe inside `// lint: hot-path` regions and preserves the
//!   zero-allocation contract (enforced by the counting-allocator tests).
//! * **Deterministic when on.** The concrete [`Registry`] keeps every metric
//!   in ordered maps keyed by `&'static str`, so snapshots, diffs and the
//!   JSON export are byte-deterministic for a given sequence of operations.
//!   Steady-state updates of an already-registered metric perform no heap
//!   allocation (only the *first* touch of a name allocates a map node),
//!   which is what lets a *live* registry ride inside the allocation-free
//!   clustering loop.
//! * **Offline.** No dependencies; the JSON snapshot writer, the Chrome
//!   `trace_event` span dump and the schema validator used by CI are all
//!   hand-rolled here (see [`export`] and [`json`]).
//!
//! # Metric map (paper figures)
//!
//! The canonical metric names published by the suite reproduce the paper's
//! experimental axes (Jeung et al., PVLDB 2008):
//!
//! | metric | kind | source | paper figure |
//! |---|---|---|---|
//! | `discover.simplify_ns` / `filter_ns` / `refine_ns` / `total_ns` | counter | the `discover.*` span totals ([`Registry::span_total_ns`]) | Fig. 13 — stage time breakdown |
//! | `discover.convoys` | counter | `DiscoveryStats` | result cardinality |
//! | `cmc.ticks_ingested`, `cmc.peak_candidates` | counter / gauge | `CmcStats` | CMC fold progress (Alg. 1), candidate-set pressure |
//! | `cmc.clusters_per_tick`, `cmc.candidates_per_tick`, `cmc.candidates_open` | histogram / gauge | recorded per tick | cluster and candidate counts per tick |
//! | `cmc.overlap_lookups` / `cmc.extensions` | counter | `FoldWork` | fold work (candidate members looked up in the per-tick object→cluster index) vs useful outcomes (candidate × cluster pairs that kept ≥ m objects) |
//! | `cuts.refine.snapshot_points` | counter | `FoldWork` | Figs. 14, 16, 17 — CuTS refinement work: entries of the coverage snapshots folded (covered object-ticks), by batch refinement and by the stream's fold alike; 0 for CMC |
//! | `cuts.filter.candidate_pairs` / `lemma2_pass` / `distance_evals` / `neighbours` | counter | `FilterWork` | batch CuTS filter's region-query work over all λ-partitions: sub-trajectory pairs whose probe boxes overlap, pairs that pass the interval test and Lemma 2 (their ω is tested), segment-pair distances computed, neighbour relations found; 0 for CMC |
//! | `stream.emission_delay_ticks` | histogram | per emitted convoy | per-result delay (ranked-enumeration lens) |
//! | `stream.time_to_first_convoy_ns` | counter | once per stream | streaming first-result latency |
//! | `scan.blocks_read` / `scan.blocks_pruned` | counter | `ScanStats` | container block-index pruning |
//! | `cluster.kernel_batches` / `cluster.kernel_lanes` | counter | `ClusterCounts` in `FoldWork` | batched-kernel utilisation (full `LANE_WIDTH` batches vs total candidate lanes scanned) |
//! | `cluster.region_queries` / `prune.region_queries_skipped` | counter | `ClusterCounts` in `FoldWork` | snapshot-DBSCAN region queries run vs skipped because the point's 3×3 cell block holds fewer than m points (the two sum to `cluster.points` over ticks with ≥ m objects; skipped includes dropped points) |
//! | `prune.points_dropped` | counter | `ClusterCounts` in `FoldWork` | snapshot points dropped before the grid build because their 3×3 block of 2e-wide cells holds fewer than m points, so they can be neither core nor border |
//!
//! # Spans
//!
//! [`Obs::span_start`]/[`Obs::span_end`] produce hierarchical
//! wall-clock spans; [`Obs::span_at`] records a pre-timed span, which
//! the sequential engines use to re-lay *accumulated* per-stage time
//! (sweep → cluster → fold interleave per tick, so their stage spans are
//! totals laid out sequentially, while the parallel engine emits real
//! per-partition child spans). [`export::render_trace`]
//! dumps the tree in Chrome `trace_event` format, loadable in Perfetto or
//! `chrome://tracing`.

#![forbid(unsafe_code)]

pub mod export;
mod histogram;
pub mod json;
mod registry;

pub use histogram::{bucket_index, bucket_lower_bound, HistogramSnapshot, BUCKET_COUNT};
pub use registry::{MetricsSnapshot, Registry, SpanSnapshot};

use std::fmt;
use std::sync::Arc;

/// Identifier of a recorded span. `SpanId::NONE` (0) means "no span": it is
/// both the root parent and the id an off [`Obs`] hands out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span: parent of root spans, and an off handle's answer.
    pub const NONE: SpanId = SpanId(0);

    /// True for [`SpanId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// The handle instrumented structs embed. It is in one of three fixed
/// states, chosen by its constructor:
///
/// * **off** ([`Obs::noop`], also `Obs::default()`): drops everything and
///   allocates nothing, so adding an `Obs` field to a struct changes none of
///   its construction costs;
/// * **spans-only** ([`Obs::spans_only`]): records the spans opened with
///   [`Obs::span_start`] into a shared [`Registry`] and drops everything
///   else, reporting itself disabled — the cheap stage clock the paper
///   experiments time runs with;
/// * **full** ([`Obs::registry`]): forwards every call to a shared
///   [`Registry`].
///
/// Every method takes `&self`; clones share the registry, so parallel engine
/// workers record into the same one.
#[derive(Clone, Default)]
pub struct Obs {
    state: State,
}

#[derive(Clone, Default)]
enum State {
    #[default]
    Off,
    SpansOnly(Arc<Registry>),
    Full(Arc<Registry>),
}

impl Obs {
    /// The disabled handle (same as `Obs::default()`).
    pub fn noop() -> Self {
        Obs::default()
    }

    /// Records only the spans opened with [`Obs::span_start`] into
    /// `registry`; counters, gauges, histograms and [`Obs::span_at`] are
    /// dropped, [`Obs::now_ns`] reads 0 and [`Obs::enabled`] is false, so
    /// hot paths skip their per-event clock reads just as when off.
    pub fn spans_only(registry: Arc<Registry>) -> Self {
        Obs {
            state: State::SpansOnly(registry),
        }
    }

    /// Records everything into `registry`.
    pub fn registry(registry: Arc<Registry>) -> Self {
        Obs {
            state: State::Full(registry),
        }
    }

    #[inline]
    fn full(&self) -> Option<&Registry> {
        match &self.state {
            State::Full(registry) => Some(registry),
            _ => None,
        }
    }

    #[inline]
    fn spans(&self) -> Option<&Registry> {
        match &self.state {
            State::Off => None,
            State::SpansOnly(registry) | State::Full(registry) => Some(registry),
        }
    }

    /// Whether per-event metrics are kept (true only for the full state).
    /// Hot paths use this as their single branch; when it returns `false`
    /// they skip metric construction and their clock reads entirely. Spans
    /// are opened whatever this returns.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.full().is_some()
    }

    /// Adds `delta` to the monotonic counter `name`.
    #[inline]
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(registry) = self.full() {
            registry.counter_add(name, delta);
        }
    }

    /// Sets the gauge `name` to `value`.
    #[inline]
    pub fn gauge_set(&self, name: &'static str, value: i64) {
        if let Some(registry) = self.full() {
            registry.gauge_set(name, value);
        }
    }

    /// Records one observation into the log-scale histogram `name`.
    #[inline]
    pub fn histogram_record(&self, name: &'static str, value: u64) {
        if let Some(registry) = self.full() {
            registry.histogram_record(name, value);
        }
    }

    /// Nanoseconds since the registry's epoch (0 unless full). Used by call
    /// sites that accumulate stage time before emitting it as a span.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.full().map_or(0, Registry::now_ns)
    }

    /// Opens a span under `parent` (or as a root for [`SpanId::NONE`]),
    /// timestamped now; [`SpanId::NONE`] when off.
    #[inline]
    pub fn span_start(&self, name: &'static str, parent: SpanId) -> SpanId {
        self.spans()
            .map_or(SpanId::NONE, |registry| registry.span_start(name, parent))
    }

    /// Closes a span opened by [`Obs::span_start`].
    #[inline]
    pub fn span_end(&self, span: SpanId) {
        if let Some(registry) = self.spans() {
            registry.span_end(span);
        }
    }

    /// Records a pre-timed span (full state only): `start_ns`..`start_ns +
    /// dur_ns` relative to the registry's epoch. Used for accumulated
    /// per-stage totals that have no contiguous wall-clock extent.
    #[inline]
    pub fn span_at(
        &self,
        name: &'static str,
        parent: SpanId,
        start_ns: u64,
        dur_ns: u64,
    ) -> SpanId {
        self.full().map_or(SpanId::NONE, |registry| {
            registry.span_at(name, parent, start_ns, dur_ns)
        })
    }

    /// Opens a span closed automatically when the guard drops.
    pub fn span_guard(&self, name: &'static str, parent: SpanId) -> SpanGuard<'_> {
        SpanGuard {
            obs: self,
            id: self.span_start(name, parent),
        }
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self.state {
            State::Off => "Obs(noop)",
            State::SpansOnly(_) => "Obs(spans)",
            State::Full(_) => "Obs(live)",
        })
    }
}

/// RAII span: closes on drop. Obtain via [`Obs::span_guard`].
pub struct SpanGuard<'a> {
    obs: &'a Obs,
    id: SpanId,
}

impl SpanGuard<'_> {
    /// The id of the guarded span, for use as a child's parent.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.obs.span_end(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_inert() {
        let obs = Obs::noop();
        assert!(!obs.enabled());
        assert_eq!(obs.now_ns(), 0);
        obs.counter_add("x", 1);
        obs.gauge_set("g", -3);
        obs.histogram_record("h", 42);
        let id = obs.span_start("root", SpanId::NONE);
        assert!(id.is_none());
        obs.span_end(id);
        assert!(obs.span_at("s", SpanId::NONE, 0, 10).is_none());
    }

    #[test]
    fn default_obs_is_noop_and_clones_share_recorder() {
        let obs = Obs::default();
        let copy = obs.clone();
        assert!(!copy.enabled());
        assert_eq!(format!("{obs:?}"), "Obs(noop)");
    }

    #[test]
    fn spans_only_keeps_spans_and_drops_metrics() {
        let registry = Arc::new(Registry::new());
        let obs = Obs::spans_only(registry.clone());
        assert!(!obs.enabled());
        assert_eq!(obs.now_ns(), 0);
        assert_eq!(format!("{obs:?}"), "Obs(spans)");
        let root = obs.span_start("root", SpanId::NONE);
        obs.counter_add("c", 1);
        obs.gauge_set("g", 2);
        obs.histogram_record("h", 4);
        assert!(obs.span_at("pre-timed", root, 0, 10).is_none());
        {
            let child = obs.span_guard("child", root);
            assert!(!child.id().is_none());
        }
        obs.span_end(root);
        assert_eq!(registry.snapshot(), MetricsSnapshot::default());
        let spans = registry.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["root", "child"]);
        assert!(spans.iter().all(|s| s.closed));
        assert_eq!(spans[1].parent, root.0);
    }

    #[test]
    fn full_registry_keeps_everything() {
        let registry = Arc::new(Registry::new());
        let obs = Obs::registry(registry.clone());
        assert!(obs.enabled());
        assert_eq!(format!("{obs:?}"), "Obs(live)");
        obs.counter_add("c", 1);
        obs.gauge_set("g", 3);
        obs.histogram_record("h", 4);
        assert!(!obs.span_at("pre-timed", SpanId::NONE, 0, 10).is_none());
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("c"), 1);
        assert_eq!(snapshot.gauge("g"), 3);
        assert!(snapshot.histogram("h").is_some());
        assert_eq!(registry.span_total_ns("pre-timed"), 10);
    }

    #[test]
    fn span_guard_closes_on_drop() {
        let registry = Arc::new(Registry::new());
        let obs = Obs::registry(registry.clone());
        {
            let root = obs.span_guard("root", SpanId::NONE);
            let child = obs.span_guard("child", root.id());
            assert!(!child.id().is_none());
        }
        let spans = registry.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.closed));
    }
}
