//! `convoy-obs` — the suite's observability core: monotonic counters,
//! gauges, fixed-bucket log-scale histograms and hierarchical timed spans
//! behind the [`Recorder`] trait.
//!
//! The design constraints come straight from the hot paths this crate
//! instruments (`SnapshotClusterer::cluster_into`, `CmcState::ingest_clusters`):
//!
//! * **Zero-cost when off.** The default [`NoopRecorder`] allocates nothing
//!   and every call through it is a single dynamic dispatch that inlines to
//!   a no-op; call sites batch their work behind one `enabled()` check so a
//!   disabled recorder costs at most one branch per instrumented region.
//!   This keeps the no-op safe inside `// lint: hot-path` regions and
//!   preserves the zero-allocation contract of PR 5 (enforced by the
//!   counting-allocator tests).
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
//! | metric | kind | paper figure |
//! |---|---|---|
//! | `discover.simplify_ns` / `filter_ns` / `refine_ns` / `total_ns` | counter | Fig. 13 — stage time breakdown, derived from the `discover.*` span totals ([`Registry::span_total_ns`]) |
//! | `discover.candidates` | counter | Fig. 16 — candidate count vs λ/δ |
//! | `discover.refinement_units` | counter | Fig. 17 — refinement-unit cost |
//! | `discover.convoys` | counter | result cardinality |
//! | `cmc.ticks_ingested`, `cmc.clusters_per_tick` | counter / histogram | CMC fold progress (Alg. 1) |
//! | `cmc.peak_candidates`, `cmc.candidates_open` | gauge | candidate-set pressure |
//! | `cmc.overlap_lookups` / `cmc.extensions` | counter | fold work (candidate members looked up in the per-tick object→cluster index) vs useful outcomes (candidate × cluster pairs that kept ≥ m objects) |
//! | `cuts.refine.snapshot_points` | counter | CuTS refinement work: entries of the coverage snapshots folded (covered object-ticks) |
//! | `stream.emission_delay_ticks` | histogram | per-result delay (ranked-enumeration lens) |
//! | `stream.time_to_first_convoy_ns` | histogram | streaming first-result latency |
//! | `scan.blocks_read` / `scan.blocks_pruned` | counter | container block-index pruning |
//! | `cluster.kernel_batches` / `cluster.kernel_lanes` | counter | batched-kernel utilisation (full `LANE_WIDTH` batches vs total candidate lanes scanned) |
//! | `cluster.region_queries` / `prune.region_queries_skipped` | counter | snapshot-DBSCAN region queries run vs skipped because the point's 3×3 cell block holds fewer than m points (the two sum to `cluster.points` over ticks with ≥ m objects) |
//!
//! # Spans
//!
//! [`Recorder::span_start`]/[`Recorder::span_end`] produce hierarchical
//! wall-clock spans; [`Recorder::span_at`] records a pre-timed span, which
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
use std::sync::{Arc, OnceLock};

/// Identifier of a recorded span. `SpanId::NONE` (0) means "no span": it is
/// both the root parent and the id the no-op recorder hands out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span: parent of root spans, and the no-op recorder's answer.
    pub const NONE: SpanId = SpanId(0);

    /// True for [`SpanId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// Sink for metrics and spans. Implementations must be cheap to call when
/// disabled: every method on the [`NoopRecorder`] is an empty inlineable
/// body, and instrumented hot paths batch multi-metric updates behind one
/// [`Recorder::enabled`] check.
///
/// All methods take `&self`; implementations are shared across threads
/// (parallel engine workers record into the same registry).
pub trait Recorder: Send + Sync {
    /// Whether this recorder keeps per-event metrics. Hot paths use this as
    /// their single branch; when it returns `false` they skip metric
    /// construction and their clock reads entirely. Spans are opened
    /// whatever this returns, so a recorder that keeps only coarse spans
    /// (a stage clock) may return `false`.
    fn enabled(&self) -> bool;

    /// Adds `delta` to the monotonic counter `name`.
    fn counter_add(&self, name: &'static str, delta: u64);

    /// Sets the gauge `name` to `value`.
    fn gauge_set(&self, name: &'static str, value: i64);

    /// Raises the gauge `name` to `value` if `value` is larger (high-water
    /// marks: peak candidates, peak buffered samples).
    fn gauge_max(&self, name: &'static str, value: i64);

    /// Records one observation into the log-scale histogram `name`.
    fn histogram_record(&self, name: &'static str, value: u64);

    /// Nanoseconds since this recorder's epoch (0 for the no-op). Used by
    /// call sites that accumulate stage time before emitting it as a span.
    fn now_ns(&self) -> u64;

    /// Opens a span under `parent` (or as a root for [`SpanId::NONE`]),
    /// timestamped now.
    fn span_start(&self, name: &'static str, parent: SpanId) -> SpanId;

    /// Closes a span opened by [`Recorder::span_start`].
    fn span_end(&self, span: SpanId);

    /// Records a pre-timed span: `start_ns`..`start_ns + dur_ns` relative to
    /// this recorder's epoch. Used for accumulated per-stage totals that
    /// have no contiguous wall-clock extent.
    fn span_at(&self, name: &'static str, parent: SpanId, start_ns: u64, dur_ns: u64) -> SpanId;
}

/// The zero-cost default recorder: drops everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
    #[inline]
    fn counter_add(&self, _name: &'static str, _delta: u64) {}
    #[inline]
    fn gauge_set(&self, _name: &'static str, _value: i64) {}
    #[inline]
    fn gauge_max(&self, _name: &'static str, _value: i64) {}
    #[inline]
    fn histogram_record(&self, _name: &'static str, _value: u64) {}
    #[inline]
    fn now_ns(&self) -> u64 {
        0
    }
    #[inline]
    fn span_start(&self, _name: &'static str, _parent: SpanId) -> SpanId {
        SpanId::NONE
    }
    #[inline]
    fn span_end(&self, _span: SpanId) {}
    #[inline]
    fn span_at(
        &self,
        _name: &'static str,
        _parent: SpanId,
        _start_ns: u64,
        _dur_ns: u64,
    ) -> SpanId {
        SpanId::NONE
    }
}

/// Shared, thread-safe handle to a recorder.
pub type RecorderHandle = Arc<dyn Recorder>;

fn noop_handle() -> RecorderHandle {
    static NOOP: OnceLock<RecorderHandle> = OnceLock::new();
    NOOP.get_or_init(|| Arc::new(NoopRecorder)).clone()
}

/// The handle instrumented structs embed: a cloneable, defaultable wrapper
/// over a [`RecorderHandle`] with forwarding methods. `Obs::default()` is the
/// no-op (cloning a cached `Arc` — no allocation), so adding an `Obs` field
/// to a struct changes none of its construction costs.
#[derive(Clone)]
pub struct Obs {
    recorder: RecorderHandle,
}

impl Obs {
    /// The disabled recorder (same as `Obs::default()`).
    pub fn noop() -> Self {
        Obs {
            recorder: noop_handle(),
        }
    }

    /// Wraps an arbitrary recorder.
    pub fn new(recorder: RecorderHandle) -> Self {
        Obs { recorder }
    }

    /// Wraps a shared [`Registry`].
    pub fn registry(registry: Arc<Registry>) -> Self {
        Obs { recorder: registry }
    }

    /// See [`Recorder::enabled`].
    #[inline]
    pub fn enabled(&self) -> bool {
        self.recorder.enabled()
    }

    /// See [`Recorder::counter_add`].
    #[inline]
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        self.recorder.counter_add(name, delta);
    }

    /// See [`Recorder::gauge_set`].
    #[inline]
    pub fn gauge_set(&self, name: &'static str, value: i64) {
        self.recorder.gauge_set(name, value);
    }

    /// See [`Recorder::gauge_max`].
    #[inline]
    pub fn gauge_max(&self, name: &'static str, value: i64) {
        self.recorder.gauge_max(name, value);
    }

    /// See [`Recorder::histogram_record`].
    #[inline]
    pub fn histogram_record(&self, name: &'static str, value: u64) {
        self.recorder.histogram_record(name, value);
    }

    /// See [`Recorder::now_ns`].
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.recorder.now_ns()
    }

    /// See [`Recorder::span_start`].
    #[inline]
    pub fn span_start(&self, name: &'static str, parent: SpanId) -> SpanId {
        self.recorder.span_start(name, parent)
    }

    /// See [`Recorder::span_end`].
    #[inline]
    pub fn span_end(&self, span: SpanId) {
        self.recorder.span_end(span);
    }

    /// See [`Recorder::span_at`].
    #[inline]
    pub fn span_at(
        &self,
        name: &'static str,
        parent: SpanId,
        start_ns: u64,
        dur_ns: u64,
    ) -> SpanId {
        self.recorder.span_at(name, parent, start_ns, dur_ns)
    }

    /// Opens a span closed automatically when the guard drops.
    pub fn span_guard(&self, name: &'static str, parent: SpanId) -> SpanGuard<'_> {
        SpanGuard {
            obs: self,
            id: self.span_start(name, parent),
        }
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::noop()
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.enabled() {
            f.write_str("Obs(live)")
        } else {
            f.write_str("Obs(noop)")
        }
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
