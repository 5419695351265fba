//! The streaming pipeline: ingest → λ-close → incremental filter →
//! coverage fold ([`convoy_core::CmcState`]) → drain.
//!
//! [`ConvoyStream`] accepts `(object, t, x, y)` samples in feed order and
//! emits confirmed convoys as their chains close. Internally it mirrors the
//! batch CuTS pipeline stage for stage:
//!
//! ```text
//! push(o, t, x, y)
//!   │  feed order: t ≥ watermark, t > the object's newest buffered sample
//!   ▼
//! ObjectBuffer per object              (samples_buffered)
//!   │  watermark passes a λ-partition end, every object resolved
//!   ▼
//! sliding-window DP  ──►  cluster_partition     (shared with the batch filter)
//!   │
//!   ▼
//! RefineFold: covered sweep → CmcState fold over the partition's ticks
//!   │        (its end tick included), eviction hooks
//!   ▼
//! drain() → confirmed convoys         (StreamStats)
//! ```
//!
//! Each close folds every tick of the partition not yet folded, its end tick
//! included, each snapshot holding only that partition's cluster members; a
//! tick two partitions share is folded once, by the earlier one. So a chain
//! that fails to extend at a partition's end tick is drained at that
//! partition's close, and a checkpoint carries no partition-sized fold state
//! beyond the open chains.
//!
//! **Correctness contract.** With an unbounded
//! [`EvictionPolicy`](crate::EvictionPolicy), replaying
//! any finite database through the stream produces refinement output
//! bit-identical to batch [`Discovery`] with the same CuTS configuration —
//! raw convoy sequence and fold counters included — even though the
//! sliding-window simplification (and hence the filter's clusters) may
//! differ from the batch filter's. The coverage fold's
//! restriction theorem (see [`convoy_core::cuts::refine`]) is what absorbs
//! the difference. `tests/stream_equivalence.rs` locks the contract in.
//!
//! **Laggy objects and the horizon.** A λ-partition only closes once every
//! known object either has a sample at or past the partition end or has been
//! silent for more than the horizon (its gap is then *severed*: later
//! samples never interpolate across it). An unbounded horizon therefore
//! waits for stragglers indefinitely — the right semantics for a replay,
//! where [`ConvoyStream::finish`] settles everything — while a finite
//! horizon bounds both the wait and the buffered window on a live feed.

use crate::buffer::ObjectBuffer;
use crate::config::{StreamConfig, StreamStats};
use crate::refine::RefineFold;
use convoy_core::cuts::filter::simplify_database;
use convoy_core::{
    auto_delta, auto_lambda, cluster_partition, Convoy, ConvoyQuery, CutsConfig, Discovery,
    FoldWork,
};
use convoy_obs::{Obs, SpanId};
use std::collections::BTreeMap;
use traj_cluster::SubTrajectory;
use trajectory::sweep::bridgeable;
use trajectory::{FeedError, ObjectId, TimeInterval, TimePoint, TrajPoint, Trajectory};

/// The sample-ingest surface of a streaming discovery pipeline.
///
/// Samples must arrive in feed order (globally non-decreasing `t`, strictly
/// increasing per object); a rejected sample leaves the pipeline unchanged.
pub trait FeedIngest {
    /// Pushes one sample into the pipeline.
    fn push(&mut self, object: ObjectId, t: TimePoint, x: f64, y: f64) -> Result<(), FeedError>;

    /// The feed watermark: the largest timestamp accepted so far.
    fn watermark(&self) -> Option<TimePoint>;
}

/// The result of a finished stream: every convoy confirmed over its lifetime
/// (in confirmation order) plus the final counters.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// All confirmed convoys, in the order their chains closed.
    pub convoys: Vec<Convoy>,
    /// The stream's lifetime counters.
    pub stats: StreamStats,
}

/// End-to-end streaming convoy discovery over a live feed.
///
/// ```
/// use convoy_core::ConvoyQuery;
/// use convoy_stream::{ConvoyStream, FeedIngest, StreamConfig};
/// use trajectory::ObjectId;
///
/// let config = StreamConfig::new(ConvoyQuery::new(2, 3, 1.0), 0.2, 4);
/// let mut stream = ConvoyStream::new(config);
/// for t in 0..10 {
///     for o in 0..2u64 {
///         stream.push(ObjectId(o), t, t as f64, o as f64 * 0.5).unwrap();
///     }
/// }
/// let outcome = stream.finish();
/// assert_eq!(outcome.convoys.len(), 1);
/// assert_eq!(outcome.convoys[0].lifetime(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct ConvoyStream {
    // Fields are `pub(crate)` so the sibling `checkpoint` module can export
    // and rebuild the resumable state without widening the public API.
    pub(crate) config: StreamConfig,
    /// The largest timestamp accepted so far (`None` before the first
    /// sample).
    pub(crate) watermark: Option<TimePoint>,
    /// Each tracked object's recent samples. The newest is also the object's
    /// feed-order cursor: a buffer is dropped only once that sample is behind
    /// a closed partition end, hence behind the watermark.
    pub(crate) buffers: BTreeMap<ObjectId, ObjectBuffer>,
    /// Start of the lowest λ-partition not yet closed (`None` before the
    /// first sample anchors the partition grid).
    pub(crate) partition_start: Option<TimePoint>,
    /// The object last observed blocking a partition close (a straggler
    /// whose samples have not reached the partition end). Re-checking the
    /// cached straggler first makes the per-push close test O(1) amortized
    /// instead of a scan over every buffer while a partition is pending.
    /// Pure cache: `None` is always a valid value (the next `advance` falls
    /// back to the full scan), so checkpoints simply do not store it.
    pub(crate) blocker: Option<ObjectId>,
    pub(crate) fold: RefineFold,
    pub(crate) ready: Vec<Convoy>,
    pub(crate) partitions_closed: u64,
    pub(crate) samples_buffered: usize,
    pub(crate) peak_samples_buffered: usize,
    /// Samples accepted and rejected since the counts were last added to
    /// `obs` (see `publish_session`). Session counts: checkpoints do not
    /// store them.
    pub(crate) samples_ingested: u64,
    pub(crate) samples_rejected: u64,
    /// Handle for the `stream.*` metrics (off by default). Runtime-only:
    /// checkpoints do not store it.
    pub(crate) obs: Obs,
    /// Root span of the attached recorder ([`SpanId::NONE`] when no-op).
    pub(crate) root_span: SpanId,
    /// Registry timestamp of [`ConvoyStream::set_obs`], the baseline of the
    /// one-shot `stream.time_to_first_convoy_ns` latency.
    pub(crate) start_ns: u64,
    /// True until the first convoy is emitted with a live recorder attached
    /// from a cold start. A restored stream suppresses the metric: its first
    /// convoy may long predate the resume.
    pub(crate) ttfc_pending: bool,
}

impl ConvoyStream {
    /// Creates an empty stream for `config`.
    pub fn new(config: StreamConfig) -> Self {
        ConvoyStream {
            watermark: None,
            buffers: BTreeMap::new(),
            partition_start: None,
            blocker: None,
            fold: RefineFold::new(&config.query),
            ready: Vec::new(),
            partitions_closed: 0,
            samples_buffered: 0,
            peak_samples_buffered: 0,
            samples_ingested: 0,
            samples_rejected: 0,
            obs: Obs::noop(),
            root_span: SpanId::NONE,
            start_ns: 0,
            ttfc_pending: false,
            config,
        }
    }

    /// Attaches a recorder: partition closes get `stream.partition` spans
    /// under a `stream` root span and the latency metrics, the refinement
    /// fold records its per-tick histograms, and every partition close and
    /// [`ConvoyStream::finish`] add the session counts gathered since the
    /// last one. Replaces any previous recorder (each attachment starts its
    /// own root span and latency baseline).
    pub fn set_obs(&mut self, obs: Obs) {
        self.fold.state.set_obs(obs.clone());
        self.root_span = obs.span_start("stream", SpanId::NONE);
        self.start_ns = obs.now_ns();
        // Time-to-first-convoy is only meaningful from a cold start; a
        // restored or mid-feed stream (watermark already set) suppresses it.
        self.ttfc_pending = obs.enabled() && self.watermark.is_none();
        self.obs = obs;
    }

    /// The stream's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Convoys confirmed since the last drain, in confirmation order.
    pub fn drain(&mut self) -> Vec<Convoy> {
        std::mem::take(&mut self.ready)
    }

    /// Always empty. The stream no longer chains partition clusters into
    /// coarse candidates: the chains were not a superset of the convoys,
    /// and the refinement reads each partition's clusters instead.
    #[deprecated(
        note = "always empty: the stream builds no candidate chain; read `drain`. \
                Removed by the benchmark migration, once the ledger stops calling it."
    )]
    pub fn drain_candidates(&mut self) -> Vec<Convoy> {
        Vec::new()
    }

    /// The stream's counters so far.
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            fold: self.fold.state.stats(),
            partitions_closed: self.partitions_closed,
            candidates_evicted: self.fold.evicted,
            samples_buffered: self.samples_buffered,
            peak_samples_buffered: self.peak_samples_buffered,
        }
    }

    /// Returns `true` when the object behind `buffer` still blocks closing a
    /// partition at `end`: its samples have not reached `end` and a sample
    /// arriving now (at the watermark) could still bridge into the window.
    /// The gap rule is the interpolation rule itself ([`bridgeable`]), so
    /// the partition-close logic and the refinement's sweeps never
    /// disagree.
    fn blocks(&self, buffer: &ObjectBuffer, end: TimePoint, watermark: TimePoint) -> bool {
        let last = buffer.last_t();
        last < end && bridgeable(last, watermark, self.config.eviction.horizon)
    }

    /// Finds an object blocking the close of partition `[.., end]`, if any.
    fn find_blocker(&self, end: TimePoint, watermark: TimePoint) -> Option<ObjectId> {
        self.buffers
            .iter()
            .find(|(_, b)| self.blocks(b, end, watermark))
            .map(|(&id, _)| id)
    }

    /// Closes every partition the watermark (and object resolution) allows.
    fn advance(&mut self, watermark: TimePoint) {
        let step = self.config.step();
        while let Some(start) = self.partition_start {
            // A partition grid anchored near i64::MAX runs out of axis: a
            // window that cannot even be represented can never complete.
            let Some(end) = start.checked_add(step) else {
                break;
            };
            // Samples at `end` may still arrive while the watermark sits on
            // it; wait.
            if watermark <= end {
                break;
            }
            // An unresolved straggler could still bridge into the window.
            // Re-check the cached straggler first — O(1) on the common path
            // where one laggy object holds the partition open — and only
            // fall back to the full scan once it resolves.
            if let Some(blocker) = self.blocker {
                if self
                    .buffers
                    .get(&blocker)
                    .is_some_and(|b| self.blocks(b, end, watermark))
                {
                    break;
                }
                self.blocker = None;
            }
            if let Some(blocker) = self.find_blocker(end, watermark) {
                self.blocker = Some(blocker);
                break;
            }
            self.close_partition(TimeInterval::new(start, end));
            self.partition_start = Some(end);
        }
    }

    /// Clusters one closed λ-partition, folds it into the refinement fold,
    /// and applies eviction.
    fn close_partition(&mut self, window: TimeInterval) {
        let live = self.obs.enabled();
        let span = if live {
            self.obs.span_start("stream.partition", self.root_span)
        } else {
            SpanId::NONE
        };
        let started_ns = if live { self.obs.now_ns() } else { 0 };
        let horizon = self.config.eviction.horizon;
        let simplification = self.config.variant.simplification();

        // Sliding-window DP per object: the λ-partition completed, so every
        // simplified segment intersecting it can now be closed. Each run is
        // a valid δ-simplification of the buffered polyline, so the filter
        // bounds (Lemmas 1–3) hold, but it differs in general from the batch
        // simplification: DP's split points depend on samples outside the
        // window. The coverage fold absorbs that difference.
        let mut items: Vec<SubTrajectory> = Vec::new();
        for (&id, buffer) in &self.buffers {
            let mut segments = Vec::new();
            for run in buffer.runs_for_window(window.start, window.end, horizon) {
                let run = Trajectory::from_points(run.to_vec())
                    // lint: allow(no-unwrap-in-lib) — runs are non-empty and buffered samples stay strictly time-ordered
                    .expect("window runs are validated sample runs");
                let simplified = simplification.simplify(&run, self.config.delta);
                if let Some(sub) = SubTrajectory::for_window(id, &simplified, window) {
                    segments.extend(sub.segments);
                }
            }
            if !segments.is_empty() {
                items.push(SubTrajectory {
                    object: id,
                    segments,
                    global_tolerance: self.config.delta,
                });
            }
        }

        let clustered = cluster_partition(
            window,
            &items,
            &self.config.query,
            self.config.variant.segment_distance(),
            self.config.tolerance_mode,
        );

        // Refinement: the shared coverage fold, sweeping the ingest buffers
        // with the same severing rule the filter used, up to and including
        // the partition's end tick. The close rules keep every bracketing
        // sample buffered, so while no gap exceeds the horizon the snapshots
        // equal batch refinement's. The buffers are trimmed below, so each
        // sweep lives for this partition only.
        let buffers = &self.buffers;
        self.fold
            .push_partition(&clustered, self.config.eviction, |id| {
                buffers.get(&id).map(ObjectBuffer::samples)
            });
        let emitted = self.fold.state.drain_closed();
        if live {
            note_emissions(
                &self.obs,
                &mut self.ttfc_pending,
                self.start_ns,
                self.watermark,
                &emitted,
            );
        }
        self.ready.extend(emitted);

        // The fold has consumed every tick up to `window.end`; drop samples
        // older than the bracket the next partition starts from.
        let mut dropped = 0;
        for buffer in self.buffers.values_mut() {
            dropped += buffer.trim_before(window.end);
        }
        // Object churn on a long-lived feed must not grow state forever: a
        // severed object whose samples all precede the closed partition's end
        // can never again contribute a position, a sub-trajectory segment or
        // a partition-close blocker, so its buffer goes entirely (it is
        // re-admitted as a fresh appearance if it ever returns).
        if horizon.is_some() {
            let watermark = self.watermark.unwrap_or(window.end);
            self.buffers.retain(|_, buffer| {
                let gone = buffer.last_t() < window.end
                    && !bridgeable(buffer.last_t(), watermark, horizon);
                if gone {
                    dropped += buffer.len();
                }
                !gone
            });
        }
        self.samples_buffered -= dropped;
        self.partitions_closed += 1;
        publish_session(
            &self.obs,
            self.fold.take_work(),
            std::mem::take(&mut self.samples_ingested),
            std::mem::take(&mut self.samples_rejected),
        );
        if live {
            let close_ns = self.obs.now_ns().saturating_sub(started_ns);
            self.obs
                .histogram_record("stream.partition_close_ns", close_ns);
            self.obs.span_end(span);
        }
    }

    /// Ends the feed: closes every remaining λ-partition up to the
    /// watermark, flushes the refinement fold, and
    /// returns every convoy not yet drained plus the final counters.
    pub fn finish(mut self) -> StreamOutcome {
        if let (Some(mut start), Some(watermark)) = (self.partition_start, self.watermark) {
            // Close the remaining partitions exactly the way
            // `trajectory::TimePartition` tiles a finite domain: full
            // λ-windows, the last one clipped to the watermark.
            let step = self.config.step();
            loop {
                // `start + step` saturates to the watermark when the grid
                // overruns the time axis (the final clipped window).
                let end = start
                    .checked_add(step)
                    .map_or(watermark, |e| e.min(watermark));
                self.close_partition(TimeInterval::new(start, end));
                self.partition_start = Some(end);
                if end >= watermark {
                    break;
                }
                start = end;
            }
        }

        let ConvoyStream {
            watermark,
            fold,
            mut ready,
            partitions_closed,
            samples_buffered,
            peak_samples_buffered,
            samples_ingested,
            samples_rejected,
            obs,
            root_span,
            start_ns,
            mut ttfc_pending,
            ..
        } = self;

        let evicted = fold.evicted;
        let (convoys, fold, work) = fold.finish();
        publish_session(&obs, work, samples_ingested, samples_rejected);
        if obs.enabled() {
            note_emissions(&obs, &mut ttfc_pending, start_ns, watermark, &convoys);
            obs.span_end(root_span);
        }
        ready.extend(convoys);
        StreamOutcome {
            convoys: ready,
            stats: StreamStats {
                fold,
                partitions_closed,
                candidates_evicted: evicted,
                samples_buffered,
                peak_samples_buffered,
            },
        }
    }

    /// Checks one sample against feed order and buffers it. Rejection leaves
    /// the stream untouched. A duplicate needs `t == watermark`, and every
    /// object whose newest sample sits on the watermark still has its
    /// buffer, so comparing with the buffer's newest sample is exact.
    fn admit(&mut self, object: ObjectId, t: TimePoint, x: f64, y: f64) -> Result<(), FeedError> {
        if !(x.is_finite() && y.is_finite()) {
            return Err(FeedError::NonFiniteCoordinate { object, t });
        }
        if let Some(watermark) = self.watermark.filter(|&w| t < w) {
            return Err(FeedError::OutOfOrder {
                object,
                t,
                watermark,
            });
        }
        // An empty (just created) buffer cannot hold a duplicate, so a
        // rejection never leaves one behind.
        let buffer = self.buffers.entry(object).or_default();
        if buffer.samples().last().is_some_and(|p| p.t == t) {
            return Err(FeedError::DuplicateTimestamp { object, t });
        }
        buffer.push(TrajPoint::new(x, y, t));
        self.watermark = Some(t);
        Ok(())
    }
}

impl FeedIngest for ConvoyStream {
    fn push(&mut self, object: ObjectId, t: TimePoint, x: f64, y: f64) -> Result<(), FeedError> {
        if let Err(e) = self.admit(object, t, x, y) {
            self.samples_rejected += 1;
            return Err(e);
        }
        self.samples_ingested += 1;
        self.samples_buffered += 1;
        self.peak_samples_buffered = self.peak_samples_buffered.max(self.samples_buffered);
        if self.partition_start.is_none() {
            self.partition_start = Some(t);
        }
        self.advance(t);
        Ok(())
    }

    fn watermark(&self) -> Option<TimePoint> {
        self.watermark
    }
}

/// Adds a stream's session counts to `obs`: its refinement fold's work, under
/// the names [`FoldWork::counters`] gives them, and the samples it ingested
/// and rejected, each added only once non-zero (like a per-sample counter,
/// a name appears with its first sample).
fn publish_session(obs: &Obs, work: FoldWork, ingested: u64, rejected: u64) {
    for (name, n) in work.counters() {
        obs.counter_add(name, n);
    }
    for (name, n) in [
        ("stream.samples_ingested", ingested),
        ("stream.samples_rejected", rejected),
    ] {
        if n > 0 {
            obs.counter_add(name, n);
        }
    }
}

/// Records the emission-latency metrics for a batch of just-confirmed
/// convoys: one `stream.emission_delay_ticks` histogram sample per convoy
/// (feed watermark minus the convoy's last tick — how long the pipeline sat
/// on the result waiting for its chain to close) and, once per stream
/// lifetime, the `stream.time_to_first_convoy_ns` wall-clock latency from
/// recorder attachment to first confirmation.
fn note_emissions(
    obs: &Obs,
    ttfc_pending: &mut bool,
    start_ns: u64,
    watermark: Option<TimePoint>,
    emitted: &[Convoy],
) {
    if emitted.is_empty() {
        return;
    }
    if *ttfc_pending {
        *ttfc_pending = false;
        obs.counter_add(
            "stream.time_to_first_convoy_ns",
            obs.now_ns().saturating_sub(start_ns),
        );
    }
    let Some(watermark) = watermark else {
        return;
    };
    for convoy in emitted {
        let delay = watermark.saturating_sub(convoy.end).max(0);
        obs.histogram_record("stream.emission_delay_ticks", delay as u64);
    }
}

/// Derives a replay [`StreamConfig`] from a batch CuTS configuration
/// exactly the way [`Discovery::run`] selects its parameters: explicit δ/λ
/// win, the Section 7.4 guidelines fill the gaps. Shared by
/// [`ReplayStream`] and the CLI's file-replay mode so their parameters can
/// never drift apart.
pub fn replay_config(
    cuts: &CutsConfig,
    db: &trajectory::TrajectoryDatabase,
    query: &ConvoyQuery,
) -> StreamConfig {
    let delta = cuts.delta.unwrap_or_else(|| auto_delta(db, query.e));
    let lambda = cuts.lambda.unwrap_or_else(|| {
        let simplified = simplify_database(db, cuts, delta);
        auto_lambda(simplified.iter().map(|(_, s)| s), query.k)
    });
    StreamConfig::new(*query, delta, lambda)
        .with_variant(cuts.variant)
        .with_tolerance_mode(cuts.tolerance_mode)
}

/// Every sample of `db` in feed order (ascending time, object id breaking
/// ties) — the order a replay pushes them. Ticks strictly increase along a
/// trajectory, so no two samples share a `(t, id)` key and the in-place
/// unstable sort gives the stable order without a stable sort's scratch.
pub fn feed_order_samples(db: &trajectory::TrajectoryDatabase) -> Vec<(ObjectId, TrajPoint)> {
    let mut samples = db.all_samples();
    samples.sort_unstable_by_key(|(id, p)| (p.t, *id));
    samples
}

/// Replays a finite trajectory database through the streaming pipeline,
/// deriving δ and λ exactly like the batch [`Discovery`] run would — the
/// bridge the equivalence harness uses to compare the two pipelines.
pub trait ReplayStream {
    /// Pushes every sample of `db` in feed order through a [`ConvoyStream`]
    /// configured like this discovery (unbounded eviction) and finishes it.
    fn replay_stream(
        &self,
        db: &trajectory::TrajectoryDatabase,
        query: &ConvoyQuery,
    ) -> StreamOutcome;
}

impl ReplayStream for Discovery {
    fn replay_stream(
        &self,
        db: &trajectory::TrajectoryDatabase,
        query: &ConvoyQuery,
    ) -> StreamOutcome {
        let mut stream = ConvoyStream::new(replay_config(self.config(), db, query));
        for (id, p) in feed_order_samples(db) {
            stream
                .push(id, p.t, p.x, p.y)
                // lint: allow(no-unwrap-in-lib) — replaying an already-validated database cannot fail feed validation
                .expect("database samples form a valid feed");
        }
        stream.finish()
    }
}
