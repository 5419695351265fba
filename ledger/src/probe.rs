//! Layer-by-layer runs of the three pipelines, timed from outside the
//! library. Each probe calls the same public functions the library's own
//! entry points compose — container decode, `SnapshotSweep::next`,
//! `SnapshotClusterer::cluster_into`, `CmcState::ingest_clusters`,
//! `simplify_database` / `filter_simplified` / `refine_partitions`,
//! `ConvoyStream::push` / `checkpoint` / `finish` / `restore` — and gives
//! each call a benchmark-side span. Calls made once per tick or per sample
//! are timed one by one but recorded as one accumulated span per layer,
//! laid end to end inside their parent the way the sequential engines lay
//! out their stage spans; every other call gets its own span.

use convoy_core::cuts::filter::{filter_simplified, simplify_database};
use convoy_core::{
    auto_delta, normalize_convoys, refine_partitions, refinement_unit, CmcEngine, CmcState, Convoy,
    ConvoyQuery, CutsConfig, CutsVariant,
};
use convoy_obs::{export, Obs, Registry, SpanId};
use convoy_stream::{feed_order_samples, ConvoyStream, FeedIngest, StreamConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use traj_cluster::{Cluster, SnapshotClusterer};
use traj_datasets::ContainerSource;
use trajectory::{
    ScanStats, SnapshotPolicy, SnapshotSweep, TimeInterval, TrajectoryDatabase, TrajectorySource,
};

/// The CuTS variant every CuTS and streaming run uses.
pub const CUTS_VARIANT: CutsVariant = CutsVariant::CutsStar;

/// Span recording plus the clock every layer time is read from. Off, it
/// records nothing and reads a plain monotonic clock.
pub struct Tracer {
    obs: Obs,
    registry: Option<Arc<Registry>>,
    epoch: Instant,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            obs: Obs::noop(),
            registry: None,
            epoch: Instant::now(),
        }
    }

    pub fn live() -> Tracer {
        let registry = Arc::new(Registry::new());
        Tracer {
            obs: Obs::registry(registry.clone()),
            registry: Some(registry),
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds on the registry's clock when live, so spans and layer
    /// times agree.
    pub fn now_ns(&self) -> u64 {
        if self.registry.is_some() {
            self.obs.now_ns()
        } else {
            u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }
    }

    pub fn start(&self, name: &'static str, parent: SpanId) -> SpanId {
        self.obs.span_start(name, parent)
    }

    pub fn end(&self, span: SpanId) {
        self.obs.span_end(span);
    }

    /// Runs `f` under its own span; returns its output and seconds taken.
    pub fn timed<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.start(name, parent);
        let started = self.now_ns();
        let out = f();
        let took = self.now_ns().saturating_sub(started);
        self.end(span);
        (out, secs(took))
    }

    /// Records accumulated per-call totals as consecutive child spans of
    /// `parent`, starting at `start_ns`.
    fn totals(&self, parent: SpanId, start_ns: u64, totals: &[(&'static str, u64)]) {
        let mut cursor = start_ns;
        for &(name, dur_ns) in totals {
            self.obs.span_at(name, parent, cursor, dur_ns);
            cursor = cursor.saturating_add(dur_ns);
        }
    }

    /// The recorded spans as a Chrome `trace_event` document (Perfetto
    /// loads it); `None` when off.
    pub fn trace_json(&self) -> Option<String> {
        self.registry
            .as_ref()
            .map(|r| export::render_trace(&r.spans()))
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Where a probe reads its database from.
pub enum Input<'a> {
    /// Open the container and load all of it, as a batch run does.
    File(&'a Path),
    /// Load one window from an already open container, as a query does.
    Window(&'a mut dyn TrajectorySource, TimeInterval),
}

/// What one probe measured.
pub struct Probe {
    /// The normalized result set.
    pub convoys: Vec<Convoy>,
    /// Layer metrics, in catalog names.
    pub layers: Vec<(&'static str, f64)>,
    /// Sum of the layer times that tile the operation end to end; the rest
    /// of the operation's time is unattributed.
    pub attributed_s: f64,
}

fn decode(
    tr: &Tracer,
    parent: SpanId,
    input: Input<'_>,
) -> Result<(TrajectoryDatabase, ScanStats, f64), String> {
    let (loaded, decode_s) = tr.timed("datasets.decode", parent, || -> Result<_, String> {
        match input {
            Input::File(path) => {
                let mut source = ContainerSource::open(path).map_err(|e| e.to_string())?;
                let db = source.load().map_err(|e| e.to_string())?;
                Ok((db, source.scan_stats()))
            }
            Input::Window(source, window) => {
                let db = source.load_window(window).map_err(|e| e.to_string())?;
                Ok((db, source.scan_stats()))
            }
        }
    });
    let (db, scan) = loaded?;
    Ok((db, scan, decode_s))
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// CMC layer by layer: decode, the whole `engine` (right after decode, as
/// in the operation), then sweep → cluster → fold one tick at a time
/// exactly as `CmcState::ingest_snapshot` composes them. The two result
/// sets must agree.
pub fn cmc(
    tr: &Tracer,
    parent: SpanId,
    input: Input<'_>,
    query: &ConvoyQuery,
    engine: CmcEngine,
) -> Result<Probe, String> {
    let span = tr.start("probe.cmc", parent);
    let window = match &input {
        Input::Window(_, window) => Some(*window),
        Input::File(_) => None,
    };
    let (db, scan, decode_s) = decode(tr, span, input)?;
    let window = window
        .or_else(|| db.time_domain())
        .ok_or("the container holds no samples")?;
    let ((engine_raw, _), engine_s) = tr.timed("core.engine", span, || {
        engine.run_windowed_with_stats(&db, query, window)
    });
    let convoys = normalize_convoys(engine_raw, query);

    let fold_span = tr.start("core.decomposed", span);
    let fold_start = tr.now_ns();
    let mut sweep = SnapshotSweep::new(&db, window, SnapshotPolicy::Interpolate);
    let mut clusterer = SnapshotClusterer::new();
    let mut state = CmcState::new(query);
    let (mut sweep_ns, mut cluster_ns, mut fold_ns) = (0u64, 0u64, 0u64);
    let (mut points, mut clusterable, mut clustered) = (0usize, 0usize, 0usize);
    loop {
        let before_sweep = tr.now_ns();
        let next = sweep.next();
        let before_cluster = tr.now_ns();
        sweep_ns += before_cluster - before_sweep;
        let Some(snapshot) = next else { break };
        points += snapshot.len();
        let clusters: &[Cluster] = if snapshot.len() < query.m {
            &[]
        } else {
            clusterable += snapshot.len();
            clusterer.cluster_into(&snapshot, query.e, query.m)
        };
        let before_fold = tr.now_ns();
        cluster_ns += before_fold - before_cluster;
        clustered += clusters.iter().map(Cluster::len).sum::<usize>();
        state.ingest_clusters(snapshot.time, clusters);
        fold_ns += tr.now_ns() - before_fold;
    }
    let before_finish = tr.now_ns();
    let (raw, fold_stats) = state.finish_with_stats();
    fold_ns += tr.now_ns() - before_finish;
    tr.end(fold_span);
    tr.totals(
        fold_span,
        fold_start,
        &[
            ("trajectory.sweep", sweep_ns),
            ("clustering.cluster", cluster_ns),
            ("core.fold", fold_ns),
        ],
    );
    if normalize_convoys(raw, query) != convoys {
        return Err(format!(
            "the {} engine and the layer-by-layer fold disagree",
            engine.name()
        ));
    }
    drop(db);
    tr.end(span);

    let layered_s = secs(sweep_ns + cluster_ns + fold_ns);
    Ok(Probe {
        convoys,
        layers: vec![
            ("datasets.decode_s", decode_s),
            (
                "datasets.blocks_read_share",
                share(scan.blocks_read as f64, scan.blocks_total as f64),
            ),
            ("trajectory.sweep_s", secs(sweep_ns)),
            ("trajectory.snapshot_points", points as f64),
            ("clustering.cluster_s", secs(cluster_ns)),
            (
                "clustering.ns_per_point",
                share(cluster_ns as f64, clusterable as f64),
            ),
            (
                "clustering.clustered_share",
                share(clustered as f64, points as f64),
            ),
            ("core.fold_s", secs(fold_ns)),
            ("core.peak_candidates", fold_stats.peak_candidates as f64),
            ("core.engine_s", engine_s),
            ("core.parallel_speedup", share(layered_s, engine_s)),
        ],
        attributed_s: decode_s + engine_s,
    })
}

/// CuTS* layer by layer, composed as `Discovery::run` composes it: δ from
/// the Section 7.4 guideline, then simplify, filter and refine.
pub fn cuts(
    tr: &Tracer,
    parent: SpanId,
    path: &Path,
    query: &ConvoyQuery,
) -> Result<Probe, String> {
    let span = tr.start("probe.cuts", parent);
    let (db, _, decode_s) = decode(tr, span, Input::File(path))?;
    let config = CutsConfig::new(CUTS_VARIANT);
    let (delta, delta_s) = tr.timed("core.auto_delta", span, || auto_delta(&db, query.e));
    let (simplified, simplify_s) = tr.timed("simplify.simplify_database", span, || {
        simplify_database(&db, &config, delta)
    });
    let (output, filter_s) = tr.timed("core.cuts.filter_simplified", span, || {
        filter_simplified(&simplified, &db, query, &config, delta)
    });
    let ((raw, _), refine_s) = tr.timed("core.cuts.refine_partitions", span, || {
        refine_partitions(&db, query, &output.partitions)
    });
    drop(db);
    tr.end(span);
    Ok(Probe {
        convoys: normalize_convoys(raw, query),
        layers: vec![
            ("datasets.decode_s", decode_s),
            ("simplify.simplify_s", delta_s + simplify_s),
            ("simplify.reduction_pct", output.reduction_percent()),
            ("core.cuts.filter_s", filter_s),
            ("core.cuts.candidates", output.candidates.len() as f64),
            ("core.cuts.refine_s", refine_s),
            (
                "core.cuts.refinement_units",
                refinement_unit(&output.candidates),
            ),
        ],
        attributed_s: decode_s + delta_s + simplify_s + filter_s + refine_s,
    })
}

/// What one [`replay`] measured.
pub struct Replay {
    pub probe: Probe,
    /// Latency of every push that closed at least one partition, seconds.
    pub stalls_s: Vec<f64>,
    /// Latency of every checkpoint write, seconds.
    pub checkpoints_s: Vec<f64>,
}

/// One replay of the streaming workload: decode, order the samples by
/// time, push them all at full speed with a checkpoint every
/// `checkpoint_every` closed partitions, finish, and restore the last
/// checkpoint. This is the streaming operation itself, so the untraced
/// run and the traced probe share it.
pub fn replay(
    tr: &Tracer,
    parent: SpanId,
    path: &Path,
    config: StreamConfig,
    checkpoint: &Path,
    checkpoint_every: u64,
) -> Result<Replay, String> {
    let span = tr.start("probe.stream", parent);
    let (db, _, decode_s) = decode(tr, span, Input::File(path))?;
    let (samples, feed_order_s) = tr.timed("stream.feed_order_samples", span, || {
        feed_order_samples(&db)
    });
    drop(db);

    let replay_span = tr.start("stream.replay", span);
    let mut stream = ConvoyStream::new(config);
    let mut convoys = Vec::new();
    let (mut push_ns, mut close_ns) = (0u64, 0u64);
    let mut stalls_s = Vec::new();
    let mut checkpoints_s = Vec::new();
    let (mut closed, mut checkpointed_at, mut checkpoint_bytes) = (0u64, 0u64, 0u64);
    let mut frontier = None;
    // One clock read per push: each push's latency runs from the end of
    // the previous one (bookkeeping included, checkpoints excluded).
    let mut last = tr.now_ns();
    for (id, p) in samples {
        stream
            .push(id, p.t, p.x, p.y)
            .map_err(|e| format!("feed rejected a database sample: {e}"))?;
        let now = tr.now_ns();
        let took = now - last;
        last = now;
        let now_closed = stream.stats().partitions_closed;
        if now_closed > closed {
            closed = now_closed;
            close_ns += took;
            stalls_s.push(secs(took));
            tr.totals(replay_span, now - took, &[("stream.push+close", took)]);
        } else {
            push_ns += took;
        }
        convoys.extend(stream.drain());
        stream.drain_candidates();
        if closed >= checkpointed_at + checkpoint_every {
            let (written, took_s) = tr.timed("stream.checkpoint", replay_span, || {
                stream.checkpoint(checkpoint)
            });
            written.map_err(|e| format!("checkpoint failed: {e}"))?;
            checkpoints_s.push(took_s);
            checkpoint_bytes = std::fs::metadata(checkpoint).map_or(0, |m| m.len());
            checkpointed_at = closed;
            frontier = Some((closed, stream.watermark()));
            last = tr.now_ns();
        }
    }
    tr.end(replay_span);

    let (outcome, finish_s) = tr.timed("stream.finish", span, || stream.finish());
    convoys.extend(outcome.convoys);
    let (restored, restore_s) = tr.timed("stream.restore", span, || {
        frontier.map(|_| ConvoyStream::restore(checkpoint))
    });
    if let (Some(restored), Some((closed_at, watermark))) = (restored, frontier) {
        let restored = restored.map_err(|e| format!("restore failed: {e}"))?;
        if restored.stats().partitions_closed != closed_at || restored.watermark() != watermark {
            return Err("the restored stream is not at the checkpointed frontier".into());
        }
    }
    tr.end(span);

    let checkpoint_s: f64 = checkpoints_s.iter().sum();
    let (push_s, close_s) = (secs(push_ns), secs(close_ns));
    Ok(Replay {
        probe: Probe {
            convoys: normalize_convoys(convoys, &config.query),
            layers: vec![
                ("datasets.decode_s", decode_s),
                ("stream.feed_order_s", feed_order_s),
                ("stream.push_s", push_s),
                ("stream.close_s", close_s),
                (
                    "stream.partitions_closed",
                    outcome.stats.partitions_closed as f64,
                ),
                (
                    "stream.peak_samples_buffered",
                    outcome.stats.peak_samples_buffered as f64,
                ),
                ("stream.checkpoint_s", checkpoint_s),
                ("stream.checkpoint_bytes", checkpoint_bytes as f64),
                ("stream.finish_s", finish_s),
                ("stream.restore_s", restore_s),
            ],
            attributed_s: decode_s
                + feed_order_s
                + push_s
                + close_s
                + checkpoint_s
                + finish_s
                + restore_s,
        },
        stalls_s,
        checkpoints_s,
    })
}
