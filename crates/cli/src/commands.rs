//! The `convoy` subcommands. Every command is a pure function from parsed
//! arguments to a rendered report string, so the logic is unit-testable
//! without spawning processes.

use crate::args::{ArgError, ParsedArgs};
use convoy_core::{
    compare_result_sets, mc2, publish_discovery, publish_stage_timings, CmcEngine, ConvoyQuery,
    CutsConfig, CutsVariant, Discovery, Mc2Config, Method,
};
use convoy_obs::{export, Obs, Registry};
use convoy_stream::{
    feed_order_samples, publish_stream_stats, replay_config, ConvoyStream, EvictionPolicy,
    FeedIngest, StreamConfig,
};
use std::sync::Arc;
use std::time::Instant;
use traj_datasets::container::DEFAULT_BLOCK_RECORDS;
use traj_datasets::io::{parse_csv_line, write_csv_file};
use traj_datasets::{
    generate, open_source, write_container_file, DatasetProfile, InputFormat, ProfileName,
};
use traj_simplify::{ReductionStats, SimplificationMethod, ToleranceMode};
use trajectory::{publish_scan_stats, TimeInterval, TrajectoryDatabase, TrajectorySource};

/// A command error: either bad arguments or a failure while executing.
#[derive(Debug)]
pub struct CommandError(pub String);

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CommandError {}

impl From<ArgError> for CommandError {
    fn from(e: ArgError) -> Self {
        CommandError(e.to_string())
    }
}

impl From<trajectory::TrajectoryError> for CommandError {
    fn from(e: trajectory::TrajectoryError) -> Self {
        CommandError(e.to_string())
    }
}

impl From<std::io::Error> for CommandError {
    fn from(e: std::io::Error) -> Self {
        CommandError(e.to_string())
    }
}

/// The usage text printed by `convoy help`.
pub const USAGE: &str = "\
convoy — convoy discovery in trajectory databases (VLDB 2008 reproduction)

USAGE:
    convoy <command> [arguments]

COMMANDS:
    generate  --profile truck|cattle|car|taxi [--scale F] [--seed N] --out FILE
              Generate a synthetic trajectory CSV with planted convoys.
    stats     FILE
              Print Table-3-style statistics of a trajectory file.
    convert   IN OUT [--block-records N]
              Re-encode between plain CSV and the binary `.convoy` columnar
              container (formats decided by extension, then magic bytes).
              Reports how many duplicate (object, t) samples the batch
              loader collapsed (it keeps the last; a streaming feed rejects
              them and keeps the first).
    discover  FILE [--method cmc|cuts|cuts-plus|cuts-star] --m N --k N --e F
              [--delta F] [--lambda N] [--global-tolerance] [--stats]
              [--from T] [--to T] [--trace PATH] [--metrics-json PATH]
              [--parallel [N]]   (CMC engine, which also runs the CuTS
              refinement: the swept single pass is the default;
              --parallel N partitions time across N worker threads, N
              omitted or 0 uses every core)
              Run a convoy query and print the discovered convoys.
              --from/--to restrict discovery to samples with T inside the
              inclusive tick window (no interpolation at the edges); on a
              `.convoy` input only the blocks whose time range intersects
              the window are read. --stats additionally prints the run's
              counters (the fold's counters and work, snapshot-DBSCAN
              region queries run and skipped among them; candidate and
              refinement counts; source scan counters). --trace PATH
              writes a Chrome trace_event span tree (loadable in Perfetto
              / chrome://tracing); --metrics-json PATH writes the full
              metrics snapshot (counters, gauges, histograms and wall-clock
              stage timings) as versioned JSON.
    stream    FILE|- --m N --k N --e F [--method cuts|cuts-plus|cuts-star]
              [--delta F] [--lambda N] [--horizon H] [--max-candidates N]
              [--limit N] [--strict] [--trace PATH] [--metrics-json PATH]
              [--checkpoint-path P [--checkpoint-every K]] [--resume P]
              Streaming discovery: feed samples through the incremental
              CuTS pipeline in time order, emitting convoys as they
              confirm. FILE is replayed in time order; `-` reads a live
              `object_id,t,x,y` feed from stdin (requires explicit
              --delta and --lambda; malformed and out-of-order lines are
              rejected and counted, not fatal — --strict makes them fatal
              with the offending line number). --horizon H evicts chains
              older than H ticks and refuses to bridge feed gaps larger
              than H. --checkpoint-path P atomically snapshots the stream
              to P every K closed partitions (K defaults to 1), keeping
              one extra snapshot-sized file, P.spare, beside P so that a
              write frees no disk blocks (bar the first after a crash);
              --resume P restores a snapshot and continues — replaying the
              same feed skips everything the checkpoint already ingested.
              --resume
              conflicts with the query/pipeline flags (they ride in the
              checkpoint).
    simplify  FILE --delta F [--method dp|dp-plus|dp-star]
              Report the vertex reduction of trajectory simplification.
    compare   FILE --m N --k N --e F [--theta F]
              Compare MC2 (moving clusters) against CMC on a convoy query.
    help      Show this message.
";

fn parse_method(name: &str) -> Result<Method, CommandError> {
    match name.to_ascii_lowercase().as_str() {
        "cmc" => Ok(Method::Cmc),
        "cuts" => Ok(Method::Cuts),
        "cuts-plus" | "cuts+" => Ok(Method::CutsPlus),
        "cuts-star" | "cuts*" => Ok(Method::CutsStar),
        other => Err(CommandError(format!(
            "unknown method `{other}` (expected cmc, cuts, cuts-plus or cuts-star)"
        ))),
    }
}

fn parse_profile(name: &str) -> Result<ProfileName, CommandError> {
    match name.to_ascii_lowercase().as_str() {
        "truck" => Ok(ProfileName::Truck),
        "cattle" => Ok(ProfileName::Cattle),
        "car" => Ok(ProfileName::Car),
        "taxi" => Ok(ProfileName::Taxi),
        other => Err(CommandError(format!(
            "unknown profile `{other}` (expected truck, cattle, car or taxi)"
        ))),
    }
}

fn parse_simplifier(name: &str) -> Result<SimplificationMethod, CommandError> {
    match name.to_ascii_lowercase().as_str() {
        "dp" => Ok(SimplificationMethod::Dp),
        "dp-plus" | "dp+" => Ok(SimplificationMethod::DpPlus),
        "dp-star" | "dp*" => Ok(SimplificationMethod::DpStar),
        other => Err(CommandError(format!(
            "unknown simplification method `{other}` (expected dp, dp-plus or dp-star)"
        ))),
    }
}

/// Opens the first positional argument as a [`TrajectorySource`] — CSV or
/// `.convoy` container, decided by extension/magic — so every subcommand
/// accepts either format.
fn open_input(args: &ParsedArgs) -> Result<(String, Box<dyn TrajectorySource>), CommandError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CommandError("missing input path (.csv or .convoy)".into()))?;
    let source = open_source(path)?;
    Ok((path.clone(), source))
}

/// Loads the whole database behind the first positional argument.
fn load_database(args: &ParsedArgs) -> Result<(String, TrajectoryDatabase), CommandError> {
    let (path, mut source) = open_input(args)?;
    let db = source.load()?;
    Ok((path, db))
}

/// Loads the database at `path` through the sniffing factory (the stream
/// command's file-replay path).
fn load_path(path: &str) -> Result<TrajectoryDatabase, CommandError> {
    Ok(open_source(path)?.load()?)
}

/// Resolves the CMC engine from the `--parallel N` flag (absent: the swept
/// engine). Every method runs it: CMC over the whole database, the CuTS
/// methods as their refinement over the filter's covered sweep.
fn engine_from_args(args: &ParsedArgs) -> Result<CmcEngine, CommandError> {
    // A bare `--parallel` (no count, e.g. followed by another flag or at
    // the end of the line) parses as a boolean flag; it is the one value
    // option whose valueless form means something: "every core".
    let parallel = if args.flags.iter().any(|f| f == "parallel") {
        Some(0)
    } else {
        args.get_parsed("parallel")?
    };
    Ok(parallel.map_or(CmcEngine::Swept, |threads| CmcEngine::Parallel { threads }))
}

fn query_from_args(args: &ParsedArgs) -> Result<ConvoyQuery, CommandError> {
    let m: usize = args.require_parsed("m")?;
    let k: usize = args.require_parsed("k")?;
    let e = check_distance("e", args.require_parsed("e")?)?;
    Ok(ConvoyQuery::new(m, k, e))
}

/// Checks a distance option: `--e` must be finite and positive, `--delta`
/// (any other key) finite and non-negative. Both comparisons are written so
/// that NaN fails them: a NaN ε makes CuTS hang and CMC report nothing, and
/// a negative δ inflates the global tolerance past the filter's
/// no-false-dismissal bound. An infinite ε or δ would run, but a stream
/// checkpoint cannot store it, so `--resume` could not restore the run.
fn check_distance(key: &str, value: f64) -> Result<f64, CommandError> {
    let (valid, rule) = if key == "e" {
        (value > 0.0, "finite and positive")
    } else {
        (value >= 0.0, "finite and non-negative")
    };
    if !(valid && value.is_finite()) {
        return Err(CommandError(format!("--{key} must be {rule}")));
    }
    Ok(value)
}

/// `convoy generate`: write a synthetic dataset CSV.
pub fn generate_command(args: &ParsedArgs) -> Result<String, CommandError> {
    args.reject_unknown(&["profile", "scale", "seed", "out"])?;
    let profile_name = parse_profile(
        args.get("profile")?
            .ok_or_else(|| CommandError("missing --profile".into()))?,
    )?;
    let scale: f64 = args.get_parsed_or("scale", 0.1)?;
    if !scale.is_finite() || scale <= 0.0 {
        return Err(CommandError(format!(
            "--scale must be a finite number greater than 0, got {scale}"
        )));
    }
    let seed: u64 = args.get_parsed_or("seed", 42)?;
    let out = args
        .get("out")?
        .ok_or_else(|| CommandError("missing --out".into()))?;

    let profile = DatasetProfile::named(profile_name).scaled(scale);
    let dataset = generate(&profile, seed);
    write_csv_file(&dataset.database, out)?;

    let stats = dataset.database.stats();
    Ok(format!(
        "wrote {out}\nprofile: {profile_name} (scale {scale}, seed {seed})\n{}\nplanted convoys: {}\nsuggested query: --m {} --k {} --e {}",
        stats.to_table(),
        dataset.ground_truth.len(),
        profile.m,
        profile.k,
        profile.e
    ))
}

/// `convoy stats`: Table-3-style statistics of a CSV.
pub fn stats_command(args: &ParsedArgs) -> Result<String, CommandError> {
    args.reject_unknown(&[])?;
    let (path, db) = load_database(args)?;
    let stats = db.stats();
    let domain = db
        .time_domain()
        .map(|d| format!("[{}, {}]", d.start, d.end))
        .unwrap_or_else(|| "(empty)".into());
    Ok(format!(
        "{path}\n{}\ntime domain: {domain}",
        stats.to_table()
    ))
}

/// Decides the format to write at `path` from its extension alone (there is
/// no content to sniff yet).
fn output_format(path: &str) -> Result<InputFormat, CommandError> {
    match std::path::Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
    {
        Some(ext) if ext.eq_ignore_ascii_case("convoy") => Ok(InputFormat::Convoy),
        Some(ext) if ext.eq_ignore_ascii_case("csv") => Ok(InputFormat::Csv),
        _ => Err(CommandError(format!(
            "cannot infer output format of `{path}`: use a .csv or .convoy extension"
        ))),
    }
}

/// `convoy convert`: re-encode a trajectory file between the CSV and
/// `.convoy` container formats (directions decided by extension/magic).
pub fn convert_command(args: &ParsedArgs) -> Result<String, CommandError> {
    args.reject_unknown(&["block-records"])?;
    let [input, output] = args.positional.as_slice() else {
        return Err(CommandError(
            "usage: convoy convert IN OUT (formats decided by extension/magic)".into(),
        ));
    };
    let block_records: usize = args.get_parsed_or("block-records", DEFAULT_BLOCK_RECORDS)?;
    if block_records == 0 {
        return Err(CommandError("--block-records must be positive".into()));
    }
    let to_format = output_format(output)?;

    let mut source = open_source(input)?;
    let from_format = source.format_name();
    let db = source.load()?;
    let scan = source.scan_stats();
    drop(source);

    // Batch ingestion keeps the *last* sample per `(object, t)` (see
    // `TrajectoryBuilder::build`), so any collapsed duplicates show up as the
    // gap between records scanned and points stored. A streaming feed of the
    // same file would instead reject these and keep the first sample.
    let duplicates = scan.records_read.saturating_sub(db.total_points() as u64);

    let detail = match to_format {
        InputFormat::Csv => {
            write_csv_file(&db, output)?;
            String::new()
        }
        InputFormat::Convoy => {
            write_container_file(&db, output, block_records)
                .map_err(|e| CommandError(format!("cannot write {output}: {e}")))?;
            let blocks = db.total_points().div_ceil(block_records);
            format!(", {blocks} block(s) of ≤{block_records} record(s)")
        }
    };
    let mut out = format!(
        "{input} ({from_format}) -> {output} ({}): {} object(s), {} point(s){detail}\n",
        to_format.extension(),
        db.len(),
        db.total_points(),
    );
    // The conversion counters ride the same registry rendering path as the
    // other commands' stats blocks. `convert.duplicates_collapsed` counts the
    // (object, t) duplicates the batch loader collapsed (it keeps the last
    // sample; a streaming feed rejects them and keeps the first).
    let views = Registry::new();
    publish_scan_stats(&views, &scan);
    views.counter_store("convert.duplicates_collapsed", duplicates);
    views.counter_store("convert.objects", db.len() as u64);
    views.counter_store("convert.points", db.total_points() as u64);
    out.push_str(&export::render_text(&views.snapshot()));
    Ok(out)
}

/// The `--trace` / `--metrics-json` export flags shared by `discover` and
/// `stream`. When either asks for an export a live [`Registry`] records real
/// spans, wall-clock timings and per-tick histograms, and the command
/// publishes its typed stats into it before writing; otherwise `obs` is the
/// zero-cost no-op and nothing is recorded.
///
/// The `--stats` terminal block never comes from this registry: it is
/// rendered from a fresh views-only registry fed by the deterministic
/// `publish_*` functions, so the report text stays byte-identical run to run
/// (the equivalence tests diff it). Wall-clock values only ever reach the
/// export files.
struct ObsSetup {
    registry: Option<Arc<Registry>>,
    obs: Obs,
    trace: Option<String>,
    metrics: Option<String>,
}

/// Builds the recorder for a command: a live registry when an export flag
/// asks for one, the zero-cost no-op otherwise.
fn obs_from_args(args: &ParsedArgs) -> Result<ObsSetup, CommandError> {
    let trace = args.get("trace")?.map(str::to_string);
    let metrics = args.get("metrics-json")?.map(str::to_string);
    if trace.is_none() && metrics.is_none() {
        return Ok(ObsSetup {
            registry: None,
            obs: Obs::noop(),
            trace,
            metrics,
        });
    }
    let registry = Arc::new(Registry::new());
    Ok(ObsSetup {
        obs: Obs::registry(registry.clone()),
        registry: Some(registry),
        trace,
        metrics,
    })
}

impl ObsSetup {
    /// Writes the requested export files from the live registry. A no-op
    /// when neither flag was given.
    fn write_outputs(&self) -> Result<(), CommandError> {
        let Some(registry) = &self.registry else {
            return Ok(());
        };
        if let Some(path) = &self.metrics {
            std::fs::write(path, export::render_json(&registry.snapshot()))
                .map_err(|e| CommandError(format!("cannot write metrics JSON {path}: {e}")))?;
        }
        if let Some(path) = &self.trace {
            std::fs::write(path, export::render_trace(&registry.spans()))
                .map_err(|e| CommandError(format!("cannot write trace {path}: {e}")))?;
        }
        Ok(())
    }
}

/// Parses the optional `--from` / `--to` tick bounds into a time window.
/// A missing bound is open (i64::MIN / i64::MAX); both missing means no
/// window at all (a full load).
fn parse_window(args: &ParsedArgs) -> Result<Option<TimeInterval>, CommandError> {
    let parse_bound = |flag: &str| -> Result<Option<i64>, CommandError> {
        args.get(flag)?
            .map(|raw| {
                raw.parse().map_err(|_| {
                    CommandError(format!("cannot parse --{flag} value `{raw}` as a tick"))
                })
            })
            .transpose()
    };
    let from = parse_bound("from")?;
    let to = parse_bound("to")?;
    if from.is_none() && to.is_none() {
        return Ok(None);
    }
    let start = from.unwrap_or(i64::MIN);
    let end = to.unwrap_or(i64::MAX);
    if start > end {
        return Err(CommandError(format!(
            "empty window: --from {start} is after --to {end}"
        )));
    }
    Ok(Some(TimeInterval::new(start, end)))
}

/// `convoy discover`: run a convoy query on a CSV.
pub fn discover_command(args: &ParsedArgs) -> Result<String, CommandError> {
    args.reject_unknown(&[
        "method",
        "m",
        "k",
        "e",
        "delta",
        "lambda",
        "global-tolerance",
        "limit",
        "stats",
        "parallel",
        "from",
        "to",
        "trace",
        "metrics-json",
    ])?;
    let obs = obs_from_args(args)?;
    let (path, mut source) = open_input(args)?;
    source.set_obs(obs.obs.clone());
    let window = parse_window(args)?;
    let db = match window {
        Some(window) => source.load_window(window)?,
        None => source.load()?,
    };
    let scan = source.scan_stats();
    let source_format = source.format_name();
    drop(source);
    let query = query_from_args(args)?;
    let method = parse_method(args.get("method")?.unwrap_or("cuts-star"))?;
    let engine = engine_from_args(args)?;

    let mut config = CutsConfig::new(method.cuts_variant().unwrap_or(CutsVariant::CutsStar));
    if let Some(delta) = args.get_parsed("delta")? {
        config = config.with_delta(check_distance("delta", delta)?);
    }
    if let Some(lambda) = args.get_parsed("lambda")? {
        config = config.with_lambda(lambda);
    }
    if args.has_flag("global-tolerance") {
        config = config.with_tolerance_mode(ToleranceMode::Global);
    }

    let started = Instant::now();
    let outcome = Discovery::new(method)
        .with_config(config)
        .with_cmc_engine(engine)
        .with_obs(obs.obs.clone())
        .run(&db, &query);
    let elapsed = started.elapsed();
    let limit: usize = args.get_parsed_or("limit", 50)?;

    if let Some(live) = &obs.registry {
        // Publish the run's typed stats into the live registry, add the
        // wall-clock stage timings from the run's spans — which never appear
        // in the terminal report — and write the export files.
        publish_discovery(live, &outcome);
        publish_scan_stats(live, &scan);
        publish_stage_timings(live);
        obs.write_outputs()?;
    }

    let mut out = format!(
        "{path}: {} convoy(s) found by {} in {:.3} s (m={}, k={}, e={})\n",
        outcome.convoys.len(),
        method.name(),
        elapsed.as_secs_f64(),
        query.m,
        query.k,
        query.e
    );
    let threads = engine.resolved_threads();
    out.push_str(&format!(
        "engine: {} ({} thread{})\n",
        engine.name(),
        threads,
        if threads == 1 { "" } else { "s" }
    ));
    if method != Method::Cmc {
        out.push_str(&format!(
            "filter: {} candidates, δ={:.2}, λ={}, vertex reduction {:.1}%\n",
            outcome.stats.num_candidates,
            outcome.stats.delta,
            outcome.stats.lambda,
            outcome.stats.reduction_percent
        ));
    }
    if args.has_flag("stats") {
        // One rendering path for every stats block: deterministic views
        // published into a fresh registry, rendered by the text exporter.
        out.push_str(&format!("scan: {source_format} source\n"));
        let views = Registry::new();
        publish_discovery(&views, &outcome);
        publish_scan_stats(&views, &scan);
        out.push_str(&export::render_text(&views.snapshot()));
    }
    for convoy in outcome.convoys.iter().take(limit) {
        out.push_str(&format!("  {convoy}\n"));
    }
    if outcome.convoys.len() > limit {
        out.push_str(&format!("  … and {} more\n", outcome.convoys.len() - limit));
    }
    Ok(out)
}

/// `convoy stream`: streaming discovery over a time-ordered feed.
pub fn stream_command(args: &ParsedArgs) -> Result<String, CommandError> {
    args.reject_unknown(&[
        "method",
        "m",
        "k",
        "e",
        "delta",
        "lambda",
        "horizon",
        "max-candidates",
        "limit",
        "checkpoint-path",
        "checkpoint-every",
        "resume",
        "strict",
        "trace",
        "metrics-json",
    ])?;
    let obs = obs_from_args(args)?;
    let path = args
        .positional
        .first()
        .ok_or_else(|| CommandError("missing input (CSV path or `-` for stdin)".into()))?
        .clone();

    let resume = args.get("resume")?.map(str::to_string);
    let checkpoint_path = args.get("checkpoint-path")?.map(str::to_string);
    let checkpoint_every: u64 = args.get_parsed_or("checkpoint-every", 1)?;
    if args.has_flag("checkpoint-every") && checkpoint_path.is_none() {
        return Err(CommandError(
            "--checkpoint-every requires --checkpoint-path".into(),
        ));
    }
    if checkpoint_every == 0 {
        return Err(CommandError(
            "--checkpoint-every must be at least 1 partition".into(),
        ));
    }
    let strict = args.has_flag("strict");
    let limit: usize = args.get_parsed_or("limit", 50)?;

    // Assemble the stream. A resumed session carries its entire
    // configuration inside the checkpoint, so the query/pipeline flags
    // conflict with --resume rather than being silently overridden.
    let (mut stream, samples) = if let Some(ckpt) = &resume {
        for key in [
            "m",
            "k",
            "e",
            "method",
            "delta",
            "lambda",
            "horizon",
            "max-candidates",
        ] {
            if args.has_flag(key) {
                return Err(CommandError(format!(
                    "--{key} conflicts with --resume (parameters come from the checkpoint)"
                )));
            }
        }
        let stream = ConvoyStream::restore_with_obs(ckpt, &obs.obs)
            .map_err(|e| CommandError(format!("cannot resume from {ckpt}: {e}")))?;
        let samples = if path == "-" {
            None
        } else {
            Some(feed_order_samples(&load_path(&path)?))
        };
        (stream, samples)
    } else {
        let query = query_from_args(args)?;
        let method = parse_method(args.get("method")?.unwrap_or("cuts"))?;
        let Some(variant) = method.cuts_variant() else {
            return Err(CommandError(
                "streaming discovery runs the CuTS pipeline; pick --method cuts, cuts-plus or cuts-star"
                    .into(),
            ));
        };

        let mut eviction = EvictionPolicy::unbounded();
        if let Some(horizon) = args.get_parsed::<i64>("horizon")? {
            if horizon < 1 {
                return Err(CommandError("--horizon must be at least 1 tick".into()));
            }
            eviction = eviction.with_horizon(horizon);
        }
        if let Some(max) = args.get_parsed::<usize>("max-candidates")? {
            if max == 0 {
                return Err(CommandError("--max-candidates must be positive".into()));
            }
            eviction = eviction.with_max_candidates(max);
        }
        let delta_arg = match args.get_parsed("delta")? {
            Some(delta) => Some(check_distance("delta", delta)?),
            None => None,
        };
        let lambda_arg: Option<usize> = args.get_parsed("lambda")?;

        // Assemble the feed: a file is replayed in time order (with
        // batch-style automatic δ/λ when not given); stdin is consumed line
        // by line and needs both parameters up front.
        let (config, samples) = if path == "-" {
            let (Some(delta), Some(lambda)) = (delta_arg, lambda_arg) else {
                return Err(CommandError(
                    "reading from stdin requires explicit --delta and --lambda \
                     (automatic selection needs the whole database)"
                        .into(),
                ));
            };
            let config = StreamConfig::new(query, delta, lambda).with_variant(variant);
            (config, None)
        } else {
            // Same δ/λ derivation and feed order as `ReplayStream` — the
            // path the equivalence harness tests — taken wholesale so the
            // CLI can never drift from it.
            let db = load_path(&path)?;
            let mut cuts = CutsConfig::new(variant);
            if let Some(delta) = delta_arg {
                cuts = cuts.with_delta(delta);
            }
            if let Some(lambda) = lambda_arg {
                cuts = cuts.with_lambda(lambda);
            }
            (
                replay_config(&cuts, &db, &query),
                Some(feed_order_samples(&db)),
            )
        };
        let mut stream = ConvoyStream::new(config.with_eviction(eviction));
        stream.set_obs(obs.obs.clone());
        (stream, samples)
    };

    let config = *stream.config();
    let query = config.query;
    let eviction = config.eviction;
    let mut out = format!(
        "{path}: streaming discovery ({} m={} k={} e={} δ={:.2} λ={}{}{})\n",
        config.variant,
        query.m,
        query.k,
        query.e,
        config.delta,
        config.lambda,
        eviction
            .horizon
            .map(|h| format!(" horizon={h}"))
            .unwrap_or_default(),
        eviction
            .max_candidates
            .map(|n| format!(" max-candidates={n}"))
            .unwrap_or_default(),
    );
    if let Some(ckpt) = &resume {
        out.push_str(&format!("resumed from {ckpt}\n"));
    }

    let mut confirmed = 0usize;
    let mut rejected = 0u64;
    let mut emit = |stream: &mut ConvoyStream, out: &mut String| {
        let watermark = stream.watermark().unwrap_or_default();
        for convoy in stream.drain() {
            if confirmed < limit {
                out.push_str(&format!("  [t={watermark}] {convoy}\n"));
            }
            confirmed += 1;
        }
        // The CLI reports candidates only as a count; drop the queue so an
        // unbounded session stays bounded.
        stream.drain_candidates();
    };
    // Checkpoints are cut at partition closes — the only moments where the
    // stream's state is a clean resumable frontier.
    let mut last_checkpoint_at = stream.stats().partitions_closed;
    let mut maybe_checkpoint = |stream: &mut ConvoyStream| -> Result<(), CommandError> {
        let Some(ckpt) = &checkpoint_path else {
            return Ok(());
        };
        let closed = stream.stats().partitions_closed;
        if closed >= last_checkpoint_at + checkpoint_every {
            stream
                .checkpoint(ckpt)
                .map_err(|e| CommandError(format!("cannot write checkpoint {ckpt}: {e}")))?;
            last_checkpoint_at = closed;
        }
        Ok(())
    };

    match samples {
        Some(samples) => {
            for (id, p) in samples {
                match stream.push(id, p.t, p.x, p.y) {
                    Ok(()) => {}
                    // On --resume the file is replayed from the top; the
                    // restored stream rejects exactly the samples the
                    // checkpoint already ingested, which is how the replay
                    // fast-forwards to where it left off.
                    Err(_) if resume.is_some() => {
                        rejected += 1;
                        continue;
                    }
                    Err(e) => {
                        return Err(CommandError(format!("replay sample rejected: {e}")));
                    }
                }
                emit(&mut stream, &mut out);
                maybe_checkpoint(&mut stream)?;
            }
        }
        None => {
            use std::io::{BufRead, Write};
            // A live feed must see its convoys as they confirm, not at EOF:
            // print confirmations immediately (a closed pipe is a normal way
            // for the consumer to stop, mirroring main's BrokenPipe guard).
            let live_print = |chunk: &str| {
                if let Err(e) = std::io::stdout().write_all(chunk.as_bytes()) {
                    // Same policy as main's report printing: a closed pipe is
                    // a normal stop, anything else is a loud failure.
                    if e.kind() == std::io::ErrorKind::BrokenPipe {
                        std::process::exit(0);
                    }
                    eprintln!("error: cannot write output: {e}");
                    std::process::exit(1);
                }
            };
            // Header first, then confirmations as they happen; the returned
            // report holds only the end-of-stream summary.
            live_print(&out);
            out.clear();
            let stdin = std::io::stdin();
            for (line_no, line) in stdin.lock().lines().enumerate() {
                let line = line?;
                // A long-lived session must survive one garbled line the
                // same way it survives an out-of-order sample: reject,
                // count, continue — unless --strict asked for fail-fast, in
                // which case the error names the offending line (everything
                // confirmed so far has already been flushed to stdout).
                let parsed = match parse_csv_line(&line, line_no + 1) {
                    Ok(Some(sample)) => sample,
                    Ok(None) => continue,
                    Err(e) => {
                        if strict {
                            return Err(CommandError(format!("invalid feed: {e}")));
                        }
                        rejected += 1;
                        continue;
                    }
                };
                let (id, t, x, y) = parsed;
                if let Err(e) = stream.push(id, t, x, y) {
                    if strict {
                        return Err(CommandError(format!(
                            "invalid feed at line {}: {e}",
                            line_no + 1
                        )));
                    }
                    rejected += 1;
                    continue;
                }
                emit(&mut stream, &mut out);
                live_print(&out);
                out.clear();
                maybe_checkpoint(&mut stream)?;
            }
        }
    }

    let outcome = stream.finish();
    for convoy in outcome.convoys {
        if confirmed < limit {
            out.push_str(&format!("  [t=end] {convoy}\n"));
        }
        confirmed += 1;
    }
    if confirmed > limit {
        out.push_str(&format!("  … and {} more\n", confirmed - limit));
    }
    out.push_str(&format!("confirmed convoys: {confirmed}\n"));
    if rejected > 0 {
        out.push_str(&format!("rejected samples: {rejected}\n"));
    }
    let stats = outcome.stats;
    out.push_str(&format!("partitions closed: {}\n", stats.partitions_closed));
    // Same rendering path as `discover --stats`: deterministic views into a
    // fresh registry, rendered by the text exporter.
    let views = Registry::new();
    publish_stream_stats(&views, &stats);
    out.push_str(&export::render_text(&views.snapshot()));
    if let Some(live) = &obs.registry {
        publish_stream_stats(live, &stats);
        obs.write_outputs()?;
    }
    Ok(out)
}

/// `convoy simplify`: report vertex reduction for a tolerance.
pub fn simplify_command(args: &ParsedArgs) -> Result<String, CommandError> {
    args.reject_unknown(&["delta", "method"])?;
    let (path, db) = load_database(args)?;
    let delta = check_distance("delta", args.require_parsed("delta")?)?;
    let method = parse_simplifier(args.get("method")?.unwrap_or("dp"))?;
    let simplified: Vec<_> = db.iter().map(|(_, t)| method.simplify(t, delta)).collect();
    let stats = ReductionStats::from_simplified(simplified.iter());
    Ok(format!(
        "{path}: {} with δ={delta}\n\
         trajectories: {}\n\
         points: {} → {} ({:.1}% reduction, factor {:.2})\n\
         max actual tolerance: {:.3}\n\
         mean actual tolerance: {:.3}",
        method.name(),
        stats.num_trajectories,
        stats.original_points,
        stats.simplified_points,
        stats.reduction_percent(),
        stats.reduction_factor(),
        stats.max_actual_tolerance,
        stats.mean_actual_tolerance,
    ))
}

/// `convoy compare`: MC2 accuracy against CMC (the Figure 19 experiment on
/// the user's own data).
pub fn compare_command(args: &ParsedArgs) -> Result<String, CommandError> {
    args.reject_unknown(&["m", "k", "e", "theta"])?;
    let (path, db) = load_database(args)?;
    let query = query_from_args(args)?;
    let theta: f64 = args.get_parsed_or("theta", 0.8)?;
    if !(0.0..=1.0).contains(&theta) {
        return Err(CommandError("--theta must be within [0, 1]".into()));
    }

    let reference = Discovery::new(Method::Cmc).run(&db, &query);
    let reported = mc2(
        &db,
        &Mc2Config {
            e: query.e,
            m: query.m,
            theta,
        },
    );
    let accuracy = compare_result_sets(&reported, &reference.convoys, &query);
    Ok(format!(
        "{path}: MC2 (θ={theta}) vs CMC ground truth\n\
         CMC convoys: {}\n\
         MC2 reported chains: {}\n\
         false positives: {} ({:.1}%)\n\
         false negatives: {} ({:.1}%)",
        accuracy.reference,
        accuracy.reported,
        accuracy.false_positives,
        accuracy.false_positive_percent(),
        accuracy.false_negatives,
        accuracy.false_negative_percent(),
    ))
}

/// Dispatches a subcommand by name.
pub fn run(command: &str, args: &ParsedArgs) -> Result<String, CommandError> {
    match command {
        "generate" => generate_command(args),
        "stats" => stats_command(args),
        "convert" => convert_command(args),
        "discover" => discover_command(args),
        "stream" => stream_command(args),
        "simplify" => simplify_command(args),
        "compare" => compare_command(args),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CommandError(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn temp_csv(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("convoy-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Value of a registry-rendered metric line (`  name  value`) in a report.
    fn metric(report: &str, name: &str) -> u64 {
        report
            .lines()
            .find_map(|l| {
                let mut fields = l.split_whitespace();
                (fields.next() == Some(name)).then(|| fields.next().unwrap().parse().unwrap())
            })
            .unwrap_or_else(|| panic!("no metric `{name}` in:\n{report}"))
    }

    fn generate_fixture(name: &str) -> String {
        let path = temp_csv(name);
        let args = ParsedArgs::parse([
            "--profile",
            "truck",
            "--scale",
            "0.02",
            "--seed",
            "7",
            "--out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        generate_command(&args).expect("generation succeeds");
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn generate_and_stats_round_trip() {
        let path = generate_fixture("gen.csv");
        let args = ParsedArgs::parse([path.as_str()]).unwrap();
        let report = stats_command(&args).unwrap();
        assert!(report.contains("number of objects"));
        assert!(report.contains("time domain"));
    }

    #[test]
    fn discover_finds_planted_convoys_on_generated_data() {
        let path = generate_fixture("disc.csv");
        // The generate command prints the suggested query; use the profile's
        // scaled parameters directly here.
        let profile = DatasetProfile::truck().scaled(0.02);
        let args = ParsedArgs::parse([
            path.as_str(),
            "--method",
            "cuts-star",
            "--m",
            &profile.m.to_string(),
            "--k",
            &profile.k.to_string(),
            "--e",
            &profile.e.to_string(),
        ])
        .unwrap();
        let report = discover_command(&args).unwrap();
        assert!(report.contains("convoy(s) found by CuTS*"));
        assert!(report.contains("candidates"));
    }

    #[test]
    fn discover_rejects_bad_arguments() {
        let path = generate_fixture("bad.csv");
        // Missing --e.
        let args = ParsedArgs::parse([path.as_str(), "--m", "3", "--k", "10"]).unwrap();
        assert!(discover_command(&args).is_err());
        // Unknown option.
        let args = ParsedArgs::parse([
            path.as_str(),
            "--m",
            "3",
            "--k",
            "10",
            "--e",
            "5",
            "--bogus",
            "1",
        ])
        .unwrap();
        assert!(discover_command(&args).is_err());
        // Unknown method.
        let args = ParsedArgs::parse([
            path.as_str(),
            "--m",
            "3",
            "--k",
            "10",
            "--e",
            "5",
            "--method",
            "flock",
        ])
        .unwrap();
        assert!(discover_command(&args).is_err());
        // Missing file.
        let args =
            ParsedArgs::parse(["/no/such/file.csv", "--m", "3", "--k", "1", "--e", "5"]).unwrap();
        assert!(discover_command(&args).is_err());
    }

    #[test]
    fn distance_options_reject_nan_and_out_of_range_values() {
        assert_eq!(check_distance("e", 2.5).unwrap(), 2.5);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                check_distance("e", bad).unwrap_err().0,
                "--e must be finite and positive"
            );
        }
        assert_eq!(check_distance("delta", 0.0).unwrap(), 0.0);
        for bad in [-5.0, f64::NAN, f64::INFINITY] {
            let err = check_distance("delta", bad).unwrap_err();
            assert_eq!(err.0, "--delta must be finite and non-negative");
        }
        // The query reader every query command shares applies the check.
        let args = ParsedArgs::parse(["--m", "3", "--k", "5", "--e", "nan"]).unwrap();
        assert!(query_from_args(&args).is_err());
    }

    #[test]
    fn discover_engine_flags_select_cmc_engines_and_agree() {
        let path = generate_fixture("engines.csv");
        let profile = DatasetProfile::truck().scaled(0.02);
        let base = [
            path.as_str(),
            "--method",
            "cmc",
            "--m",
            &profile.m.to_string(),
            "--k",
            &profile.k.to_string(),
            "--e",
            &profile.e.to_string(),
        ];

        let strip_timing = |report: String| -> Vec<String> {
            report
                .lines()
                .filter(|l| l.starts_with("  ") || l.contains("convoy(s) found"))
                .map(|l| {
                    // Drop the wall-clock portion, which varies run to run.
                    match l.split_once(" in ") {
                        Some((head, _)) => head.to_string(),
                        None => l.to_string(),
                    }
                })
                .collect()
        };

        let mut args: Vec<&str> = base.to_vec();
        args.extend(["--parallel", "3"]);
        let parallel = discover_command(&ParsedArgs::parse(args).unwrap()).unwrap();
        assert!(parallel.contains("engine: parallel (3 threads)"));

        let sequential = discover_command(&ParsedArgs::parse(base).unwrap()).unwrap();
        assert!(sequential.contains("engine: swept (1 thread)"));
        assert_eq!(strip_timing(parallel), strip_timing(sequential));
    }

    #[test]
    fn discover_engine_flags_are_validated() {
        let path = generate_fixture("engines-bad.csv");
        let base = [path.as_str(), "--m", "3", "--k", "5", "--e", "10.0"];
        // --parallel runs the CuTS refinement: the convoys and the stats
        // block are the swept run's.
        let cuts_report = |engine: &[&str]| {
            let mut args: Vec<&str> = base.to_vec();
            args.extend(["--method", "cuts-star", "--stats"]);
            args.extend(engine);
            discover_command(&ParsedArgs::parse(args).unwrap()).unwrap()
        };
        let (swept, parallel) = (cuts_report(&[]), cuts_report(&["--parallel", "2"]));
        assert_eq!(swept.lines().nth(1), Some("engine: swept (1 thread)"));
        assert_eq!(
            parallel.lines().nth(1),
            Some("engine: parallel (2 threads)")
        );
        // Past the timed summary and the engine line, the reports agree.
        assert!(swept.contains("\nstats:"), "{swept}");
        assert!(swept.lines().skip(2).eq(parallel.lines().skip(2)));
        // A non-numeric thread count is a parse error.
        let mut args: Vec<&str> = base.to_vec();
        args.extend(["--method", "cmc", "--parallel", "many"]);
        assert!(discover_command(&ParsedArgs::parse(args).unwrap()).is_err());
    }

    #[test]
    fn bare_parallel_flag_means_every_core_not_silently_sequential() {
        let path = generate_fixture("engines-bare.csv");
        // `--parallel` at the end of the line parses as a boolean flag; it
        // must select the parallel engine (all cores), not fall back to the
        // sequential sweep.
        let args = ParsedArgs::parse([
            path.as_str(),
            "--method",
            "cmc",
            "--m",
            "3",
            "--k",
            "5",
            "--e",
            "10.0",
            "--parallel",
        ])
        .unwrap();
        let report = discover_command(&args).unwrap();
        assert!(report.contains("engine: parallel"), "{report}");
    }

    #[test]
    fn simplify_reports_reduction() {
        let path = generate_fixture("simp.csv");
        for method in ["dp", "dp-plus", "dp-star"] {
            let args =
                ParsedArgs::parse([path.as_str(), "--delta", "2.0", "--method", method]).unwrap();
            let report = simplify_command(&args).unwrap();
            assert!(report.contains("reduction"), "{method}: {report}");
        }
        let args = ParsedArgs::parse([path.as_str(), "--delta", "-1"]).unwrap();
        assert!(simplify_command(&args).is_err());
    }

    #[test]
    fn compare_reports_accuracy() {
        let path = generate_fixture("cmp.csv");
        let profile = DatasetProfile::truck().scaled(0.02);
        let args = ParsedArgs::parse([
            path.as_str(),
            "--m",
            &profile.m.to_string(),
            "--k",
            &profile.k.to_string(),
            "--e",
            &profile.e.to_string(),
            "--theta",
            "0.9",
        ])
        .unwrap();
        let report = compare_command(&args).unwrap();
        assert!(report.contains("false positives"));
        assert!(report.contains("false negatives"));
        // θ out of range is rejected.
        let args = ParsedArgs::parse([
            path.as_str(),
            "--m",
            "2",
            "--k",
            "5",
            "--e",
            "5",
            "--theta",
            "1.5",
        ])
        .unwrap();
        assert!(compare_command(&args).is_err());
    }

    /// Converts the generated fixture `name.csv` to `name.convoy` and
    /// returns both paths.
    fn container_fixture(name: &str, block_records: &str) -> (String, String) {
        let csv = generate_fixture(&format!("{name}.csv"));
        let bin = temp_csv(&format!("{name}.convoy"))
            .to_str()
            .unwrap()
            .to_string();
        let args =
            ParsedArgs::parse([csv.as_str(), bin.as_str(), "--block-records", block_records])
                .unwrap();
        convert_command(&args).expect("conversion succeeds");
        (csv, bin)
    }

    #[test]
    fn convert_round_trips_and_reports_duplicates() {
        let (csv, bin) = container_fixture("convert", "64");
        // Back to CSV: the round-tripped file loads to the same database.
        let back = temp_csv("convert-back.csv").to_str().unwrap().to_string();
        let args = ParsedArgs::parse([bin.as_str(), back.as_str()]).unwrap();
        let report = convert_command(&args).unwrap();
        assert!(report.contains("(convoy) -> "), "{report}");
        assert_eq!(metric(&report, "convert.duplicates_collapsed"), 0);
        assert_eq!(load_path(&back).unwrap(), load_path(&csv).unwrap());

        // A file with a duplicate (object, t) sample: the count is surfaced.
        let dup = temp_csv("convert-dup.csv").to_str().unwrap().to_string();
        std::fs::write(&dup, "1,0,1.0,0.0\n1,0,9.0,0.0\n2,0,3.0,3.0\n").unwrap();
        let dup_bin = temp_csv("convert-dup.convoy").to_str().unwrap().to_string();
        let args = ParsedArgs::parse([dup.as_str(), dup_bin.as_str()]).unwrap();
        let report = convert_command(&args).unwrap();
        assert_eq!(metric(&report, "convert.duplicates_collapsed"), 1);
        assert_eq!(metric(&report, "convert.points"), 2);
        assert!(report.contains("2 point(s)"), "{report}");

        // An output without a known extension is rejected up front.
        let args = ParsedArgs::parse([csv.as_str(), "out.parquet"]).unwrap();
        let err = convert_command(&args).unwrap_err();
        assert!(err.to_string().contains("output format"), "{err}");
    }

    #[test]
    fn discover_output_is_byte_identical_across_backends() {
        let (csv, bin) = container_fixture("backends", "16");
        let profile = DatasetProfile::truck().scaled(0.02);
        let m = profile.m.to_string();
        let k = profile.k.to_string();
        let e = profile.e.to_string();
        // Everything except the input path, the wall-clock timing and the
        // scan counters (the `scan:` source line and the `scan.*` registry
        // lines, which legitimately differ per backend) must match byte for
        // byte.
        let comparable = |report: &str| -> Vec<String> {
            report
                .lines()
                .filter(|l| !l.starts_with("scan:") && !l.trim_start().starts_with("scan."))
                .map(|l| {
                    if l.contains("convoy(s) found") {
                        let tail = l.split_once(": ").map_or(l, |(_, t)| t);
                        tail.split_once(" in ").map_or(tail, |(h, _)| h).to_string()
                    } else {
                        l.to_string()
                    }
                })
                .collect()
        };
        for method in ["cmc", "cuts", "cuts-plus", "cuts-star"] {
            let run_on = |input: &str| {
                let args = ParsedArgs::parse([
                    input, "--method", method, "--m", &m, "--k", &k, "--e", &e, "--stats",
                ])
                .unwrap();
                discover_command(&args).unwrap()
            };
            let from_csv = run_on(&csv);
            let from_bin = run_on(&bin);
            assert!(from_bin.contains("scan: convoy source"), "{from_bin}");
            assert!(!comparable(&from_csv).is_empty());
            assert_eq!(
                comparable(&from_csv),
                comparable(&from_bin),
                "{method} must not depend on the storage backend"
            );
        }
    }

    #[test]
    fn discover_window_prunes_container_blocks() {
        let (csv, bin) = container_fixture("window", "8");
        let domain = load_path(&csv).unwrap().time_domain().unwrap();
        let mid = (domain.start + (domain.end - domain.start) / 4).to_string();
        let start = domain.start.to_string();
        fn base(input: &str) -> Vec<&str> {
            vec![input, "--m", "3", "--k", "2", "--e", "30", "--stats"]
        }
        let scan_counts = |report: &str| -> (u64, u64) {
            (
                metric(report, "scan.blocks_read"),
                metric(report, "scan.blocks_total"),
            )
        };

        // Full scan reads every block; there are several at 8 records each.
        let full = discover_command(&ParsedArgs::parse(base(&bin)).unwrap()).unwrap();
        let (read, total) = scan_counts(&full);
        assert_eq!(read, total, "{full}");
        assert!(total > 1, "{full}");

        // A window over the first quarter of the domain reads strictly fewer.
        let mut args = base(&bin);
        args.extend(["--from", &start, "--to", &mid]);
        let windowed = discover_command(&ParsedArgs::parse(args).unwrap()).unwrap();
        let (read, total_w) = scan_counts(&windowed);
        assert_eq!(total_w, total);
        assert!(read < total, "{windowed}");

        // The same window over the CSV backend yields identical convoys.
        let mut csv_args = base(&csv);
        csv_args.extend(["--from", &start, "--to", &mid]);
        let csv_windowed = discover_command(&ParsedArgs::parse(csv_args).unwrap()).unwrap();
        let convoys = |report: &str| -> Vec<String> {
            report
                .lines()
                .filter(|l| l.starts_with("  ⟨"))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(convoys(&csv_windowed), convoys(&windowed));

        // An inverted window is rejected, not silently normalised.
        let mut args = base(&bin);
        args.extend(["--from", "5", "--to", "2"]);
        let err = discover_command(&ParsedArgs::parse(args).unwrap()).unwrap_err();
        assert!(err.to_string().contains("empty window"), "{err}");
    }

    /// Checks a `--metrics-json` export against its run's report: it
    /// validates against the v1 schema, holds every name in `names` (as a
    /// counter or a gauge) and agrees with `expected` and with each line of
    /// the report's `stats:` block, which is rendered from the run's typed
    /// stats.
    fn check_export(report: &str, export: &Path, names: &[&str], expected: &[(&str, f64)]) {
        let parse =
            |path: &Path| convoy_obs::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let schema = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../schemas/metrics-v1.schema.json"
        );
        let doc = parse(export);
        convoy_obs::json::validate(&parse(Path::new(schema)), &doc)
            .expect("metrics match the v1 schema");
        let value = |name: &str| {
            ["counters", "gauges"]
                .iter()
                .find_map(|kind| doc.get(kind)?.get(name)?.as_f64())
        };
        for name in names {
            assert!(value(name).is_some(), "the export lacks {name}");
        }
        let block = report.lines().skip_while(|l| !l.starts_with("stats:"));
        let lines: Vec<(&str, f64)> = block
            .skip(1)
            .map_while(|l| {
                let (name, number) = l.trim().split_once(' ')?;
                Some((name, number.trim().parse().ok()?))
            })
            .collect();
        assert!(!lines.is_empty(), "{report}");
        for &(name, number) in lines.iter().chain(expected) {
            assert_eq!(value(name), Some(number), "{name}");
        }
    }

    /// The clusterer's and the fold's counts, which every run exports.
    const FOLD_NAMES: [&str; 12] = [
        "cluster.calls",
        "cluster.points",
        "cluster.clusters_found",
        "cluster.kernel_batches",
        "cluster.kernel_lanes",
        "cluster.region_queries",
        "prune.region_queries_skipped",
        "prune.points_dropped",
        "cmc.ticks_ingested",
        "cmc.overlap_lookups",
        "cmc.extensions",
        "cmc.peak_candidates",
    ];

    #[test]
    fn discover_writes_schema_valid_metrics_and_trace_exports() {
        let path = generate_fixture("obs-export.csv");
        let trace = temp_csv("obs-export.trace.json");
        let metrics = temp_csv("obs-export.metrics.json");
        let scan = [
            "scan.blocks_read",
            "scan.blocks_pruned",
            "scan.records_read",
        ];
        let names = [&FOLD_NAMES[..], &scan, &["discover.total_ns"]].concat();
        for engine in [
            &["--method", "cmc"][..],
            &["--method", "cmc", "--parallel", "2"],
            &["--method", "cuts-star"],
        ] {
            let mut args = vec![
                path.as_str(),
                "--m",
                "3",
                "--k",
                "5",
                "--e",
                "10",
                "--stats",
            ];
            args.extend(engine);
            args.extend(["--trace", trace.to_str().unwrap()]);
            args.extend(["--metrics-json", metrics.to_str().unwrap()]);
            let report = discover_command(&ParsedArgs::parse(args).unwrap()).unwrap();
            assert!(report.contains("convoy(s) found by"), "{report}");
            // The deterministic views, equal to the `--stats` block, and the
            // wall-clock timings.
            check_export(&report, &metrics, &names, &[]);

            // The trace is a well-formed Chrome trace_event document rooted
            // at the discover span.
            let trace_text = std::fs::read_to_string(&trace).unwrap();
            let trace_doc = convoy_obs::json::parse(&trace_text).unwrap();
            let events = convoy_obs::json::validate_trace(&trace_doc).expect("trace well-formed");
            assert!(events > 0);
            assert!(trace_text.contains("\"discover\""), "{trace_text}");
        }

        // A bare --trace with no path is an error, not a silent no-op.
        let args = ParsedArgs::parse([
            path.as_str(),
            "--m",
            "3",
            "--k",
            "5",
            "--e",
            "10",
            "--trace",
        ])
        .unwrap();
        assert!(discover_command(&args).is_err());
    }

    #[test]
    fn stream_writes_metrics_and_trace_exports() {
        let path = generate_fixture("stream-obs.csv");
        let trace = temp_csv("stream-obs.trace.json");
        let metrics = temp_csv("stream-obs.metrics.json");
        let args = ParsedArgs::parse([
            path.as_str(),
            "--m",
            "3",
            "--k",
            "5",
            "--e",
            "10",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics-json",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        let report = stream_command(&args).unwrap();
        assert!(report.contains("partitions closed:"), "{report}");

        let stream = [
            "stream.partitions_closed",
            "stream.candidates_evicted",
            "stream.samples_buffered",
            "stream.peak_samples_buffered",
        ];
        let samples = load_path(&path).unwrap().total_points() as f64;
        let ingested = [("stream.samples_ingested", samples)];
        check_export(
            &report,
            &metrics,
            &[&FOLD_NAMES[..], &stream].concat(),
            &ingested,
        );
        let trace_doc = convoy_obs::json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(convoy_obs::json::validate_trace(&trace_doc).unwrap() > 0);
    }

    #[test]
    fn dispatch_and_help() {
        assert!(run("help", &ParsedArgs::default())
            .unwrap()
            .contains("USAGE"));
        assert!(run("no-such-command", &ParsedArgs::default()).is_err());
        assert!(USAGE.contains("convert"));
        assert!(USAGE.contains("--from"));
    }

    #[test]
    fn method_and_profile_parsing() {
        assert_eq!(parse_method("CUTS-STAR").unwrap(), Method::CutsStar);
        assert_eq!(parse_method("cuts+").unwrap(), Method::CutsPlus);
        assert!(parse_method("flock").is_err());
        assert_eq!(parse_profile("Cattle").unwrap(), ProfileName::Cattle);
        assert!(parse_profile("birds").is_err());
        assert_eq!(
            parse_simplifier("dp*").unwrap(),
            SimplificationMethod::DpStar
        );
        assert!(parse_simplifier("rdp").is_err());
    }
}
