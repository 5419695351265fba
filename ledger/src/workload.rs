//! The five workloads and the closed loop that measures them.
//!
//! A run sets up its data from the seed (generate, write the `.convoy`
//! container), drops it, resets the memory peaks, and then drives one
//! client in a closed loop: each operation starts when the previous one
//! has finished, after one discarded warm-up operation. The program under
//! test only ever sees the container file.

use crate::check::{missing_planted, verify, DigestBook};
use crate::memory;
use crate::probe::{self, Input, Probe, Tracer, CUTS_VARIANT};
use crate::report::{Kind, Measured, RunResult, METRICS};
use crate::stats::{median, percentile};
use convoy_core::{CmcEngine, Convoy, ConvoyQuery, CutsConfig, Discovery, Method};
use convoy_obs::SpanId;
use convoy_stream::{replay_config, EvictionPolicy, StreamConfig};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use traj_datasets::container::DEFAULT_BLOCK_RECORDS;
use traj_datasets::{
    generate, open_source, write_container, ContainerSource, DatasetProfile, MovementModel,
    PlantedConvoy,
};
use trajectory::{TimeInterval, TrajectoryDatabase, TrajectorySource};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Measured operations an untraced run makes even past its time budget.
const MIN_OPS: usize = 3;
/// Ticks per `fleet-window` query.
const WINDOW_TICKS: i64 = 720;
/// Distinct windows a `fleet-window` run cycles through, so each one is
/// queried several times and its digest can be compared between reps.
const WINDOWS: usize = 50;
/// Age horizon of the streaming workload, in ticks.
const STREAM_HORIZON: i64 = 800;
/// Partitions closed between two checkpoints of the streaming workload.
const CHECKPOINT_EVERY: u64 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CitySparseCmc,
    DowntownDenseCmc,
    FleetCuts,
    FleetStream,
    FleetWindow,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pipeline {
    Cmc(CmcEngine),
    Cuts,
    Stream,
    Window,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::CitySparseCmc,
        Workload::DowntownDenseCmc,
        Workload::FleetCuts,
        Workload::FleetStream,
        Workload::FleetWindow,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CitySparseCmc => "city-sparse-cmc",
            Workload::DowntownDenseCmc => "downtown-dense-cmc",
            Workload::FleetCuts => "fleet-cuts",
            Workload::FleetStream => "fleet-stream",
            Workload::FleetWindow => "fleet-window",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: the layer it loads that no other does.
    pub fn why(self) -> &'static str {
        match self {
            Workload::CitySparseCmc => {
                "sparse city, swept CMC: clustering carries the load and the fold \
                 almost none; where pre-clustering pruning should gain"
            }
            Workload::DowntownDenseCmc => {
                "dense downtown on the 2-thread parallel engine: heavy clustering and \
                 fold; where pruning should not gain"
            }
            Workload::FleetCuts => {
                "long-horizon fleet with churn, batch CuTS*: the only load on simplify, \
                 filter and refine"
            }
            Workload::FleetStream => {
                "fleet replayed through ConvoyStream with durable checkpoints: the \
                 write path and the only load on the stream layers"
            }
            Workload::FleetWindow => {
                "720-tick CMC queries on an open container: the read path, where block \
                 pruning and decode lead"
            }
        }
    }

    /// The data shape, built by struct update over a named profile so the
    /// generator itself is unchanged.
    fn profile(self) -> DatasetProfile {
        let taxi = DatasetProfile::taxi();
        match self {
            Workload::CitySparseCmc => DatasetProfile {
                num_objects: 20_000,
                movement: MovementModel {
                    num_hotspots: 0,
                    ..taxi.movement
                },
                ..taxi
            },
            Workload::DowntownDenseCmc => DatasetProfile {
                num_objects: 10_000,
                movement: MovementModel {
                    world_size: 2_500.0,
                    ..taxi.movement
                },
                ..taxi
            },
            Workload::FleetCuts | Workload::FleetStream | Workload::FleetWindow => DatasetProfile {
                num_objects: 10_000,
                ..DatasetProfile::truck()
            },
        }
    }

    fn pipeline(self) -> Pipeline {
        match self {
            Workload::CitySparseCmc => Pipeline::Cmc(CmcEngine::Swept),
            Workload::DowntownDenseCmc => Pipeline::Cmc(CmcEngine::Parallel { threads: 2 }),
            Workload::FleetCuts => Pipeline::Cuts,
            Workload::FleetStream => Pipeline::Stream,
            Workload::FleetWindow => Pipeline::Window,
        }
    }
}

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    /// Run the traced layer probes and report per-layer metrics.
    pub traced: bool,
    /// Multiplies the profile's size (`DatasetProfile::scaled`).
    pub scale: f64,
    /// Where data files, checkpoints and traces go.
    pub work_dir: PathBuf,
    /// Where a traced run writes its trace; defaults to the work directory.
    pub trace_out: Option<PathBuf>,
}

/// One query window of `fleet-window`.
struct Window {
    interval: TimeInterval,
    samples: u64,
    /// Indices of the planted convoys lying wholly inside the window.
    planted: Vec<usize>,
}

/// What set-up leaves behind: files on disk and the facts the checks need.
struct Prepared {
    container: PathBuf,
    checkpoint: PathBuf,
    checkpoint_every: u64,
    query: ConvoyQuery,
    planted: Vec<PlantedConvoy>,
    samples: u64,
    windows: Vec<Window>,
    stream: Option<StreamConfig>,
    setup_s: Vec<f64>,
}

fn stream_config(db: &TrajectoryDatabase, query: &ConvoyQuery) -> StreamConfig {
    replay_config(&CutsConfig::new(CUTS_VARIANT), db, query)
        .with_eviction(EvictionPolicy::unbounded().with_horizon(STREAM_HORIZON))
}

/// Writes the container without syncing it: the file only has to outlive
/// the run, and a sync would put the disk's latency into `setup_s`.
fn write_data(db: &TrajectoryDatabase, path: &Path) -> Result<(), String> {
    let failed = |e: &dyn std::fmt::Display| format!("cannot write {}: {e}", path.display());
    let file = File::create(path).map_err(|e| failed(&e))?;
    let mut out = BufWriter::new(file);
    write_container(db, &mut out, DEFAULT_BLOCK_RECORDS).map_err(|e| failed(&e))?;
    out.flush().map_err(|e| failed(&e))
}

fn prepare(opts: &RunOptions, dir: &Path) -> Result<Prepared, String> {
    let workload = opts.workload;
    let profile = workload.profile().scaled(opts.scale);
    let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
    let container = dir.join("data.convoy");
    let streaming = workload.pipeline() == Pipeline::Stream;
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let data = generate(&profile, opts.seed);
        write_data(&data.database, &container)?;
        // The stream's δ and λ come from the whole database, the way a
        // replay derives them; that is set-up work for this workload.
        let stream = streaming.then(|| stream_config(&data.database, &query));
        setup_s.push(started.elapsed().as_secs_f64());
        last = Some((data, stream));
    }
    let Some((data, mut stream)) = last else {
        return Err("no set-up ran".into());
    };
    // Bookkeeping for the checks and the traced probes, outside set-up time.
    if opts.traced && stream.is_none() {
        stream = Some(stream_config(&data.database, &query));
    }
    let windows = if workload.pipeline() == Pipeline::Window {
        windows(&data.database, &data.ground_truth, opts.seed)
    } else {
        Vec::new()
    };
    Ok(Prepared {
        checkpoint: dir.join("stream.ckpt"),
        checkpoint_every: ((CHECKPOINT_EVERY as f64 * opts.scale).ceil() as u64).max(1),
        samples: data.database.total_points() as u64,
        planted: data.ground_truth,
        container,
        query,
        windows,
        stream,
        setup_s,
    })
}

/// `WINDOWS` query windows spread evenly over the time domain, shifted
/// together by a phase drawn from the seed. Even spacing (rather than
/// independent random starts) keeps a run's mix of quiet and busy windows
/// the same from seed to seed.
fn windows(db: &TrajectoryDatabase, planted: &[PlantedConvoy], seed: u64) -> Vec<Window> {
    let Some(domain) = db.time_domain() else {
        return Vec::new();
    };
    let len = WINDOW_TICKS.min(domain.num_points());
    let starts = (domain.num_points() - len + 1) as f64;
    let mut times: Vec<i64> = db
        .iter()
        .flat_map(|(_, traj)| traj.points().iter().map(|p| p.t))
        .collect();
    times.sort_unstable();
    let phase = (splitmix64(seed ^ 0x6c65_6467_6572_2121) >> 11) as f64 / (1u64 << 53) as f64;
    (0..WINDOWS)
        .map(|i| {
            let offset = ((i as f64 + phase) / WINDOWS as f64 * starts) as i64;
            let start = domain.start + offset;
            let interval = TimeInterval::new(start, start + len - 1);
            let below = times.partition_point(|&t| t < interval.start);
            let through = times.partition_point(|&t| t <= interval.end);
            Window {
                interval,
                samples: (through - below) as u64,
                planted: planted
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.start >= interval.start && p.end <= interval.end)
                    .map(|(i, _)| i)
                    .collect(),
            }
        })
        .collect()
}

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A per-run directory under the work directory, removed when dropped.
struct RunDir(PathBuf);

impl RunDir {
    fn create(root: &Path, workload: Workload, seed: u64) -> Result<RunDir, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = root.join(format!(
            "{}-{seed}-{}-{}",
            workload.name(),
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The closed-loop client of one run and what it has measured.
struct Client<'a> {
    prep: &'a Prepared,
    pipeline: Pipeline,
    /// The container every `fleet-window` query reads, opened once.
    source: Option<Box<dyn TrajectorySource>>,
    /// The traced probes' own handle on the same container.
    probe_source: Option<ContainerSource>,
    book: DigestBook,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    op_s: Vec<f64>,
    points_per_s: Vec<f64>,
    stalls_s: Vec<f64>,
    checkpoints_s: Vec<f64>,
    layers: BTreeMap<&'static str, Vec<f64>>,
    attributed_s: Vec<f64>,
}

/// An operation's convoys plus the streaming latencies it observed.
struct OpOutput {
    convoys: Vec<Convoy>,
    stalls_s: Vec<f64>,
    checkpoints_s: Vec<f64>,
}

impl OpOutput {
    fn batch(convoys: Vec<Convoy>) -> OpOutput {
        OpOutput {
            convoys,
            stalls_s: Vec::new(),
            checkpoints_s: Vec::new(),
        }
    }
}

impl<'a> Client<'a> {
    fn open(prep: &'a Prepared, pipeline: Pipeline, traced: bool) -> Result<Client<'a>, String> {
        let windowed = pipeline == Pipeline::Window;
        let open_err = |e: trajectory::TrajectoryError| e.to_string();
        Ok(Client {
            prep,
            pipeline,
            source: if windowed {
                Some(open_source(&prep.container).map_err(open_err)?)
            } else {
                None
            },
            probe_source: if windowed && traced {
                Some(ContainerSource::open(&prep.container).map_err(open_err)?)
            } else {
                None
            },
            book: DigestBook::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            op_s: Vec::new(),
            points_per_s: Vec::new(),
            stalls_s: Vec::new(),
            checkpoints_s: Vec::new(),
            layers: BTreeMap::new(),
            attributed_s: Vec::new(),
        })
    }

    /// The input operation `i` works on: a window index for `fleet-window`,
    /// the whole container otherwise.
    fn input(&self, i: usize) -> usize {
        if self.pipeline == Pipeline::Window {
            i % self.prep.windows.len().max(1)
        } else {
            0
        }
    }

    fn stream_config(&self) -> Result<StreamConfig, String> {
        self.prep
            .stream
            .ok_or_else(|| "no stream configuration was prepared".into())
    }

    fn fail(&mut self, failure: String) {
        self.failed += 1;
        self.failures.push(failure);
    }

    /// Planted recall plus digest agreement for `input`.
    fn check(&mut self, input: usize, convoys: &[Convoy]) -> Result<(), String> {
        let prep = self.prep;
        let k = prep.query.k;
        match self.pipeline {
            Pipeline::Window => {
                let window = prep.windows.get(input).ok_or("no query windows")?;
                let planted = window.planted.iter().map(|&i| &prep.planted[i]);
                verify(&mut self.book, input, convoys, planted, k)
            }
            _ => verify(&mut self.book, input, convoys, &prep.planted, k),
        }
    }

    /// One untraced operation; timed into the end-to-end metrics unless it
    /// is the warm-up.
    fn op(&mut self, i: usize, measured: bool) {
        self.attempted += 1;
        let prep = self.prep;
        let input = self.input(i);
        let started = Instant::now();
        let result = match self.pipeline {
            Pipeline::Cmc(engine) => discover(prep, Method::Cmc, engine),
            Pipeline::Cuts => discover(prep, Method::CutsStar, CmcEngine::default()),
            Pipeline::Stream => self.stream_config().and_then(|config| {
                probe::replay(
                    &Tracer::off(),
                    SpanId::NONE,
                    &prep.container,
                    config,
                    &prep.checkpoint,
                    prep.checkpoint_every,
                )
                .map(|r| OpOutput {
                    convoys: r.probe.convoys,
                    stalls_s: r.stalls_s,
                    checkpoints_s: r.checkpoints_s,
                })
            }),
            Pipeline::Window => match (self.source.as_mut(), prep.windows.get(input)) {
                (Some(source), Some(window)) => Discovery::new(Method::Cmc)
                    .run_source_window(&mut **source, &prep.query, window.interval)
                    .map(|outcome| OpOutput::batch(outcome.convoys))
                    .map_err(|e| e.to_string()),
                _ => Err("no query windows".into()),
            },
        };
        let took = started.elapsed().as_secs_f64();
        match result.and_then(|out| self.check(input, &out.convoys).map(|()| out)) {
            Ok(out) if measured => {
                let samples = match self.pipeline {
                    Pipeline::Window => prep.windows[input].samples,
                    _ => prep.samples,
                };
                self.op_s.push(took);
                self.points_per_s.push(samples as f64 / took);
                self.stalls_s.extend(out.stalls_s);
                self.checkpoints_s.extend(out.checkpoints_s);
            }
            Ok(_) => {}
            Err(failure) => self.fail(failure),
        }
    }

    /// The workload's own pipeline, layer by layer, on operation `i`'s
    /// input. Its result must match the untraced operations' digest.
    fn probe(&mut self, tr: &Tracer, root: SpanId, i: usize) {
        self.attempted += 1;
        let prep = self.prep;
        let input = self.input(i);
        let result = match self.pipeline {
            Pipeline::Cmc(engine) => {
                probe::cmc(tr, root, Input::File(&prep.container), &prep.query, engine)
            }
            Pipeline::Cuts => probe::cuts(tr, root, &prep.container, &prep.query),
            Pipeline::Stream => self.stream_config().and_then(|config| {
                probe::replay(
                    tr,
                    root,
                    &prep.container,
                    config,
                    &prep.checkpoint,
                    prep.checkpoint_every,
                )
                .map(|r| r.probe)
            }),
            Pipeline::Window => match (self.probe_source.as_mut(), prep.windows.get(input)) {
                (Some(source), Some(window)) => probe::cmc(
                    tr,
                    root,
                    Input::Window(source, window.interval),
                    &prep.query,
                    CmcEngine::Swept,
                ),
                _ => Err("no query windows".into()),
            },
        };
        match result.and_then(|p| self.check(input, &p.convoys).map(|()| p)) {
            Ok(p) => {
                for (name, value) in p.layers {
                    self.layers.entry(name).or_default().push(value);
                }
                self.attributed_s.push(p.attributed_s);
            }
            Err(failure) => self.fail(failure),
        }
    }

    /// The other two pipelines, once each on the whole container, so every
    /// layer metric exists on every workload. Layer metrics the workload's
    /// own pipeline measured (decode) keep the own pipeline's values.
    fn cross_probes(&mut self, tr: &Tracer, root: SpanId) {
        let prep = self.prep;
        let file = || Input::File(&prep.container);
        let cmc = || probe::cmc(tr, root, file(), &prep.query, CmcEngine::Swept);
        let cuts = || probe::cuts(tr, root, &prep.container, &prep.query);
        let stream = || {
            self.stream_config().and_then(|config| {
                probe::replay(
                    tr,
                    root,
                    &prep.container,
                    config,
                    &prep.checkpoint,
                    prep.checkpoint_every,
                )
                .map(|r| r.probe)
            })
        };
        let results: Vec<Result<Probe, String>> = match self.pipeline {
            Pipeline::Cmc(_) | Pipeline::Window => vec![cuts(), stream()],
            Pipeline::Cuts => vec![cmc(), stream()],
            Pipeline::Stream => vec![cmc(), cuts()],
        };
        let own: Vec<&'static str> = self.layers.keys().copied().collect();
        for result in results {
            self.attempted += 1;
            let checked = result.and_then(|p| {
                match missing_planted(&p.convoys, &prep.planted, prep.query.k).len() {
                    0 => Ok(p),
                    n => Err(format!(
                        "a cross-pipeline probe missed {n} planted convoy(s)"
                    )),
                }
            });
            match checked {
                Ok(p) => {
                    for (name, value) in p.layers {
                        if !own.contains(&name) {
                            self.layers.entry(name).or_default().push(value);
                        }
                    }
                }
                Err(failure) => self.fail(failure),
            }
        }
    }
}

/// A batch discovery as a user runs it: open the container, load it, run.
fn discover(prep: &Prepared, method: Method, engine: CmcEngine) -> Result<OpOutput, String> {
    let mut source = open_source(&prep.container).map_err(|e| e.to_string())?;
    Discovery::new(method)
        .with_cmc_engine(engine)
        .run_source(&mut *source, &prep.query)
        .map(|outcome| OpOutput::batch(outcome.convoys))
        .map_err(|e| e.to_string())
}

/// Runs one workload: set-up, warm-up, the measured loop, and (traced)
/// the layer probes.
pub fn run(opts: &RunOptions) -> Result<RunResult, String> {
    let dir = RunDir::create(&opts.work_dir, opts.workload, opts.seed)?;
    let prep = prepare(opts, &dir.0)?;
    let rss_reset = memory::reset_peaks();
    let tracer = if opts.traced {
        Tracer::live()
    } else {
        Tracer::off()
    };
    let root = tracer.start(opts.workload.name(), SpanId::NONE);
    let mut client = Client::open(&prep, opts.workload.pipeline(), opts.traced)?;

    client.op(0, false);
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let min_ops = if opts.traced { 1 } else { MIN_OPS };
    let mut i = 1;
    while i <= min_ops || Instant::now() < deadline {
        client.op(i, true);
        if opts.traced {
            client.probe(&tracer, root, i);
        }
        i += 1;
    }
    if opts.traced {
        client.cross_probes(&tracer, root);
    }
    tracer.end(root);
    let peak_heap = memory::peak_heap_mib();
    let peak_rss = memory::peak_rss_mib()?;

    let mut metrics = Vec::new();
    let ops = client.op_s.len();
    if ops == 0 {
        return Err(format!(
            "every operation failed; first: {}",
            client.failures.first().map_or("none", String::as_str)
        ));
    }
    let mut add = |name: &'static str, value: f64, samples: usize| {
        metrics.push(Measured {
            name,
            value,
            samples,
        });
    };
    add("setup_s", median(&prep.setup_s), prep.setup_s.len());
    add("points_per_s", median(&client.points_per_s), ops);
    add("op_p50_ms", median(&client.op_s) * 1e3, ops);
    add("peak_heap_mb", peak_heap, 1);
    add("peak_rss_mb", peak_rss, 1);
    add(
        "error_rate",
        client.failed as f64 / client.attempted as f64,
        client.attempted as usize,
    );
    match opts.workload.pipeline() {
        Pipeline::Window => add("query_p95_ms", percentile(&client.op_s, 95.0) * 1e3, ops),
        Pipeline::Stream => {
            if !client.stalls_s.is_empty() {
                let n = client.stalls_s.len();
                add("stall_p99_ms", percentile(&client.stalls_s, 99.0) * 1e3, n);
            }
            if !client.checkpoints_s.is_empty() {
                let n = client.checkpoints_s.len();
                add("checkpoint_p50_ms", median(&client.checkpoints_s) * 1e3, n);
            }
        }
        _ => {}
    }
    if opts.traced {
        for def in METRICS.iter().filter(|d| d.kind == Kind::Layer) {
            let values = match def.name {
                "unattributed_s" if !client.attributed_s.is_empty() => {
                    let value = median(&client.op_s) - median(&client.attributed_s);
                    add(def.name, value, client.attributed_s.len());
                    continue;
                }
                _ => client.layers.get(def.name),
            };
            match values {
                Some(values) => add(def.name, median(values), values.len()),
                None if client.failed > 0 => {}
                None => return Err(format!("layer metric {} was not measured", def.name)),
            }
        }
        let trace_path = opts.trace_out.clone().unwrap_or_else(|| {
            opts.work_dir
                .join(format!("trace-{}-{}.json", opts.workload.name(), opts.seed))
        });
        if let Some(trace) = tracer.trace_json() {
            std::fs::write(&trace_path, trace)
                .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
        }
    }

    Ok(RunResult {
        workload: opts.workload.name(),
        why: opts.workload.why(),
        seed: opts.seed,
        scale: opts.scale,
        seconds: opts.seconds,
        traced: opts.traced,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rss_reset,
        attempted: client.attempted,
        failed: client.failed,
        failures: client.failures,
        digest: client.book.combined(),
        metrics,
    })
}
