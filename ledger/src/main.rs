//! `ledger` — the convoy suite's benchmark: end-to-end metrics of what a
//! user runs, on five deterministic workloads, plus a traced run that
//! splits each operation into the layers it passes through. See
//! `README.md` beside this package for the workloads, the metrics and how
//! to reproduce and compare runs.
//!
//! ```text
//! ledger --workload NAME [--seed S] [--seconds T] [--trace 0|1 | --traced]
//!        [--scale F] [--out FILE.json] [--trace-out FILE.json] [--work-dir DIR]
//! ledger --all [same options; --out names a directory]
//! ledger compare --parent FILE... --change FILE...
//! ```
//!
//! A run prints every metric as `name value unit`, then, as its last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics untraced, the per-layer metrics traced.

mod check;
mod compare;
mod memory;
mod probe;
mod report;
mod stats;
mod workload;

use report::{def, summary_line};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workload::{RunOptions, Workload};

const USAGE: &str = "usage:
  ledger --workload NAME [--seed S] [--seconds T] [--trace 0|1 | --traced]
         [--scale F] [--out FILE.json] [--trace-out FILE.json] [--work-dir DIR]
  ledger --all [same options; --out names a directory]
  ledger compare --parent FILE... --change FILE...
workloads: city-sparse-cmc downtown-dense-cmc fleet-cuts fleet-stream fleet-window";

/// Parsed command line of a benchmark run.
#[derive(Debug)]
struct Cli {
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: f64,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    work_dir: PathBuf,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            workload: None,
            all: false,
            seed: 7,
            seconds: 10.0,
            traced: false,
            scale: 1.0,
            out: None,
            trace_out: None,
            work_dir: PathBuf::from(".ledger"),
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .map(String::as_str)
            };
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    cli.workload =
                        Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?);
                }
                "--all" => cli.all = true,
                "--seed" => cli.seed = parse_number(flag, value()?)?,
                "--seconds" => cli.seconds = parse_number(flag, value()?)?,
                "--trace" => {
                    cli.traced = match value()? {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    }
                }
                "--traced" => cli.traced = true,
                "--scale" => cli.scale = parse_number(flag, value()?)?,
                "--out" => cli.out = Some(PathBuf::from(value()?)),
                "--trace-out" => cli.trace_out = Some(PathBuf::from(value()?)),
                "--work-dir" => cli.work_dir = PathBuf::from(value()?),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if cli.all == cli.workload.is_some() {
            return Err("name one --workload, or --all".into());
        }
        if !(cli.seconds >= 0.0 && cli.seconds.is_finite()) {
            return Err("--seconds must be a non-negative number".into());
        }
        if !(cli.scale > 0.0 && cli.scale.is_finite()) {
            return Err("--scale must be positive".into());
        }
        Ok(cli)
    }

    fn options(&self, workload: Workload) -> RunOptions {
        RunOptions {
            workload,
            seed: self.seed,
            seconds: self.seconds,
            traced: self.traced,
            scale: self.scale,
            work_dir: self.work_dir.clone(),
            trace_out: self.trace_out.clone(),
        }
    }
}

fn parse_number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("cannot parse {flag} value `{text}`"))
}

fn run_one(cli: &Cli, workload: Workload) -> Result<ExitCode, String> {
    std::fs::create_dir_all(&cli.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", cli.work_dir.display()))?;
    let result = workload::run(&cli.options(workload))?;
    if let Some(out) = &cli.out {
        std::fs::write(out, result.result_json())
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    }
    print!("{}", result.render_lines());
    println!("{}", result.summary_json());
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload in a fresh child process of this binary, so each
/// one's peak memory is its own, and relays their reports.
fn run_all(cli: &Cli) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    if let Some(dir) = &cli.out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in Workload::ALL {
        let mut child = Command::new(&exe);
        child.args(["--workload", workload.name()]);
        child.args(["--seed", &cli.seed.to_string()]);
        child.args(["--seconds", &cli.seconds.to_string()]);
        child.args(["--scale", &cli.scale.to_string()]);
        child.args(["--trace", if cli.traced { "1" } else { "0" }]);
        child.arg("--work-dir").arg(&cli.work_dir);
        if let Some(dir) = &cli.out {
            child
                .arg("--out")
                .arg(dir.join(format!("{}.json", workload.name())));
        }
        let output = child
            .output()
            .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        print!("{stdout}");
        let summary = stdout
            .lines()
            .last()
            .filter(|_| output.status.success())
            .and_then(|line| convoy_obs::json::parse(line).ok());
        let Some(summary) = summary else {
            correct = false;
            println!(
                "# {} produced no result ({})",
                workload.name(),
                output.status
            );
            continue;
        };
        let count = |key: &str| summary.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        attempted += count("attempted");
        failed += count("failed");
        correct &= summary.get("correct") == Some(&convoy_obs::json::Value::Bool(true));
        if let Some(convoy_obs::json::Value::Object(members)) = summary.get("metrics") {
            for (name, m) in members {
                if let Some(value) = m.get("value").and_then(|v| v.as_f64()) {
                    metrics.push((format!("{}/{name}", workload.name()), value, def(name).unit));
                }
            }
        }
    }
    println!(
        "{}",
        summary_line(correct, attempted, failed, metrics.into_iter())
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return Ok(if compare::run(&args[1..])? {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    let cli = Cli::parse(args).map_err(|e| format!("{e}\n{USAGE}"))?;
    match cli.workload {
        Some(workload) => run_one(&cli, workload),
        None => run_all(&cli),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use convoy_obs::json::{self, Value};
    use report::{Kind, METRICS};
    use std::path::Path;

    const SCHEMA: &str = include_str!("../ledger-v1.schema.json");
    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    fn smoke(workload: Workload, traced: bool, dir: &Path) -> report::RunResult {
        workload::run(&RunOptions {
            workload,
            seed: 3,
            seconds: 0.0,
            traced,
            scale: 0.02,
            work_dir: dir.to_path_buf(),
            trace_out: Some(dir.join(format!("{}.trace.json", workload.name()))),
        })
        .unwrap_or_else(|e| panic!("{} failed to run: {e}", workload.name()))
    }

    fn work_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ledger-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn assert_kind_present(result: &report::RunResult, kind: Kind) {
        for d in METRICS.iter().filter(|d| d.kind == kind) {
            let m = result
                .metric(d.name)
                .unwrap_or_else(|| panic!("{}: {} missing", result.workload, d.name));
            assert!(
                m.value.is_finite(),
                "{}: {} = {}",
                result.workload,
                d.name,
                m.value
            );
        }
    }

    #[test]
    fn every_workload_reports_every_metric_without_errors() {
        let dir = work_dir("smoke");
        for workload in Workload::ALL {
            for traced in [false, true] {
                let result = smoke(workload, traced, &dir);
                assert_eq!(result.failed, 0, "{:?}", result.failures);
                assert_eq!(result.metric("error_rate").map(|m| m.value), Some(0.0));
                assert!(result.attempted >= 4, "warm-up plus at least three ops");
                assert_kind_present(&result, Kind::Gated);
                if traced {
                    assert_kind_present(&result, Kind::Layer);
                    let trace = std::fs::read_to_string(
                        dir.join(format!("{}.trace.json", workload.name())),
                    )
                    .unwrap();
                    let events = json::validate_trace(&json::parse(&trace).unwrap()).unwrap();
                    assert!(events > 0, "{} wrote an empty trace", workload.name());
                }
                let summary = json::parse(&result.summary_json()).unwrap();
                let Some(Value::Object(members)) = summary.get("metrics") else {
                    panic!("summary without metrics");
                };
                let kind = if traced { Kind::Layer } else { Kind::Gated };
                let expected = METRICS.iter().filter(|d| d.kind == kind).count();
                assert_eq!(members.len(), expected);
            }
        }
        // Per-run directories are gone; only the traces remain.
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().is_ok_and(|e| e.path().is_dir()))
            .count();
        assert_eq!(leftovers, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn result_files_match_the_ledger_v1_schema() {
        let dir = work_dir("schema");
        let schema = json::parse(SCHEMA).expect("schema parses");
        for (workload, traced) in [
            (Workload::FleetStream, false),
            (Workload::FleetWindow, true),
        ] {
            let doc = json::parse(&smoke(workload, traced, &dir).result_json()).unwrap();
            json::validate(&schema, &doc).unwrap_or_else(|errors| panic!("{errors:#?}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn benchmark_json_mirrors_the_catalog() {
        let doc = json::parse(BENCHMARK).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Value> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("no {key} list"))
                .to_vec()
        };
        let names = |key: &str| -> Vec<String> {
            list(key)
                .iter()
                .map(|v| v.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
        for entry in list("workloads") {
            let name = entry.get("name").and_then(Value::as_str).unwrap();
            let why = entry.get("why").and_then(Value::as_str).unwrap();
            assert_eq!(why, Workload::parse(name).unwrap().why());
        }
        for (key, kind) in [("end_to_end", Kind::Gated), ("per_layer", Kind::Layer)] {
            let catalog: Vec<_> = METRICS.iter().filter(|d| d.kind == kind).collect();
            assert_eq!(
                names(key),
                catalog.iter().map(|d| d.name).collect::<Vec<_>>()
            );
            for (entry, d) in list(key).iter().zip(catalog) {
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(d.unit));
                assert_eq!(
                    entry.get("better").and_then(Value::as_str),
                    Some(d.better.name())
                );
                assert_eq!(entry.get("bound").and_then(Value::as_f64), d.bound);
            }
        }
    }

    #[test]
    fn command_line_accepts_the_harness_form() {
        let args: Vec<String> = [
            "--workload",
            "fleet-cuts",
            "--seed",
            "11",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cli = Cli::parse(&args).unwrap();
        assert_eq!(cli.workload, Some(Workload::FleetCuts));
        assert_eq!((cli.seed, cli.seconds, cli.traced), (11, 10.0, true));
        assert!(
            Cli::parse(&args[2..]).is_err(),
            "a workload or --all is required"
        );
        let bad = ["--workload", "nope"].map(String::from);
        assert!(Cli::parse(&bad).is_err());
    }
}
