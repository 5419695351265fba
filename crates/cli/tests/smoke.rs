//! Process-level smoke tests of the `convoy` binary: usage text and exit
//! codes per subcommand (exit 2 for argument-syntax errors, 1 for command
//! failures, 0 for success), following the assert_cmd pattern.

use assert_cmd::Command;

fn convoy() -> Command {
    Command::cargo_bin("convoy").expect("convoy binary built by cargo test")
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("convoy-cli-smoke");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn no_arguments_prints_usage_on_stderr_and_exits_2() {
    convoy()
        .assert()
        .failure()
        .code(2)
        .stdout_is_empty()
        .stderr_contains("USAGE:")
        .stderr_contains("convoy <command>");
}

#[test]
fn help_prints_usage_on_stdout_and_succeeds() {
    convoy()
        .arg("help")
        .assert()
        .success()
        .stdout_contains("USAGE:")
        .stdout_contains("discover")
        .stdout_contains("generate");
}

#[test]
fn unknown_command_fails_with_usage() {
    convoy()
        .arg("migrate")
        .assert()
        .failure()
        .code(1)
        .stderr_contains("unknown command `migrate`")
        .stderr_contains("USAGE:");
}

#[test]
fn malformed_option_syntax_exits_2() {
    // A duplicated option is an argument-syntax error, reported before any
    // command logic runs.
    convoy()
        .args(["discover", "in.csv", "--m", "1", "--m", "2"])
        .assert()
        .failure()
        .code(2)
        .stderr_contains("given twice");
}

#[test]
fn generate_requires_profile_and_out() {
    convoy()
        .args(["generate", "--out", "/tmp/never-written.csv"])
        .assert()
        .failure()
        .code(1)
        .stderr_contains("missing --profile");
    convoy()
        .args(["generate", "--profile", "truck"])
        .assert()
        .failure()
        .code(1)
        .stderr_contains("missing --out");
    // A scale must be finite and positive; nothing is written otherwise.
    let out = temp_path("bad-scale.csv");
    for scale in ["inf", "0", "-1", "nan"] {
        convoy()
            .args(["generate", "--profile", "truck", "--scale", scale])
            .args(["--out", out.to_str().unwrap()])
            .assert()
            .failure()
            .code(1)
            .stderr_contains("--scale must be a finite number greater than 0");
        assert!(!out.exists(), "--scale {scale} wrote a file");
    }
}

#[test]
fn stats_requires_an_input_path() {
    convoy()
        .arg("stats")
        .assert()
        .failure()
        .code(1)
        .stderr_contains("missing input path");
}

#[test]
fn discover_requires_query_parameters() {
    let path = temp_path("query-params.csv");
    std::fs::write(&path, "object_id,t,x,y\n1,0,0.0,0.0\n1,1,1.0,0.0\n").unwrap();
    convoy()
        .args(["discover", path.to_str().unwrap(), "--k", "2", "--e", "1.0"])
        .assert()
        .failure()
        .code(1)
        .stderr_contains("missing required option --m");
}

#[test]
fn discover_rejects_unknown_method_and_missing_file() {
    let path = temp_path("bad-method.csv");
    std::fs::write(&path, "object_id,t,x,y\n1,0,0.0,0.0\n").unwrap();
    convoy()
        .args(["discover", path.to_str().unwrap()])
        .args(["--m", "2", "--k", "2", "--e", "1.0", "--method", "flock"])
        .assert()
        .failure()
        .code(1)
        .stderr_contains("unknown method `flock`");
    convoy()
        .args(["discover", "/no/such/file.csv", "--m", "2", "--k", "2"])
        .args(["--e", "1.0"])
        .assert()
        .failure()
        .code(1);
}

#[test]
fn simplify_requires_delta() {
    let path = temp_path("simplify-delta.csv");
    std::fs::write(&path, "object_id,t,x,y\n1,0,0.0,0.0\n1,1,1.0,0.0\n").unwrap();
    convoy()
        .args(["simplify", path.to_str().unwrap()])
        .assert()
        .failure()
        .code(1)
        .stderr_contains("missing required option --delta");
}

#[test]
fn compare_rejects_theta_outside_unit_interval() {
    let path = temp_path("compare-theta.csv");
    std::fs::write(&path, "object_id,t,x,y\n1,0,0.0,0.0\n1,1,1.0,0.0\n").unwrap();
    convoy()
        .args(["compare", path.to_str().unwrap()])
        .args(["--m", "2", "--k", "2", "--e", "1.0", "--theta", "1.5"])
        .assert()
        .failure()
        .code(1)
        .stderr_contains("--theta must be within [0, 1]");
}

#[test]
fn discover_cmc_engine_flags() {
    let path = temp_path("engine-flags.csv");
    convoy()
        .args(["generate", "--profile", "truck", "--scale", "0.02"])
        .args(["--seed", "11", "--out", path.to_str().unwrap()])
        .assert()
        .success();
    let query = ["--method", "cmc", "--m", "3", "--k", "5", "--e", "10"];
    convoy()
        .args(["discover", path.to_str().unwrap()])
        .args(query)
        .assert()
        .success()
        .stdout_contains("found by CMC")
        .stdout_contains("engine: swept");
    convoy()
        .args(["discover", path.to_str().unwrap()])
        .args(query)
        .args(["--parallel", "2"])
        .assert()
        .success()
        .stdout_contains("engine: parallel (2 threads)");
    // The engine runs the CuTS refinement too: the same convoys and the same
    // stats block as the swept run.
    let cuts = ["--method", "cuts-star", "--m", "3", "--k", "5", "--e", "10"];
    let swept = convoy()
        .args(["discover", path.to_str().unwrap()])
        .args(cuts)
        .arg("--stats")
        .assert()
        .success()
        .stdout_contains("engine: swept (1 thread)");
    let parallel = convoy()
        .args(["discover", path.to_str().unwrap()])
        .args(cuts)
        .args(["--stats", "--parallel", "2"])
        .assert()
        .success()
        .stdout_contains("engine: parallel (2 threads)");
    let report = |stdout: &[u8]| -> Vec<String> {
        String::from_utf8_lossy(stdout)
            .lines()
            .filter(|l| !l.starts_with("engine: "))
            .map(|l| match l.split_once(" found by ") {
                // Drop the wall-clock portion, which varies run to run.
                Some((head, _)) => head.to_string(),
                None => l.to_string(),
            })
            .collect()
    };
    let swept = report(&swept.get_output().stdout);
    assert!(swept.iter().any(|l| l.starts_with("stats:")), "{swept:?}");
    assert_eq!(report(&parallel.get_output().stdout), swept);
}

#[test]
fn discover_rejects_removed_engine_flags() {
    let path = temp_path("engine-removed-flag.csv");
    convoy()
        .args(["generate", "--profile", "truck", "--scale", "0.02"])
        .args(["--seed", "11", "--out", path.to_str().unwrap()])
        .assert()
        .success();
    for (flag, value) in [("--shards", Some("4")), ("--stream", None)] {
        convoy()
            .args(["discover", path.to_str().unwrap()])
            .args(["--method", "cmc", "--m", "3", "--k", "5", "--e", "10"])
            .arg(flag)
            .args(value)
            .assert()
            .failure()
            .code(1)
            .stdout_is_empty()
            .stderr_contains(format!("unknown option {flag}"));
    }
}

#[test]
fn discover_stats_flag_prints_fold_counters() {
    let path = temp_path("discover-stats.csv");
    convoy()
        .args(["generate", "--profile", "truck", "--scale", "0.02"])
        .args(["--seed", "11", "--out", path.to_str().unwrap()])
        .assert()
        .success();
    let swept = convoy()
        .args(["discover", path.to_str().unwrap()])
        .args([
            "--method", "cmc", "--m", "3", "--k", "5", "--e", "10", "--stats",
        ])
        .assert()
        .success()
        .stdout_contains("stats:")
        .stdout_contains("cmc.peak_candidates")
        .stdout_contains("cmc.ticks_ingested")
        .stdout_contains("cmc.convoys_closed")
        .stdout_contains("cluster.region_queries")
        .stdout_contains("prune.region_queries_skipped")
        .stdout_contains("prune.points_dropped");
    // The block does not depend on the engine: the parallel workers'
    // clusterer counts sum to the swept run's.
    let parallel = convoy()
        .args(["discover", path.to_str().unwrap()])
        .args(["--method", "cmc", "--m", "3", "--k", "5", "--e", "10"])
        .args(["--stats", "--parallel", "2"])
        .assert()
        .success();
    let swept_block = summary_lines(&swept.get_output().stdout);
    assert!(swept_block.len() > 1, "{swept_block:?}");
    assert_eq!(summary_lines(&parallel.get_output().stdout), swept_block);
    // The counters come from the refinement fold for CuTS methods too.
    convoy()
        .args(["discover", path.to_str().unwrap()])
        .args([
            "--method",
            "cuts-star",
            "--m",
            "3",
            "--k",
            "5",
            "--e",
            "10",
            "--stats",
        ])
        .assert()
        .success()
        .stdout_contains("cmc.peak_candidates")
        .stdout_contains("cluster.region_queries");
    // The filter line reports the λ the partitioning ran, not the request.
    for (requested, used) in [
        ("0", "λ=2,"),
        ("1", "λ=2,"),
        ("18446744073709551615", "λ=9223372036854775807,"),
    ] {
        convoy()
            .args(["discover", path.to_str().unwrap()])
            .args(["--method", "cuts-star", "--m", "3", "--k", "5", "--e", "10"])
            .args(["--lambda", requested])
            .assert()
            .success()
            .stdout_contains(used);
    }
}

#[test]
fn discover_stats_report_the_filter_work() {
    let path = temp_path("discover-filter-work.csv");
    convoy()
        .args(["generate", "--profile", "truck", "--scale", "0.02"])
        .args(["--seed", "11", "--out", path.to_str().unwrap()])
        .assert()
        .success();
    let run = convoy()
        .args(["discover", path.to_str().unwrap()])
        .args(["--method", "cuts-star", "--m", "3", "--k", "5", "--e", "10"])
        .arg("--stats")
        .assert()
        .success();
    let stdout = String::from_utf8_lossy(&run.get_output().stdout).into_owned();
    let count = |name: &str| -> u64 {
        stdout
            .lines()
            .find_map(|l| l.trim().strip_prefix(name)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("--stats lacks {name}: {stdout}"))
    };
    // The filter's region queries: candidate pairs, those whose ω is
    // tested, the segment distances that took and the neighbours found.
    let candidates = count("cuts.filter.candidate_pairs");
    let tested = count("cuts.filter.lemma2_pass");
    assert!(candidates > 0 && tested <= candidates, "{stdout}");
    assert!(count("cuts.filter.distance_evals") >= tested, "{stdout}");
    assert!(count("cuts.filter.neighbours") <= 2 * tested, "{stdout}");
}

#[test]
fn stream_replays_a_file_and_reports_stream_stats() {
    let path = temp_path("stream-file.csv");
    convoy()
        .args(["generate", "--profile", "truck", "--scale", "0.02"])
        .args(["--seed", "11", "--out", path.to_str().unwrap()])
        .assert()
        .success();
    convoy()
        .args(["stream", path.to_str().unwrap()])
        .args(["--m", "3", "--k", "5", "--e", "10"])
        .assert()
        .success()
        .stdout_contains("streaming discovery (CuTS")
        .stdout_contains("confirmed convoys:")
        .stdout_contains("partitions closed:")
        .stdout_contains("cmc.peak_candidates");
    // A horizon is accepted and echoed.
    convoy()
        .args(["stream", path.to_str().unwrap()])
        .args(["--m", "3", "--k", "5", "--e", "10", "--horizon", "20"])
        .assert()
        .success()
        .stdout_contains("horizon=20");
}

#[test]
fn stream_reads_a_live_feed_from_stdin() {
    let mut feed = String::from("object_id,t,x,y\n");
    for t in 0..12 {
        feed.push_str(&format!("1,{t},{t}.0,0.0\n"));
        feed.push_str(&format!("2,{t},{t}.0,0.5\n"));
    }
    // One out-of-order straggler must be rejected, not fatal.
    feed.push_str("3,0,9.0,9.0\n");
    convoy()
        .args(["stream", "-", "--m", "2", "--k", "4", "--e", "1"])
        .args(["--delta", "0.2", "--lambda", "4"])
        .write_stdin(feed)
        .assert()
        .success()
        .stdout_contains("⟨{o1, o2}, [0, 11]⟩")
        .stdout_contains("confirmed convoys: 1")
        .stdout_contains("rejected samples: 1");
}

#[test]
fn stream_validates_its_arguments() {
    // CMC is not a streaming method.
    convoy()
        .args(["stream", "in.csv", "--m", "2", "--k", "2", "--e", "1"])
        .args(["--method", "cmc"])
        .assert()
        .failure()
        .code(1)
        .stderr_contains("cuts");
    // Stdin requires explicit δ and λ.
    convoy()
        .args(["stream", "-", "--m", "2", "--k", "2", "--e", "1"])
        .write_stdin("")
        .assert()
        .failure()
        .code(1)
        .stderr_contains("--delta and --lambda");
    // Bad horizon.
    let path = temp_path("stream-bad.csv");
    std::fs::write(&path, "object_id,t,x,y\n1,0,0.0,0.0\n").unwrap();
    convoy()
        .args(["stream", path.to_str().unwrap()])
        .args(["--m", "2", "--k", "2", "--e", "1", "--horizon", "0"])
        .assert()
        .failure()
        .code(1)
        .stderr_contains("--horizon");
    // A λ beyond the i64 time axis runs, and is reported, as i64::MAX.
    let path = truck_fixture("stream-huge-lambda.csv");
    convoy()
        .args(["stream", &path, "--m", "3", "--k", "5", "--e", "8"])
        .args(["--delta", "1", "--lambda", "18446744073709551615"])
        .assert()
        .success()
        .stdout_contains("λ=9223372036854775807");
}

/// Writes the truck fixture (`--scale 0.02 --seed 11`) to `name`.
fn truck_fixture(name: &str) -> String {
    let path = temp_path(name);
    let path = path.to_str().unwrap().to_string();
    convoy()
        .args(["generate", "--profile", "truck", "--scale", "0.02"])
        .args(["--seed", "11", "--out", &path])
        .assert()
        .success();
    path
}

#[test]
fn stream_checkpoint_path_without_a_value_is_an_error() {
    // A valueless option must not pass for an absent one: the run would
    // succeed with no checkpoint written.
    let path = truck_fixture("valueless-checkpoint.csv");
    convoy()
        .args(["stream", &path, "--m", "3", "--k", "5", "--e", "10"])
        .arg("--checkpoint-path")
        .assert()
        .failure()
        .code(1)
        .stdout_is_empty()
        .stderr_contains("--checkpoint-path requires a value");
}

#[test]
fn discover_delta_without_a_value_is_an_error() {
    // Otherwise the run would silently fall back to the automatic δ.
    let path = truck_fixture("valueless-delta.csv");
    convoy()
        .args(["discover", &path, "--m", "3", "--k", "5", "--e", "10"])
        .arg("--delta")
        .assert()
        .failure()
        .code(1)
        .stdout_is_empty()
        .stderr_contains("--delta requires a value");
}

/// A stdin feed with a convoy that confirms mid-feed: a pair travels
/// together for t=0..=9, separates for t=10..=29 (closing the convoy well
/// before EOF), then one out-of-order straggler arrives as the final line.
fn feed_with_late_straggler() -> (String, usize) {
    let mut feed = String::from("object_id,t,x,y\n");
    for t in 0..30 {
        let y2 = if t < 10 { 0.5 } else { 100.0 };
        feed.push_str(&format!("1,{t},{t}.0,0.0\n"));
        feed.push_str(&format!("2,{t},{t}.0,{y2}\n"));
    }
    feed.push_str("1,5,5.0,0.0\n");
    (feed, 62)
}

#[test]
fn stream_strict_fails_on_bad_line_after_flushing_confirmed_convoys() {
    let (feed, bad_line) = feed_with_late_straggler();
    let assert = convoy()
        .args(["stream", "-", "--m", "2", "--k", "4", "--e", "1"])
        .args(["--delta", "0.2", "--lambda", "4", "--strict"])
        .write_stdin(feed.clone())
        .assert()
        .failure()
        .code(1)
        .stderr_contains(format!("line {bad_line}"))
        .stderr_contains("out-of-order")
        // The convoy confirmed before the bad line was already flushed.
        .stdout_contains("⟨{o1, o2}, [0, 9]⟩");
    let stdout = String::from_utf8_lossy(&assert.get_output().stdout).to_string();
    assert!(
        !stdout.contains("confirmed convoys:"),
        "strict failure must not print the end-of-stream summary:\n{stdout}"
    );
    // Without --strict the same feed finishes, counting the reject.
    convoy()
        .args(["stream", "-", "--m", "2", "--k", "4", "--e", "1"])
        .args(["--delta", "0.2", "--lambda", "4"])
        .write_stdin(feed)
        .assert()
        .success()
        .stdout_contains("⟨{o1, o2}, [0, 9]⟩")
        .stdout_contains("rejected samples: 1");
}

/// The `stats:` block, its registry metric lines (two-space indent then a
/// lowercase metric name — convoy lines start `  [t=`) and the `partitions
/// closed:` line of a stream report — the cumulative counters a resumed run
/// must reproduce byte for byte.
fn summary_lines(stdout: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| {
            let metric_line = l
                .strip_prefix("  ")
                .and_then(|rest| rest.chars().next())
                .is_some_and(|c| c.is_ascii_lowercase());
            l.starts_with("stats:") || l.starts_with("partitions closed:") || metric_line
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn stream_checkpoint_then_resume_reproduces_the_straight_run_counters() {
    let data = temp_path("ckpt-data.csv");
    let ckpt = temp_path("ckpt-state.snap");
    let _ = std::fs::remove_file(&ckpt);
    convoy()
        .args(["generate", "--profile", "truck", "--scale", "0.02"])
        .args(["--seed", "11", "--out", data.to_str().unwrap()])
        .assert()
        .success();
    let query = ["--m", "3", "--k", "5", "--e", "10"];

    let straight = convoy()
        .args(["stream", data.to_str().unwrap()])
        .args(query)
        .assert()
        .success();
    let expected = summary_lines(&straight.get_output().stdout);
    assert!(expected.len() > 2, "summary lines present: {expected:?}");

    convoy()
        .args(["stream", data.to_str().unwrap()])
        .args(query)
        .args(["--checkpoint-path", ckpt.to_str().unwrap()])
        .assert()
        .success();
    assert!(ckpt.exists(), "checkpoint file written");
    let tmp = ckpt.with_extension("snap.tmp");
    assert!(!tmp.exists(), "temp file renamed away, not left behind");

    // Resuming and replaying the same feed fast-forwards past everything the
    // checkpoint already ingested and lands on identical cumulative stats.
    let resumed = convoy()
        .args(["stream", data.to_str().unwrap()])
        .args(["--resume", ckpt.to_str().unwrap()])
        .assert()
        .success()
        .stdout_contains("resumed from");
    assert_eq!(summary_lines(&resumed.get_output().stdout), expected);
}

#[test]
fn stream_checkpoint_to_a_bare_file_name_resumes() {
    // A bare name's directory is the working directory: the write must sync
    // `.`, not fail on an empty parent path.
    let dir = temp_path("bare-cwd");
    std::fs::create_dir_all(&dir).unwrap();
    let _ = std::fs::remove_file(dir.join("bare.snap"));
    let data = temp_path("bare-data.csv");
    convoy()
        .args(["generate", "--profile", "truck", "--scale", "0.02"])
        .args(["--seed", "11", "--out", data.to_str().unwrap()])
        .assert()
        .success();
    let query = ["--m", "3", "--k", "5", "--e", "10"];
    let straight = convoy()
        .args(["stream", data.to_str().unwrap()])
        .args(query)
        .assert()
        .success();
    convoy()
        .current_dir(&dir)
        .args(["stream", data.to_str().unwrap()])
        .args(query)
        .args(["--checkpoint-path", "bare.snap"])
        .assert()
        .success();
    assert!(dir.join("bare.snap").exists(), "checkpoint written");
    assert!(!dir.join("bare.snap.tmp").exists(), "no temp file left");
    let resumed = convoy()
        .current_dir(&dir)
        .args(["stream", data.to_str().unwrap()])
        .args(["--resume", "bare.snap"])
        .assert()
        .success()
        .stdout_contains("resumed from");
    assert_eq!(
        summary_lines(&resumed.get_output().stdout),
        summary_lines(&straight.get_output().stdout)
    );
}

#[test]
fn stream_checkpoint_flags_are_validated() {
    let path = temp_path("ckpt-flags.csv");
    std::fs::write(&path, "object_id,t,x,y\n1,0,0.0,0.0\n1,1,1.0,0.0\n").unwrap();
    // --resume carries its configuration; query flags conflict.
    let ckpt = temp_path("ckpt-flags.snap");
    convoy()
        .args(["stream", path.to_str().unwrap()])
        .args(["--resume", ckpt.to_str().unwrap(), "--m", "2"])
        .assert()
        .failure()
        .code(1)
        .stderr_contains("conflicts with --resume");
    // --checkpoint-every is meaningless without a path.
    convoy()
        .args(["stream", path.to_str().unwrap()])
        .args([
            "--m",
            "2",
            "--k",
            "2",
            "--e",
            "1",
            "--checkpoint-every",
            "3",
        ])
        .assert()
        .failure()
        .code(1)
        .stderr_contains("--checkpoint-every requires --checkpoint-path");
    // A garbage checkpoint is a clean error, not a panic.
    let garbage = temp_path("ckpt-garbage.snap");
    std::fs::write(&garbage, b"this is not a checkpoint").unwrap();
    convoy()
        .args(["stream", path.to_str().unwrap()])
        .args(["--resume", garbage.to_str().unwrap()])
        .assert()
        .failure()
        .code(1)
        .stderr_contains("cannot resume from")
        .stderr_contains("bad magic");
}

#[test]
fn convert_then_discover_runs_on_the_container_end_to_end() {
    let csv = temp_path("container.csv");
    let bin = temp_path("container.convoy");
    convoy()
        .args(["generate", "--profile", "truck", "--scale", "0.02"])
        .args(["--seed", "7", "--out", csv.to_str().unwrap()])
        .assert()
        .success();
    convoy()
        .args(["convert", csv.to_str().unwrap(), bin.to_str().unwrap()])
        .args(["--block-records", "32"])
        .assert()
        .success()
        .stdout_contains("convert.duplicates_collapsed")
        .stdout_contains("convert.points");
    // Every subcommand accepts the container directly.
    convoy()
        .args(["stats", bin.to_str().unwrap()])
        .assert()
        .success()
        .stdout_contains("number of objects");
    convoy()
        .args(["discover", bin.to_str().unwrap()])
        .args(["--m", "3", "--k", "5", "--e", "10", "--stats"])
        .args(["--from", "0", "--to", "25"])
        .assert()
        .success()
        .stdout_contains("scan: convoy source");
    // Corruption is a clean typed error, never a panic.
    let garbage = temp_path("garbage.convoy");
    std::fs::write(&garbage, b"CONVOYTRgarbage").unwrap();
    convoy()
        .args(["stats", garbage.to_str().unwrap()])
        .assert()
        .failure()
        .code(1)
        .stderr_contains("invalid trajectory container");
    // convert without two paths is an argument error.
    convoy()
        .args(["convert", csv.to_str().unwrap()])
        .assert()
        .failure()
        .code(1)
        .stderr_contains("convoy convert IN OUT");
}

#[test]
fn generate_stats_discover_pipeline_succeeds() {
    let path = temp_path("pipeline.csv");
    convoy()
        .args(["generate", "--profile", "truck", "--scale", "0.02"])
        .args(["--seed", "7", "--out", path.to_str().unwrap()])
        .assert()
        .success()
        .stdout_contains("wrote")
        .stdout_contains("suggested query:");
    convoy()
        .args(["stats", path.to_str().unwrap()])
        .assert()
        .success()
        .stdout_contains("number of objects")
        .stdout_contains("time domain");
    convoy()
        .args(["discover", path.to_str().unwrap()])
        .args(["--method", "cuts-star", "--m", "3", "--k", "5", "--e", "10"])
        .assert()
        .success()
        .stdout_contains("convoy(s) found by CuTS*");
    convoy()
        .args(["simplify", path.to_str().unwrap(), "--delta", "2.0"])
        .assert()
        .success()
        .stdout_contains("reduction");
}

/// Offsets to damage in a file of `len` bytes: each of the first 12 (magic,
/// version and header fields), eleven more spread evenly over the rest, and
/// the last byte.
fn damage_offsets(len: usize) -> Vec<usize> {
    let mut offsets: Vec<usize> = (0..len.min(12)).collect();
    offsets.extend((1..=11).map(|i| i * len / 12));
    offsets.push(len.saturating_sub(1));
    offsets.sort_unstable();
    offsets.dedup();
    offsets
}

/// Every truncation and single-byte flip of `original` at the sampled
/// offsets, each labelled for the failure message. Flips alternate between
/// inverting the whole byte and its lowest bit (which keeps a CSV digit a
/// digit).
fn damaged_copies(original: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut copies = Vec::new();
    for (i, offset) in damage_offsets(original.len()).into_iter().enumerate() {
        copies.push((
            format!("truncated to {offset} bytes"),
            original[..offset].to_vec(),
        ));
        let mask = if i % 2 == 0 { 0xFF } else { 0x01 };
        let mut flipped = original.to_vec();
        flipped[offset] ^= mask;
        copies.push((format!("byte {offset} xor {mask:#04x}"), flipped));
    }
    copies
}

/// The CLI contract on damaged input: exit 0 (the damage still parses) or
/// exit 1 with an `error:` line, never 101 (a panic) or a signal.
fn assert_clean_outcome(what: &str, output: &std::process::Output) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    match output.status.code() {
        Some(0) => {}
        Some(1) => assert!(
            stderr.contains("error:"),
            "{what}: exit 1 without an `error:` line\n{stderr}"
        ),
        other => panic!("{what}: exit {other:?}, expected 0 or 1\n{stderr}"),
    }
}

#[test]
fn damaged_inputs_exit_cleanly() {
    let csv = temp_path("damage-source.csv");
    let container = temp_path("damage-source.convoy");
    let ckpt = temp_path("damage-source.snap");
    let _ = std::fs::remove_file(&ckpt);
    convoy()
        .args(["generate", "--profile", "truck", "--scale", "0.02"])
        .args(["--seed", "11", "--out", csv.to_str().unwrap()])
        .assert()
        .success();
    convoy()
        .args([
            "convert",
            csv.to_str().unwrap(),
            container.to_str().unwrap(),
        ])
        .args(["--block-records", "8"])
        .assert()
        .success();

    // A live stdin feed must be time-ordered; checkpoint a prefix of it so
    // the snapshot carries in-flight buffers and candidates.
    let text = std::fs::read_to_string(&csv).unwrap();
    let mut records: Vec<&str> = text.lines().skip(1).collect();
    let key = |line: &&str| -> (i64, u64) {
        let fields: Vec<&str> = line.split(',').collect();
        (fields[1].parse().unwrap(), fields[0].parse().unwrap())
    };
    records.sort_by_key(key);
    let feed = format!("object_id,t,x,y\n{}\n", records.join("\n"));
    let prefix: String = feed
        .lines()
        .take(records.len() / 2)
        .map(|l| format!("{l}\n"))
        .collect();
    convoy()
        .args(["stream", "-", "--m", "3", "--k", "5", "--e", "10"])
        .args(["--delta", "2", "--lambda", "5"])
        .args([
            "--checkpoint-path",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "1",
        ])
        .write_stdin(prefix)
        .assert()
        .success();

    // Every subcommand that reads a trajectory file, each converting to
    // the other format.
    let query = ["--m", "3", "--k", "5", "--e", "10"];
    for (source, name, converted) in [
        (&csv, "damaged.csv", "damaged-out.convoy"),
        (&container, "damaged.convoy", "damaged-out.csv"),
    ] {
        let damaged = temp_path(name);
        let input = damaged.to_str().unwrap();
        let converted = temp_path(converted);
        let commands: [Vec<&str>; 7] = [
            [&["discover", input, "--method", "cmc"][..], &query].concat(),
            [&["discover", input, "--method", "cuts-star"][..], &query].concat(),
            [
                &["stream", input, "--delta", "2", "--lambda", "5"][..],
                &query,
            ]
            .concat(),
            vec!["convert", input, converted.to_str().unwrap()],
            vec!["stats", input],
            vec!["simplify", input, "--delta", "2"],
            [&["compare", input, "--theta", "0.8"][..], &query].concat(),
        ];
        for (damage, bytes) in damaged_copies(&std::fs::read(source).unwrap()) {
            std::fs::write(&damaged, bytes).unwrap();
            for args in &commands {
                let run = convoy().args(args).assert();
                assert_clean_outcome(&format!("{args:?}, {damage}"), run.get_output());
            }
        }
    }
    let damaged = temp_path("damaged.snap");
    for (damage, bytes) in damaged_copies(&std::fs::read(&ckpt).unwrap()) {
        std::fs::write(&damaged, bytes).unwrap();
        let run = convoy()
            .args(["stream", "-", "--resume", damaged.to_str().unwrap()])
            .write_stdin(feed.clone())
            .assert();
        assert_clean_outcome(
            &format!("resume from a checkpoint {damage}"),
            run.get_output(),
        );
    }
}
