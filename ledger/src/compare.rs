//! `ledger compare`: judges a change against its parent from paired
//! `ledger-v1` result files.
//!
//! Runs are paired in the order given, per workload (the i-th parent run
//! of a workload with its i-th change run), as they were made: alternating
//! which side ran first. For every metric the tool prints each side's
//! median and quartiles and the share of pairs the change won, then a
//! verdict:
//!
//! * `gain`: at least 10 pairs, the change won at least nine tenths of
//!   them (ties count for neither), and the medians differ, in the better
//!   direction, by more than the parent's interquartile range;
//! * `regression`: the change's median is worse than the parent's by more
//!   than the metric's bound;
//! * `unresolved`: the parent's own spread (IQR over median) exceeds the
//!   bound, so a regression within it could not be seen — unless every
//!   change run reads better than every parent run;
//! * `within-bound`: none of the above, for a metric with a bound;
//! * `no-gain`: none of the above, for a metric without one.

use crate::report::Better;
use crate::stats::{median, quartiles};
use convoy_obs::json::{self, Value};
use std::collections::BTreeMap;

/// Pairs needed before a gain may be claimed.
pub const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Regression,
    Unresolved,
    WithinBound,
    NoGain,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
            Verdict::WithinBound => "within-bound",
            Verdict::NoGain => "no-gain",
        }
    }
}

/// Whether `a` reads strictly better than `b`.
fn better(direction: Better, a: f64, b: f64) -> bool {
    match direction {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// The share of pairs the change won.
pub fn win_share(parent: &[f64], change: &[f64], direction: Better) -> f64 {
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(direction, **c, **p))
        .count();
    wins as f64 / parent.len().max(1) as f64
}

/// Judges one metric of one workload from paired runs.
pub fn judge(parent: &[f64], change: &[f64], direction: Better, bound: Option<f64>) -> Verdict {
    let (parent_median, change_median) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let parent_iqr = q3 - q1;
    if parent.len() >= MIN_PAIRS
        && win_share(parent, change, direction) >= 0.9
        && better(direction, change_median, parent_median)
        && (change_median - parent_median).abs() > parent_iqr
    {
        return Verdict::Gain;
    }
    let Some(bound) = bound else {
        return Verdict::NoGain;
    };
    let scale = parent_median.abs();
    let worse_by = match direction {
        Better::Lower => change_median - parent_median,
        Better::Higher => parent_median - change_median,
    } / scale;
    let every_run_better = change
        .iter()
        .all(|c| parent.iter().all(|p| better(direction, *c, *p)));
    if parent_iqr / scale > bound && !every_run_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::WithinBound
    }
}

/// One metric as a result file records it.
struct Recorded {
    value: f64,
    unit: String,
    better: Better,
    bound: Option<f64>,
}

/// A parsed `ledger-v1` result file.
struct RunFile {
    workload: String,
    metrics: BTreeMap<String, Recorded>,
}

fn load(path: &str) -> Result<RunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some("ledger-v1") {
        return Err(format!("{path}: not a ledger-v1 result file"));
    }
    let workload = doc
        .get("workload")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{path}: no workload"))?
        .to_string();
    let Some(Value::Object(members)) = doc.get("metrics") else {
        return Err(format!("{path}: no metrics object"));
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in members {
        let field = |key: &str| {
            m.get(key)
                .ok_or_else(|| format!("{path}: {name} has no {key}"))
        };
        let recorded = Recorded {
            value: field("value")?
                .as_f64()
                .ok_or_else(|| format!("{path}: {name} value is not a number"))?,
            unit: field("unit")?.as_str().unwrap_or_default().to_string(),
            better: field("better")?
                .as_str()
                .and_then(Better::parse)
                .ok_or_else(|| format!("{path}: {name} has no direction"))?,
            bound: m.get("bound").and_then(Value::as_f64),
        };
        metrics.insert(name.clone(), recorded);
    }
    Ok(RunFile { workload, metrics })
}

fn split_args(args: &[String]) -> Result<(Vec<&str>, Vec<&str>), String> {
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    let mut side = None;
    for arg in args {
        match arg.as_str() {
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            file => match side.as_mut() {
                Some(files) => files.push(file),
                None => return Err(format!("`{file}`: name --parent or --change first")),
            },
        }
    }
    if parent.is_empty() || change.is_empty() {
        return Err("usage: ledger compare --parent FILE... --change FILE...".into());
    }
    Ok((parent, change))
}

/// Runs the comparison; `Ok(false)` when some metric regressed.
pub fn run(args: &[String]) -> Result<bool, String> {
    let (parent_paths, change_paths) = split_args(args)?;
    let group = |paths: &[&str]| -> Result<BTreeMap<String, Vec<RunFile>>, String> {
        let mut by_workload: BTreeMap<String, Vec<RunFile>> = BTreeMap::new();
        for path in paths {
            let file = load(path)?;
            by_workload
                .entry(file.workload.clone())
                .or_default()
                .push(file);
        }
        Ok(by_workload)
    };
    let (parents, changes) = (group(&parent_paths)?, group(&change_paths)?);
    if let Some(workload) = changes.keys().find(|w| !parents.contains_key(*w)) {
        return Err(format!("no parent runs of {workload}"));
    }
    let mut clean = true;
    println!(
        "{:<20} {:<28} {:>12} {:>25} {:>12} {:>25} {:>6}  verdict",
        "workload", "metric", "parent p50", "[q1, q3]", "change p50", "[q1, q3]", "wins"
    );
    for (workload, parent_runs) in &parents {
        let Some(change_runs) = changes.get(workload) else {
            return Err(format!("no change runs of {workload}"));
        };
        if parent_runs.len() != change_runs.len() {
            return Err(format!(
                "{workload}: {} parent runs but {} change runs; runs must pair",
                parent_runs.len(),
                change_runs.len()
            ));
        }
        if parent_runs.len() < MIN_PAIRS {
            println!(
                "# {workload}: {} pairs, fewer than {MIN_PAIRS}: no gain can be claimed",
                parent_runs.len()
            );
        }
        for (name, first) in &parent_runs[0].metrics {
            let values = |runs: &[RunFile]| -> Option<Vec<f64>> {
                runs.iter()
                    .map(|r| r.metrics.get(name).map(|m| m.value))
                    .collect()
            };
            let (Some(parent), Some(change)) = (values(parent_runs), values(change_runs)) else {
                continue;
            };
            let verdict = judge(&parent, &change, first.better, first.bound);
            clean &= verdict != Verdict::Regression;
            let (pq1, pq3) = quartiles(&parent);
            let (cq1, cq3) = quartiles(&change);
            println!(
                "{workload:<20} {:<28} {:>12.6} {:>25} {:>12.6} {:>25} {:>5.0}%  {}",
                format!("{name} ({})", first.unit),
                median(&parent),
                format!("[{pq1:.6}, {pq3:.6}]"),
                median(&change),
                format!("[{cq1:.6}, {cq3:.6}]"),
                win_share(&parent, &change, first.better) * 100.0,
                verdict.name()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, wobble: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center + wobble * ((i % 5) as f64 - 2.0) / 2.0)
            .collect()
    }

    #[test]
    fn a_consistent_win_beyond_the_parent_spread_is_a_gain() {
        let parent = around(100.0, 2.0, 10);
        let change = around(90.0, 2.0, 10);
        assert_eq!(win_share(&parent, &change, Better::Lower), 1.0);
        assert_eq!(
            judge(&parent, &change, Better::Lower, Some(0.1)),
            Verdict::Gain
        );
        // The same numbers read as throughput are a regression.
        assert_eq!(
            judge(&parent, &change, Better::Higher, Some(0.05)),
            Verdict::Regression
        );
    }

    #[test]
    fn fewer_than_ten_pairs_never_claim_a_gain() {
        let parent = around(100.0, 2.0, 9);
        let change = around(90.0, 2.0, 9);
        assert_eq!(
            judge(&parent, &change, Better::Lower, Some(0.1)),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&parent, &change, Better::Lower, None),
            Verdict::NoGain
        );
    }

    #[test]
    fn a_win_inside_the_parent_spread_is_no_gain() {
        // The change wins every pair, but by less than the parent's IQR.
        let parent = around(100.0, 8.0, 10);
        let change: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        assert_eq!(
            judge(&parent, &change, Better::Lower, Some(0.2)),
            Verdict::WithinBound
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let parent = around(100.0, 40.0, 10);
        let change = around(103.0, 40.0, 10);
        assert_eq!(
            judge(&parent, &change, Better::Lower, Some(0.1)),
            Verdict::Unresolved
        );
        // Unless every change run beats every parent run.
        let change = vec![10.0; 10];
        assert_eq!(
            judge(&parent, &change, Better::Lower, Some(0.1)),
            Verdict::Gain
        );
    }

    #[test]
    fn a_small_slowdown_stays_within_its_bound() {
        let parent = around(100.0, 1.0, 10);
        let change = around(104.0, 1.0, 10);
        assert_eq!(
            judge(&parent, &change, Better::Lower, Some(0.1)),
            Verdict::WithinBound
        );
        let change = around(115.0, 1.0, 10);
        assert_eq!(
            judge(&parent, &change, Better::Lower, Some(0.1)),
            Verdict::Regression
        );
    }

    #[test]
    fn arguments_split_into_sides() {
        let args: Vec<String> = ["--parent", "a", "b", "--change", "c", "d"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (parent, change) = split_args(&args).unwrap();
        assert_eq!(parent, ["a", "b"]);
        assert_eq!(change, ["c", "d"]);
        assert!(split_args(&args[1..]).is_err());
    }
}
