//! The paper's evaluation artifacts — Table 3 and Figures 12–17 and 19 —
//! each defined once, as one entry of [`EXPERIMENTS`]: its CSV header, the
//! profiles it runs on, and one function producing the rows of one profile
//! (a sweeping artifact's function holds its own sweep). Discovery times are read off the run's `discover.*` spans
//! (see [`crate::MeasuredRun`]).

use crate::prepare::{Datasets, PreparedDataset};
use crate::report::Report;
use crate::runner::run_method;
use convoy_core::{
    compare_result_sets, mc2, CutsConfig, CutsVariant, DiscoveryStats, Mc2Config, Method,
};
use std::time::Instant;
use traj_datasets::ProfileName::{self, Car, Cattle, Taxi, Truck};
use traj_simplify::{ReductionStats, SimplificationMethod, ToleranceMode};

/// One paper artifact.
#[derive(Debug)]
pub struct Experiment {
    /// The CSV file stem, and the name that selects it on the command line.
    pub name: &'static str,
    /// The paper artifact it reproduces.
    pub artifact: &'static str,
    /// The CSV header line.
    pub header: &'static str,
    /// The profiles it runs on, in row order.
    pub runs: &'static [ProfileName],
    /// The rows of one profile.
    pub rows: fn(&PreparedDataset) -> Vec<Vec<String>>,
}

impl Experiment {
    /// Runs the artifact on every profile it needs, in sequence.
    pub fn run(&self, datasets: &mut Datasets) -> Report {
        let mut report = Report::new(self.name, self.header);
        for profile in self.runs {
            for row in (self.rows)(datasets.get(*profile)) {
                report.push_row(row);
            }
        }
        report
    }
}

const EVERY_PROFILE: &[ProfileName] = &[Truck, Cattle, Car, Taxi];

/// The paper sweeps δ ∈ {10, 20, 30, 40} (and {10, 30, 50, 70} for the
/// timing panel) for a dataset with e = 300; these are the same fractions of
/// e, so the sweep stays meaningful if the profile's e changes.
const FIG15_DELTA_OVER_E: &[f64] = &[
    1.0 / 30.0,
    2.0 / 30.0,
    0.1,
    4.0 / 30.0,
    0.5 / 3.0,
    7.0 / 30.0,
];

/// The paper sweeps δ ∈ {10, 80, 150, 220} for e = 80 (Car) / 40 (Taxi);
/// these are the same fractions of e.
const FIG16_DELTA_OVER_E: &[f64] = &[0.125, 1.0, 1.875, 2.75];

/// The paper's λ sweeps: Truck, and Cattle (the other Figure 17 profile).
const FIG17_TRUCK_LAMBDAS: &[usize] = &[5, 10, 15, 20];
const FIG17_CATTLE_LAMBDAS: &[usize] = &[10, 30, 50, 70];

const FIG19_THETAS: &[f64] = &[0.4, 0.6, 0.8, 1.0];

/// Every paper artifact, in paper order.
pub static EXPERIMENTS: [Experiment; 8] = [
    Experiment {
        name: "table3",
        artifact: "Table 3",
        header: "dataset,num_objects,time_domain_length,avg_trajectory_length,data_size_points,m,k,e,delta_auto,lambda_auto,convoys_discovered",
        runs: EVERY_PROFILE,
        rows: table3,
    },
    Experiment {
        name: "fig12",
        artifact: "Figure 12",
        header: "dataset,method,elapsed_seconds,convoys,speedup_vs_cmc",
        runs: EVERY_PROFILE,
        rows: fig12,
    },
    Experiment {
        name: "fig13",
        artifact: "Figure 13",
        header: "dataset,method,simplification_seconds,filter_seconds,refinement_seconds,total_seconds",
        runs: &[Cattle, Taxi],
        rows: fig13,
    },
    Experiment {
        name: "fig14",
        artifact: "Figure 14",
        header: "dataset,tolerance_mode,candidates,refinement_units,elapsed_seconds",
        runs: EVERY_PROFILE,
        rows: fig14,
    },
    Experiment {
        name: "fig15",
        artifact: "Figure 15",
        header: "dataset,method,delta,vertex_reduction_percent,elapsed_seconds",
        runs: &[Cattle],
        rows: fig15,
    },
    Experiment {
        name: "fig16",
        artifact: "Figure 16",
        header: "dataset,method,delta,refinement_units,candidates,elapsed_seconds",
        runs: &[Car, Taxi],
        rows: fig16,
    },
    Experiment {
        name: "fig17",
        artifact: "Figure 17",
        header: "dataset,method,lambda,refinement_units,candidates,elapsed_seconds",
        runs: &[Truck, Cattle],
        rows: fig17,
    },
    Experiment {
        name: "fig19",
        artifact: "Figure 19",
        header: "dataset,theta,mc2_reported,cmc_reference,false_positive_percent,false_negative_percent",
        runs: EVERY_PROFILE,
        rows: fig19,
    },
];

/// The experiments `names` selects, in table order; all of them when `names`
/// is empty. An unknown name is returned as the error.
pub fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if let Some(unknown) = names
        .iter()
        .find(|n| EXPERIMENTS.iter().all(|e| e.name != n.as_str()))
    {
        return Err(unknown.clone());
    }
    Ok(EXPERIMENTS
        .iter()
        .filter(|e| names.is_empty() || names.iter().any(|n| n == e.name))
        .collect())
}

fn secs(seconds: f64) -> String {
    format!("{seconds:.4}")
}

/// Table 3: dataset statistics, the query and internal parameters, and the
/// number of convoys discovered (by CuTS*, whose result set equals CMC's).
fn table3(data: &PreparedDataset) -> Vec<Vec<String>> {
    let stats = data.dataset.database.stats();
    let run = run_method(data, Method::CutsStar, None);
    vec![vec![
        data.name.to_string(),
        stats.num_objects.to_string(),
        stats.time_domain_length.to_string(),
        format!("{:.1}", stats.average_trajectory_length),
        stats.total_points.to_string(),
        data.query.m.to_string(),
        data.query.k.to_string(),
        format!("{}", data.query.e),
        format!("{:.2}", run.outcome.stats.delta),
        run.outcome.stats.lambda.to_string(),
        run.outcome.convoys.len().to_string(),
    ]]
}

/// Figure 12: total query time of CMC versus the CuTS family. Expected
/// shape: every CuTS variant is several times faster than CMC, CuTS* the
/// fastest; the gap is widest on the profiles with many missing samples
/// (Car, Taxi), where CMC interpolates virtual points at every tick.
fn fig12(data: &PreparedDataset) -> Vec<Vec<String>> {
    let mut cmc_elapsed = None;
    Method::ALL
        .into_iter()
        .map(|method| {
            let run = run_method(data, method, None);
            let elapsed = run.elapsed_secs();
            // CMC comes first in `Method::ALL`, so every row has its baseline.
            let base = *cmc_elapsed.get_or_insert(elapsed);
            let speedup = if elapsed > 0.0 {
                base / elapsed
            } else {
                f64::INFINITY
            };
            vec![
                data.name.to_string(),
                method.to_string(),
                secs(elapsed),
                run.outcome.convoys.len().to_string(),
                format!("{speedup:.2}"),
            ]
        })
        .collect()
}

const CUTS_FAMILY: [Method; 3] = [Method::Cuts, Method::CutsPlus, Method::CutsStar];

/// Figure 13: each CuTS variant's time split into simplification, filter and
/// refinement. Expected shape: simplification dominates on Cattle (few,
/// long, dense trajectories); the clustering-heavy filter dominates on Taxi.
fn fig13(data: &PreparedDataset) -> Vec<Vec<String>> {
    CUTS_FAMILY
        .into_iter()
        .map(|method| {
            let run = run_method(data, method, None);
            vec![
                data.name.to_string(),
                method.to_string(),
                secs(run.seconds("discover.simplify")),
                secs(run.seconds("discover.filter")),
                secs(run.seconds("discover.refine")),
                secs(run.elapsed_secs()),
            ]
        })
        .collect()
}

/// Figure 14: each segment's actual tolerance instead of the global δ in the
/// CuTS* filter. Expected shape: actual tolerances prune more, so candidate
/// counts and elapsed time drop, most visibly on Cattle and Car.
fn fig14(data: &PreparedDataset) -> Vec<Vec<String>> {
    [ToleranceMode::Global, ToleranceMode::Actual]
        .into_iter()
        .map(|mode| {
            let config = CutsConfig::new(CutsVariant::CutsStar).with_tolerance_mode(mode);
            let run = run_method(data, Method::CutsStar, Some(config));
            vec![
                data.name.to_string(),
                mode.name().to_string(),
                run.outcome.stats.num_candidates.to_string(),
                format!("{:.0}", run.outcome.stats.refinement_units),
                secs(run.elapsed_secs()),
            ]
        })
        .collect()
}

/// Figure 15: DP, DP+ and DP* — vertex reduction and simplification time as
/// δ grows. Expected shape: reduction DP ≥ DP+ ≥ DP*; DP+ fastest, DP*
/// slowest; every method gets faster as δ grows.
fn fig15(data: &PreparedDataset) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for method in SimplificationMethod::ALL {
        for delta in FIG15_DELTA_OVER_E.iter().map(|f| f * data.query.e) {
            // A bare simplifier call, not a `Discovery` run: no spans to read.
            let started = Instant::now();
            let simplified: Vec<_> = data
                .dataset
                .database
                .iter()
                .map(|(_, traj)| method.simplify(traj, delta))
                .collect();
            let elapsed = started.elapsed().as_secs_f64();
            let stats = ReductionStats::from_simplified(simplified.iter());
            rows.push(vec![
                data.name.to_string(),
                method.to_string(),
                format!("{delta:.1}"),
                format!("{:.1}", stats.reduction_percent()),
                secs(elapsed),
            ]);
        }
    }
    rows
}

/// Figure 16: δ against the refinement unit and elapsed time. Expected
/// shape: CuTS* has the lowest refinement unit, CuTS+ sits between CuTS* and
/// CuTS, and both measures grow with δ as a loose δ inflates range searches.
fn fig16(data: &PreparedDataset) -> Vec<Vec<String>> {
    cuts_sweep(
        data,
        FIG16_DELTA_OVER_E.iter().map(|f| f * data.query.e),
        CutsConfig::with_delta,
        |stats| format!("{:.1}", stats.delta),
    )
}

/// Figure 17: the time-partition length λ against the refinement unit and
/// elapsed time. Expected shape: a larger λ weakens the filter; a very small
/// λ costs more clustering passes; CuTS* keeps the lowest refinement unit.
fn fig17(data: &PreparedDataset) -> Vec<Vec<String>> {
    let lambdas = match data.name {
        Truck => FIG17_TRUCK_LAMBDAS,
        _ => FIG17_CATTLE_LAMBDAS,
    };
    cuts_sweep(
        data,
        lambdas.iter().copied(),
        CutsConfig::with_lambda,
        |stats| stats.lambda.to_string(),
    )
}

/// One row per (sweep value, CuTS variant), value-major: Figures 16 and 17.
/// The swept column is `label` of the statistics the run reports, so it
/// shows the parameter the run actually used.
fn cuts_sweep<T: Copy>(
    data: &PreparedDataset,
    values: impl Iterator<Item = T>,
    apply: impl Fn(CutsConfig, T) -> CutsConfig,
    label: impl Fn(&DiscoveryStats) -> String,
) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for value in values {
        for method in CUTS_FAMILY {
            let Some(variant) = method.cuts_variant() else {
                continue; // CUTS_FAMILY holds CuTS variants only
            };
            let run = run_method(data, method, Some(apply(CutsConfig::new(variant), value)));
            rows.push(vec![
                data.name.to_string(),
                method.to_string(),
                label(&run.outcome.stats),
                format!("{:.0}", run.outcome.stats.refinement_units),
                run.outcome.stats.num_candidates.to_string(),
                secs(run.elapsed_secs()),
            ]);
        }
    }
    rows
}

/// Figure 19 (Appendix B.1): MC2 false positives and false negatives against
/// the CMC result as θ varies. Expected shape: false positives are high
/// everywhere (MC2 has no lifetime constraint) and grow with θ; false
/// negatives also rise with θ as a strict overlap fragments long convoys.
fn fig19(data: &PreparedDataset) -> Vec<Vec<String>> {
    let reference = run_method(data, Method::Cmc, None).outcome.convoys;
    FIG19_THETAS
        .iter()
        .map(|&theta| {
            let config = Mc2Config {
                e: data.query.e,
                m: data.query.m,
                theta,
            };
            let reported = mc2(&data.dataset.database, &config);
            let accuracy = compare_result_sets(&reported, &reference, &data.query);
            vec![
                data.name.to_string(),
                format!("{theta:.1}"),
                accuracy.reported.to_string(),
                accuracy.reference.to_string(),
                format!("{:.1}", accuracy.false_positive_percent()),
                format!("{:.1}", accuracy.false_negative_percent()),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_experiment_honours_its_contract() {
        let names: HashSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "names must be unique");

        let mut datasets = Datasets::new(0.02);
        for experiment in &EXPERIMENTS {
            let mut produced = 0;
            for profile in experiment.runs {
                for row in (experiment.rows)(datasets.get(*profile)) {
                    assert_eq!(
                        row.len(),
                        experiment.header.split(',').count(),
                        "{}: {row:?}",
                        experiment.name
                    );
                    produced += 1;
                }
            }
            assert!(produced >= 1, "{} produced no rows", experiment.name);
        }
    }

    /// Every swept value reaches the run: the swept column is read back
    /// from the run's own statistics.
    #[test]
    fn sweeps_cover_every_parameter_and_method() {
        let mut datasets = Datasets::new(0.02);
        let data = datasets.get(Taxi);
        let swept = |rows: &[Vec<String>]| -> Vec<String> {
            rows.iter().map(|r| format!("{} {}", r[1], r[2])).collect()
        };
        let rows = cuts_sweep(data, [1.0, 10.0].into_iter(), CutsConfig::with_delta, |s| {
            format!("{:.1}", s.delta)
        });
        assert_eq!(
            swept(&rows),
            [
                "CuTS 1.0",
                "CuTS+ 1.0",
                "CuTS* 1.0",
                "CuTS 10.0",
                "CuTS+ 10.0",
                "CuTS* 10.0"
            ]
        );
        let rows = cuts_sweep(data, [4, 8, 16].into_iter(), CutsConfig::with_lambda, |s| {
            s.lambda.to_string()
        });
        let lambdas: Vec<&str> = rows.iter().map(|r| r[2].as_str()).collect();
        assert_eq!(lambdas, ["4", "4", "4", "8", "8", "8", "16", "16", "16"]);
    }

    #[test]
    fn selection_keeps_table_order_and_rejects_unknown_names() {
        let all = select(&[]).unwrap();
        assert_eq!(all.len(), EXPERIMENTS.len());
        let picked = select(&["fig19".to_string(), "table3".to_string()]).unwrap();
        let names: Vec<&str> = picked.iter().map(|e| e.name).collect();
        assert_eq!(names, ["table3", "fig19"]);
        assert_eq!(select(&["fig18".to_string()]).unwrap_err(), "fig18");
    }
}
