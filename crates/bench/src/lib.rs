//! # `convoy-bench` — the experiment harness
//!
//! This crate regenerates every table and figure of the paper's evaluation
//! section on the synthetic dataset profiles of [`traj_datasets`]. Each
//! artifact is one entry of [`experiments::EXPERIMENTS`]; the `experiments`
//! binary runs them:
//!
//! | `experiments` name | Paper artefact | Content |
//! |--------------------|----------------|---------|
//! | `table3`           | Table 3        | Dataset statistics, chosen parameters, number of convoys discovered |
//! | `fig12`            | Figure 12      | Elapsed time of CMC vs the CuTS family on all four datasets |
//! | `fig13`            | Figure 13      | Cost breakdown (simplification / filter / refinement), Cattle & Taxi |
//! | `fig14`            | Figure 14      | Effect of actual vs global tolerance on refined object-ticks and elapsed time |
//! | `fig15`            | Figure 15      | Simplification methods: vertex reduction and elapsed time vs δ (Cattle) |
//! | `fig16`            | Figure 16      | Effect of δ on refined object-ticks and elapsed time (Car & Taxi) |
//! | `fig17`            | Figure 17      | Effect of λ on refined object-ticks and elapsed time (Truck & Cattle) |
//! | `fig19`            | Figure 19      | MC2 false positives / false negatives vs θ on all four datasets |
//!
//! `experiments [NAME…]` runs the named artifacts (all of them when given
//! none) one after another, generating each dataset profile once, and
//! writes one `bench_results/<name>.csv` per artifact (echoed to stdout).
//! Discovery times are the `discover.*` spans of each run, kept by a
//! spans-only `Obs` handle that drops every other metric, so the engines
//! run as uninstrumented as when observability is off.
//!
//! Performance is measured by the end-to-end ledger (`BENCHMARK.json`,
//! `ledger/`): medians with spread on named workloads, split into the
//! layers the obs registry names. This crate holds no micro-benches.
//!
//! ## Scaling
//!
//! The synthetic profiles default to a fraction of the paper's dataset sizes
//! so that the whole suite runs in minutes on a laptop. Set the environment
//! variable `CONVOY_SCALE` (e.g. `CONVOY_SCALE=1.0`) to change the fraction;
//! relative comparisons between algorithms are stable across scales. A
//! value that is not a finite number greater than 0 is an error
//! ([`scale_from_env`]), never a silent fall-back to the default.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod prepare;
pub mod report;
pub mod runner;

pub use prepare::{prepared, scale_from_env, Datasets, PreparedDataset, DEFAULT_SCALE};
pub use report::Report;
pub use runner::{run_method, MeasuredRun};
