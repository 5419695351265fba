//! # `convoy-core` — convoy discovery in trajectory databases
//!
//! This crate implements the contribution of *Discovery of Convoys in
//! Trajectory Databases* (Jeung, Yiu, Zhou, Jensen, Shen — VLDB 2008):
//!
//! * the **convoy query** itself ([`ConvoyQuery`], [`Convoy`]): given a
//!   trajectory database, a distance threshold `e`, a group size `m` and a
//!   lifetime `k`, find every maximal group of at least `m` objects that are
//!   density-connected with respect to `e` at each of at least `k`
//!   consecutive time points;
//! * **CMC** ([`CmcEngine`]): the Coherent Moving Cluster baseline
//!   (Algorithm 1) that clusters every snapshot and intersects clusters over
//!   time;
//! * the **streaming + parallel engine** ([`engine`]): the incremental
//!   [`CmcState`] fold, the swept single-pass extraction and the
//!   time-partitioned parallel driver — selectable per run via
//!   [`CmcEngine`], whose crate-private `CmcEngine::run_sweep` is the one
//!   CMC implementation every run function and the CuTS refinement
//!   delegate to;
//! * the **CuTS family** ([`cuts`]): the filter–refinement algorithms built
//!   on trajectory simplification — CuTS (DP + `DLL` bounds), CuTS+ (DP+ +
//!   `DLL` bounds) and CuTS* (DP* + `D*` bounds);
//! * **MC2** ([`mc2()`]): the moving-cluster baseline used in the paper's
//!   appendix to show that moving-cluster semantics cannot answer convoy
//!   queries exactly;
//! * parameter guidelines ([`params`]) and instrumentation
//!   ([`metrics`]) used by the benchmark harness to reproduce the paper's
//!   figures.
//!
//! ## Quick start
//!
//! ```
//! use convoy_core::{ConvoyQuery, Discovery, Method};
//! use trajectory::{ObjectId, Trajectory, TrajectoryDatabase};
//!
//! // Three objects travelling together, one loner.
//! let mut db = TrajectoryDatabase::new();
//! for i in 0..3u64 {
//!     let traj = Trajectory::from_tuples(
//!         (0..10).map(|t| (t as f64, i as f64 * 0.5, t as i64))).unwrap();
//!     db.insert(ObjectId(i), traj);
//! }
//! db.insert(ObjectId(99), Trajectory::from_tuples(
//!     (0..10).map(|t| (t as f64, 500.0, t as i64))).unwrap());
//!
//! let query = ConvoyQuery { m: 3, k: 5, e: 1.5 };
//! let outcome = Discovery::new(Method::CutsStar).run(&db, &query);
//! assert_eq!(outcome.convoys.len(), 1);
//! assert_eq!(outcome.convoys[0].objects.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod candidate;
#[cfg(test)]
mod cmc;
pub mod cuts;
pub mod discovery;
pub mod engine;
pub mod mc2;
pub mod metrics;
pub mod params;
pub mod query;

pub use cuts::partition::{cluster_partition, PartitionClusters};
pub use cuts::refine::refine_partitions;
pub use cuts::{CutsConfig, CutsVariant};
pub use discovery::{Discovery, DiscoveryOutcome, Method};
pub use engine::{CmcEngine, CmcState, CmcStateSnapshot, CmcStats};
pub use mc2::{mc2, Mc2Config};
#[allow(deprecated)] // kept until the benchmark migration
pub use metrics::refinement_unit;
pub use metrics::{
    publish_discovery, publish_fold_stats, publish_stage_timings, DiscoveryStats, FilterWork,
    FoldWork,
};
pub use params::{auto_delta, auto_lambda};
pub use query::{compare_result_sets, normalize_convoys, AccuracyReport, Convoy, ConvoyQuery};
