//! # `convoy-suite` — convoy discovery in trajectory databases
//!
//! The umbrella crate of this workspace: it re-exports the full public API of
//! the reproduction of *Discovery of Convoys in Trajectory Databases*
//! (Jeung, Yiu, Zhou, Jensen, Shen — VLDB 2008) and hosts the runnable
//! examples (`examples/`) and cross-crate integration tests (`tests/`).
//!
//! The individual crates are:
//!
//! * [`trajectory`] — geometry primitives, timestamped polylines, and the
//!   trajectory database with snapshot extraction;
//! * [`simplify`] (`traj-simplify`) — the DP, DP+ and DP* line-simplification
//!   algorithms with actual-tolerance tracking;
//! * [`cluster`] (`traj-cluster`) — DBSCAN, the uniform-grid index, and the
//!   sub-trajectory clustering with the convoy distance bounds;
//! * [`datasets`] (`traj-datasets`) — synthetic dataset profiles mirroring
//!   the paper's Truck/Cattle/Car/Taxi data plus CSV I/O;
//! * [`core`] (`convoy-core`) — the convoy query, CMC, the CuTS family and
//!   the MC2 baseline;
//! * [`stream`] (`convoy-stream`) — end-to-end streaming discovery: the
//!   incremental CuTS filter with windowed eviction over live feeds.
//!
//! ## Quick start
//!
//! ```
//! use convoy_suite::prelude::*;
//!
//! // Generate a small synthetic dataset with planted convoys…
//! let data = generate(&DatasetProfile::truck().scaled(0.02), 7);
//! // …and discover convoys with CuTS*.
//! let query = ConvoyQuery::new(data.profile.m, data.profile.k, data.profile.e);
//! let outcome = Discovery::new(Method::CutsStar).run(&data.database, &query);
//! println!("found {} convoys", outcome.convoys.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use convoy_core as core;
pub use convoy_stream as stream;
pub use traj_cluster as cluster;
pub use traj_datasets as datasets;
pub use traj_simplify as simplify;
pub use trajectory;

/// The most commonly used items from every crate, importable in one line.
pub mod prelude {
    pub use convoy_core::{
        compare_result_sets, mc2, normalize_convoys, CmcEngine, CmcState, CmcStats, Convoy,
        ConvoyQuery, CutsConfig, CutsVariant, Discovery, DiscoveryOutcome, Mc2Config, Method,
    };
    pub use convoy_stream::{
        ConvoyStream, EvictionPolicy, FeedIngest, ReplayStream, StreamConfig, StreamOutcome,
        StreamStats,
    };
    pub use traj_cluster::{snapshot_clusters, Cluster};
    pub use traj_datasets::{
        generate, open_source, read_csv, write_container_file, write_csv, ContainerError,
        ContainerReader, DatasetProfile, InputFormat, ProfileName,
    };
    pub use traj_simplify::{SimplificationMethod, ToleranceMode};
    pub use trajectory::{
        ObjectId, Point, ScanStats, TimeInterval, TrajPoint, Trajectory, TrajectoryBuilder,
        TrajectoryDatabase, TrajectorySource,
    };
}
