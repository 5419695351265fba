//! # `traj-cluster` — density-based clustering substrate
//!
//! Convoy discovery is built on density-connected clustering (DBSCAN,
//! Ester et al. 1996). This crate provides:
//!
//! * [`dbscan()`]: a generic DBSCAN implementation over abstract items with a
//!   pluggable [`RegionQuery`] neighbourhood provider;
//! * [`GridIndex`]: a uniform-grid spatial index in a flat CSR
//!   structure-of-arrays layout whose distance scans run through the
//!   batched, auto-vectorizable [`kernel`] module, providing the
//!   e-neighbourhood searches DBSCAN needs over point snapshots (used by
//!   CMC and by the CuTS refinement step);
//! * [`snapshot_clusters`]: snapshot clustering of a
//!   [`trajectory::Snapshot`] into object-id clusters, and
//!   [`SnapshotClusterer`]: its reusable-scratch form, allocation-free in
//!   steady state — what every per-tick engine loop holds on to;
//! * [`SubTrajectory`] + [`cluster_sub_trajectories`]: the "TRAJ-DBSCAN" of
//!   the paper's Algorithm 2 — density clustering of *simplified
//!   sub-trajectories* within one time partition, using the ω distance with
//!   the Lemma 1 / Lemma 3 error bounds and the Lemma 2 bounding-box
//!   pre-filter.
//!
//! ## Example: snapshot clustering
//!
//! ```
//! use trajectory::{TrajectoryDatabase, Trajectory, ObjectId, SnapshotPolicy};
//! use traj_cluster::snapshot_clusters;
//!
//! let mut db = TrajectoryDatabase::new();
//! for (i, x) in [0.0, 1.0, 2.0, 50.0].iter().enumerate() {
//!     db.insert(ObjectId(i as u64),
//!               Trajectory::from_tuples([(*x, 0.0, 0)]).unwrap());
//! }
//! let snap = db.snapshot(0, SnapshotPolicy::Interpolate);
//! let clusters = snapshot_clusters(&snap, 1.5, 2);
//! assert_eq!(clusters.len(), 1);            // the three nearby objects
//! assert_eq!(clusters[0].len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod dbscan;
pub mod grid;
pub mod kernel;
pub mod segment;

pub use cluster::Cluster;
pub use dbscan::{dbscan, dbscan_into, DbscanScratch, Label, RegionQuery};
pub use grid::{snapshot_clusters, ClusterCounts, GridIndex, SnapshotClusterer};
pub use segment::{cluster_sub_trajectories, omega_distance, SegmentDistance, SubTrajectory};
