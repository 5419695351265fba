//! # `trajectory` — trajectory data model substrate
//!
//! This crate provides the data model underneath the convoy-discovery stack:
//!
//! * **Geometry primitives** ([`geometry`]): 2-D points, line segments,
//!   axis-aligned bounding boxes and the distance functions of the paper's
//!   Definition 1 (`D`, `DPL`, `DLL`, `Dmin`) plus the closest-point-of-approach
//!   distance `D*` used by CuTS*.
//! * **Time model** ([`time`]): discrete time points, closed time intervals
//!   `[start, end]`, and partitioning of a time domain into λ-length partitions.
//! * **Trajectories** ([`Trajectory`]): timestamped polylines with exact and
//!   interpolated location lookup, slicing and sub-trajectory extraction.
//! * **Trajectory database** ([`TrajectoryDatabase`]): a collection of
//!   trajectories keyed by object id, with snapshot extraction (the `Ot` sets
//!   used by snapshot clustering), optional virtual-point interpolation for
//!   missing samples, and dataset statistics matching Table 3 of the paper.
//! * **Snapshot sweep** ([`SnapshotSweep`]): a streaming cursor that yields
//!   every snapshot of a time window from one sorted pass over all samples,
//!   the extraction path the convoy engines use on their hot loop.
//!
//! The crate is deliberately free of any clustering or simplification logic so
//! that the substrates above it (`traj-simplify`, `traj-cluster`,
//! `convoy-core`) can be tested against a small, stable core.
//!
//! ## Example
//!
//! ```
//! use trajectory::{Trajectory, TrajectoryDatabase, TrajPoint, ObjectId};
//!
//! let mut db = TrajectoryDatabase::new();
//! let traj = Trajectory::from_points(vec![
//!     TrajPoint::new(0.0, 0.0, 0),
//!     TrajPoint::new(1.0, 1.0, 1),
//!     TrajPoint::new(2.0, 2.0, 2),
//! ]).unwrap();
//! db.insert(ObjectId(7), traj);
//!
//! // Exact sample at t=1, interpolated position at t between samples.
//! let o = db.get(ObjectId(7)).unwrap();
//! assert_eq!(o.location_at(1).unwrap().x, 1.0);
//! assert_eq!(db.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod database;
pub mod error;
pub mod feed;
pub mod geometry;
pub mod point;
pub mod source;
pub mod stats;
pub mod sweep;
pub mod time;
pub mod trajectory;

pub use builder::TrajectoryBuilder;
pub use database::{ObjectId, Snapshot, SnapshotEntry, SnapshotPolicy, TrajectoryDatabase};
pub use error::{Result, TrajectoryError};
pub use feed::FeedError;
pub use geometry::bbox::BoundingBox;
pub use geometry::point::Point;
pub use geometry::segment::Segment;
pub use point::TrajPoint;
pub use source::{publish_scan_stats, ScanStats, TrajectorySource};
pub use stats::DatasetStats;
pub use sweep::SnapshotSweep;
pub use time::{TimeInterval, TimePartition, TimePoint};
pub use trajectory::Trajectory;
