//! # `traj-simplify` — trajectory line-simplification substrate
//!
//! The filter step of the CuTS family operates on *simplified* trajectories.
//! The paper's three simplifiers — DP (Section 2.2 / 5.1), DP+ (Section 6.1)
//! and DP\* (Section 6.2) — are one Douglas–Peucker routine that differs
//! only in how deviation is measured and where a range splits; pick one with
//! [`SimplificationMethod`] and call [`SimplificationMethod::simplify`].
//!
//! Every simplification records the **actual tolerance** `δ(l′)` of each
//! produced segment (Definition 4): the maximum deviation of any original
//! sample in the segment's time range from the segment. Actual tolerances
//! are what make the filter-step distance bounds (Lemmas 1–3) tight.
//!
//! ## Example
//!
//! ```
//! use trajectory::Trajectory;
//! use traj_simplify::SimplificationMethod;
//!
//! let traj = Trajectory::from_tuples([
//!     (0.0, 0.0, 0), (1.0, 0.05, 1), (2.0, -0.04, 2), (3.0, 0.0, 3),
//! ]).unwrap();
//! let simplified = SimplificationMethod::Dp.simplify(&traj, 0.5);
//! assert_eq!(simplified.num_points(), 2);              // straight-ish line collapses
//! assert!(simplified.max_actual_tolerance() <= 0.5);   // never exceeds δ
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dp;
pub mod select;
pub mod simplified;
pub mod tolerance;

pub use dp::SimplificationMethod;
pub use select::{select_delta, select_delta_for_database, select_lambda, DeltaSelection};
pub use simplified::{SimplifiedSegment, SimplifiedTrajectory};
pub use tolerance::{ReductionStats, ToleranceMode};
