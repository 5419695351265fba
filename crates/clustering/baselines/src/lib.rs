//! # `traj-cluster-baselines` — frozen clustering baselines (test support)
//!
//! Earlier forms of the `traj-cluster` grid, kept verbatim so the
//! equivalence tests can pin the production [`traj_cluster::GridIndex`] to
//! their hits and order, and the kernel benches can time it against them:
//!
//! * [`reference`](mod@reference) — the original `HashMap`-bucket grid and DBSCAN loop;
//! * [`aos`] — the array-of-structs CSR grid with the scalar distance scan.
//!
//! Not published and not a dependency of any shipped crate: only
//! `traj-cluster`'s integration tests and the `convoy-bench` benches take it
//! as a dev-dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aos;
pub mod reference;
