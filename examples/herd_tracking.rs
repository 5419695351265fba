//! Herd tracking: the paper's Cattle dataset in miniature — very few animals,
//! very long and densely sampled trajectories from GPS ear tags.
//!
//! This example highlights the trajectory-simplification trade-off that
//! dominates this kind of data (the Figure 13/15 story): it compares DP, DP+
//! and DP* on the raw trajectories, then runs the full discovery with each
//! CuTS variant and shows where the time goes.
//!
//! ```text
//! cargo run --example herd_tracking
//! ```

use convoy_obs::{Obs, Registry};
use convoy_suite::prelude::*;
use convoy_suite::simplify::ReductionStats;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let profile = DatasetProfile::cattle().scaled(0.05);
    let data = generate(&profile, 5);
    let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
    println!(
        "herd of {} animals, {} GPS fixes each on average",
        data.database.len(),
        data.database.stats().average_trajectory_length as u64
    );

    // --- Simplification comparison (Figure 15 in miniature) -------------------
    let delta = profile.delta * 0.2;
    println!("\nsimplification with δ = {delta:.0}:");
    for method in [
        SimplificationMethod::Dp,
        SimplificationMethod::DpPlus,
        SimplificationMethod::DpStar,
    ] {
        let started = Instant::now();
        let simplified: Vec<_> = data
            .database
            .iter()
            .map(|(_, traj)| method.simplify(traj, delta))
            .collect();
        let elapsed = started.elapsed().as_secs_f64();
        let stats = ReductionStats::from_simplified(simplified.iter());
        println!(
            "  {:4}  reduction {:5.1} %   max actual tolerance {:6.1}   {:.3} s",
            method.name(),
            stats.reduction_percent(),
            stats.max_actual_tolerance,
            elapsed
        );
    }

    // --- Full discovery with the stage breakdown (Figure 13 in miniature) -----
    println!(
        "\ndiscovery (m = {}, k = {}, e = {}):",
        query.m, query.k, query.e
    );
    for method in [Method::Cuts, Method::CutsPlus, Method::CutsStar] {
        // The run's stage spans are its clock: attach a registry, then read
        // each stage's total back off it.
        let registry = Arc::new(Registry::new());
        let outcome = Discovery::new(method)
            .with_obs(Obs::registry(registry.clone()))
            .run(&data.database, &query);
        let secs = |span| registry.span_total_ns(span) as f64 / 1e9;
        println!(
            "  {:6}  {} herds   simplification {:.3} s | filter {:.3} s | refinement {:.3} s",
            method.name(),
            outcome.convoys.len(),
            secs("discover.simplify"),
            secs("discover.filter"),
            secs("discover.refine"),
        );
    }
}
