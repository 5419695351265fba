//! Carpool detection: the paper's motivating application — find cars that
//! follow the same route at the same time, so their drivers could share a
//! vehicle.
//!
//! The example generates a synthetic "private cars" dataset (the Car profile,
//! scaled down), runs CuTS*, and reports each discovered convoy as a
//! car-pooling opportunity with an estimate of the kilometres that could be
//! saved.
//!
//! ```text
//! cargo run --example carpool_detection
//! ```

use convoy_suite::prelude::*;
use std::time::Instant;

fn main() {
    // A scaled-down Copenhagen-cars-like dataset with planted commuter groups.
    let profile = DatasetProfile::car().scaled(0.1);
    let data = generate(&profile, 2024);
    println!(
        "generated {} cars, {} GPS points",
        data.database.len(),
        data.database.total_points()
    );

    // Convoy query: at least 3 cars within 80 metres for at least k ticks.
    let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
    let started = Instant::now();
    let outcome = Discovery::new(Method::CutsStar).run(&data.database, &query);
    let elapsed = started.elapsed();

    println!(
        "CuTS* found {} car-pooling opportunities in {:.2} s \
         ({} car-ticks refined after the filter step, δ = {:.1}, λ = {})",
        outcome.convoys.len(),
        elapsed.as_secs_f64(),
        outcome.stats.work.refine_snapshot_points,
        outcome.stats.delta,
        outcome.stats.lambda,
    );

    for (i, convoy) in outcome.convoys.iter().enumerate() {
        // Estimate the distance the group covers together: the path length of
        // one member inside the convoy interval.
        let representative = convoy.objects.iter().next().expect("non-empty convoy");
        let shared_km = data
            .database
            .get(representative)
            .and_then(|traj| traj.slice(convoy.interval()))
            .map(|slice| slice.path_length() / 1000.0)
            .unwrap_or(0.0);
        // Every member beyond the first could leave their car at home.
        let cars_saved = convoy.objects.len() - 1;
        println!(
            "opportunity #{i}: {} cars travelling together for {} ticks \
             (~{shared_km:.1} km shared, up to {cars_saved} car(s) off the road)",
            convoy.objects.len(),
            convoy.lifetime(),
        );
    }

    // Sanity: every planted commuter group should be rediscovered.
    let found_planted = data
        .ground_truth
        .iter()
        .filter(|planted| {
            outcome
                .convoys
                .iter()
                .any(|c| planted.members.iter().all(|m| c.objects.contains(*m)))
        })
        .count();
    println!(
        "{found_planted}/{} planted commuter groups were rediscovered",
        data.ground_truth.len()
    );
}
