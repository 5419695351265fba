//! Fleet throughput planning: the paper's delivery-truck application — find
//! trucks with coherent trajectory patterns so that deliveries can be
//! consolidated.
//!
//! The example generates a Truck-profile dataset, compares the running time
//! of CMC against the whole CuTS family (the Figure 12 experiment in
//! miniature), and prints the trucks whose routes overlap long enough to be
//! scheduled together.
//!
//! ```text
//! cargo run --example fleet_throughput
//! ```

use convoy_suite::prelude::*;
use std::time::Instant;

fn main() {
    let profile = DatasetProfile::truck().scaled(0.1);
    let data = generate(&profile, 77);
    let query = ConvoyQuery::new(profile.m, profile.k, profile.e);

    println!(
        "fleet of {} trucks, {} position reports, time domain of {} ticks",
        data.database.len(),
        data.database.total_points(),
        data.database
            .time_domain()
            .map(|d| d.num_points())
            .unwrap_or(0)
    );
    println!(
        "query: at least {} trucks within {} m for {} consecutive ticks\n",
        query.m, query.e, query.k
    );

    let mut reference: Option<(DiscoveryOutcome, f64)> = None;
    for method in [
        Method::Cmc,
        Method::Cuts,
        Method::CutsPlus,
        Method::CutsStar,
    ] {
        let started = Instant::now();
        let outcome = Discovery::new(method).run(&data.database, &query);
        let elapsed = started.elapsed().as_secs_f64();
        match &reference {
            None => {
                println!(
                    "{:7} {elapsed:8.3} s  ({} convoys)",
                    method.name(),
                    outcome.convoys.len()
                );
                reference = Some((outcome, elapsed));
            }
            Some((cmc, cmc_elapsed)) => {
                let speedup = cmc_elapsed / elapsed.max(1e-9);
                let agrees = convoy_suite::core::query::result_sets_equivalent(
                    &outcome.convoys,
                    &cmc.convoys,
                );
                println!(
                    "{:7} {elapsed:8.3} s  ({} convoys, {speedup:.1}x vs CMC, results {})",
                    method.name(),
                    outcome.convoys.len(),
                    if agrees { "identical" } else { "DIFFERENT!" }
                );
            }
        }
    }

    // Report the consolidation opportunities from the exact result set.
    let convoys = reference.expect("CMC ran").0.convoys;
    println!("\nconsolidation candidates:");
    for convoy in &convoys {
        let trucks: Vec<String> = convoy.objects.iter().map(|o| o.to_string()).collect();
        println!(
            "  trucks {} share a route for {} ticks [{} – {}]",
            trucks.join(", "),
            convoy.lifetime(),
            convoy.start,
            convoy.end
        );
    }
    if convoys.is_empty() {
        println!("  (none at this scale — increase the scale or loosen the query)");
    }
}
