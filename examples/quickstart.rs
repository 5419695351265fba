//! Quickstart: build a tiny trajectory database by hand, run a convoy query
//! with every algorithm, and show that they agree.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use convoy_suite::prelude::*;
use std::time::Instant;

fn main() {
    // --- 1. Build a trajectory database --------------------------------------
    // Three delivery vans follow the same route between t = 0 and t = 19;
    // a fourth van drives elsewhere. Positions are metres, time is seconds.
    let mut db = TrajectoryDatabase::new();
    for van in 0..3u64 {
        let mut builder = TrajectoryBuilder::new();
        for t in 0..20i64 {
            // Same route, small lateral offset per van.
            let x = 10.0 * t as f64;
            let y = 2.0 * van as f64 + (t as f64 * 0.4).sin();
            builder.add(x, y, t);
        }
        db.insert(ObjectId(van), builder.build().expect("valid trajectory"));
    }
    let mut loner = TrajectoryBuilder::new();
    for t in 0..20i64 {
        loner.add(5.0 * t as f64, 500.0 + t as f64, t);
    }
    db.insert(ObjectId(99), loner.build().expect("valid trajectory"));

    println!("database: {}", db.stats());

    // --- 2. Define the convoy query ------------------------------------------
    // At least 3 objects, density-connected within 5 metres, for at least 10
    // consecutive seconds.
    let query = ConvoyQuery::new(3, 10, 5.0);

    // --- 3. Run every algorithm ----------------------------------------------
    for method in [
        Method::Cmc,
        Method::Cuts,
        Method::CutsPlus,
        Method::CutsStar,
    ] {
        let started = Instant::now();
        let outcome = Discovery::new(method).run(&db, &query);
        let elapsed = started.elapsed();
        println!(
            "{:7} found {} convoy(s) in {:.3} ms",
            method.name(),
            outcome.convoys.len(),
            elapsed.as_secs_f64() * 1e3
        );
        for convoy in &outcome.convoys {
            println!("         {convoy}");
        }
    }
}
