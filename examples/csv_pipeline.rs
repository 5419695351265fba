//! CSV pipeline: the shape of a real deployment — export a trajectory
//! database to CSV (the format a GPS feed or a data warehouse would hand
//! you), read it back, and run a convoy query on the imported data.
//!
//! ```text
//! cargo run --example csv_pipeline [path/to/trajectories.csv]
//! ```
//!
//! When a path is given, that file is loaded instead of the generated one;
//! the expected format is `object_id,t,x,y` with one sample per line.

use convoy_suite::datasets::io::{read_csv_file, write_csv_file};
use convoy_suite::prelude::*;
use std::time::Instant;

fn main() {
    let arg_path = std::env::args().nth(1);

    let (path, query) = match arg_path {
        Some(path) => {
            // A user-supplied file: use generic query parameters.
            (
                std::path::PathBuf::from(path),
                ConvoyQuery::new(3, 60, 50.0),
            )
        }
        None => {
            // No file given: generate a Taxi-profile dataset and export it.
            let profile = DatasetProfile::taxi().scaled(0.1);
            let data = generate(&profile, 11);
            let dir = std::env::temp_dir().join("convoy-csv-pipeline");
            std::fs::create_dir_all(&dir).expect("create temp dir");
            let path = dir.join("taxi.csv");
            write_csv_file(&data.database, &path).expect("write CSV");
            println!(
                "exported {} objects / {} samples to {}",
                data.database.len(),
                data.database.total_points(),
                path.display()
            );
            (path, ConvoyQuery::new(profile.m, profile.k, profile.e))
        }
    };

    let db = match read_csv_file(&path) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("cannot load {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    println!("loaded {} from {}", db.stats(), path.display());

    let started = Instant::now();
    let outcome = Discovery::new(Method::CutsStar).run(&db, &query);
    let elapsed = started.elapsed();
    println!(
        "CuTS* found {} convoy(s) in {:.2} s (δ = {:.1}, λ = {})",
        outcome.convoys.len(),
        elapsed.as_secs_f64(),
        outcome.stats.delta,
        outcome.stats.lambda
    );
    for convoy in outcome.convoys.iter().take(10) {
        println!("  {convoy}");
    }
    if outcome.convoys.len() > 10 {
        println!("  … and {} more", outcome.convoys.len() - 10);
    }
}
