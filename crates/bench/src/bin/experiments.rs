//! `experiments [NAME…]`: regenerates the paper's evaluation artifacts —
//! Table 3 and Figures 12–17 and 19 — and writes each one to
//! `bench_results/<name>.csv` (also echoed to stdout). With no names it runs
//! all of them. Artifacts run one after another, so no elapsed column is
//! measured under contention. Scale with `CONVOY_SCALE` (default 0.15); an
//! unknown name or a `CONVOY_SCALE` that is not a finite number greater
//! than 0 exits 2.
//!
//! ```text
//! CONVOY_SCALE=0.02 cargo run --release -p convoy-bench --bin experiments -- fig13
//! ```

use convoy_bench::experiments::{select, EXPERIMENTS};
use convoy_bench::{scale_from_env, Datasets};
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected = match select(&names) {
        Ok(selected) => selected,
        Err(unknown) => {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
            eprintln!(
                "unknown experiment `{unknown}`\nusage: experiments [NAME…]  (NAME: {})",
                known.join(", ")
            );
            return ExitCode::from(2);
        }
    };
    let scale = match scale_from_env() {
        Ok(scale) => scale,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let mut datasets = Datasets::new(scale);
    for experiment in selected {
        eprintln!("# {} reproduction (scale = {scale})", experiment.artifact);
        experiment.run(&mut datasets).emit();
    }
    ExitCode::SUCCESS
}
