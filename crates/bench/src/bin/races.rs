//! Runs every same-run performance race ([`ppm_bench::races`]) and exits
//! non-zero if any floor, band or identity check fails.
//!
//! ```text
//! cargo run --release -p ppm-bench --bin races
//! ```
//!
//! It takes no flags: the workloads, attempt counts, floors and committed
//! band points (`crates/bench/races-baseline.json`) are fixed, so every
//! run measures the same thing.

use std::process::ExitCode;

use ppm_bench::races::{run_all, Baseline, RaceError};

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("races takes no flags");
        return ExitCode::from(2);
    }
    let dir = std::env::temp_dir().join(format!("ppm-races-{}", std::process::id()));
    let run = || -> Result<bool, RaceError> {
        let baseline = Baseline::committed()?;
        std::fs::create_dir_all(&dir)?;
        run_all(&dir, &baseline)
    };
    let outcome = run();
    std::fs::remove_dir_all(&dir).ok();
    match outcome {
        Ok(true) => {
            println!("all races passed");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("races: at least one race failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("races: {e}");
            ExitCode::FAILURE
        }
    }
}
