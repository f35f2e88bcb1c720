//! Shared helpers for the reproduction bench harness.
//!
//! Every bench target in this crate regenerates one table or figure of the
//! paper (or one ablation: batched REQUESTs, cooperator selection, AP-side
//! retransmission, each described in its `ablation_*` target) and prints
//! the same rows/series the paper reports. The heavy lifting lives in `vanet-scenarios` behind
//! the unified `Scenario` API; this crate only provides the common
//! plumbing: round-count selection, shared experiment execution and a tiny
//! wall-clock timer so each bench also reports how long the regeneration
//! took.
//!
//! The number of simulated rounds defaults to the paper's 30 and can be
//! lowered for quick runs with the `CARQ_BENCH_ROUNDS` environment variable.

use std::time::Instant;

use vanet_scenarios::run_rounds;
use vanet_scenarios::urban::{UrbanConfig, UrbanRun};
use vanet_stats::RoundReport;

/// The master seed every bench runs with (the paper's year + venue).
pub const BENCH_SEED: u64 = 0x2008_1cdc;

/// Number of rounds to simulate: `CARQ_BENCH_ROUNDS` or the paper's 30.
pub fn bench_rounds() -> u32 {
    std::env::var("CARQ_BENCH_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|r| *r > 0)
        .unwrap_or(30)
}

/// Runs the urban testbed at `config` (rounds in parallel on all cores) and
/// returns the per-round reports together with the wall-clock seconds it
/// took.
pub fn run_urban(config: UrbanConfig) -> (Vec<RoundReport>, f64) {
    let started = Instant::now();
    let run = UrbanRun::new(config);
    let reports = run_rounds(&run, BENCH_SEED, 0);
    (reports, started.elapsed().as_secs_f64())
}

/// Runs the paper-testbed configuration with the bench round count.
pub fn run_paper_testbed() -> (Vec<RoundReport>, f64) {
    run_urban(UrbanConfig::paper_testbed().with_rounds(bench_rounds()))
}

/// Prints a standard bench header.
pub fn print_header(target: &str, reproduces: &str) {
    println!("==================================================================");
    println!("bench target : {target}");
    println!("reproduces   : {reproduces}");
    println!("rounds       : {}", bench_rounds());
    println!("==================================================================");
}

/// Prints the standard bench footer with the elapsed wall-clock time.
pub fn print_footer(elapsed_secs: f64) {
    println!("------------------------------------------------------------------");
    println!("regenerated in {elapsed_secs:.1} s of wall-clock time");
    println!();
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_round_count_matches_paper() {
        // The env var is not set in unit tests, so the paper's 30 applies.
        if std::env::var("CARQ_BENCH_ROUNDS").is_err() {
            assert_eq!(super::bench_rounds(), 30);
        }
    }
}
