//! `carq-cli` — drive the C-ARQ reproduction without writing Rust.
//!
//! ```text
//! carq-cli scenario list
//! carq-cli scenario describe urban
//! carq-cli scenario run urban --speed_kmh 10,20,30 --n_cars 2,3 --rounds 3
//! carq-cli gen list
//! carq-cli gen emit highway-flow --n_cars 4 --out world.gen
//! carq-cli campaign run --generator grid-city --n_cars 2,4 --replicas 8 --workers 3
//! carq-cli trace --scenario urban --rounds 0..1 --out round0.jsonl
//! carq-cli trace --scenario urban --rounds 0..5 --out rounds.trc
//! carq-cli analyze latency --preset strategy-compare
//! carq-cli analyze occupancy --trace rounds.trc
//! carq-cli analyze timeline --scenario urban --node 1
//! carq-cli analyze diff --scenario urban --strategy coop-arq --against no-coop
//! carq-cli sweep list
//! carq-cli sweep run --preset urban-platoon --threads 8 --out sweep.csv
//! carq-cli sweep run --preset urban-platoon --cache ./sweep-cache   # resumable
//! carq-cli fleet run --preset urban-platoon --workers 3             # multi-process
//! carq-cli fleet merge --cache ./merged --from shard-a,shard-b      # cross-machine
//! carq-cli cache stats --cache ./sweep-cache
//! carq-cli cache compact --cache ./sweep-cache
//! carq-cli table1 --rounds 30
//! carq-cli fig reception --car 1
//! ```

use std::process::ExitCode;

mod analyze;
mod chaos;
mod cli;
mod commands;
mod failure;
mod gen_cmd;
mod output;
mod pipeline;
mod trace;
mod verify;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) if failure.is_closed_stdout() => ExitCode::SUCCESS,
        Err(failure) => {
            // The exit-code contract (0 ok / 1 check failed / 2 usage /
            // 3 degraded) lives in `failure.rs` and docs/RESILIENCE.md.
            eprintln!("carq-cli: {failure}");
            if failure.exit == failure::EXIT_USAGE {
                eprintln!("run `carq-cli help` for usage");
            }
            ExitCode::from(failure.exit)
        }
    }
}
