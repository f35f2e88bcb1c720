//! `carq-cli chaos` — the deterministic fault-injection convergence check.
//!
//! One command, three runs, one verdict:
//!
//! 1. **Faulted run** — the fleet (`--preset`) or campaign (`--generator`)
//!    pipeline executes under a seeded `VANETFLT1` fault schedule: worker
//!    kills, stalls, torn journal appends, checksum-corrupted records,
//!    transient I/O errors and slow disks, all placed deterministically by
//!    `--fault-seed`. The supervisor heals what it can (restarts with
//!    seeded backoff, hang detection via heartbeats).
//! 2. **Warm re-run** — the same pipeline over the healed journal must
//!    simulate **zero** rounds: everything the faults destroyed was
//!    recovered (torn tails truncated, corrupt records dropped and
//!    re-simulated by the final pass, killed workers resumed).
//! 3. **Clean reference run** — no faults, fresh directory. The faulted
//!    and clean exports must be byte-identical, and every round record the
//!    clean journal holds must exist in the faulted journal (the "zero
//!    lost rounds" audit).
//!
//! `--poison I` wildcards shard `I` to die on every attempt, forcing the
//! graceful-degradation path instead: quarantine, partial coverage, a
//! `coverage-gaps.json` report and exit 3. The full fault catalogue and
//! recovery semantics are documented in `docs/RESILIENCE.md`.

use std::collections::HashSet;
use std::path::Path;
use std::time::Duration;

use vanet_cache::{CacheKey, SweepCache};
use vanet_faults::FaultPlan;

use crate::cli::{Options, DEFAULT_SEED, DEFAULT_SWEEP_ROUNDS};
use crate::failure::CliFailure;
use crate::output;
use crate::pipeline::{parse_resilience, run_pipeline, PipelineCommon, Source};

/// Default schedule seed when neither `--fault-seed` nor `--faults` is
/// given — arbitrary but fixed, so bare `carq-cli chaos --preset X` is
/// reproducible.
const DEFAULT_FAULT_SEED: u64 = 0xFA01_75EE;

/// The flags of both chaos modes (the generator mode additionally accepts
/// the generator's own world parameters).
const CHAOS_FLAGS: &[&str] = &[
    "preset",
    "generator",
    "replicas",
    "rounds",
    "seed",
    "workers",
    "threads",
    "fault-seed",
    "faults",
    "poison",
    "worker-timeout",
    "max-retries",
    "round-chunk",
];

/// The sorted key set of a journal directory — the unit of the lost-round
/// audit.
fn journal_keys(dir: &Path) -> Result<HashSet<CacheKey>, String> {
    Ok(SweepCache::open_read_only(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .keys()
        .into_iter()
        .collect())
}

/// `carq-cli chaos` — see the module docs for the three-run protocol.
pub fn chaos_cmd(opts: &Options) -> Result<(), CliFailure> {
    let source = Source::read(opts, "chaos", CHAOS_FLAGS)?;
    let seed = opts.seed("seed", DEFAULT_SEED)?;
    let workers = opts.count("workers")?.unwrap_or(3);
    let threads: usize = opts.get_parsed("threads", 0)?;
    // Chaos hardens the supervisor defaults: hang detection on (stall
    // faults are invisible to exit codes) and one extra retry, because the
    // generated schedule can hit the same worker on attempts 0 and 1.
    let (supervisor, decoded) = parse_resilience(opts, seed, Some(Duration::from_secs(10)), 3)?;

    // Plan once; all three runs execute the identical workload.
    let (plan, target) = source.plan(opts, workers)?;
    // A campaign without `--rounds` runs each world's own budget, which the
    // fault schedule guesses at.
    let rounds_hint = opts.count("rounds")?.unwrap_or(DEFAULT_SWEEP_ROUNDS);
    // The planned shard count, never more than the units: the fault plan
    // and `--poison` address the workers that will actually spawn.
    let workers = u32::try_from(plan.shards.len()).map_err(|_| "too many shards to fault")?;
    let mut fault_plan = match decoded {
        Some(plan) => plan,
        None => {
            let fault_seed = opts.seed("fault-seed", DEFAULT_FAULT_SEED)?;
            FaultPlan::generate(fault_seed, workers, u64::from(rounds_hint))
        }
    };
    if let Some(raw) = opts.get("poison") {
        let worker: u32 = raw.parse().map_err(|_| format!("--poison: cannot parse `{raw}`"))?;
        if worker >= workers {
            return Err(format!("--poison: worker {worker} out of range (0..{workers})").into());
        }
        fault_plan = fault_plan.with_poisoned_worker(worker);
    }
    eprintln!(
        "chaos: fault plan: {} fault(s), fault seed {:#018x}, {} worker(s)",
        fault_plan.faults.len(),
        fault_plan.fault_seed,
        workers,
    );
    for line in fault_plan.encode().lines() {
        eprintln!("chaos:   {line}");
    }

    let base = std::env::temp_dir().join(format!("carq-chaos-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let faulted_dir = base.join("faulted");
    let clean_dir = base.join("clean");
    let common = |dir: &Path, faults: Option<FaultPlan>| PipelineCommon {
        threads,
        json: false,
        base: dir.to_path_buf(),
        ephemeral: false,
        supervisor: supervisor.clone(),
        faults,
    };

    eprintln!("chaos: run 1/3: faulted run under the seeded schedule");
    let run = |dir: &Path, faults: Option<FaultPlan>| {
        run_pipeline(plan.clone(), &target, &common(dir, faults))
    };
    let faulted = run(&faulted_dir, Some(fault_plan))?;
    if let Some(gap) = &faulted.gap_report {
        return Err(CliFailure::degraded(format!(
            "chaos: {} shard(s) quarantined under the fault schedule; partial coverage \
             delivered, gap report at {}",
            faulted.quarantined.len(),
            gap.display(),
        )));
    }

    eprintln!("chaos: run 2/3: warm re-run over the healed journal");
    let warm = run(&faulted_dir, None)?;
    if warm.export.simulated != 0 {
        return Err(CliFailure::check(format!(
            "chaos: warm re-run simulated {} round(s) — the healed journal lost work \
             (evidence kept in {})",
            warm.export.simulated,
            base.display(),
        )));
    }

    eprintln!(
        "chaos: warm re-run served all {} round(s) from the healed journal",
        warm.export.cached,
    );

    eprintln!("chaos: run 3/3: clean reference run (no faults)");
    let clean = run(&clean_dir, None)?;
    if faulted.export.text != clean.export.text || warm.export.text != clean.export.text {
        return Err(CliFailure::check(format!(
            "chaos: exports diverge between the faulted and clean runs (evidence kept in {})",
            base.display(),
        )));
    }
    let faulted_keys = journal_keys(&faulted_dir)?;
    let clean_keys = journal_keys(&clean_dir)?;
    let lost = clean_keys.difference(&faulted_keys).count();
    if lost != 0 {
        return Err(CliFailure::check(format!(
            "chaos: {lost} of {} round record(s) missing from the faulted journal \
             (evidence kept in {})",
            clean_keys.len(),
            base.display(),
        )));
    }

    std::fs::remove_dir_all(&base).ok();
    output::print(&format!(
        "chaos: PASS — exports byte-identical after {} worker restart(s), \
         0 of {} round record(s) lost\n",
        faulted.restarts,
        clean_keys.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(items: &[&str]) -> Options {
        let strings: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        Options::parse(&strings).unwrap()
    }

    #[test]
    fn chaos_validates_its_flags() {
        let err = chaos_cmd(&opts(&[])).unwrap_err();
        assert!(err.message.contains("--preset"), "{err}");
        assert_eq!(err.exit, crate::failure::EXIT_USAGE);
        // Both modes at once is ambiguous.
        assert!(chaos_cmd(&opts(&["--preset", "urban-platoon", "--generator", "highway-flow"]))
            .is_err());
        assert!(chaos_cmd(&opts(&["--preset", "no-such-preset"])).is_err());
        assert!(chaos_cmd(&opts(&["--preset", "urban-platoon", "--workers", "0"])).is_err());
        assert!(chaos_cmd(&opts(&["--preset", "urban-platoon", "--rounds", "0"])).is_err());
        assert!(chaos_cmd(&opts(&["--preset", "urban-platoon", "--fault-seed", "zzz"])).is_err());
        assert!(chaos_cmd(&opts(&["--preset", "urban-platoon", "--poison", "9"])).is_err());
        assert!(chaos_cmd(&opts(&["--preset", "urban-platoon", "--bogus", "1"])).is_err());
        assert!(chaos_cmd(&opts(&["--generator", "mars"])).is_err());
    }
}
