//! `carq-cli campaign` — mass campaigns over generated scenarios.
//!
//! A campaign expands a generator grid (`--PARAM v1,v2,...` axes times
//! `--replicas` seed replicas) into a population of scenario identities and
//! runs every one through the fleet's machinery: the campaign planner
//! strides the worlds into the same `VANETFLEET2` shard files a preset
//! fleet uses, `fleet worker` (alias `campaign worker`) executes them
//! against their own journals, journals merge with the standard
//! byte-identical semantics, and the final table renders one row per
//! generated scenario from the merged cache — warm re-runs simulate
//! nothing.

use vanet_fleet::ShardPlan;
use vanet_gen::GenGrid;

use crate::cli::{spec_values, Options};
use crate::commands::{parse_count, parse_seed, write_shard_files};
use crate::failure::CliFailure;
use crate::pipeline::{FinalPass, Target};

/// Builds the generator grid of `campaign plan` / `campaign run`: every
/// world schema parameter given as a `--PARAM v1,v2,...` flag becomes an
/// axis, `--replicas R` multiplies each cell into R seed replicas.
pub(crate) fn campaign_grid(opts: &Options) -> Result<GenGrid, String> {
    let Some(name) = opts.get("generator") else {
        return Err("campaign needs --generator NAME (see `carq-cli gen list`)".into());
    };
    let mut grid = GenGrid::new(name).map_err(|e| e.to_string())?;
    let specs = grid.generator().schema().params().to_vec();
    for spec in specs {
        let key = spec.param.key();
        if let Some(raw) = opts.get(key) {
            let values = spec_values(&spec, raw).map_err(|e| format!("--{key}: {e}"))?;
            grid = grid.axis(spec.param, values).map_err(|e| format!("--{key}: {e}"))?;
        }
    }
    let replicas: u32 = opts.get_parsed("replicas", 1)?;
    if replicas == 0 {
        return Err("--replicas must be positive".into());
    }
    Ok(grid.with_replicas(replicas))
}

/// Rejects flags outside `common` plus the grid's world parameters.
pub(crate) fn check_flags(grid: &GenGrid, opts: &Options, common: &[&str]) -> Result<(), String> {
    let mut known: Vec<&str> = common.to_vec();
    known.extend(grid.generator().schema().params().iter().map(|s| s.param.key()));
    let unknown = opts.unknown_flags(&known);
    if unknown.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "unknown flags: --{} (see `carq-cli gen describe {}`)",
            unknown.join(", --"),
            grid.generator().name
        ))
    }
}

/// The optional `--rounds N` override; absent runs each scenario's
/// generator-default budget.
fn campaign_rounds(opts: &Options) -> Result<Option<u32>, String> {
    match opts.get("rounds") {
        None => Ok(None),
        Some(raw) => {
            let rounds: u32 = raw.parse().map_err(|_| format!("--rounds: cannot parse `{raw}`"))?;
            if rounds == 0 {
                return Err("--rounds must be positive".into());
            }
            Ok(Some(rounds))
        }
    }
}

/// The campaign planner shared by `campaign plan`, `campaign run` and
/// `chaos --generator`: seed and rounds override, validated, folded into a
/// plan of at most `count` shards over `grid` and its final-pass target.
pub(crate) fn campaign_plan_of(
    grid: &GenGrid,
    opts: &Options,
    count: usize,
) -> Result<(ShardPlan, Target), String> {
    let seed = parse_seed(opts)?;
    let rounds = campaign_rounds(opts)?;
    let identities = grid.identities(seed);
    let plan =
        ShardPlan::for_campaign(&identities, seed, rounds, count).map_err(|e| e.to_string())?;
    let generator = grid.generator().name;
    let target = Target {
        kind: "campaign",
        units: "scenario(s)",
        work: format!("generated `{generator}` scenario(s)"),
        // A healthy run renders every world.
        pass: format!("final pass over {} scenario(s)", identities.len()),
        source: ("generator", generator.to_string()),
        missing: ("missing_scenarios", "scenario(s)"),
        export: FinalPass::Campaign { identities, rounds },
    };
    Ok((plan, target))
}

/// `carq-cli campaign plan`: writes the shard files and returns the lines
/// to print.
pub fn campaign_plan(opts: &Options) -> Result<String, String> {
    let grid = campaign_grid(opts)?;
    check_flags(&grid, opts, &["generator", "replicas", "shards", "seed", "rounds", "out-dir"])?;
    let Some(out_dir) = opts.get("out-dir") else {
        return Err("campaign plan needs --out-dir DIR".into());
    };
    let (plan, _) = campaign_plan_of(&grid, opts, parse_count(opts, "shards", Some(1))?)?;
    let text = write_shard_files(&plan, out_dir)?;
    Ok(format!(
        "{text}planned {} shard(s): {} generated `{}` scenario(s), master seed {:#x}\n",
        plan.shards.len(),
        plan.total_units(),
        grid.generator().name,
        plan.master_seed,
    ))
}

/// `carq-cli campaign run` — the whole pipeline, locally: expand the grid,
/// spawn worker processes under the supervisor, merge their journals,
/// render the campaign table from the merged cache.
pub fn campaign_run(opts: &Options) -> Result<(), CliFailure> {
    let grid = campaign_grid(opts)?;
    check_flags(
        &grid,
        opts,
        &[
            "generator",
            "replicas",
            "workers",
            "rounds",
            "seed",
            "threads",
            "format",
            "out",
            "cache",
            "worker-timeout",
            "max-retries",
            "faults",
        ],
    )?;
    let (plan, target) = campaign_plan_of(&grid, opts, parse_count(opts, "workers", None)?)?;
    crate::pipeline::run_command(opts, plan, &target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{dispatch, shard_file_name};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vanet_cache::SweepCache;
    use vanet_fleet::{ScenarioRef, Shard};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "carq-cli-campaign-test-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn opts(items: &[&str]) -> Options {
        let strings: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        Options::parse(&strings).unwrap()
    }

    fn strs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn grid_building_validates_generator_and_axes() {
        let err = campaign_plan(&opts(&[])).unwrap_err();
        assert!(err.contains("--generator"), "{err}");
        assert!(campaign_plan(&opts(&["--generator", "mars"])).is_err());
        // A bad axis value names the flag.
        let err = campaign_plan(&opts(&["--generator", "highway-flow", "--n_cars", "1,zero"]))
            .unwrap_err();
        assert!(err.contains("--n_cars"), "{err}");
        // Unknown flags point at the generator's schema.
        let err = campaign_plan(&opts(&[
            "--generator",
            "highway-flow",
            "--bogus",
            "1",
            "--out-dir",
            "/tmp/x",
        ]))
        .unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        assert!(err.contains("gen describe"), "{err}");
        assert!(campaign_plan(&opts(&["--generator", "highway-flow", "--replicas", "0"])).is_err());
        // plan requires --out-dir, positive --shards, positive --rounds.
        let err = campaign_plan(&opts(&["--generator", "highway-flow"])).unwrap_err();
        assert!(err.contains("--out-dir"), "{err}");
        assert!(campaign_plan(&opts(&[
            "--generator",
            "highway-flow",
            "--out-dir",
            "/tmp/x",
            "--shards",
            "0",
        ]))
        .is_err());
        assert!(campaign_plan(&opts(&[
            "--generator",
            "highway-flow",
            "--out-dir",
            "/tmp/x",
            "--rounds",
            "0",
        ]))
        .is_err());
    }

    #[test]
    fn run_and_worker_validate_their_flags() {
        let err = campaign_run(&opts(&["--generator", "highway-flow"])).unwrap_err();
        assert!(err.message.contains("--workers"), "{err}");
        assert_eq!(err.exit, crate::failure::EXIT_USAGE);
        assert!(campaign_run(&opts(&["--generator", "highway-flow", "--workers", "0",])).is_err());
        assert!(campaign_run(&opts(&[
            "--generator",
            "highway-flow",
            "--workers",
            "2",
            "--format",
            "xml",
        ]))
        .is_err());
        // `campaign worker` is `fleet worker` under a second name.
        let worker = |args: &[&str]| dispatch(&strs(&[&["campaign", "worker"], args].concat()));
        assert!(worker(&[]).is_err());
        assert!(worker(&["--shard", "/no/such.fleet"]).is_err());
        let err = worker(&["--shard", "/no/such.fleet", "--cache", "/tmp/x"]).unwrap_err();
        assert!(err.message.contains("cannot read"), "{err}");
        assert!(worker(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn plan_writes_decodable_shard_files_covering_the_grid() {
        let dir = temp_dir("plan");
        let dir_str = dir.display().to_string();
        campaign_plan(&opts(&[
            "--generator",
            "platoon-merge",
            "--feeder_m",
            "100,150",
            "--n_ramp",
            "1,2",
            "--replicas",
            "2",
            "--shards",
            "3",
            "--seed",
            "0xCA4",
            "--out-dir",
            &dir_str,
        ]))
        .unwrap();
        let mut scenarios = Vec::new();
        for index in 0..3 {
            let text = std::fs::read_to_string(dir.join(shard_file_name(index))).unwrap();
            let shard = Shard::decode(&text).unwrap();
            assert_eq!(shard.index, index);
            assert_eq!(shard.count, 3);
            assert_eq!(shard.master_seed, 0xCA4);
            for (scenario, units) in shard.groups {
                let ScenarioRef::Generated(identity) = scenario else {
                    panic!("a campaign shard names generated worlds")
                };
                assert_eq!(identity.generator, "platoon-merge");
                assert_eq!(units.len(), 1, "one unit per world");
                scenarios.push(identity);
            }
        }
        assert_eq!(scenarios.len(), 8, "2 feeder_m x 2 n_ramp x 2 replicas");
        let names: std::collections::HashSet<String> =
            scenarios.iter().map(|s| s.scenario_name()).collect();
        assert_eq!(names.len(), 8, "every generated identity is distinct");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_executes_a_planned_shard_against_its_journal() {
        let dir = temp_dir("worker");
        let dir_str = dir.display().to_string();
        campaign_plan(&opts(&[
            "--generator",
            "platoon-merge",
            "--feeder_m",
            "100",
            "--tail_m",
            "100,150",
            "--rounds",
            "1",
            "--shards",
            "1",
            "--out-dir",
            &dir_str,
        ]))
        .unwrap();
        let shard_file = dir.join(shard_file_name(0)).display().to_string();
        let journal = dir.join("journal").display().to_string();
        dispatch(&strs(&[
            "campaign",
            "worker",
            "--shard",
            &shard_file,
            "--cache",
            &journal,
            "--threads",
            "1",
        ]))
        .unwrap();
        // The journal now covers both scenarios; a re-run resumes from it
        // (exercised at library level too, but this is the CLI wiring).
        let cache = SweepCache::open_read_only(&journal).unwrap();
        assert_eq!(cache.len(), 2, "one round per scenario");
        std::fs::remove_dir_all(&dir).ok();
    }
}
