//! Subcommand implementations.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use vanet_analysis::{AnalysisStore, DigestCodec};
use vanet_cache::{Journal, RecordCodec, RoundCodec, SweepCache};
use vanet_fleet::Shard;
use vanet_scenarios::{
    run_point, Param, ParamSpec, ParamValue, Scenario, ScenarioRegistry, SweepPoint, UrbanScenario,
};
use vanet_stats::{
    into_round_results, joint_series, recovery_series, render_series_csv, render_table1, table1,
    RoundResult,
};
use vanet_sweep::{presets, SweepEngine, SweepSpec};

use crate::cli::{spec_values, Options, DEFAULT_SEED, DEFAULT_SWEEP_ROUNDS};
use crate::failure::CliFailure;
use crate::output;
use crate::pipeline::{
    run_command, write_plan, CAMPAIGN_PLAN_FLAGS, CAMPAIGN_RUN_FLAGS, FLEET_RUN_FLAGS,
    FLEET_SHARD_FLAGS,
};

/// Valueless flags accepted by `scenario run` / `sweep run`.
const SWITCHES: [&str; 1] = ["allow-unknown"];

const USAGE: &str = "\
carq-cli — Cooperative-ARQ reproduction front-end

USAGE:
  carq-cli scenario list
      Show every registered scenario.

  carq-cli scenario describe NAME|FILE
      Show a scenario's typed parameter schema: every parameter it
      consumes, with type, default, range and documentation. FILE may be
      a generated scenario file from `carq-cli gen emit`; its identity
      and regenerated world are shown alongside the runtime schema.

  carq-cli scenario run NAME [--PARAM V1,V2,...]... [COMMON] [--allow-unknown]
      Run a scenario, sweeping any of its schema parameters. Each
      --PARAM flag is a parameter from `scenario describe NAME` and
      takes a comma-separated value list; giving several parameters
      sweeps their cartesian grid (axes expand in schema order, the
      first varying slowest). With no parameter flags the scenario
      runs once at its base configuration. Parameters outside the
      scenario's schema are an error unless --allow-unknown drops
      them.
        carq-cli scenario run urban --speed_kmh 10,20 --n_cars 2,3 --rounds 3

  carq-cli sweep list
      Show the built-in sweep presets.

  carq-cli sweep run --preset NAME [COMMON] [--rounds N] [--allow-unknown]
      Run a preset sweep in parallel and export its per-point metrics.
      --rounds N sets rounds/passes per point (default 5; a multi-ap
      point is one whole download, bounded by the scenario's AP-visit
      budget).

  COMMON (scenario run and sweep run):
    --seed S                 master seed (default 0x20081cdc)
    --threads N              worker threads, 0 = all cores (default 0).
                             Threads beyond the point count parallelise
                             rounds within each point; exports are
                             byte-identical at any thread count.
    --format csv|json        export format (default csv)
    --out PATH               write to a file instead of stdout
    --cache DIR              persistent round cache (created if missing):
                             rounds already in DIR are reused, only the
                             missing ones simulate, and new results are
                             written back — so identical re-runs simulate
                             nothing, widened grids or raised --rounds
                             simulate only the delta, and a killed sweep
                             resumes. Exports are byte-identical with and
                             without the cache.

  carq-cli fleet shard --preset NAME --shards N --out-dir DIR
      [--rounds N] [--seed S] [--round-chunk K]
      Partition a preset sweep into at most N self-describing VANETFLEET2
      shard files (shard-000.fleet, ...; never more files than units).
      Each file carries everything a worker on any machine needs to
      reproduce its slice bit-for-bit; with --round-chunk K, points
      heavier than K rounds split into round ranges so even few-point
      sweeps spread across the fleet.

  carq-cli fleet worker --shard FILE --cache DIR [--threads N]
      [--heartbeat FILE] [--faults FILE --fault-worker I --fault-attempt A]
      Execute one shard file (from `fleet shard` or `campaign plan`)
      against its own shard journal in DIR, rebuilding each preset or
      generated world it names. Seeds are content-addressed, so the
      rounds a worker simulates are byte-identical to the same rounds of
      a monolithic run; a killed worker re-run resumes from its journal.
      --heartbeat keeps a progress file alive for the supervisor; the
      --fault* flags arm the deterministic fault injector
      (docs/RESILIENCE.md).

  carq-cli fleet merge --cache DIR --from DIR1,DIR2,... [--all]
      Union shard journals (cache directories or bare journal files,
      e.g. shipped from other machines) into DIR. Records are
      checksum-validated on ingest, duplicates are skipped, conflicting
      keys resolve last-write-wins, and torn shard tails are dropped. A
      warm sweep over the merged cache simulates nothing. --all also
      merges the sources' analysis journals (digests from
      `analyze --cache`), with its own per-journal report.

  carq-cli fleet run --preset NAME --workers N [--rounds N] [COMMON]
      [--round-chunk K] [RESILIENCE]
      The whole pipeline, locally: shard the preset, spawn N worker
      processes under the self-healing supervisor, merge their
      journals, and export from the merged cache. Exports are
      byte-identical to the single-process run. With --cache DIR the
      merged journal persists there (and a re-run resumes); without it
      a temporary directory is used and removed.

  RESILIENCE (fleet run, campaign run and chaos):
    --worker-timeout SECS    restart a worker whose heartbeat progress
                             has stalled this long (default: off for
                             fleet/campaign, 10 for chaos)
    --max-retries N          restarts per shard before quarantine, with
                             seeded exponential backoff (default 2;
                             chaos default 3)
    --faults FILE            arm a VANETFLT1 deterministic fault plan
      A crashed or hung worker restarts from its journal; a shard
      failing max-retries+1 times is quarantined: the run still merges
      everything else, exports the covered points, writes
      coverage-gaps.json next to the merged journal and exits 3
      (degraded). See docs/RESILIENCE.md.

  carq-cli gen list
      Show the scenario generator catalogue.

  carq-cli gen describe NAME
      Show a generator's typed world-parameter schema.

  carq-cli gen emit NAME [--PARAM V]... [--seed S] [--out FILE]
      Generate one scenario and write its self-describing VANETGEN1
      identity file (stdout without --out). The file stores only
      (generator, canonical params, gen seed); any machine regenerates
      the exact same world from it, bit for bit.

  carq-cli gen inspect FILE
      Decode a VANETGEN1 file, regenerate its world and show the
      identity, world summary and runtime schema. `scenario describe`,
      `verify --scenario` and `trace --scenario` accept these files
      anywhere a scenario name is accepted.

  carq-cli campaign plan --generator NAME [--PARAM V1,V2,...]...
      [--replicas R] [--shards N] [--rounds N] [--seed S] --out-dir DIR
      Expand a generator grid (axes x seed replicas) into a population
      of scenario identities and partition them into at most N
      self-describing VANETFLEET2 shard files (shard-000.fleet, ...) that
      `fleet worker` executes on any set of machines.

  carq-cli campaign worker ...
      Another name for `fleet worker`: the same flags, any shard file.

  carq-cli campaign run --generator NAME [--PARAM V1,V2,...]...
      [--replicas R] --workers N [--rounds N] [COMMON] [RESILIENCE]
      The whole campaign pipeline, locally: expand the grid, spawn N
      worker processes under the self-healing supervisor, merge their
      journals, and render the campaign table (one row per generated
      scenario: name, gen seed, world parameters, metrics). Exports are
      byte-identical at any worker count; with --cache DIR a warm
      re-run simulates nothing.

  carq-cli chaos (--preset NAME [--round-chunk K] | --generator NAME
      [--PARAM V1,V2,...]... [--replicas R]) [--workers N] [--rounds N]
      [--seed S] [--threads N] [--fault-seed S | --faults FILE]
      [--poison I] [RESILIENCE]
      Deterministic chaos check: run the fleet/campaign pipeline under
      a seeded fault schedule (worker kills, stalls, torn journal
      appends, checksum corruption, transient I/O errors, slow disks),
      let the supervisor heal it, then prove convergence — a warm
      re-run simulates 0 rounds and the export is byte-identical to a
      clean no-fault run with zero lost round records. --fault-seed
      derives the schedule (default workers 3); --faults replays an
      explicit VANETFLT1 plan; --poison I makes shard I fail every
      attempt, forcing the quarantine + gap-report + exit-3 path.
      Exits 0 on PASS, 1 on any divergence, 3 when quarantined.

  carq-cli trace --scenario NAME|FILE [--rounds A..B] [--seed S]
      --out FILE
      Run traced rounds and export the structured event stream as a
      CARQTRM1 trace file, one (round, seed)-stamped frame per round —
      the input format of `carq-cli analyze`. --rounds A..B is
      end-exclusive, --rounds N means 0..N, and the default is round 0
      alone; round R alone is --rounds R..R+1. JSONL when FILE ends in
      .jsonl. The invariant catalogue the records feed is in
      docs/OBSERVABILITY.md.

  carq-cli analyze latency|occupancy (--preset NAME | --scenario NAME|FILE
      [--strategy S] | --trace FILE) [--rounds N] [--seed S] [--threads N]
      [--cache DIR] [--format csv|json] [--out PATH]
      Trace-driven analysis of the record stream (metric definitions in
      docs/OBSERVABILITY.md). `latency` matches each recovered loss from
      ARQ request to repairing delivery and reports per-point p50/p90/
      p99/max; `occupancy` reports medium busy fraction, airtime and
      collision windows from tx_start intervals. --preset runs a sweep
      grid through the parallel analysis engine (one row per point,
      byte-identical at any --threads; --cache DIR persists round
      digests so a warm re-run simulates nothing). --scenario analyses
      one configuration per round; --trace replays an exported CARQTRM1
      file instead of simulating — byte-identical output.

  carq-cli analyze timeline (--scenario NAME|FILE [--strategy S] |
      --trace FILE) --node N [--round R] [--seed S] [--out PATH]
      Render one node's chronological diary of a round: every record it
      participates in, with its role in each.

  carq-cli analyze diff (--a FILE --b FILE | --scenario NAME|FILE
      [--strategy X] [--against Y] [--round R] [--seed S])
      Compare two record streams and report per-kind record counts and
      the first diverging record (as JSONL). Two trace files, or two
      deterministic re-runs of a scenario round — without --against the
      round is diffed against its own re-run (a determinism self-check
      that must print `no divergence`).

  carq-cli cache stats --cache DIR
      Show what a cache directory holds, for the round journal and (when
      present) the analysis digest journal: entries per scenario, journal
      size, bytes recovered from a torn tail, bytes a compaction would
      reclaim. Lock-free: safe while a sweep or an analysis is writing.

  carq-cli cache compact --cache DIR
      Rewrite the append-only journals (rounds, and digests when present)
      from their live indexes, dropping superseded records; prints the
      bytes reclaimed per journal.

  carq-cli cache clear --cache DIR
      Remove a cache directory's journal.

  carq-cli table1 [--rounds N] [--seed S]
      Regenerate Table 1 of the paper.

  carq-cli verify --scenario NAME|FILE [--rounds N] [--seed S] [--strategy S]
      Replay a scenario's rounds with event tracing enabled and check the
      recorded stream against the protocol invariants: no overlapping
      transmissions per node, packet conservation, monotone timestamps,
      bounded retransmissions, link-cache consistency, and traced-vs-
      untraced report equality. --rounds caps how many rounds are checked
      (default: the scenario's full budget). A clean run prints how many
      records each invariant actually checked; a \"pass\" over zero trace
      records is refused as vacuous. Exits non-zero on any violation.
      The invariant catalogue is in docs/OBSERVABILITY.md.

  carq-cli fig reception|recovery [--car N] [--rounds N] [--seed S]
      Print the per-packet series behind Figures 3-5 (reception) or
      Figures 6-8 (recovery vs joint reception) as CSV.

  carq-cli help
      Show this text; so does --help or -h anywhere on a command line.

EXIT CODES:
  0  success
  1  a check failed on valid input: verify invariant violation, analyze
     diff divergence, chaos convergence mismatch
  2  usage or operational error
  3  degraded: a fleet/campaign run quarantined a shard and delivered
     partial coverage plus a coverage-gaps.json report";

/// Routes a full argument vector to its subcommand. Failures carry the
/// exit code they map to (0 ok / 1 check failed / 2 usage / 3 degraded —
/// see `failure.rs`); untyped `String` errors convert to usage failures
/// (exit 2), the CLI's historical behaviour.
pub fn dispatch(args: &[String]) -> Result<(), CliFailure> {
    // `--help` and `-h` print the usage wherever they appear, so no
    // subcommand's parser ever reads them as a flag.
    let help = args.iter().any(|arg| matches!(arg.as_str(), "--help" | "-h"));
    match args.first().map(String::as_str) {
        first if help || first.is_none_or(|first| first == "help") => {
            output::print(&format!("{USAGE}\n"))
        }
        // `campaign worker` is the same worker under a second name.
        Some("fleet" | "campaign") if args.get(1).is_some_and(|sub| sub == "worker") => {
            Ok(fleet_worker(&Options::parse(&args[2..])?)?)
        }
        Some("scenario") => match args.get(1).map(String::as_str) {
            Some("list") => output::print(&scenario_list()?),
            Some("describe") => match args.get(2) {
                Some(name) => output::print(&scenario_describe(name)?),
                None => Err("scenario describe needs a scenario name".into()),
            },
            Some("run") => match args.get(2) {
                Some(name) if !name.starts_with("--") => {
                    Ok(scenario_run(name, &Options::parse_with_switches(&args[3..], &SWITCHES)?)?)
                }
                _ => {
                    Err("scenario run needs a scenario name (see `carq-cli scenario list`)".into())
                }
            },
            other => Err(format!(
                "unknown scenario subcommand `{}` (expected list, describe or run)",
                other.unwrap_or("")
            )
            .into()),
        },
        Some("sweep") => match args.get(1).map(String::as_str) {
            Some("list") => output::print(&sweep_list()?),
            Some("run") => Ok(sweep_run(&Options::parse_with_switches(&args[2..], &SWITCHES)?)?),
            other => Err(format!(
                "unknown sweep subcommand `{}` (expected list or run)",
                other.unwrap_or("")
            )
            .into()),
        },
        Some("fleet") => match args.get(1).map(String::as_str) {
            Some("shard") => output::print(&write_plan(
                &Options::parse(&args[2..])?,
                "fleet shard",
                FLEET_SHARD_FLAGS,
                None,
            )?),
            Some("merge") => {
                output::print(&fleet_merge(&Options::parse_with_switches(&args[2..], &["all"])?)?)
            }
            Some("run") => run_command(&Options::parse(&args[2..])?, "fleet", FLEET_RUN_FLAGS),
            other => Err(format!(
                "unknown fleet subcommand `{}` (expected shard, worker, merge or run)",
                other.unwrap_or("")
            )
            .into()),
        },
        Some("gen") => match args.get(1).map(String::as_str) {
            Some("list") => output::print(&crate::gen_cmd::gen_list()),
            Some("describe") => match args.get(2) {
                Some(name) => output::print(&crate::gen_cmd::gen_describe(name)?),
                None => Err("gen describe needs a generator name (see `carq-cli gen list`)".into()),
            },
            Some("emit") => match args.get(2) {
                Some(name) if !name.starts_with("--") => {
                    output::print(&crate::gen_cmd::gen_emit(name, &Options::parse(&args[3..])?)?)
                }
                _ => Err("gen emit needs a generator name (see `carq-cli gen list`)".into()),
            },
            Some("inspect") => match args.get(2) {
                Some(path) => output::print(&crate::gen_cmd::gen_inspect(path)?),
                None => Err("gen inspect needs a scenario file".into()),
            },
            other => Err(format!(
                "unknown gen subcommand `{}` (expected list, describe, emit or inspect)",
                other.unwrap_or("")
            )
            .into()),
        },
        Some("campaign") => match args.get(1).map(String::as_str) {
            Some("plan") => output::print(&write_plan(
                &Options::parse(&args[2..])?,
                "campaign plan",
                CAMPAIGN_PLAN_FLAGS,
                Some(1),
            )?),
            Some("run") => {
                run_command(&Options::parse(&args[2..])?, "campaign", CAMPAIGN_RUN_FLAGS)
            }
            other => Err(format!(
                "unknown campaign subcommand `{}` (expected plan, worker or run)",
                other.unwrap_or("")
            )
            .into()),
        },
        Some("trace") => output::print(&crate::trace::trace_cmd(&Options::parse(&args[1..])?)?),
        Some("analyze") => crate::analyze::analyze_dispatch(&args[1..]),
        Some("chaos") => crate::chaos::chaos_cmd(&Options::parse(&args[1..])?),
        Some("cache") => match args.get(1).map(String::as_str) {
            Some("stats") => output::print(&cache_stats(&Options::parse(&args[2..])?)?),
            Some("compact") => output::print(&cache_compact(&Options::parse(&args[2..])?)?),
            Some("clear") => output::print(&cache_clear(&Options::parse(&args[2..])?)?),
            other => Err(format!(
                "unknown cache subcommand `{}` (expected stats, compact or clear)",
                other.unwrap_or("")
            )
            .into()),
        },
        Some("table1") => Ok(table1_cmd(&Options::parse(&args[1..])?)?),
        Some("verify") => crate::verify::verify_cmd(&Options::parse(&args[1..])?),
        Some("fig") => match args.get(1).map(String::as_str) {
            Some(kind @ ("reception" | "recovery")) => {
                Ok(fig_cmd(kind, &Options::parse(&args[2..])?)?)
            }
            other => Err(format!(
                "unknown figure `{}` (expected reception or recovery)",
                other.unwrap_or("")
            )
            .into()),
        },
        other => Err(format!("unknown command `{}`", other.unwrap_or_default()).into()),
    }
}

/// `carq-cli scenario list`: the registry as a table.
fn scenario_list() -> Result<String, String> {
    let registry = ScenarioRegistry::builtin();
    let mut text = format!("{:<12} {:>7}  description\n", "scenario", "params");
    for scenario in registry.iter() {
        let _ = writeln!(
            text,
            "{:<12} {:>7}  {}",
            scenario.name(),
            scenario.schema().params().len(),
            scenario.description()
        );
    }
    text.push_str("\nrun `carq-cli scenario describe NAME` for a scenario's parameter schema\n");
    Ok(text)
}

/// `carq-cli scenario describe NAME|FILE`: a scenario's parameter schema.
fn scenario_describe(name: &str) -> Result<String, String> {
    let registry = ScenarioRegistry::builtin();
    // A generated scenario file resolves too; its richer rendering (identity,
    // regenerated world, runtime schema) lives with `gen inspect`.
    let source = crate::gen_cmd::resolve_scenario(&registry, name)?;
    if let crate::gen_cmd::ScenarioSource::Generated(ref generated) = source {
        return Ok(crate::gen_cmd::render_generated(generated));
    }
    let scenario = source.scenario(&registry);
    Ok(format!(
        "{} — {}\n\n{}\nsweep any parameter with `carq-cli scenario run {} --PARAM v1,v2,...`\n",
        scenario.name(),
        scenario.description(),
        scenario.schema().render(),
        scenario.name()
    ))
}

/// The parameter vocabulary the CLI accepts, derived from the registry:
/// `scenario`'s own schema parameters first (in schema order), then every
/// parameter any other registered scenario declares. Nothing is
/// hard-coded, so a new scenario's parameters become flags the moment it
/// registers; the cross-scenario tail is what `--allow-unknown` can drop.
fn vocabulary<'a>(
    registry: &'a ScenarioRegistry,
    scenario: &'a dyn Scenario,
) -> Vec<&'a ParamSpec> {
    let mut ordered: Vec<&ParamSpec> = scenario.schema().params().iter().collect();
    for other in registry.iter() {
        for spec in other.schema().params() {
            if !ordered.iter().any(|s| s.param == spec.param) {
                ordered.push(spec);
            }
        }
    }
    ordered
}

/// Builds the sweep spec for `scenario run`: one axis per given parameter
/// flag, in vocabulary order (the target scenario's schema first), so the
/// same flags always produce the same point order and per-point seeds.
/// With no parameter flags the spec is the single base-configuration point.
fn scenario_spec(
    vocabulary: &[&ParamSpec],
    opts: &Options,
    seed: u64,
) -> Result<SweepSpec, String> {
    let mut spec = SweepSpec::new(seed);
    for param_spec in vocabulary {
        let key = param_spec.param.key();
        if let Some(raw) = opts.get(key) {
            let values = spec_values(param_spec, raw).map_err(|e| format!("--{key}: {e}"))?;
            spec = spec.axis(param_spec.param, values);
        }
    }
    if spec.is_empty() {
        spec = spec.point(SweepPoint::empty());
    }
    Ok(spec)
}

fn scenario_run(name: &str, opts: &Options) -> Result<(), CliFailure> {
    let registry = ScenarioRegistry::builtin();
    // A generated scenario file runs too, sweeping its runtime schema.
    let source = crate::gen_cmd::resolve_scenario(&registry, name)?;
    let scenario = source.scenario(&registry);
    let vocabulary = vocabulary(&registry, scenario);
    let mut known: Vec<&str> = vec!["seed", "threads", "format", "out", "cache"];
    known.extend(vocabulary.iter().map(|s| s.param.key()));
    opts.refuse_unknown(&known, Some(&format!("scenario describe {name}")))?;
    let seed = opts.seed("seed", DEFAULT_SEED)?;
    let spec = scenario_spec(&vocabulary, opts, seed)?;
    execute_sweep(scenario, &spec, opts)
}

/// `carq-cli sweep list`: the presets as a table.
fn sweep_list() -> Result<String, String> {
    let mut text = format!("{:<20} description\n", "preset");
    for preset in presets::all() {
        let _ = writeln!(text, "{:<20} {}", preset.name, preset.description);
    }
    Ok(text)
}

fn sweep_run(opts: &Options) -> Result<(), CliFailure> {
    if opts.get("scenario").is_some() {
        return Err("custom sweeps moved to `carq-cli scenario run NAME --PARAM values,...` \
             (run `carq-cli scenario list` to see the scenarios)"
            .into());
    }
    opts.refuse_unknown(&["preset", "rounds", "seed", "threads", "format", "out", "cache"], None)?;
    let Some(name) = opts.get("preset") else {
        return Err("sweep run needs --preset NAME (see `carq-cli sweep list`); \
                    for custom sweeps use `carq-cli scenario run`"
            .into());
    };
    let seed = opts.seed("seed", DEFAULT_SEED)?;
    let rounds = opts.count("rounds")?.unwrap_or(DEFAULT_SWEEP_ROUNDS);
    let preset = presets::find(name)
        .ok_or_else(|| format!("unknown preset `{name}` (see `carq-cli sweep list`)"))?;
    let (scenario, spec) = preset.build(seed, rounds);
    execute_sweep(scenario.as_ref(), &spec, opts)
}

/// The shared back half of `scenario run` and `sweep run`: drive the
/// engine, report progress on stderr, render, and write the export.
fn execute_sweep(
    scenario: &dyn Scenario,
    spec: &SweepSpec,
    opts: &Options,
) -> Result<(), CliFailure> {
    let threads: usize = opts.get_parsed("threads", 0)?;
    let json = opts.json()?;

    let mut engine = SweepEngine::new(threads).with_allow_unknown(opts.has_switch("allow-unknown"));
    if let Some(dir) = opts.get("cache") {
        engine = engine.with_cache(Arc::new(open_journal::<RoundCodec>(dir, "cache", "round(s)")?));
    }
    eprintln!(
        "sweep: {} point(s) of `{}` on {} thread(s), master seed {:#x}",
        spec.len(),
        scenario.name(),
        engine.threads(),
        spec.master_seed,
    );
    let result = engine.run(scenario, spec).map_err(|e| e.to_string())?;
    eprintln!(
        "sweep: finished in {:.2} s ({:.2} points/s)",
        result.elapsed.as_secs_f64(),
        result.points_per_second(),
    );
    if opts.get("cache").is_some() {
        eprintln!(
            "cache: {} round(s) simulated, {} served from cache",
            result.rounds_simulated, result.rounds_cached,
        );
    }

    let rendered = if json { result.to_json() } else { result.to_csv() };
    output::emit(opts.get("out"), &rendered)
}

/// Opens the journal in `dir` that a run reads and extends (`--cache`), and
/// says on standard error, after `prefix`, what the open found: a torn tail
/// it dropped, then the records (`what`) on hand.
pub(crate) fn open_journal<C: RecordCodec>(
    dir: &str,
    prefix: &str,
    what: &str,
) -> Result<Journal<C>, String> {
    let journal = Journal::<C>::open(dir).map_err(|e| e.to_string())?;
    let stats = journal.stats();
    if stats.recovered_bytes > 0 {
        eprintln!(
            "{prefix}: dropped a torn {}-byte journal tail (previous run was killed mid-write)",
            stats.recovered_bytes
        );
    }
    eprintln!("{prefix}: {} {what} on hand in {dir}", stats.entries);
    Ok(journal)
}

/// `carq-cli fleet worker`, alias `campaign worker`: executes any shard
/// file, a preset's or a campaign's.
fn fleet_worker(opts: &Options) -> Result<(), String> {
    opts.refuse_unknown(
        &["shard", "cache", "threads", "heartbeat", "faults", "fault-worker", "fault-attempt"],
        None,
    )?;
    let Some(shard_path) = opts.get("shard") else {
        return Err("fleet worker needs --shard FILE".into());
    };
    let Some(cache_dir) = opts.get("cache") else {
        return Err("fleet worker needs --cache DIR (its shard journal)".into());
    };
    let threads: usize = opts.get_parsed("threads", 1)?;
    let text = std::fs::read_to_string(shard_path)
        .map_err(|e| format!("cannot read {shard_path}: {e}"))?;
    let shard = Shard::decode(&text).map_err(|e| format!("{shard_path}: {e}"))?;
    crate::pipeline::arm_worker_faults(opts, shard.index as u32)?;
    let _heartbeat = crate::pipeline::start_heartbeat(opts)?;
    let outcome =
        vanet_fleet::execute_shard(&shard, cache_dir, threads).map_err(|e| e.to_string())?;
    eprintln!(
        "fleet worker {}/{}: {} unit(s), {} round(s) simulated, {} resumed from its journal",
        shard.index, shard.count, outcome.units, outcome.rounds_simulated, outcome.rounds_cached,
    );
    Ok(())
}

fn fleet_merge(opts: &Options) -> Result<String, String> {
    opts.refuse_unknown(&["cache", "from"], None)?;
    let Some(dest) = opts.get("cache") else {
        return Err("fleet merge needs --cache DIR (the destination)".into());
    };
    let Some(from) = opts.get("from") else {
        return Err("fleet merge needs --from DIR1,DIR2,... (shard caches or journal files)".into());
    };
    let sources: Vec<PathBuf> =
        crate::cli::split_list(from)?.into_iter().map(PathBuf::from).collect();
    let cache = SweepCache::open(dest).map_err(|e| e.to_string())?;
    let report = vanet_cache::merge_into(&cache, &sources).map_err(|e| e.to_string())?;
    let mut text = merge_report(&report);
    let stats = cache.stats();
    let _ = writeln!(
        text,
        "merged cache: {} round report(s), {} byte(s) in {dest}",
        stats.entries, stats.file_bytes
    );
    if opts.has_switch("all") {
        // Also union the analysis journals the sources carry (shards that
        // ran `analyze --cache` leave digests next to their round
        // reports); sources without one are skipped, not errors.
        let report = vanet_fleet::merge_analysis(dest, &sources).map_err(|e| e.to_string())?;
        let _ = writeln!(
            text,
            "merge: analysis: {} journal(s): {} digest(s) ingested, {} duplicate(s) skipped, \
             {} superseded",
            report.sources,
            report.records_ingested,
            report.records_duplicate,
            report.records_superseded,
        );
    }
    Ok(text)
}

/// The status lines of one journal merge.
fn merge_report(report: &vanet_cache::MergeReport) -> String {
    let mut text = format!(
        "merge: {} source(s): {} record(s) ingested, {} duplicate(s) skipped\n",
        report.sources, report.records_ingested, report.records_duplicate,
    );
    if report.records_superseded > 0 {
        let _ = writeln!(
            text,
            "merge: {} conflicting record(s) superseded (last write wins) — the sources \
             disagree; were they produced by different code versions?",
            report.records_superseded,
        );
    }
    if report.torn_bytes_dropped > 0 {
        let _ = writeln!(
            text,
            "merge: dropped {} torn trailing byte(s) from source journal(s)",
            report.torn_bytes_dropped,
        );
    }
    text
}

/// Requires and returns the `--cache DIR` flag of a `cache` subcommand.
fn cache_dir<'o>(opts: &'o Options, action: &str) -> Result<&'o str, String> {
    opts.refuse_unknown(&["cache"], None)?;
    opts.get("cache").ok_or_else(|| format!("cache {action} needs --cache DIR"))
}

fn cache_stats(opts: &Options) -> Result<String, String> {
    let dir = cache_dir(opts, "stats")?;
    // Lock-free: stats must work while a sweep or an analysis holds a
    // writer lock.
    let rounds = SweepCache::open_read_only(dir).map_err(|e| e.to_string())?;
    let mut text = journal_stats(&rounds, "round report(s)");
    if Path::new(dir).join(DigestCodec::FILE).exists() {
        let digests = AnalysisStore::open_read_only(dir).map_err(|e| e.to_string())?;
        text.push_str(&journal_stats(&digests, "digest(s)"));
    }
    Ok(text)
}

/// One journal's `cache stats` block; `what` names its records.
fn journal_stats<C: RecordCodec>(journal: &Journal<C>, what: &str) -> String {
    let stats = journal.stats();
    let mut text = format!(
        "journal: {}\nentries: {} {what}, {} byte(s)\n",
        journal.journal_path().display(),
        stats.entries,
        stats.file_bytes
    );
    if stats.recovered_bytes > 0 {
        let _ = writeln!(
            text,
            "torn tail: {} byte(s) ignored (the next writable open truncates them)",
            stats.recovered_bytes
        );
    }
    if stats.reclaimable_bytes() > 0 {
        let _ = writeln!(
            text,
            "compactable: {} byte(s) reclaimable by `carq-cli cache compact`",
            stats.reclaimable_bytes()
        );
    }
    for (scenario, count) in &stats.scenarios {
        let _ = writeln!(text, "  {scenario:<12} {count} {what}");
    }
    text
}

fn cache_compact(opts: &Options) -> Result<String, String> {
    let dir = cache_dir(opts, "compact")?;
    let mut text = compact_journal(&SweepCache::open(dir).map_err(|e| e.to_string())?)?;
    if Path::new(dir).join(DigestCodec::FILE).exists() {
        text.push_str(&compact_journal(&AnalysisStore::open(dir).map_err(|e| e.to_string())?)?);
    }
    Ok(text)
}

/// Compacts one journal; returns the line saying what that reclaimed.
fn compact_journal<C: RecordCodec>(journal: &Journal<C>) -> Result<String, String> {
    let before = journal.stats();
    let reclaimed = journal.compact().map_err(|e| e.to_string())?;
    Ok(format!(
        "compacted {}: {reclaimed} byte(s) reclaimed ({} -> {} bytes, {} record(s) live)\n",
        journal.journal_path().display(),
        before.file_bytes,
        journal.stats().file_bytes,
        before.entries,
    ))
}

fn cache_clear(opts: &Options) -> Result<String, String> {
    let dir = cache_dir(opts, "clear")?;
    let bytes = vanet_cache::clear(dir).map_err(|e| e.to_string())?;
    Ok(format!("cleared {dir}: {bytes} byte(s) removed\n"))
}

/// Runs the urban testbed at its paper configuration (with a `--rounds`
/// override) and returns the per-round results — the input of the Table-1
/// and figure-series generators.
fn urban_rounds(opts: &Options, default_rounds: u32) -> Result<Vec<RoundResult>, String> {
    let rounds = opts.count("rounds")?.unwrap_or(default_rounds);
    let scenario = UrbanScenario::paper_testbed();
    let point = SweepPoint::new(vec![(Param::Rounds, ParamValue::Int(u64::from(rounds)))]);
    let seed = opts.seed("seed", DEFAULT_SEED)?;
    let (reports, _) = run_point(&scenario, &point, seed, 0).map_err(|e| e.to_string())?;
    Ok(into_round_results(reports))
}

fn table1_cmd(opts: &Options) -> Result<(), CliFailure> {
    opts.refuse_unknown(&["rounds", "seed"], None)?;
    let rounds = urban_rounds(opts, 30)?;
    output::print(&render_table1(&table1(&rounds)))
}

fn fig_cmd(kind: &str, opts: &Options) -> Result<(), CliFailure> {
    opts.refuse_unknown(&["rounds", "seed", "car"], None)?;
    let car: u32 = opts.get_parsed("car", 1)?;
    let rounds = urban_rounds(opts, 30)?;
    let cars = rounds.first().map(RoundResult::cars).unwrap_or_default();
    let destination = vanet_mac::NodeId::new(car);
    if !cars.contains(&destination) {
        return Err(format!("car {car} does not exist (the run has {} cars)", cars.len()).into());
    }
    let csv = match kind {
        "reception" => {
            // Figures 3-5: what every car physically received of this flow.
            let names: Vec<String> = cars.iter().map(|c| format!("rx_at_{c}")).collect();
            let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let series: Vec<_> = cars
                .iter()
                .map(|observer| vanet_stats::reception_series(&rounds, destination, *observer))
                .collect();
            render_series_csv(&name_refs, &series)
        }
        _ => {
            // Figures 6-8: after cooperation vs the joint "virtual car".
            let recovery = recovery_series(&rounds, destination);
            let joint = joint_series(&rounds, destination);
            render_series_csv(&["after_coop", "joint_reception"], &[recovery, joint])
        }
    };
    output::print(&csv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    fn switch_opts(items: &[&str]) -> Options {
        Options::parse_with_switches(&strs(items), &SWITCHES).unwrap()
    }

    fn fleet_shard(opts: &Options) -> Result<String, String> {
        write_plan(opts, "fleet shard", FLEET_SHARD_FLAGS, None)
    }

    fn fleet_run(opts: &Options) -> Result<(), CliFailure> {
        run_command(opts, "fleet", FLEET_RUN_FLAGS)
    }

    #[test]
    fn dispatch_rejects_unknown_commands() {
        assert!(dispatch(&strs(&["frobnicate"])).is_err());
        assert!(dispatch(&strs(&["sweep", "dance"])).is_err());
        assert!(dispatch(&strs(&["fig", "losses"])).is_err());
        assert!(dispatch(&strs(&["scenario", "paint"])).is_err());
        assert!(dispatch(&strs(&["scenario", "describe"])).is_err());
        assert!(dispatch(&strs(&["scenario", "describe", "mars"])).is_err());
        assert!(dispatch(&strs(&["scenario", "run"])).is_err());
        assert!(dispatch(&strs(&["scenario", "run", "--seed"])).is_err());
    }

    #[test]
    fn help_and_listings_succeed() {
        assert!(dispatch(&strs(&["help"])).is_ok());
        assert!(dispatch(&strs(&[])).is_ok());
        assert!(dispatch(&strs(&["sweep", "list"])).is_ok());
        assert!(dispatch(&strs(&["scenario", "list"])).is_ok());
        assert!(dispatch(&strs(&["scenario", "describe", "urban"])).is_ok());
        assert!(dispatch(&strs(&["scenario", "describe", "multiap"])).is_ok());
    }

    #[test]
    fn scenario_spec_builds_axes_in_schema_order() {
        let registry = ScenarioRegistry::builtin();
        let urban = registry.get("urban").unwrap();
        let vocab = vocabulary(&registry, urban);
        // The vocabulary covers every registered scenario's parameters, the
        // target scenario's own schema first.
        assert_eq!(vocab[0].param, Param::SpeedKmh);
        assert!(vocab.iter().any(|s| s.param == Param::FileBlocks), "multi-ap params included");
        // Flags given in reverse order still expand schema-first.
        let opts = switch_opts(&["--n_cars", "2,3", "--speed_kmh", "10,20"]);
        let spec = scenario_spec(&vocab, &opts, 1).unwrap();
        assert_eq!(spec.len(), 4);
        assert_eq!(spec.axes[0].param, Param::SpeedKmh);
        assert_eq!(spec.axes[1].param, Param::NCars);
        // No parameter flags: a single base-configuration point.
        let spec = scenario_spec(&vocab, &switch_opts(&[]), 1).unwrap();
        assert_eq!(spec.len(), 1);
        assert!(spec.expand()[0].assignments().is_empty());
        // Parse errors surface with the flag name.
        let err = scenario_spec(&vocab, &switch_opts(&["--n_cars", "two"]), 1).unwrap_err();
        assert!(err.contains("--n_cars"), "{err}");
    }

    #[test]
    fn scenario_run_validates_flags() {
        assert!(scenario_run("urban", &switch_opts(&["--bogus", "1"])).is_err());
        assert!(scenario_run("mars", &switch_opts(&[])).is_err());
        // An unknown *parameter* (valid flag, wrong scenario) is a schema
        // error listing the parameter...
        let err = scenario_run("highway", &switch_opts(&["--file_blocks", "100"])).unwrap_err();
        assert!(err.message.contains("file_blocks"), "{err}");
        assert!(err.message.contains("allow-unknown"), "{err}");
    }

    #[test]
    fn cache_subcommands_validate_and_run() {
        // Both need --cache DIR.
        assert!(dispatch(&strs(&["cache", "stats"])).is_err());
        assert!(dispatch(&strs(&["cache", "clear"])).is_err());
        assert!(dispatch(&strs(&["cache", "compact"])).is_err());
        assert!(dispatch(&strs(&["cache", "stats", "--bogus", "1"])).is_err());

        let dir = std::env::temp_dir()
            .join(format!("carq-cli-cache-test-{}", std::process::id()))
            .display()
            .to_string();
        std::fs::remove_dir_all(&dir).ok();
        assert!(dispatch(&strs(&["cache", "stats", "--cache", &dir])).is_ok());
        assert!(dispatch(&strs(&["cache", "clear", "--cache", &dir])).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_subcommands_validate_their_flags() {
        assert!(dispatch(&strs(&["fleet"])).is_err());
        assert!(dispatch(&strs(&["fleet", "dance"])).is_err());
        // shard: preset, shards and out-dir are required and validated.
        assert!(fleet_shard(&switch_opts(&[])).is_err());
        assert!(fleet_shard(&switch_opts(&["--preset", "urban-platoon"])).is_err());
        let err = fleet_shard(&switch_opts(&[
            "--preset",
            "no-such",
            "--shards",
            "2",
            "--out-dir",
            "/tmp/x",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown preset"), "{err}");
        assert!(fleet_shard(&switch_opts(&[
            "--preset",
            "urban-platoon",
            "--shards",
            "0",
            "--out-dir",
            "/tmp/x",
        ]))
        .is_err());
        assert!(fleet_shard(&switch_opts(&[
            "--preset",
            "urban-platoon",
            "--shards",
            "2",
            "--out-dir",
            "/tmp/x",
            "--round-chunk",
            "0",
        ]))
        .is_err());
        assert!(fleet_shard(&switch_opts(&["--bogus", "1"])).is_err());
        // worker: shard file and cache dir are required.
        assert!(fleet_worker(&switch_opts(&[])).is_err());
        assert!(fleet_worker(&switch_opts(&["--shard", "/no/such/file.fleet"])).is_err());
        let err =
            fleet_worker(&switch_opts(&["--shard", "/no/such/file.fleet", "--cache", "/tmp/x"]))
                .unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        // merge: destination and sources are required.
        assert!(fleet_merge(&switch_opts(&[])).is_err());
        assert!(fleet_merge(&switch_opts(&["--cache", "/tmp/x"])).is_err());
        assert!(fleet_merge(&switch_opts(&["--cache", "/tmp/x", "--from", "a,,b"])).is_err());
        // run: workers required and positive, format validated.
        assert!(fleet_run(&switch_opts(&["--preset", "urban-platoon"])).is_err());
        assert!(fleet_run(&switch_opts(&["--preset", "urban-platoon", "--workers", "0",])).is_err());
        assert!(fleet_run(&switch_opts(&[
            "--preset",
            "urban-platoon",
            "--workers",
            "2",
            "--format",
            "xml",
        ]))
        .is_err());
        assert!(fleet_run(&switch_opts(&["--bogus", "1"])).is_err());
    }

    #[test]
    fn fleet_shard_writes_decodable_shard_files() {
        let dir =
            std::env::temp_dir().join(format!("carq-cli-fleet-shard-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let out_dir = dir.display().to_string();
        fleet_shard(&switch_opts(&[
            "--preset",
            "urban-platoon",
            "--shards",
            "3",
            "--rounds",
            "2",
            "--out-dir",
            &out_dir,
        ]))
        .unwrap();
        let mut units = 0;
        for i in 0..3 {
            let text = std::fs::read_to_string(dir.join(format!("shard-{i:03}.fleet"))).unwrap();
            let shard = Shard::decode(&text).unwrap();
            assert_eq!(shard.index, i);
            assert_eq!(shard.count, 3);
            let preset =
                vanet_fleet::ScenarioRef::Preset { name: "urban-platoon".into(), rounds: 2 };
            assert!(shard.groups.iter().all(|(scenario, _)| *scenario == preset));
            units += shard.total_units();
        }
        assert_eq!(units, 24, "the three files cover the 24-point grid");
        // A plan never holds more shards than units: no empty shard file.
        std::fs::remove_dir_all(&dir).ok();
        fleet_shard(&switch_opts(&[
            "--preset",
            "urban-platoon",
            "--shards",
            "18446744073709551615",
            "--rounds",
            "1",
            "--out-dir",
            &out_dir,
        ]))
        .unwrap();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 24);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_compact_runs_end_to_end() {
        let dir = std::env::temp_dir()
            .join(format!("carq-cli-cache-compact-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir_str = dir.display().to_string();
        // Compacting an empty cache reclaims nothing but succeeds.
        assert!(dispatch(&strs(&["cache", "compact", "--cache", &dir_str])).is_ok());
        assert!(dispatch(&strs(&["cache", "stats", "--cache", &dir_str])).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_compact_and_stats_cover_the_digest_journal() {
        use vanet_analysis::RoundDigest;
        let dir = std::env::temp_dir()
            .join(format!("carq-cli-cache-digests-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir_str = dir.display().to_string();
        let key = vanet_cache::CacheKey::new("urban", 1, "scenario=urban", 0, 7);
        AnalysisStore::open(&dir).unwrap().put(&key, &RoundDigest::default()).unwrap();
        // A conflicting shard supersedes the digest, leaving dead bytes.
        let shard = dir.join("shard");
        let conflicting = RoundDigest { records: 1, ..RoundDigest::default() };
        AnalysisStore::open(&shard).unwrap().put(&key, &conflicting).unwrap();
        vanet_fleet::merge_analysis(&dir, &[&shard]).unwrap();
        assert!(AnalysisStore::open_read_only(&dir).unwrap().stats().reclaimable_bytes() > 0);

        assert!(dispatch(&strs(&["cache", "stats", "--cache", &dir_str])).is_ok());
        assert!(dispatch(&strs(&["cache", "compact", "--cache", &dir_str])).is_ok());
        let digests = AnalysisStore::open_read_only(&dir).unwrap();
        assert_eq!(digests.stats().reclaimable_bytes(), 0, "compact rewrote the digest journal");
        assert_eq!(digests.get(&key), Some(conflicting));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_run_validates_flags_before_running() {
        assert!(sweep_run(&switch_opts(&["--bogus", "1"])).is_err());
        assert!(sweep_run(&switch_opts(&["--preset", "no-such"])).is_err());
        assert!(sweep_run(&switch_opts(&["--preset", "urban-platoon", "--rounds", "0"])).is_err());
        assert!(sweep_run(&switch_opts(&["--preset", "urban-platoon", "--format", "xml"])).is_err());
        // The old custom-sweep entry point points at its replacement.
        let err = sweep_run(&switch_opts(&["--scenario", "urban"])).unwrap_err();
        assert!(err.message.contains("scenario run"), "{err}");
        // No preset at all names the replacement too.
        let err = sweep_run(&switch_opts(&[])).unwrap_err();
        assert!(err.message.contains("--preset"), "{err}");
    }
}
