//! The one shard planner and the supervised multi-process pipeline behind
//! `carq-cli fleet shard|run`, `carq-cli campaign plan|run` and both
//! `carq-cli chaos` modes.
//!
//! One planner ([`Source::plan`]) turns the source a command names into a
//! [`ShardPlan`] and its [`Target`]: `--preset NAME` strides a preset's
//! points (split into round ranges by `--round-chunk`), `--generator NAME`
//! a generator grid's worlds (one axis per `--PARAM v1,v2,...`
//! world-parameter flag, times `--replicas` seed replicas). The target says
//! what the final pass renders; every word a run prints or writes to its
//! gap report follows from which of the two it is and from the source's
//! name. `fleet shard` and `campaign plan` share one body ([`write_plan`]),
//! which writes the plan's `VANETFLEET2` shard files for `fleet worker`
//! (alias `campaign worker`) to execute on any set of machines; `fleet
//! run` and `campaign run` share another ([`run_command`]), which runs it
//! here. Each command keeps its own flag list, so `fleet` commands refuse
//! `--generator` and `campaign` commands `--preset`.
//!
//! The rest is one path: pre-filter the units a warm merged journal already
//! covers, write the shard files, spawn one `fleet worker` process per
//! shard under the self-healing supervisor ([`vanet_fleet::supervise`]:
//! crashed workers restart with seeded exponential backoff, hung workers
//! are detected through their heartbeat files and killed, and a shard that
//! keeps failing is quarantined instead of aborting the run), merge the
//! shard journals and render the final pass from the merged cache. A
//! quarantined run degrades gracefully: every journal that exists still
//! merges, the export covers what the merged cache can prove, and a
//! machine-readable `coverage-gaps.json` names exactly what is missing
//! (semantics in `docs/RESILIENCE.md`).

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use vanet_cache::SweepCache;
use vanet_faults::FaultPlan;
use vanet_fleet::{
    campaign_table, supervise, HeartbeatGuard, ScenarioRef, Shard, ShardPlan, SupervisionReport,
    SupervisorConfig, WorkerOutcome, WorkerTask,
};
use vanet_gen::{GenGrid, GenIdentity};
use vanet_scenarios::Scenario;
use vanet_sweep::{presets, SweepEngine, SweepSpec};

use crate::cli::{spec_values, Options, DEFAULT_SEED, DEFAULT_SWEEP_ROUNDS};
use crate::failure::CliFailure;

/// The flags of `fleet shard`.
pub(crate) const FLEET_SHARD_FLAGS: &[&str] =
    &["preset", "shards", "rounds", "seed", "round-chunk", "out-dir"];

/// The flags of `campaign plan`, besides the generator's world parameters.
pub(crate) const CAMPAIGN_PLAN_FLAGS: &[&str] =
    &["generator", "replicas", "shards", "seed", "rounds", "out-dir"];

/// The flags of `fleet run` besides the ones every run takes.
pub(crate) const FLEET_RUN_FLAGS: &[&str] = &["preset", "round-chunk"];

/// The flags of `campaign run` besides the ones every run takes and the
/// generator's world parameters.
pub(crate) const CAMPAIGN_RUN_FLAGS: &[&str] = &["generator", "replicas"];

/// The flags `fleet run` and `campaign run` both take.
const RUN_FLAGS: &[&str] = &[
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
];

/// File the seeded fault plan is written to inside the shards directory,
/// so every worker (and every retry) reads the same schedule.
const FAULT_PLAN_FILE: &str = "faults.flt";

/// File the coverage-gap report of a degraded run is written to, next to
/// the merged journal.
const GAP_REPORT_FILE: &str = "coverage-gaps.json";

/// Where a plan's units come from.
pub(crate) enum Source {
    /// `--preset NAME`: a sweep preset's points.
    Preset(String),
    /// `--generator NAME`: a generator grid's worlds.
    Generator(GenGrid),
}

impl Source {
    /// Reads the source of command `kind` (`fleet`, `campaign` or
    /// `chaos`) and refuses every flag outside `known`; a generator's world
    /// parameters are known too. `known` says which sources the command
    /// takes, and a command that takes both needs exactly one.
    pub(crate) fn read(opts: &Options, kind: &str, known: &[&str]) -> Result<Source, String> {
        let (presets, generators) = (known.contains(&"preset"), known.contains(&"generator"));
        let generator = opts.get("generator").filter(|_| generators);
        if presets && generators && opts.get("preset").is_some() == generator.is_some() {
            return Err(format!("{kind} needs exactly one of --preset NAME or --generator NAME"));
        }
        if presets && generator.is_none() {
            opts.refuse_unknown(known, None)?;
            let Some(preset) = opts.get("preset") else {
                return Err(format!("{kind} needs --preset NAME (see `carq-cli sweep list`)"));
            };
            return Ok(Source::Preset(preset.to_string()));
        }
        let Some(name) = generator else {
            return Err(format!("{kind} needs --generator NAME (see `carq-cli gen list`)"));
        };
        let mut grid = GenGrid::new(name).map_err(|e| e.to_string())?;
        let specs = grid.generator().schema().params().to_vec();
        for spec in &specs {
            let key = spec.param.key();
            if let Some(raw) = opts.get(key) {
                let values = spec_values(spec, raw).map_err(|e| format!("--{key}: {e}"))?;
                grid = grid.axis(spec.param, values).map_err(|e| format!("--{key}: {e}"))?;
            }
        }
        let grid = grid.with_replicas(opts.count("replicas")?.unwrap_or(1));
        let mut known = known.to_vec();
        known.extend(specs.iter().map(|spec| spec.param.key()));
        opts.refuse_unknown(&known, Some(&format!("gen describe {}", grid.generator().name)))?;
        Ok(Source::Generator(grid))
    }

    /// The one shard planner: this source's units under the `--seed`
    /// master seed, strided into at most `count` shards, and the target of
    /// a run's final pass. `--rounds` is a preset's budget, or a campaign's
    /// override of each world's own.
    pub(crate) fn plan(self, opts: &Options, count: usize) -> Result<(ShardPlan, Target), String> {
        let seed = opts.seed("seed", DEFAULT_SEED)?;
        let rounds = opts.count("rounds")?;
        match self {
            Source::Preset(name) => {
                let rounds = rounds.unwrap_or(DEFAULT_SWEEP_ROUNDS);
                let chunk = opts.count("round-chunk")?;
                let plan = ShardPlan::for_preset(&name, seed, rounds, count, chunk)
                    .map_err(|e| e.to_string())?;
                let preset = presets::find(&name).expect("planned above");
                let (scenario, spec) = preset.build(seed, rounds);
                Ok((plan, Target::Sweep { preset: name, scenario, spec }))
            }
            Source::Generator(grid) => {
                let identities = grid.identities(seed);
                let plan = ShardPlan::for_campaign(&identities, seed, rounds, count)
                    .map_err(|e| e.to_string())?;
                let generator = grid.generator().name;
                Ok((plan, Target::Campaign { generator, identities, rounds }))
            }
        }
    }
}

/// Writes `shard` into `dir` as `shard-NNN.fleet`; returns its path.
fn write_shard(dir: &Path, shard: &Shard) -> Result<PathBuf, String> {
    let path = dir.join(format!("shard-{:03}.fleet", shard.index));
    std::fs::write(&path, shard.encode())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// `fleet shard` and `campaign plan`: plans the source into at most
/// `--shards N` shards (`default_shards` without the flag) and writes one
/// file per shard into `--out-dir`; returns the lines to print.
pub(crate) fn write_plan(
    opts: &Options,
    command: &str,
    known: &[&str],
    default_shards: Option<usize>,
) -> Result<String, String> {
    let kind = command.split(' ').next().unwrap_or(command);
    let source = Source::read(opts, kind, known)?;
    let Some(out_dir) = opts.get("out-dir") else {
        return Err(format!("{command} needs --out-dir DIR"));
    };
    let count = opts.count("shards")?.or(default_shards).ok_or("this command needs --shards N")?;
    let (plan, target) = source.plan(opts, count)?;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
    let mut text = String::new();
    for shard in &plan.shards {
        let path = write_shard(Path::new(out_dir), shard)?;
        let _ = writeln!(text, "{}  {} unit(s)", path.display(), shard.total_units());
    }
    let (shards, units, seed) = (plan.shards.len(), plan.total_units(), plan.master_seed);
    let _ = match &target {
        Target::Sweep { preset, .. } => writeln!(
            text,
            "planned {shards} shard(s) of `{preset}` ({units} unit(s) total, master seed {seed:#x})"
        ),
        Target::Campaign { generator, .. } => writeln!(
            text,
            "planned {shards} shard(s): {units} generated `{generator}` scenario(s), master seed \
             {seed:#x}"
        ),
    };
    Ok(text)
}

/// What a run's final pass renders. Every word its messages and gap report
/// use follows from the variant and the source's name.
pub(crate) enum Target {
    /// A preset's sweep export, one row per point. A missing unit is named
    /// by its point's label.
    Sweep {
        /// The preset's name.
        preset: String,
        /// The preset's scenario.
        scenario: Box<dyn Scenario>,
        /// The preset's sweep, every point in expansion order.
        spec: SweepSpec,
    },
    /// The campaign table, one row per world in expansion order. A missing
    /// unit is named by its world's scenario name.
    Campaign {
        /// The generator's name.
        generator: &'static str,
        /// Every world of the grid, in expansion order.
        identities: Vec<GenIdentity>,
        /// The round budget override, if any.
        rounds: Option<u32>,
    },
}

/// A final pass's export and what its walk did.
#[derive(Default)]
pub(crate) struct Export {
    /// The rendered CSV or JSON.
    pub text: String,
    /// Points or worlds rendered.
    pub rows: usize,
    /// Rounds the pass simulated.
    pub simulated: usize,
    /// Rounds the pass served from the merged cache.
    pub cached: usize,
}

impl Target {
    /// The words a run's messages and gap report use: the prefix (also the
    /// report's `kind`), the source's flag, what the pre-filter calls a
    /// unit and what a degraded run names as missing; the source's name;
    /// what the workers run; and the head of a healthy final pass, which
    /// for a campaign counts its worlds.
    fn words(&self) -> ([&'static str; 4], &str, String, String) {
        match self {
            Target::Sweep { preset, .. } => (
                ["fleet", "preset", "unit", "point"],
                preset,
                format!("unit(s) of `{preset}`"),
                "final pass".to_string(),
            ),
            Target::Campaign { generator, identities, .. } => (
                ["campaign", "generator", "scenario", "scenario"],
                generator,
                format!("generated `{generator}` scenario(s)"),
                format!("final pass over {} scenario(s)", identities.len()),
            ),
        }
    }

    /// The final pass over `cache`: everything, or, given the `missing`
    /// names, only what the merged cache covers — a preset's points in
    /// plan order, a campaign's worlds in expansion order.
    fn render(
        &self,
        plan: &ShardPlan,
        missing: Option<&HashSet<String>>,
        cache: &Arc<SweepCache>,
        common: &PipelineCommon,
    ) -> Result<Export, String> {
        match self {
            Target::Sweep { scenario, spec, .. } => {
                let mut spec = spec.clone();
                if let Some(missing) = missing {
                    let mut seen = HashSet::new();
                    spec = SweepSpec::new(plan.master_seed);
                    for (_, unit) in plan.units() {
                        let label = unit.point.label();
                        if !missing.contains(&label) && seen.insert(label) {
                            spec = spec.point(unit.point.clone());
                        }
                    }
                }
                if spec.is_empty() {
                    return Ok(Export::default());
                }
                let engine = SweepEngine::new(common.threads).with_cache(Arc::clone(cache));
                let result = engine.run(scenario.as_ref(), &spec).map_err(|e| e.to_string())?;
                Ok(Export {
                    text: if common.json { result.to_json() } else { result.to_csv() },
                    rows: spec.len(),
                    simulated: result.rounds_simulated,
                    cached: result.rounds_cached,
                })
            }
            Target::Campaign { identities, rounds, .. } => {
                let covered: Vec<GenIdentity> = identities
                    .iter()
                    .filter(|identity| {
                        missing.is_none_or(|m| !m.contains(&identity.scenario_name()))
                    })
                    .cloned()
                    .collect();
                if covered.is_empty() {
                    return Ok(Export::default());
                }
                let result =
                    campaign_table(&covered, plan.master_seed, *rounds, cache, common.threads)
                        .map_err(|e| e.to_string())?;
                let table = &result.table;
                Ok(Export {
                    text: if common.json { table.to_json() } else { table.to_csv() },
                    rows: covered.len(),
                    simulated: result.rounds_simulated,
                    cached: result.rounds_cached,
                })
            }
        }
    }
}

/// Everything the pipeline needs beyond the plan itself.
pub(crate) struct PipelineCommon {
    /// Raw `--threads` budget (0 = all cores), split across live workers.
    pub threads: usize,
    /// Whether the export is JSON rather than CSV.
    pub json: bool,
    /// Working directory: merged journal, shard files, gap report.
    pub base: PathBuf,
    /// Whether `base` is a throwaway temp directory (removed after a
    /// healthy run; kept — with the gap report — after a degraded one).
    pub ephemeral: bool,
    /// Supervision policy (timeout, retries, backoff seed).
    pub supervisor: SupervisorConfig,
    /// Seeded fault schedule to distribute to the workers, if any.
    pub faults: Option<FaultPlan>,
}

/// A shard that was given up on after exhausting its retries.
#[derive(Debug, Clone)]
pub(crate) struct QuarantinedShard {
    /// The shard/worker index.
    pub worker: usize,
    /// The shard file the quarantined worker was executing.
    pub shard_file: String,
    /// Total attempts made before quarantine.
    pub attempts: u32,
    /// The final failure, verbatim from the supervisor.
    pub last_error: String,
}

/// What a supervised pipeline run produced.
pub(crate) struct PipelineOutcome {
    /// The final pass (partial on a degraded run; empty when the merged
    /// cache covers nothing).
    pub export: Export,
    /// Worker restarts the supervisor performed.
    pub restarts: u32,
    /// Quarantined shards; empty means full coverage.
    pub quarantined: Vec<QuarantinedShard>,
    /// Where the coverage-gap report was written (degraded runs only).
    pub gap_report: Option<PathBuf>,
}

/// Parses the shared resilience flags (`--worker-timeout SECS`,
/// `--max-retries N`, `--faults FILE`) into a supervisor config and an
/// optional fault plan. `run_seed` seeds the deterministic backoff jitter.
pub(crate) fn parse_resilience(
    opts: &Options,
    run_seed: u64,
    default_timeout: Option<Duration>,
    default_retries: u32,
) -> Result<(SupervisorConfig, Option<FaultPlan>), String> {
    let worker_timeout = match opts.get("worker-timeout") {
        None => default_timeout,
        Some(raw) => {
            let secs: f64 =
                raw.parse().map_err(|_| format!("--worker-timeout: cannot parse `{raw}`"))?;
            if secs.is_nan() || secs <= 0.0 {
                return Err("--worker-timeout must be positive".into());
            }
            Some(Duration::from_secs_f64(secs))
        }
    };
    let max_retries: u32 = opts.get_parsed("max-retries", default_retries)?;
    let faults = match opts.get("faults") {
        None => None,
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Some(FaultPlan::decode(&text).map_err(|e| format!("{path}: {e}"))?)
        }
    };
    let supervisor =
        SupervisorConfig { worker_timeout, max_retries, run_seed, ..SupervisorConfig::default() };
    Ok((supervisor, faults))
}

/// Worker-side: starts the heartbeat flusher if `--heartbeat PATH` was
/// given. The returned guard must stay alive for the worker's lifetime.
pub(crate) fn start_heartbeat(opts: &Options) -> Result<Option<HeartbeatGuard>, String> {
    match opts.get("heartbeat") {
        None => Ok(None),
        Some(path) => HeartbeatGuard::start(path)
            .map(Some)
            .map_err(|e| format!("cannot start heartbeat {path}: {e}")),
    }
}

/// Worker-side: arms this process's fault injector from `--faults FILE`
/// filtered down to `--fault-worker I` / `--fault-attempt A`. A no-op
/// without `--faults`.
pub(crate) fn arm_worker_faults(opts: &Options, default_worker: u32) -> Result<(), String> {
    let Some(path) = opts.get("faults") else { return Ok(()) };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let plan = FaultPlan::decode(&text).map_err(|e| format!("{path}: {e}"))?;
    let worker: u32 = opts.get_parsed("fault-worker", default_worker)?;
    let attempt: u32 = opts.get_parsed("fault-attempt", 0)?;
    let armed = vanet_faults::arm(&plan.for_spawn(worker, attempt))?;
    if armed > 0 {
        eprintln!("fault: armed {armed} fault(s) for worker {worker}, attempt {attempt}");
    }
    Ok(())
}

/// Splits the thread budget across the workers that will actually spawn.
fn per_worker_threads(threads: usize, to_spawn: usize) -> usize {
    vanet_scenarios::worker_threads(threads).div_ceil(to_spawn.max(1)).max(1)
}

/// One shard the supervisor will run as a worker process.
struct SpawnedShard {
    /// The shard's own index (also its fault-plan worker id).
    index: usize,
    /// The written shard file.
    file: PathBuf,
    /// The worker's private journal directory.
    cache: PathBuf,
}

/// Runs every spawned shard as a `fleet worker` process under the
/// supervisor; `kind` prefixes its messages.
fn supervise_workers(
    kind: &str,
    spawned: &[SpawnedShard],
    shards_dir: &Path,
    per_worker: usize,
    common: &PipelineCommon,
    fault_file: Option<&Path>,
) -> Result<SupervisionReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate carq-cli: {e}"))?;
    let tasks: Vec<WorkerTask> = spawned
        .iter()
        .enumerate()
        .map(|(position, shard)| WorkerTask {
            index: position,
            label: format!("shard-{:03}", shard.index),
            heartbeat: shards_dir.join(format!("hb-{:03}", shard.index)),
        })
        .collect();
    let report = supervise(
        &tasks,
        &common.supervisor,
        |task, attempt| {
            let shard = &spawned[task.index];
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("fleet")
                .arg("worker")
                .arg("--shard")
                .arg(&shard.file)
                .arg("--cache")
                .arg(&shard.cache)
                .arg("--threads")
                .arg(per_worker.to_string())
                .arg("--heartbeat")
                .arg(&task.heartbeat);
            if let Some(file) = fault_file {
                cmd.arg("--faults")
                    .arg(file)
                    .arg("--fault-worker")
                    .arg(shard.index.to_string())
                    .arg("--fault-attempt")
                    .arg(attempt.to_string());
            }
            cmd.spawn()
        },
        &mut |line| eprintln!("{kind}: {line}"),
    );
    Ok(report)
}

/// The quarantined subset of a supervision report, joined back to the
/// shard files.
fn quarantined_shards(
    supervision: &SupervisionReport,
    spawned: &[SpawnedShard],
) -> Vec<QuarantinedShard> {
    supervision
        .workers
        .iter()
        .zip(spawned)
        .filter_map(|(worker, shard)| match &worker.outcome {
            WorkerOutcome::Quarantined { last_error } => Some(QuarantinedShard {
                worker: shard.index,
                shard_file: shard.file.display().to_string(),
                attempts: worker.attempts,
                last_error: last_error.clone(),
            }),
            WorkerOutcome::Completed => None,
        })
        .collect()
}

/// Minimal JSON string escaping for the hand-rolled gap report.
fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The whole supervised pipeline: pre-filter, write the shard files and
/// the fault plan, spawn and supervise the workers, merge their journals,
/// then render the final pass — everything on a healthy run (re-simulating
/// any record a fault dropped), only what the merged cache covers plus a
/// gap report when a shard was quarantined.
pub(crate) fn run_pipeline(
    plan: ShardPlan,
    target: &Target,
    common: &PipelineCommon,
) -> Result<PipelineOutcome, String> {
    let ([kind, source, unit, missing_noun], name, work, pass) = target.words();
    // Warm re-run pre-filter: drop every unit the merged journal already
    // covers, so an identical re-run spawns zero redundant workers (and
    // zero redundant simulations). Read-only open: the journal may not
    // exist yet, and workers must stay free to lock their own.
    let warm = if common.ephemeral {
        None
    } else {
        SweepCache::open_read_only(&common.base).ok().filter(|cache| !cache.is_empty())
    };
    let pending = match warm {
        None => plan.clone(),
        Some(cache) => {
            let (pending, covered) = plan.split_covered(&cache).map_err(|e| e.to_string())?;
            if covered > 0 {
                eprintln!(
                    "{kind}: {covered} {unit}(s) already covered by the merged cache, {} left \
                     to run",
                    pending.total_units(),
                );
            }
            pending
        }
    };
    let shards_dir = common.base.join("shards");
    std::fs::create_dir_all(&shards_dir)
        .map_err(|e| format!("cannot create {}: {e}", shards_dir.display()))?;
    // One fault plan file for every worker spawn (and respawn) to read.
    let fault_file = match &common.faults {
        None => None,
        Some(faults) => {
            let path = shards_dir.join(FAULT_PLAN_FILE);
            std::fs::write(&path, faults.encode())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Some(path)
        }
    };

    let mut spawned = Vec::new();
    for shard in pending.shards.iter().filter(|shard| shard.total_units() > 0) {
        let file = write_shard(&shards_dir, shard)?;
        let cache = shards_dir.join(format!("cache-{:03}", shard.index));
        spawned.push(SpawnedShard { index: shard.index, file, cache });
    }
    let per_worker = per_worker_threads(common.threads, spawned.len());
    eprintln!(
        "{kind}: {} worker process(es) x {per_worker} thread(s) over {} {}",
        spawned.len(),
        pending.total_units(),
        work,
    );
    let supervision =
        supervise_workers(kind, &spawned, &shards_dir, per_worker, common, fault_file.as_deref())?;
    let restarts = supervision.restarts();
    if restarts > 0 {
        eprintln!("{kind}: supervisor performed {restarts} worker restart(s)");
    }
    let quarantined = quarantined_shards(&supervision, &spawned);

    // Merge every shard journal that exists — a quarantined worker's
    // partial journal included; its finished rounds are not lost.
    let sources: Vec<PathBuf> =
        spawned.iter().map(|s| s.cache.clone()).filter(|d| d.exists()).collect();
    let cache = Arc::new(SweepCache::open(&common.base).map_err(|e| e.to_string())?);
    let report = vanet_cache::merge_into(&cache, &sources).map_err(|e| e.to_string())?;
    eprintln!(
        "{kind}: merged {} shard journal(s): {} record(s) ingested, {} duplicate(s), \
         {} superseded, {} torn byte(s) dropped",
        report.sources,
        report.records_ingested,
        report.records_duplicate,
        report.records_superseded,
        report.torn_bytes_dropped,
    );

    // A healthy run renders everything, re-simulating any record a fault
    // dropped after its worker finished. A degraded one renders only what
    // the merged cache covers and names the rest, each missing point by its
    // label and each missing world by its scenario name.
    let missing = if quarantined.is_empty() {
        None
    } else {
        let (uncovered, _) = plan.split_covered(&cache).map_err(|e| e.to_string())?;
        let mut set = HashSet::new();
        let names: Vec<String> = uncovered
            .units()
            .map(|(scenario, unit)| match scenario {
                ScenarioRef::Preset { .. } => unit.point.label(),
                ScenarioRef::Generated(identity) => identity.scenario_name(),
            })
            .filter(|name| set.insert(name.clone()))
            .collect();
        Some((names, set))
    };
    let export = target.render(&plan, missing.as_ref().map(|(_, set)| set), &cache, common)?;
    let Some((missing, _)) = missing else {
        eprintln!(
            "{kind}: {pass}: {} round(s) simulated, {} served from the merged cache",
            export.simulated, export.cached,
        );
        drop(cache);
        if common.ephemeral {
            std::fs::remove_dir_all(&common.base).ok();
        } else {
            // The merged journal holds everything; the per-shard copies
            // are now redundant.
            std::fs::remove_dir_all(&shards_dir).ok();
        }
        return Ok(PipelineOutcome { export, restarts, quarantined, gap_report: None });
    };

    // Degraded: everything on disk is kept — the journals are the evidence
    // and the resume state — and a machine-readable report names the gap.
    eprintln!(
        "{kind}: degraded: {} of {} {missing_noun}(s) covered, {} missing",
        export.rows,
        export.rows + missing.len(),
        missing.len(),
    );
    let shards: Vec<String> = quarantined
        .iter()
        .map(|q| {
            format!(
                "    {{\"worker\": {}, \"shard_file\": \"{}\", \"attempts\": {}, \
                 \"last_error\": \"{}\"}}",
                q.worker,
                json_escape(&q.shard_file),
                q.attempts,
                json_escape(&q.last_error)
            )
        })
        .collect();
    let missing: Vec<String> = missing.iter().map(|m| format!("\"{}\"", json_escape(m))).collect();
    let json = format!(
        "{{\n  \"kind\": \"{kind}\",\n  \"{source}\": \"{}\",\n  \
         \"master_seed\": \"{:#018x}\",\n  \"quarantined\": [\n{}\n  ],\n  \
         \"covered\": {},\n  \"missing_{missing_noun}s\": [{}]\n}}\n",
        json_escape(name),
        plan.master_seed,
        shards.join(",\n"),
        export.rows,
        missing.join(", "),
    );
    let path = common.base.join(GAP_REPORT_FILE);
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    for q in &quarantined {
        eprintln!(
            "{kind}: shard {} quarantined after {} attempt(s): {} (shard file {})",
            q.worker, q.attempts, q.last_error, q.shard_file
        );
    }
    eprintln!("{kind}: coverage gap report written to {}", path.display());
    Ok(PipelineOutcome { export, restarts, quarantined, gap_report: Some(path) })
}

/// `fleet run` and `campaign run`, whose flags are `source_flags` and
/// [`RUN_FLAGS`]: plans the source into at most `--workers N` shards, then
/// the export format, the working directory
/// (`--cache DIR`, whose merged journal persists so a re-run resumes, or a
/// throwaway temp directory), the resilience flags, the pipeline, the
/// export to `--out` or stdout, and exit 3 when the run degraded.
pub(crate) fn run_command(
    opts: &Options,
    kind: &str,
    source_flags: &[&str],
) -> Result<(), CliFailure> {
    let source = Source::read(opts, kind, &[source_flags, RUN_FLAGS].concat())?;
    let workers = opts.count("workers")?.ok_or("this command needs --workers N")?;
    let (plan, target) = source.plan(opts, workers)?;
    let json = opts.json()?;
    let (base, ephemeral) = match opts.get("cache") {
        Some(dir) => (PathBuf::from(dir), false),
        None => (std::env::temp_dir().join(format!("carq-{kind}-{}", std::process::id())), true),
    };
    let (supervisor, faults) = parse_resilience(opts, plan.master_seed, None, 2)?;
    let common = PipelineCommon {
        threads: opts.get_parsed("threads", 0)?,
        json,
        base,
        ephemeral,
        supervisor,
        faults,
    };
    let outcome = run_pipeline(plan, &target, &common)?;
    let delivered = crate::output::emit(opts.get("out"), &outcome.export.text);
    match &outcome.gap_report {
        // The partial export above is still delivered, even to a reader
        // that closed standard output; the exit code and the gap report say
        // the coverage is incomplete.
        Some(gap) if delivered.as_ref().err().is_none_or(CliFailure::is_closed_stdout) => {
            Err(CliFailure::degraded(format!(
                "{kind} run degraded: {} shard(s) quarantined after retries; partial export \
                 delivered, coverage gap report at {}",
                outcome.quarantined.len(),
                gap.display(),
            )))
        }
        _ => delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::dispatch;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn campaign_plan(opts: &Options) -> Result<String, String> {
        write_plan(opts, "campaign plan", CAMPAIGN_PLAN_FLAGS, Some(1))
    }

    fn campaign_run(opts: &Options) -> Result<(), CliFailure> {
        run_command(opts, "campaign", CAMPAIGN_RUN_FLAGS)
    }

    #[test]
    fn json_escaping_covers_quotes_and_control_characters() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny\t\u{1}"), "x\\ny\\t\\u0001");
    }

    #[test]
    fn thread_budget_splits_across_spawned_workers() {
        assert_eq!(per_worker_threads(8, 4), 2);
        assert_eq!(per_worker_threads(8, 3), 3, "ceiling division");
        assert_eq!(per_worker_threads(1, 4), 1, "never below one thread");
        assert_eq!(per_worker_threads(4, 0), 4, "no workers: budget intact");
    }

    #[test]
    fn resilience_flags_parse_and_validate() {
        let parse = |items: &[&str]| {
            let strings: Vec<String> = items.iter().map(|s| s.to_string()).collect();
            parse_resilience(&Options::parse(&strings).unwrap(), 7, None, 2)
        };
        let (config, faults) = parse(&[]).unwrap();
        assert_eq!(config.worker_timeout, None);
        assert_eq!(config.max_retries, 2);
        assert_eq!(config.run_seed, 7);
        assert!(faults.is_none());
        let (config, _) = parse(&["--worker-timeout", "1.5", "--max-retries", "5"]).unwrap();
        assert_eq!(config.worker_timeout, Some(Duration::from_millis(1500)));
        assert_eq!(config.max_retries, 5);
        assert!(parse(&["--worker-timeout", "0"]).is_err());
        assert!(parse(&["--worker-timeout", "soon"]).is_err());
        assert!(parse(&["--faults", "/no/such/plan.flt"]).is_err());
    }

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
            let text =
                std::fs::read_to_string(dir.join(format!("shard-{index:03}.fleet"))).unwrap();
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
        let shard_file = dir.join("shard-000.fleet").display().to_string();
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
