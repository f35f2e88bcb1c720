//! The supervised multi-process execution pipeline shared by
//! `carq-cli fleet run`, `carq-cli campaign run` and `carq-cli chaos`.
//!
//! Both run commands have the same shape — plan shards, spawn one worker
//! process per shard, merge the shard journals, export from the merged
//! cache — and both now run their workers under the self-healing
//! supervisor ([`vanet_fleet::supervise`]): crashed workers restart with
//! seeded exponential backoff, hung workers are detected through their
//! heartbeat files and killed, and a shard that keeps failing is
//! quarantined instead of aborting the run. A quarantined run degrades
//! gracefully: every journal that exists still merges, the export covers
//! the points the merged cache can prove, and a machine-readable
//! `coverage-gaps.json` names exactly what is missing (semantics in
//! `docs/RESILIENCE.md`).

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use vanet_cache::SweepCache;
use vanet_faults::FaultPlan;
use vanet_fleet::{
    campaign_table, split_covered_scenarios, split_covered_units, supervise, CampaignPlan,
    HeartbeatGuard, ShardPlan, SupervisionReport, SupervisorConfig, WorkUnit, WorkerOutcome,
    WorkerTask,
};
use vanet_sweep::{presets, SweepEngine, SweepSpec};

use crate::cli::Options;

/// File the seeded fault plan is written to inside the shards directory,
/// so every worker (and every retry) reads the same schedule.
const FAULT_PLAN_FILE: &str = "faults.flt";

/// File the coverage-gap report of a degraded run is written to, next to
/// the merged journal.
pub(crate) const GAP_REPORT_FILE: &str = "coverage-gaps.json";

/// Everything the pipeline needs beyond the plan itself.
pub(crate) struct PipelineCommon {
    /// Raw `--threads` budget (0 = all cores), split across live workers.
    pub threads: usize,
    /// Export format: `csv` or `json`.
    pub format: String,
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
    /// The rendered export (partial on a degraded run; empty when the
    /// merged cache covers nothing).
    pub rendered: String,
    /// Worker restarts the supervisor performed.
    pub restarts: u32,
    /// Quarantined shards; empty means full coverage.
    pub quarantined: Vec<QuarantinedShard>,
    /// Rounds the final/export pass simulated.
    pub final_simulated: usize,
    /// Rounds the final/export pass served from the merged cache.
    pub final_cached: usize,
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

/// Runs every spawned shard under the supervisor. `kind` is the worker
/// subcommand (`fleet` or `campaign`) and doubles as the message prefix.
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
            cmd.arg(kind)
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

/// Writes the fault plan next to the shard files so every worker spawn
/// (and respawn) reads the identical schedule.
fn write_fault_plan(shards_dir: &Path, common: &PipelineCommon) -> Result<Option<PathBuf>, String> {
    match &common.faults {
        None => Ok(None),
        Some(plan) => {
            let path = shards_dir.join(FAULT_PLAN_FILE);
            std::fs::write(&path, plan.encode())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok(Some(path))
        }
    }
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

/// Renders the quarantine list as a JSON array.
fn quarantined_json(quarantined: &[QuarantinedShard]) -> String {
    let entries: Vec<String> = quarantined
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
    format!("[\n{}\n  ]", entries.join(",\n"))
}

/// Writes the machine-readable coverage-gap report of a degraded run and
/// prints where it went plus one line per quarantined shard.
fn write_gap_report(
    kind: &str,
    base: &Path,
    header_fields: &[(&str, String)],
    quarantined: &[QuarantinedShard],
    covered: usize,
    missing: &[String],
    missing_key: &str,
) -> Result<PathBuf, String> {
    let path = base.join(GAP_REPORT_FILE);
    let missing_json: Vec<String> =
        missing.iter().map(|m| format!("\"{}\"", json_escape(m))).collect();
    let mut fields: Vec<String> = vec![format!("  \"kind\": \"{kind}\"")];
    fields.extend(header_fields.iter().map(|(k, v)| format!("  \"{k}\": {v}")));
    fields.push(format!("  \"quarantined\": {}", quarantined_json(quarantined)));
    fields.push(format!("  \"covered\": {covered}"));
    fields.push(format!("  \"{missing_key}\": [{}]", missing_json.join(", ")));
    let json = format!("{{\n{}\n}}\n", fields.join(",\n"));
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    for q in quarantined {
        eprintln!(
            "{kind}: shard {} quarantined after {} attempt(s): {} (shard file {})",
            q.worker, q.attempts, q.last_error, q.shard_file
        );
    }
    eprintln!("{kind}: coverage gap report written to {}", path.display());
    Ok(path)
}

/// The whole supervised fleet pipeline: prefilter, spawn+supervise, merge,
/// export (full or partial), gap report on quarantine.
pub(crate) fn run_fleet_pipeline(
    mut plan: ShardPlan,
    common: &PipelineCommon,
) -> Result<PipelineOutcome, String> {
    let preset = presets::find(&plan.preset)
        .ok_or_else(|| format!("unknown preset `{}` (see `carq-cli sweep list`)", plan.preset))?;
    let (scenario, spec) = preset.build(plan.master_seed, plan.rounds);
    let original_units: Vec<WorkUnit> =
        plan.shards.iter().flat_map(|s| s.units.iter().cloned()).collect();

    // Warm re-run pre-filter: drop every unit the merged journal already
    // covers, so an identical re-run spawns zero redundant workers (and
    // zero redundant simulations). Read-only open: the journal may not
    // exist yet, and workers must stay free to lock their own.
    if !common.ephemeral {
        if let Ok(cache) = SweepCache::open_read_only(&common.base) {
            if !cache.is_empty() {
                let mut covered_total = 0usize;
                for shard in &mut plan.shards {
                    let units = std::mem::take(&mut shard.units);
                    let (remaining, covered) =
                        split_covered_units(scenario.as_ref(), plan.master_seed, units, &cache)
                            .map_err(|e| e.to_string())?;
                    shard.units = remaining;
                    covered_total += covered;
                }
                if covered_total > 0 {
                    eprintln!(
                        "fleet: {covered_total} unit(s) already covered by the merged cache, \
                         {} left to run",
                        plan.total_units(),
                    );
                }
            }
        }
    }
    let shards_dir = common.base.join("shards");
    std::fs::create_dir_all(&shards_dir)
        .map_err(|e| format!("cannot create {}: {e}", shards_dir.display()))?;
    let fault_file = write_fault_plan(&shards_dir, common)?;

    let to_spawn = plan.shards.iter().filter(|s| !s.units.is_empty()).count();
    let per_worker = per_worker_threads(common.threads, to_spawn);
    eprintln!(
        "fleet: {} worker process(es) x {} thread(s) over {} unit(s) of `{}`",
        to_spawn,
        per_worker,
        plan.total_units(),
        plan.preset,
    );

    let mut spawned = Vec::new();
    for shard in &plan.shards {
        if shard.units.is_empty() {
            continue; // more workers than units, or fully warm
        }
        let file = shards_dir.join(crate::commands::shard_file_name(shard.index));
        std::fs::write(&file, shard.encode())
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        let cache = shards_dir.join(format!("cache-{:03}", shard.index));
        spawned.push(SpawnedShard { index: shard.index, file, cache });
    }
    let supervision = supervise_workers(
        "fleet",
        &spawned,
        &shards_dir,
        per_worker,
        common,
        fault_file.as_deref(),
    )?;
    let restarts = supervision.restarts();
    if restarts > 0 {
        eprintln!("fleet: supervisor performed {restarts} worker restart(s)");
    }
    let quarantined = quarantined_shards(&supervision, &spawned);

    // Merge every shard journal that exists — a quarantined worker's
    // partial journal included; its finished rounds are not lost.
    let sources: Vec<PathBuf> =
        spawned.iter().map(|s| s.cache.clone()).filter(|d| d.exists()).collect();
    let cache = Arc::new(SweepCache::open(&common.base).map_err(|e| e.to_string())?);
    let report = vanet_cache::merge_into(&cache, &sources).map_err(|e| e.to_string())?;
    eprintln!(
        "fleet: merged {} shard journal(s): {} record(s) ingested, {} duplicate(s), \
         {} superseded, {} torn byte(s) dropped",
        report.sources,
        report.records_ingested,
        report.records_duplicate,
        report.records_superseded,
        report.torn_bytes_dropped,
    );

    if quarantined.is_empty() {
        let engine = SweepEngine::new(common.threads).with_cache(Arc::clone(&cache));
        let result = engine.run(scenario.as_ref(), &spec).map_err(|e| e.to_string())?;
        eprintln!(
            "fleet: final pass: {} round(s) simulated, {} served from the merged cache",
            result.rounds_simulated, result.rounds_cached,
        );
        let rendered = if common.format == "json" { result.to_json() } else { result.to_csv() };
        let outcome = PipelineOutcome {
            rendered,
            restarts,
            quarantined,
            final_simulated: result.rounds_simulated,
            final_cached: result.rounds_cached,
            gap_report: None,
        };
        drop(engine);
        drop(cache);
        if common.ephemeral {
            std::fs::remove_dir_all(&common.base).ok();
        } else {
            // The merged journal holds everything; the per-shard copies
            // are now redundant.
            std::fs::remove_dir_all(&shards_dir).ok();
        }
        return Ok(outcome);
    }

    // Degraded: export the points the merged cache fully covers and report
    // the gap. Everything on disk is kept — the journals are the evidence
    // and the resume state.
    let (uncovered_units, _) =
        split_covered_units(scenario.as_ref(), plan.master_seed, original_units.clone(), &cache)
            .map_err(|e| e.to_string())?;
    let missing_labels: Vec<String> = {
        let mut seen = HashSet::new();
        uncovered_units
            .iter()
            .map(|u| u.point.label())
            .filter(|label| seen.insert(label.clone()))
            .collect()
    };
    let missing_set: HashSet<&String> = missing_labels.iter().collect();
    let mut covered_points = Vec::new();
    let mut seen = HashSet::new();
    for unit in &original_units {
        let label = unit.point.label();
        if missing_set.contains(&label) || !seen.insert(label) {
            continue;
        }
        covered_points.push(unit.point.clone());
    }
    let (rendered, final_simulated, final_cached) = if covered_points.is_empty() {
        (String::new(), 0, 0)
    } else {
        let mut partial = SweepSpec::new(plan.master_seed);
        for point in &covered_points {
            partial = partial.point(point.clone());
        }
        let engine = SweepEngine::new(common.threads).with_cache(Arc::clone(&cache));
        let result = engine.run(scenario.as_ref(), &partial).map_err(|e| e.to_string())?;
        let rendered = if common.format == "json" { result.to_json() } else { result.to_csv() };
        (rendered, result.rounds_simulated, result.rounds_cached)
    };
    eprintln!(
        "fleet: degraded: {} of {} point(s) covered, {} point(s) missing",
        covered_points.len(),
        covered_points.len() + missing_labels.len(),
        missing_labels.len(),
    );
    let gap_path = write_gap_report(
        "fleet",
        &common.base,
        &[
            ("preset", format!("\"{}\"", json_escape(&plan.preset))),
            ("master_seed", format!("\"{:#018x}\"", plan.master_seed)),
        ],
        &quarantined,
        covered_points.len(),
        &missing_labels,
        "missing_points",
    )?;
    Ok(PipelineOutcome {
        rendered,
        restarts,
        quarantined,
        final_simulated,
        final_cached,
        gap_report: Some(gap_path),
    })
}

/// The whole supervised campaign pipeline — the campaign-shaped twin of
/// [`run_fleet_pipeline`].
pub(crate) fn run_campaign_pipeline(
    mut plan: CampaignPlan,
    master_seed: u64,
    rounds: Option<u32>,
    generator: &str,
    common: &PipelineCommon,
) -> Result<PipelineOutcome, String> {
    // The render pass covers the full population even after the warm-cache
    // pre-filter empties shards below.
    let identities = plan.identities();
    let original_shards = plan.shards.clone();

    if !common.ephemeral {
        if let Ok(cache) = SweepCache::open_read_only(&common.base) {
            if !cache.is_empty() {
                let mut covered_total = 0usize;
                for shard in &mut plan.shards {
                    let (remaining, covered) =
                        split_covered_scenarios(shard, &cache).map_err(|e| e.to_string())?;
                    shard.scenarios = remaining;
                    covered_total += covered;
                }
                if covered_total > 0 {
                    eprintln!(
                        "campaign: {covered_total} scenario(s) already covered by the merged \
                         cache, {} left to run",
                        plan.total_scenarios(),
                    );
                }
            }
        }
    }
    let shards_dir = common.base.join("shards");
    std::fs::create_dir_all(&shards_dir)
        .map_err(|e| format!("cannot create {}: {e}", shards_dir.display()))?;
    let fault_file = write_fault_plan(&shards_dir, common)?;

    let to_spawn = plan.shards.iter().filter(|s| !s.scenarios.is_empty()).count();
    let per_worker = per_worker_threads(common.threads, to_spawn);
    eprintln!(
        "campaign: {} worker process(es) x {} thread(s) over {} generated `{}` scenario(s)",
        to_spawn,
        per_worker,
        plan.total_scenarios(),
        generator,
    );

    let mut spawned = Vec::new();
    for shard in &plan.shards {
        if shard.scenarios.is_empty() {
            continue;
        }
        let file = shards_dir.join(crate::campaign::campaign_file_name(shard.index));
        std::fs::write(&file, shard.encode())
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        let cache = shards_dir.join(format!("cache-{:03}", shard.index));
        spawned.push(SpawnedShard { index: shard.index as usize, file, cache });
    }
    let supervision = supervise_workers(
        "campaign",
        &spawned,
        &shards_dir,
        per_worker,
        common,
        fault_file.as_deref(),
    )?;
    let restarts = supervision.restarts();
    if restarts > 0 {
        eprintln!("campaign: supervisor performed {restarts} worker restart(s)");
    }
    let quarantined = quarantined_shards(&supervision, &spawned);

    let sources: Vec<PathBuf> =
        spawned.iter().map(|s| s.cache.clone()).filter(|d| d.exists()).collect();
    let cache = Arc::new(SweepCache::open(&common.base).map_err(|e| e.to_string())?);
    let report = vanet_cache::merge_into(&cache, &sources).map_err(|e| e.to_string())?;
    eprintln!(
        "campaign: merged {} shard journal(s): {} record(s) ingested, {} duplicate(s), \
         {} superseded, {} torn byte(s) dropped",
        report.sources,
        report.records_ingested,
        report.records_duplicate,
        report.records_superseded,
        report.torn_bytes_dropped,
    );

    if quarantined.is_empty() {
        let result = campaign_table(&identities, master_seed, rounds, &cache, common.threads)
            .map_err(|e| e.to_string())?;
        eprintln!(
            "campaign: final pass over {} scenario(s): {} round(s) simulated, \
             {} served from the merged cache",
            identities.len(),
            result.rounds_simulated,
            result.rounds_cached,
        );
        let rendered =
            if common.format == "json" { result.table.to_json() } else { result.table.to_csv() };
        let outcome = PipelineOutcome {
            rendered,
            restarts,
            quarantined,
            final_simulated: result.rounds_simulated,
            final_cached: result.rounds_cached,
            gap_report: None,
        };
        drop(cache);
        if common.ephemeral {
            std::fs::remove_dir_all(&common.base).ok();
        } else {
            std::fs::remove_dir_all(&shards_dir).ok();
        }
        return Ok(outcome);
    }

    // Degraded: render the scenarios the merged cache fully covers.
    let mut uncovered = Vec::new();
    for shard in &original_shards {
        let (remaining, _) = split_covered_scenarios(shard, &cache).map_err(|e| e.to_string())?;
        uncovered.extend(remaining);
    }
    let covered: Vec<_> = identities.iter().filter(|i| !uncovered.contains(i)).cloned().collect();
    let missing_names: Vec<String> = uncovered.iter().map(|i| i.scenario_name()).collect();
    let (rendered, final_simulated, final_cached) = if covered.is_empty() {
        (String::new(), 0, 0)
    } else {
        let result = campaign_table(&covered, master_seed, rounds, &cache, common.threads)
            .map_err(|e| e.to_string())?;
        let rendered =
            if common.format == "json" { result.table.to_json() } else { result.table.to_csv() };
        (rendered, result.rounds_simulated, result.rounds_cached)
    };
    eprintln!(
        "campaign: degraded: {} of {} scenario(s) covered, {} missing",
        covered.len(),
        identities.len(),
        missing_names.len(),
    );
    let gap_path = write_gap_report(
        "campaign",
        &common.base,
        &[
            ("generator", format!("\"{}\"", json_escape(generator))),
            ("master_seed", format!("\"{master_seed:#018x}\"")),
        ],
        &quarantined,
        covered.len(),
        &missing_names,
        "missing_scenarios",
    )?;
    Ok(PipelineOutcome {
        rendered,
        restarts,
        quarantined,
        final_simulated,
        final_cached,
        gap_report: Some(gap_path),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
