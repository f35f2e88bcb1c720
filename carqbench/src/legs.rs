//! The timed legs every workload is built from, and the failure
//! accounting that checks their outputs.
//!
//! * **set-up**: configure or instantiate the scenario and open the
//!   journals; warm_journal also fills its journals cold through the fleet
//!   path (plan the shards, execute each, run the analysis engine cold);
//! * **simulation leg**: untraced `ScenarioRun::run_round` over a pass of
//!   rounds, repeated (paper_urban also renders Table 1 and every
//!   reception series per pass);
//! * **traced leg**: `run_round_traced` + `vanet_trace::verify` +
//!   `RoundDigest::compute`, the `verify`/`analyze` user path;
//! * **write leg**: `merge_into` and `merge_analysis` into a fresh
//!   directory, then `SweepCache::compact`;
//! * **read leg**: open both journals, run the sweep and analysis engines
//!   warm, and render their exports.
//!
//! A leg runs in steps — a pass of rounds, one write, one read — and the
//! caller interleaves the steps of every leg over the whole measurement,
//! so each leg samples the same stretch of machine time. Rates divide one
//! step's work by a low percentile of the step CPU times (see [`rate`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use sim_core::fnv1a64;
use vanet_analysis::{AnalysisEngine, AnalysisStore, RoundDigest};
use vanet_cache::{merge_into, SweepCache};
use vanet_fleet::{
    execute_shard, execute_units, merge_analysis, plan_units, stride_units, ShardPlan,
};
use vanet_mac::NodeId;
use vanet_scenarios::{round_seed, ScenarioRun};
use vanet_stats::RoundReport;
use vanet_stats::{into_round_results, reception_series, render_series_csv, render_table1, table1};
use vanet_sweep::{SweepEngine, SweepPlan};

use crate::clock::{measure, Cost, Spans};
use crate::stats::percentile;
use crate::world::{Kind, World, DEFAULT_SEED};

/// The event budget every scenario round runs under; a round that reaches
/// it was cut short.
pub const EVENT_BUDGET: f64 = 5_000_000.0;

/// Shards the journals are split into.
const SHARDS: usize = 2;

/// FNV-1a hashes of the report bytes of rounds 0 and 1 of each workload's
/// first point at [`DEFAULT_SEED`], recorded from the simulator this
/// benchmark was written against. When the simulator's output changes on
/// purpose, a mismatch's failure line gives the new hash.
const REFERENCE: [(Kind, [u64; 2]); 3] = [
    (Kind::PaperUrban, [0x578d_4b92_00a5_6307, 0x28d9_a51f_a701_79d0]),
    (Kind::GridCity, [0xccfc_7ee5_4e23_3a8b, 0xb418_29e9_b0a8_da00]),
    (Kind::WarmJournal, [0x578d_4b92_00a5_6307, 0x28d9_a51f_a701_79d0]),
];

/// Failure accounting: every checked operation is attempted once and
/// failed at most once.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one operation whose checks gave `problem` (`None`: passed).
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            self.failures.push(problem);
        }
    }
}

/// The stable hash of a report's encoded bytes.
pub fn report_hash(report: &RoundReport) -> u64 {
    fnv1a64(&report.to_bytes())
}

/// Whether a round reached the event budget (and was therefore cut short).
pub fn budget_exhausted(report: &RoundReport) -> bool {
    report.counter("sim_events").unwrap_or(0.0) >= EVENT_BUDGET
}

/// Runs one untraced round, turning a panic into an error.
pub fn guarded_round(run: &dyn ScenarioRun, round: u32, seed: u64) -> Result<RoundReport, String> {
    catch_unwind(AssertUnwindSafe(|| run.run_round(round, seed)))
        .map_err(|_| format!("round {round} (seed {seed:#x}) panicked"))
}

/// The problems of one finished untraced round: the event budget and, when
/// an expected hash is known, its report bytes.
pub fn round_problem(report: &RoundReport, expected_hash: Option<u64>) -> Option<String> {
    if budget_exhausted(report) {
        return Some(format!("round {} reached the {EVENT_BUDGET} event budget", report.round));
    }
    match expected_hash {
        Some(hash) if report_hash(report) != hash => {
            Some(format!("round {} report bytes differ from the reference", report.round))
        }
        _ => None,
    }
}

/// The step-time percentile rates are computed at. A shared host's speed
/// shifts between a fast and a slow regime for seconds at a time, and how
/// long a run spends in each varies, so the median step time flips between
/// the two; the 10th percentile stays inside the fast regime and repeats
/// across runs two to three times more closely.
pub const RATE_PERCENTILE: f64 = 10.0;

/// Work per step over the [`RATE_PERCENTILE`] step CPU time (ms): a rate
/// per CPU second.
pub fn rate(work_per_step: f64, steps_ms: &[f64]) -> f64 {
    work_per_step / (percentile(steps_ms, RATE_PERCENTILE) / 1e3)
}

/// Per-round CPU times with each pass scaled to the fast-regime pass.
/// Every pass repeats the same rounds, so the passes' sums differ only by
/// machine speed; scaling pass `k` by p10(sums) / sum(k) keeps the spread
/// between the rounds of a pass and removes the host's (see
/// [`RATE_PERCENTILE`]). `samples` holds whole passes of `per_pass` rounds.
pub fn scaled_to_fast_pass(samples: &[f64], per_pass: usize) -> Vec<f64> {
    let passes = || samples.chunks(per_pass.max(1));
    let sums: Vec<f64> = passes().map(|pass| pass.iter().sum()).collect();
    let fast = percentile(&sums, RATE_PERCENTILE);
    passes().zip(&sums).flat_map(|(pass, sum)| pass.iter().map(move |ms| ms * fast / sum)).collect()
}

/// One round of a leg: which configured run, which round, which seed.
#[derive(Debug, Clone, Copy)]
pub struct Item {
    /// Index into the plan's runs.
    pub run: usize,
    /// The round index.
    pub round: u32,
    /// The round seed.
    pub seed: u64,
}

/// Every round of every point of `plan`, in point and round order.
pub fn items(plan: &SweepPlan) -> Vec<Item> {
    plan.runs
        .iter()
        .enumerate()
        .flat_map(|(run, r)| {
            let base = plan.seeds[run];
            (0..r.rounds()).map(move |round| Item { run, round, seed: round_seed(base, round) })
        })
        .collect()
}

/// What set-up built.
pub struct Setup {
    /// The workload's configured inputs.
    pub world: World,
    /// The configured runs of the simulating legs (simulating workloads).
    pub plan: Option<SweepPlan>,
    /// The shard journals (shard 0 also holds the digest journal).
    pub shard_dirs: Vec<PathBuf>,
}

/// Set-up; its journals go under `dir`, which must not exist yet.
/// Simulating workloads configure or instantiate and plan (their legs fill
/// the journals with their own rounds); warm_journal configures and fills
/// its journals cold through the fleet path.
pub fn set_up(kind: Kind, seed: u64, dir: &Path, spans: &mut Spans) -> Setup {
    spans.span("setup", |s| {
        let build = if kind == Kind::GridCity {
            "vanet-gen.instantiate"
        } else {
            "vanet-scenarios.configure"
        };
        let world = s.span(build, |_| World::build(kind, seed));
        let shard_dirs: Vec<PathBuf> =
            (0..SHARDS).map(|i| dir.join(format!("shard-{i}"))).collect();
        if !kind.simulates() {
            fleet_fill(&world, &shard_dirs, s);
            return Setup { world, plan: None, shard_dirs };
        }
        let plan = s.span("vanet-sweep.plan", |_| world.plan());
        Setup { world, plan: Some(plan), shard_dirs }
    })
}

/// Fills `shard_dirs` cold through the fleet path: plan the shards
/// (`ShardPlan::for_preset` for the preset, `plan_units` otherwise), execute
/// each, then run the analysis engine cold into shard 0's digest journal.
pub fn fleet_fill(world: &World, shard_dirs: &[PathBuf], s: &mut Spans) {
    let scenario = world.scenario.as_ref();
    if world.kind.simulates() {
        let shards = s.span("vanet-fleet.plan", |_| {
            plan_units(scenario, &world.spec, None)
                .map(|units| stride_units(units, shard_dirs.len()))
        });
        for (units, shard_dir) in shards.expect("the spec plans").iter().zip(shard_dirs) {
            s.span("vanet-fleet.execute_shard", |_| {
                let cache = Arc::new(SweepCache::open(shard_dir).expect("shard journal opens"));
                execute_units(scenario, world.seed, units, &cache, 1)
            })
            .expect("a cold shard executes");
        }
    } else {
        let plan = s.span("vanet-fleet.plan", |_| {
            ShardPlan::for_preset(
                "strategy-compare",
                world.seed,
                world.kind.rounds(),
                shard_dirs.len(),
                None,
            )
        });
        for (shard, shard_dir) in plan.expect("the preset plans").shards.iter().zip(shard_dirs) {
            s.span("vanet-fleet.execute_shard", |_| execute_shard(shard, shard_dir, 1))
                .expect("a cold shard executes");
        }
    }
    s.span("vanet-analysis.cold_run", |_| {
        let store = AnalysisStore::open(&shard_dirs[0]).expect("digest journal opens");
        AnalysisEngine::new(1)
            .with_store(Arc::new(Mutex::new(store)))
            .run(scenario, &world.spec)
            .expect("the cold analysis runs");
    });
}

/// Writes a leg's own rounds into the shard journals under the keys the
/// sweep and analysis engines use: reports strided over the shards, digests
/// into shard 0.
pub fn fill_journals(
    setup: &Setup,
    plan: &SweepPlan,
    reports: &[(usize, RoundReport)],
    digests: &[(usize, RoundDigest)],
) {
    let items = items(plan);
    let name = setup.world.scenario.name();
    let key = |i: usize| plan.cache_key(name, items[i].run, items[i].round, items[i].seed);
    let caches: Vec<SweepCache> = setup
        .shard_dirs
        .iter()
        .map(|d| SweepCache::open(d).expect("shard journal opens"))
        .collect();
    for &(i, ref report) in reports {
        caches[i % caches.len()].put(&key(i), report).expect("a report appends");
    }
    let mut store = AnalysisStore::open(&setup.shard_dirs[0]).expect("digest journal opens");
    for &(i, ref digest) in digests {
        store.put(&key(i), digest).expect("a digest appends");
    }
}

/// The cold exports of the spec, simulated without a journal: the sweep's
/// CSV then JSON, and the analysis tables. Every warm read must reproduce
/// them.
pub fn cold_exports(world: &World) -> (String, String) {
    let sweep =
        SweepEngine::new(1).run(world.scenario.as_ref(), &world.spec).expect("the cold sweep runs");
    let analysis = AnalysisEngine::new(1)
        .run(world.scenario.as_ref(), &world.spec)
        .expect("the cold analysis runs");
    (sweep.to_csv() + &sweep.to_json(), analysis_export(&analysis))
}

fn analysis_export(result: &vanet_analysis::AnalysisResult) -> String {
    result.latency_table().to_csv() + &result.occupancy_table().to_csv()
}

/// Renders Table 1 and every (flow, observer) reception series of a pass;
/// returns a hash of the rendered text.
pub fn render(reports: Vec<RoundReport>) -> u64 {
    let results = into_round_results(reports);
    let mut text = render_table1(&table1(&results));
    let cars: Vec<NodeId> = results.first().map(|r| r.cars()).unwrap_or_default();
    let names: Vec<String> = cars.iter().map(|c| format!("rx_at_{c}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    for dst in &cars {
        let series: Vec<_> =
            cars.iter().map(|obs| reception_series(&results, *dst, *obs)).collect();
        text.push_str(&render_series_csv(&name_refs, &series));
    }
    fnv1a64(text.as_bytes())
}

/// The outcome of a simulation leg so far.
#[derive(Debug, Default)]
pub struct SimLeg {
    /// Rounds in one pass.
    pub pass_rounds: u64,
    /// Dispatched simulation events (`sim_events`) in one pass.
    pub pass_events: f64,
    /// CPU time of each pass (rounds and rendering), ms.
    pub pass_cpu_ms: Vec<f64>,
    /// CPU time of each round, ms.
    pub round_cpu_ms: Vec<f64>,
    /// Allocations of the first pass (rounds and rendering).
    pub first_pass_allocs: u64,
    /// The first pass's reports, by item index.
    pub reports: Vec<(usize, RoundReport)>,
    /// Report hashes of the first pass, by item (0 for a failed round).
    pub hashes: Vec<u64>,
    render_hash: Option<u64>,
    /// Summed cost of every pass.
    pub cost: Cost,
}

impl SimLeg {
    /// Runs one pass over `plan`'s rounds (and renders it on paper_urban).
    /// Every repeated round must reproduce its first pass's report bytes.
    pub fn step(&mut self, kind: Kind, plan: &SweepPlan, tally: &mut Tally) {
        let items = items(plan);
        let first = self.pass_cpu_ms.is_empty();
        self.pass_rounds = items.len() as u64;
        let mut pass = Cost::default();
        let mut reports = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let (outcome, cost) =
                measure(|| guarded_round(plan.runs[item.run].as_ref(), item.round, item.seed));
            pass.add(cost);
            self.round_cpu_ms.push(cost.cpu_ns as f64 / 1e6);
            let report = match outcome {
                Ok(report) => report,
                Err(problem) => {
                    tally.record(Some(problem));
                    if first {
                        self.hashes.push(0);
                    }
                    continue;
                }
            };
            tally.record(round_problem(&report, self.hashes.get(i).copied()));
            if first {
                self.pass_events += report.counter("sim_events").unwrap_or(0.0);
                self.hashes.push(report_hash(&report));
                self.reports.push((i, report.clone()));
            }
            reports.push(report);
        }
        if kind.renders() {
            let (hash, cost) = measure(|| render(reports));
            pass.add(cost);
            let expected = *self.render_hash.get_or_insert(hash);
            tally.record(
                (hash != expected).then(|| "rendered tables changed between passes".into()),
            );
        }
        if first {
            self.first_pass_allocs = pass.allocs;
        }
        self.pass_cpu_ms.push(pass.cpu_ns as f64 / 1e6);
        self.cost.add(pass);
    }
}

/// The outcome of a traced leg so far.
#[derive(Debug, Default)]
pub struct TracedLeg {
    /// Rounds in one pass.
    pub pass_rounds: u64,
    /// CPU time of each pass, ms.
    pub pass_cpu_ms: Vec<f64>,
    /// The first pass's digests, by item index.
    pub digests: Vec<(usize, RoundDigest)>,
    /// Summed cost of every pass.
    pub cost: Cost,
}

impl TracedLeg {
    /// Traces, verifies and digests one pass over `plan`'s rounds. Each
    /// traced report must equal the untraced one (`untraced[i]`), and the
    /// trace must pass every invariant.
    pub fn step(&mut self, plan: &SweepPlan, untraced: &[u64], tally: &mut Tally) {
        let items = items(plan);
        let first = self.pass_cpu_ms.is_empty();
        self.pass_rounds = items.len() as u64;
        let mut pass = Cost::default();
        for (i, item) in items.iter().enumerate() {
            let run = plan.runs[item.run].as_ref();
            let (outcome, cost) = measure(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    let (report, records) = run.run_round_traced(item.round, item.seed);
                    let invariants = vanet_trace::verify(&records);
                    let digest = RoundDigest::compute(item.round, item.seed, &records);
                    (report, invariants, digest)
                }))
            });
            pass.add(cost);
            tally.record(match outcome {
                Err(_) => Some(format!("traced round {} panicked", item.round)),
                Ok((report, invariants, digest)) => {
                    let problem = if !invariants.is_ok() {
                        Some(format!(
                            "traced round {}: {} invariant violation(s)",
                            item.round,
                            invariants.violations.len()
                        ))
                    } else if untraced.get(i).is_some_and(|&h| h != report_hash(&report)) {
                        Some(format!("traced round {} differs from the untraced one", item.round))
                    } else {
                        round_problem(&report, None)
                    };
                    if first {
                        self.digests.push((i, digest));
                    }
                    problem
                }
            });
        }
        self.pass_cpu_ms.push(pass.cpu_ns as f64 / 1e6);
        self.cost.add(pass);
    }
}

/// The outcome of the write leg so far.
#[derive(Debug, Default)]
pub struct WriteLeg {
    /// Round reports merged per write.
    pub rounds_per_iteration: u64,
    /// CPU time of each write, ms.
    pub iteration_cpu_ms: Vec<f64>,
    /// Sweep plus digest journal bytes after one write.
    pub journal_bytes: u64,
    /// Summed cost of every write.
    pub cost: Cost,
}

impl WriteLeg {
    /// One write into `dest`, which must not exist yet.
    pub fn step(&mut self, shards: &[PathBuf], dest: &Path, spans: &mut Spans) {
        let ((merged_rounds, _), cost) = measure(|| write_once(shards, dest, spans));
        self.cost.add(cost);
        self.iteration_cpu_ms.push(cost.cpu_ns as f64 / 1e6);
        self.rounds_per_iteration = merged_rounds;
        self.journal_bytes = journal_bytes(dest);
    }
}

/// The costs of one write's calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteCosts {
    /// `vanet_cache::merge_into`.
    pub merge: Cost,
    /// `vanet_fleet::merge_analysis`.
    pub analysis_merge: Cost,
    /// `SweepCache::compact`.
    pub compact: Cost,
}

/// One write, a span around every call: merge both journal kinds into
/// `dest`, then compact. Returns the round reports merged.
pub fn write_once(shards: &[PathBuf], dest: &Path, spans: &mut Spans) -> (u64, WriteCosts) {
    let cache = SweepCache::open(dest).expect("merge destination opens");
    let (report, merge) =
        measure(|| spans.span("vanet-cache.merge_into", |_| merge_into(&cache, shards)));
    let (analysis, analysis_merge) =
        measure(|| spans.span("vanet-fleet.merge_analysis", |_| merge_analysis(dest, shards)));
    analysis.expect("digest journals merge");
    let (compacted, compact) = measure(|| spans.span("vanet-cache.compact", |_| cache.compact()));
    compacted.expect("the merged journal compacts");
    let rounds = report.expect("shard journals merge").records_written() as u64;
    (rounds, WriteCosts { merge, analysis_merge, compact })
}

/// Bytes of the sweep and digest journals under `dir`.
pub fn journal_bytes(dir: &Path) -> u64 {
    let sweep = SweepCache::open_read_only(dir).expect("sweep journal opens read-only");
    let digests = AnalysisStore::open(dir).expect("digest journal opens");
    [sweep.journal_path(), digests.journal_path()]
        .iter()
        .filter_map(|path| std::fs::metadata(path).ok())
        .map(|m| m.len())
        .sum()
}

/// What one read produced.
pub struct ReadOutput {
    /// The warm sweep's CSV then JSON export.
    pub sweep_export: String,
    /// The warm analysis tables as CSV.
    pub analysis_export: String,
    /// Rounds the warm sweep simulated (must be 0).
    pub sweep_simulated: usize,
    /// Rounds the warm sweep served.
    pub sweep_served: usize,
    /// Rounds the warm analysis traced (must be 0).
    pub analysis_simulated: usize,
    /// Digests the warm analysis served.
    pub analysis_served: usize,
}

/// The costs of one read's calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadCosts {
    /// `SweepCache::open`.
    pub cache_open: Cost,
    /// The warm `SweepEngine` run.
    pub sweep_warm: Cost,
    /// The sweep's CSV and JSON exports.
    pub export: Cost,
    /// `AnalysisStore::open`.
    pub store_open: Cost,
    /// The warm `AnalysisEngine` run.
    pub analysis_warm: Cost,
    /// The analysis tables.
    pub tables: Cost,
}

impl ReadCosts {
    /// The sweep part: open, warm run, exports.
    pub fn sweep(&self) -> Cost {
        sum([self.cache_open, self.sweep_warm, self.export])
    }

    /// The analysis part: open, warm run, tables.
    pub fn analysis(&self) -> Cost {
        sum([self.store_open, self.analysis_warm, self.tables])
    }
}

fn sum(costs: [Cost; 3]) -> Cost {
    let mut total = Cost::default();
    costs.into_iter().for_each(|c| total.add(c));
    total
}

/// One warm read of the journals under `merged`, a span around every call:
/// open the sweep journal, run the sweep engine warm and export, then open
/// the digest journal, run the analysis engine warm and render its tables.
pub fn read_once(world: &World, merged: &Path, spans: &mut Spans) -> (ReadOutput, ReadCosts) {
    let scenario = world.scenario.as_ref();
    let (cache, cache_open) =
        measure(|| spans.span("vanet-cache.open", |_| SweepCache::open(merged)));
    let cache = Arc::new(cache.expect("merged journal opens"));
    let (sweep, sweep_warm) = measure(|| {
        spans.span("vanet-sweep.warm_run", |_| {
            SweepEngine::new(1).with_cache(cache).run(scenario, &world.spec)
        })
    });
    let sweep = sweep.expect("the warm sweep runs");
    let (sweep_export, export) =
        measure(|| spans.span("vanet-sweep.export", |_| sweep.to_csv() + &sweep.to_json()));
    let (store, store_open) =
        measure(|| spans.span("vanet-analysis.store_open", |_| AnalysisStore::open(merged)));
    let store = Arc::new(Mutex::new(store.expect("merged digest journal opens")));
    let (analysis, analysis_warm) = measure(|| {
        spans.span("vanet-analysis.warm_run", |_| {
            AnalysisEngine::new(1).with_store(store).run(scenario, &world.spec)
        })
    });
    let analysis = analysis.expect("the warm analysis runs");
    let (analysis_export, tables) =
        measure(|| spans.span("vanet-analysis.tables", |_| analysis_export(&analysis)));
    let out = ReadOutput {
        sweep_export,
        analysis_export,
        sweep_simulated: sweep.rounds_simulated,
        sweep_served: sweep.rounds_cached,
        analysis_simulated: analysis.rounds_simulated,
        analysis_served: analysis.rounds_cached,
    };
    (out, ReadCosts { cache_open, sweep_warm, export, store_open, analysis_warm, tables })
}

/// Checks one read against the cold exports.
pub fn read_problem(out: &ReadOutput, cold_sweep: &str, cold_analysis: &str) -> Option<String> {
    if out.sweep_simulated > 0 || out.analysis_simulated > 0 {
        Some(format!(
            "warm read simulated {} sweep and {} analysis round(s)",
            out.sweep_simulated, out.analysis_simulated
        ))
    } else if out.sweep_export != cold_sweep {
        Some("warm sweep export differs from the cold one".into())
    } else if out.analysis_export != cold_analysis {
        Some("warm analysis export differs from the cold one".into())
    } else {
        None
    }
}

/// The outcome of the read leg so far.
#[derive(Debug, Default)]
pub struct ReadLeg {
    /// Rounds the warm sweep serves per read.
    pub rounds_per_iteration: u64,
    /// Digests the warm analysis serves per read.
    pub digests_per_iteration: u64,
    /// `sim_events` carried by one read's served reports.
    pub events_per_iteration: f64,
    /// CPU time of each read's sweep part (open, warm run, exports), ms.
    pub sweep_cpu_ms: Vec<f64>,
    /// CPU time of each read's analysis part (open, warm run, tables), ms.
    pub analysis_cpu_ms: Vec<f64>,
    /// CPU time of each whole read, ms.
    pub iteration_cpu_ms: Vec<f64>,
    /// Allocations of the first read.
    pub first_allocs: u64,
    /// Summed cost of every read.
    pub cost: Cost,
}

impl ReadLeg {
    /// One warm read of the journals under `merged`, checked against the
    /// cold exports.
    pub fn step(
        &mut self,
        world: &World,
        merged: &Path,
        cold: &(String, String),
        tally: &mut Tally,
        spans: &mut Spans,
    ) {
        if self.iteration_cpu_ms.is_empty() {
            self.events_per_iteration = served_events(merged);
        }
        let (out, costs) = read_once(world, merged, spans);
        let (sweep_cost, analysis_cost) = (costs.sweep(), costs.analysis());
        let mut cost = sweep_cost;
        cost.add(analysis_cost);
        tally.record(read_problem(&out, &cold.0, &cold.1));
        if self.iteration_cpu_ms.is_empty() {
            self.first_allocs = cost.allocs;
            self.rounds_per_iteration = out.sweep_served as u64;
            self.digests_per_iteration = out.analysis_served as u64;
        }
        self.sweep_cpu_ms.push(sweep_cost.cpu_ns as f64 / 1e6);
        self.analysis_cpu_ms.push(analysis_cost.cpu_ns as f64 / 1e6);
        self.iteration_cpu_ms.push(cost.cpu_ns as f64 / 1e6);
        self.cost.add(cost);
    }
}

/// The `sim_events` carried by every report of the journal under `dir`.
fn served_events(dir: &Path) -> f64 {
    let cache = SweepCache::open_read_only(dir).expect("merged journal opens read-only");
    cache
        .keys()
        .iter()
        .filter_map(|key| cache.get(key))
        .map(|r| r.counter("sim_events").unwrap_or(0.0))
        .sum()
}

/// Runs rounds 0 and 1 of the workload's first point at [`DEFAULT_SEED`]
/// and checks their report bytes against [`REFERENCE`].
pub fn reference_probe(kind: Kind, tally: &mut Tally) {
    for (round, hash) in reference_hashes(kind).into_iter().enumerate() {
        let expected = REFERENCE.iter().find(|(k, _)| *k == kind).map(|(_, h)| h[round]);
        tally.record(match hash {
            Err(problem) => Some(problem),
            Ok(hash) if Some(hash) != expected => Some(format!(
                "reference round {round} of {}: report hash {hash:#018x}, expected {:#018x}",
                kind.name(),
                expected.unwrap_or(0)
            )),
            Ok(_) => None,
        });
    }
}

/// The report hashes of rounds 0 and 1 of the workload's first point at
/// [`DEFAULT_SEED`].
pub fn reference_hashes(kind: Kind) -> Vec<Result<u64, String>> {
    let plan = World::build(kind, DEFAULT_SEED).plan();
    let run = plan.runs[0].as_ref();
    (0..2)
        .map(|round| {
            let report = guarded_round(run, round, round_seed(plan.seeds[0], round))?;
            match round_problem(&report, None) {
                Some(problem) => Err(problem),
                None => Ok(report_hash(&report)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    use sim_core::SimTime;
    use vanet_scenarios::{Param, ParamValue, Scenario, SweepPoint, UrbanScenario};
    use vanet_stats::{PointSummary, RoundResult};
    use vanet_trace::TraceRecord;

    /// A two-round fake whose misbehaviour is chosen per test.
    #[derive(Default)]
    struct Fake {
        panics: bool,
        /// Added to `sim_events` on every call, so repeated rounds differ.
        drift: u64,
        calls: AtomicU64,
        events: f64,
        traced_differs: bool,
        trace_goes_backwards: bool,
    }

    impl ScenarioRun for Fake {
        fn rounds(&self) -> u32 {
            2
        }

        fn run_round(&self, round: u32, seed: u64) -> RoundReport {
            assert!(!self.panics, "the fake round panics");
            let call = self.calls.fetch_add(1, Ordering::Relaxed);
            RoundReport::new(round, seed, RoundResult::default())
                .with_counter("sim_events", self.events + (call * self.drift) as f64)
        }

        fn aggregate(&self, _rounds: &[RoundReport]) -> PointSummary {
            PointSummary { metrics: Vec::new() }
        }

        fn run_round_traced(&self, round: u32, seed: u64) -> (RoundReport, Vec<TraceRecord>) {
            let mut report = self.run_round(round, seed);
            if self.traced_differs {
                report = report.with_counter("traced_only", 1.0);
            }
            let mut records =
                vec![TraceRecord::EventDispatched { at: SimTime::from_millis(5), queue_depth: 0 }];
            if self.trace_goes_backwards {
                records.push(TraceRecord::EventDispatched {
                    at: SimTime::from_millis(1),
                    queue_depth: 0,
                });
            }
            (report, records)
        }
    }

    fn plan_of(fake: Fake) -> SweepPlan {
        SweepPlan {
            points: vec![SweepPoint::empty()],
            canonicals: vec!["fake".into()],
            seeds: vec![1],
            runs: vec![Box::new(fake)],
            fingerprint: 0,
        }
    }

    fn sim_failures(fake: Fake, passes: usize) -> (Tally, SimLeg) {
        let plan = plan_of(fake);
        let mut tally = Tally::default();
        let mut leg = SimLeg::default();
        for _ in 0..passes {
            leg.step(Kind::GridCity, &plan, &mut tally);
        }
        (tally, leg)
    }

    #[test]
    fn a_clean_leg_fails_nothing() {
        let (tally, leg) = sim_failures(Fake { events: 10.0, ..Fake::default() }, 3);
        let passes = leg.pass_cpu_ms.len() as u64;
        assert!(passes >= 2, "the budget allows repeated passes");
        assert_eq!(tally.failed, 0, "{:?}", tally.failures);
        assert_eq!(tally.attempted, passes * leg.pass_rounds);
        assert_eq!((leg.pass_events, leg.reports.len()), (20.0, 2));
    }

    #[test]
    fn a_panicking_round_fails() {
        let (tally, _) = sim_failures(Fake { panics: true, ..Fake::default() }, 1);
        assert_eq!((tally.attempted, tally.failed), (2, 2));
        assert!(tally.failures[0].contains("panicked"));
    }

    #[test]
    fn a_round_that_changes_between_passes_fails() {
        let (tally, leg) = sim_failures(Fake { drift: 1, ..Fake::default() }, 3);
        assert!(leg.pass_cpu_ms.len() >= 2);
        assert_eq!(tally.failed, tally.attempted - 2, "every repeat differs from the first pass");
        assert!(tally.failures[0].contains("differ from the reference"));
    }

    #[test]
    fn a_round_at_the_event_budget_fails() {
        let (tally, _) = sim_failures(Fake { events: EVENT_BUDGET, ..Fake::default() }, 1);
        assert_eq!(tally.failed, 2);
        assert!(tally.failures[0].contains("event budget"));
    }

    #[test]
    fn round_times_are_scaled_to_the_fast_pass() {
        assert_eq!(scaled_to_fast_pass(&[1.0, 2.0, 2.0, 4.0], 2), [1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn reference_mismatches_fail() {
        let report = RoundReport::new(0, 1, RoundResult::default());
        assert_eq!(round_problem(&report, Some(report_hash(&report))), None);
        assert!(round_problem(&report, Some(report_hash(&report) ^ 1)).is_some());
    }

    #[test]
    fn traced_reports_that_differ_and_verify_violations_fail() {
        for (fake, expect) in [
            (Fake::default(), None),
            (Fake { traced_differs: true, ..Fake::default() }, Some("differs from the untraced")),
            (Fake { trace_goes_backwards: true, ..Fake::default() }, Some("invariant violation")),
        ] {
            let plan = plan_of(fake);
            let untraced: Vec<u64> = items(&plan)
                .iter()
                .map(|i| report_hash(&plan.runs[0].run_round(i.round, i.seed)))
                .collect();
            let mut tally = Tally::default();
            TracedLeg::default().step(&plan, &untraced, &mut tally);
            assert_eq!(tally.attempted, 2);
            match expect {
                None => assert_eq!(tally.failed, 0, "{:?}", tally.failures),
                Some(what) => {
                    assert_eq!(tally.failed, 2);
                    assert!(tally.failures[0].contains(what), "{:?}", tally.failures);
                }
            }
        }
    }

    #[test]
    fn warm_reads_that_simulate_or_differ_fail() {
        let clean = || ReadOutput {
            sweep_export: "s".into(),
            analysis_export: "a".into(),
            sweep_simulated: 0,
            sweep_served: 4,
            analysis_simulated: 0,
            analysis_served: 4,
        };
        assert_eq!(read_problem(&clean(), "s", "a"), None);
        let simulated = ReadOutput { sweep_simulated: 1, ..clean() };
        assert!(read_problem(&simulated, "s", "a").unwrap().contains("simulated"));
        let traced = ReadOutput { analysis_simulated: 1, ..clean() };
        assert!(read_problem(&traced, "s", "a").unwrap().contains("simulated"));
        assert!(read_problem(&clean(), "cold", "a").unwrap().contains("sweep export"));
        assert!(read_problem(&clean(), "s", "cold").unwrap().contains("analysis export"));
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulates full rounds; run with --release")]
    fn the_reference_rounds_match_at_head() {
        for kind in Kind::ALL {
            let mut tally = Tally::default();
            reference_probe(kind, &mut tally);
            assert_eq!((tally.attempted, tally.failed), (2, 0), "{kind:?}: {:?}", tally.failures);
        }
    }

    /// Urban platoons of 24 cars run into the 5M-event budget (about 5M
    /// `csma_deferred` records per round); release builds only notice
    /// through this detector, because the simulator's own check is a
    /// `debug_assert`.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "a 5M-event round; run with --release")]
    fn the_event_budget_detector_fires_on_a_24_car_urban_round() {
        let scenario = UrbanScenario::paper_testbed();
        let point = SweepPoint::new(vec![(Param::NCars, ParamValue::Int(24))]);
        let run = scenario.configure(&point).expect("24 cars is within the schema");
        let report = guarded_round(run.as_ref(), 0, round_seed(DEFAULT_SEED, 0)).expect("no panic");
        assert!(budget_exhausted(&report), "sim_events = {:?}", report.counter("sim_events"));
        assert!(round_problem(&report, None).unwrap().contains("event budget"));
    }
}
