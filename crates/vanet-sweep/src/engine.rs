//! The point executor every engine runs on, the sweep engine and its
//! result type.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::RngCore as _;
use sim_core::StreamRng;
use vanet_cache::{CacheError, CacheKey, Journal, RecordCodec, SweepCache};
use vanet_scenarios::{served_prefix, walk_rounds, worker_threads};
use vanet_scenarios::{ParamError, Scenario, ScenarioRun};
use vanet_stats::{CellValue, PointSummary, RecordTable, RoundReport};

use crate::spec::{SweepPoint, SweepSpec};

/// Derives the seed of the sweep point whose canonical configuration is
/// `canonical_config` (see `ParamSchema::canonical_config`).
///
/// The seed is a pure function of `(master_seed, canonical configuration)` —
/// **not** of the point's position in the grid and not of the thread that
/// executes it. Content addressing is what makes sweeps resumable: widening
/// an axis, appending points, deleting half the spec or re-spelling a point
/// with its defaults written out leaves every unchanged configuration with
/// unchanged seeds, so its rounds reproduce exactly and the round cache
/// hits. Two points that resolve to the same canonical configuration (for
/// example a multi-AP download swept only over its round-neutral file size)
/// deliberately share their seeds — their per-round physics is identical.
///
/// The derivation goes through a dedicated [`StreamRng`] label namespace
/// (`"sweep.point/"`), so point seeds stay uncorrelated with the per-round
/// seeds derived from them ([`vanet_scenarios::round_seed`]). The full
/// chain is `(master seed, canonical config, round) → round seed`.
pub fn point_seed(master_seed: u64, canonical_config: &str) -> u64 {
    StreamRng::derive(master_seed, format!("sweep.point/{canonical_config}")).next_u64()
}

/// Why a sweep could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The spec expanded to no points.
    EmptySweep,
    /// A point failed the scenario's schema validation.
    Param {
        /// Index of the offending point in the expansion.
        point: usize,
        /// The point's `key=value` label.
        label: String,
        /// The underlying schema error (which names the scenario).
        source: ParamError,
    },
    /// A journal failed while the sweep or analysis ran (write-back I/O
    /// error).
    Cache {
        /// The scenario whose sweep hit the failure.
        scenario: String,
        /// The rendered cache error, including the journal path.
        message: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::EmptySweep => f.write_str("cannot run an empty sweep"),
            SweepError::Param { point, label, source } => {
                write!(f, "point {point} ({label}): {source}")
            }
            SweepError::Cache { scenario, message } => {
                write!(f, "scenario `{scenario}`: {message}")
            }
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Param { source, .. } => Some(source),
            SweepError::EmptySweep | SweepError::Cache { .. } => None,
        }
    }
}

/// The validated, seeded expansion of a sweep spec against a scenario:
/// every point with its canonical configuration, content-addressed seed and
/// configured run, in expansion order.
///
/// This is the addressing layer the executor runs on, split out so other
/// consumers — the trace-driven analysis engine in `vanet-analysis`, most
/// importantly — can walk the *same* `(point, canonical, seed, run)` tuples
/// the sweep would, and therefore share its cache keys and reproduce its
/// rounds bit for bit.
pub struct SweepPlan {
    /// The expanded points, in expansion order.
    pub points: Vec<SweepPoint>,
    /// Each point's canonical configuration string (see
    /// `ParamSchema::canonical_config`), aligned with `points`.
    pub canonicals: Vec<String>,
    /// Each point's content-addressed seed (see [`point_seed`]), aligned
    /// with `points`.
    pub seeds: Vec<u64>,
    /// Each point's configured (and thereby validated) run, aligned with
    /// `points`.
    pub runs: Vec<Box<dyn ScenarioRun>>,
    /// The scenario schema fingerprint that cache keys embed.
    pub fingerprint: u64,
}

impl fmt::Debug for SweepPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepPlan")
            .field("points", &self.points)
            .field("canonicals", &self.canonicals)
            .field("seeds", &self.seeds)
            .field("runs", &format_args!("<{} configured run(s)>", self.runs.len()))
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

impl SweepPlan {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the plan has no points (never true — planning an empty spec
    /// errors instead).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The cache key addressing round `round` of point `index`: the one
    /// place a round's key is derived, so every executor, probe and journal
    /// writer addresses the same entries.
    pub fn cache_key(&self, scenario: &str, index: usize, round: u32, round_seed: u64) -> CacheKey {
        CacheKey::new(scenario, self.fingerprint, &self.canonicals[index], round, round_seed)
    }
}

/// Expands, validates and seeds `spec` against `scenario` without running
/// anything — the shared front half of [`SweepEngine::run`].
///
/// # Errors
///
/// [`SweepError::EmptySweep`] when the spec has no points;
/// [`SweepError::Param`] when a point fails schema validation.
pub fn plan(
    scenario: &dyn Scenario,
    spec: &SweepSpec,
    allow_unknown: bool,
) -> Result<SweepPlan, SweepError> {
    let points = spec.expand();
    if points.is_empty() {
        return Err(SweepError::EmptySweep);
    }
    // Content-addressed seeds: a point's seed follows its canonical
    // configuration, not its grid position, so spec edits never invalidate
    // unchanged points (see `point_seed`).
    let schema = scenario.schema();
    let fingerprint = schema.fingerprint();
    let canonicals: Vec<String> =
        points.iter().map(|point| schema.canonical_config(point)).collect();
    let seeds: Vec<u64> =
        canonicals.iter().map(|canon| point_seed(spec.master_seed, canon)).collect();

    // Configure (and thereby validate) every point up front.
    let runs: Vec<Box<dyn ScenarioRun>> = points
        .iter()
        .enumerate()
        .map(|(index, point)| {
            let effective = if allow_unknown { schema.strip_unknown(point) } else { point.clone() };
            scenario.configure(&effective).map_err(|source| SweepError::Param {
                point: index,
                label: point.label(),
                source,
            })
        })
        .collect::<Result<_, _>>()?;

    Ok(SweepPlan { points, canonicals, seeds, runs, fingerprint })
}

/// The instance-specific half of [`walk_points`]: which rounds a point
/// walks, when it may stop early, what a fresh round yields and what a
/// walked point folds into. The sweep folds each point's reports into its
/// metric row, the analysis engine in `vanet-analysis` keeps each point's
/// digests, and a fleet worker keeps nothing (its journal is the output).
pub trait PointWork: Sync {
    /// What one round yields: its report, or a digest of its trace.
    type Product: Send;
    /// What one walked point folds into.
    type Fold: Send;

    /// The rounds point `index` walks; by default its whole budget.
    fn rounds(&self, index: usize, run: &dyn ScenarioRun) -> Range<u32> {
        let _ = index;
        0..run.rounds()
    }

    /// Whether the products of point `index`'s rounds so far (never none)
    /// settle it; by default never.
    fn settled(&self, index: usize, run: &dyn ScenarioRun, so_far: &[Self::Product]) -> bool {
        let _ = (index, run, so_far);
        false
    }

    /// Yields round `round` fresh from its seed.
    fn produce(&self, run: &dyn ScenarioRun, round: u32, seed: u64) -> Self::Product;

    /// Folds a walked point's products, in round order.
    fn fold(&self, run: &dyn ScenarioRun, products: Vec<Self::Product>) -> Self::Fold;
}

/// What [`walk_points`] returns.
#[derive(Debug)]
pub struct Walked<T> {
    /// Each point's fold, in expansion order.
    pub folds: Vec<T>,
    /// Rounds produced fresh.
    pub rounds_simulated: usize,
    /// Rounds served from the journal.
    pub rounds_cached: usize,
}

/// The point executor behind every engine: walks each point of `plan`
/// through [`walk_rounds`] against `journal` and folds it with `work`.
///
/// Workers pull point indices from a shared counter, so load balances
/// across points however uneven their cost; when the plan has fewer points
/// than `threads` (`0` = one per available CPU), the leftover budget goes
/// inside each point as the walker's wave width. A point folds as soon as
/// its walk ends, into its own slot, so the output is in expansion order
/// whatever the completion order.
///
/// Rounds are served from the journal under [`SweepPlan::cache_key`], and
/// fresh ones written back wave by wave. The fault layer's hooks fire
/// here: [`vanet_faults::round_start`] before every fresh round,
/// [`vanet_faults::round_done`] after every round served or produced.
///
/// # Errors
///
/// [`SweepError::Cache`] when the journal fails to persist a fresh product.
pub fn walk_points<W: PointWork, C: RecordCodec<Value = W::Product>>(
    scenario: &str,
    plan: &SweepPlan,
    threads: usize,
    journal: Option<&Journal<C>>,
    work: &W,
) -> Result<Walked<W::Fold>, SweepError> {
    // Split the thread budget: as many point workers as there are points
    // to keep busy, the rest of the budget parallelising rounds within
    // each point. The ceiling division hands the remainder to the round
    // level (5 points on 8 threads → 2 round workers each, briefly 10 live
    // threads) rather than leaving it idle. The split affects wall-clock
    // only — never results.
    let threads = worker_threads(threads);
    let outer = threads.min(plan.len()).max(1);
    let inner = threads.div_ceil(outer);
    let next = AtomicUsize::new(0);
    let simulated = AtomicUsize::new(0);
    let served = AtomicUsize::new(0);
    let failure: Mutex<Option<CacheError>> = Mutex::new(None);
    let slots: Vec<Mutex<Option<W::Fold>>> = plan.runs.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..outer {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(run) = plan.runs.get(index) else { break };
                let run = run.as_ref();
                let key = |round, seed| plan.cache_key(scenario, index, round, seed);
                let walked = walk_rounds(
                    work.rounds(index, run),
                    plan.seeds[index],
                    inner,
                    &|so_far| work.settled(index, run, so_far),
                    &|round, seed| {
                        let hit = journal?.get(&key(round, seed));
                        if hit.is_some() {
                            vanet_faults::round_done();
                        }
                        hit
                    },
                    &|round, seed| {
                        vanet_faults::round_start();
                        let product = work.produce(run, round, seed);
                        vanet_faults::round_done();
                        product
                    },
                    // A failed append must surface: a "resumable" run that
                    // silently persisted nothing is worse than an error.
                    &mut |round, seed, product| match journal {
                        Some(journal) => journal.put(&key(round, seed), product).map(drop),
                        None => Ok(()),
                    },
                );
                match walked {
                    Ok((products, fresh)) => {
                        simulated.fetch_add(fresh, Ordering::Relaxed);
                        served.fetch_add(products.len() - fresh, Ordering::Relaxed);
                        let fold = work.fold(run, products);
                        *slots[index].lock().expect("point slot poisoned") = Some(fold);
                    }
                    Err(e) => {
                        failure.lock().expect("failure slot poisoned").get_or_insert(e);
                        break;
                    }
                }
            });
        }
    });

    if let Some(e) = failure.into_inner().expect("failure slot poisoned") {
        return Err(SweepError::Cache { scenario: scenario.to_string(), message: e.to_string() });
    }
    let folds = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().expect("point slot poisoned").expect("every point was walked")
        })
        .collect();
    Ok(Walked {
        folds,
        rounds_simulated: simulated.into_inner(),
        rounds_cached: served.into_inner(),
    })
}

/// Whether [`walk_points`] with `work` against `journal` would simulate any
/// round of point `index` — the coverage probe behind warm-re-run
/// pre-filtering. It serves and simulates nothing.
pub fn would_simulate<W: PointWork, C: RecordCodec<Value = W::Product>>(
    scenario: &str,
    plan: &SweepPlan,
    index: usize,
    journal: &Journal<C>,
    work: &W,
) -> bool {
    let run = plan.runs[index].as_ref();
    let (_, pending) = served_prefix(
        work.rounds(index, run),
        plan.seeds[index],
        &|so_far| work.settled(index, run, so_far),
        &|round, seed| journal.get(&plan.cache_key(scenario, index, round, seed)),
    );
    pending
}

/// The sweep's point work: whole budgets, settling, each point folded into
/// its metric row as soon as its walk ends (so a worker holds one point's
/// reports at a time).
struct Aggregate;

impl PointWork for Aggregate {
    type Product = RoundReport;
    type Fold = PointSummary;

    fn settled(&self, _index: usize, run: &dyn ScenarioRun, so_far: &[RoundReport]) -> bool {
        run.is_settled(so_far)
    }

    fn produce(&self, run: &dyn ScenarioRun, round: u32, seed: u64) -> RoundReport {
        run.run_round(round, seed)
    }

    fn fold(&self, run: &dyn ScenarioRun, reports: Vec<RoundReport>) -> PointSummary {
        run.aggregate(&reports)
    }
}

/// The work-sharing parallel sweep executor: [`walk_points`] over the round
/// cache, folding each point with [`ScenarioRun::aggregate`].
///
/// The engine parallelises at two levels from one thread budget: across
/// points, and, when the sweep has fewer points than threads, across the
/// rounds **inside** each point (see [`vanet_scenarios::walk_rounds`]).
/// Results land in their point's slot, so the output order is the spec's
/// expansion order, not completion order — and because every round's seed
/// is a pure function of `(master seed, canonical configuration, round)`,
/// exports are byte-identical at any thread count.
#[derive(Debug, Clone)]
pub struct SweepEngine {
    threads: usize,
    allow_unknown: bool,
    cache: Option<Arc<SweepCache>>,
}

impl SweepEngine {
    /// Creates an engine running `threads` workers; `0` means one per
    /// available CPU.
    pub fn new(threads: usize) -> Self {
        SweepEngine { threads: worker_threads(threads), allow_unknown: false, cache: None }
    }

    /// Silently drops sweep parameters the scenario's schema does not
    /// declare instead of failing validation — the escape hatch for driving
    /// scenarios that consume different subsets from one spec.
    #[must_use]
    pub fn with_allow_unknown(mut self, allow: bool) -> Self {
        self.allow_unknown = allow;
        self
    }

    /// Attaches a persistent round cache: cached rounds are served, only
    /// the missing ones simulate, and fresh reports are written back wave
    /// by wave — so re-running an identical spec simulates nothing, a
    /// widened grid or raised round budget simulates only the delta, and a
    /// killed sweep resumes, losing at most one in-flight wave per point.
    /// Exports are byte-identical with and without the cache, at any thread
    /// count.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<SweepCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The worker count this engine uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every point of `spec` through `scenario` and collects the
    /// results in expansion order.
    ///
    /// Every point is validated against the scenario's schema (and
    /// configured) **before** anything runs, so a typo in one point fails
    /// the sweep fast instead of after hours of simulation.
    ///
    /// # Errors
    ///
    /// [`SweepError::EmptySweep`] when the spec has no points;
    /// [`SweepError::Param`] when a point fails schema validation;
    /// [`SweepError::Cache`] when an attached cache fails to persist
    /// results.
    ///
    /// # Panics
    ///
    /// Panics if the scenario reports different metric names for different
    /// points (a scenario implementation bug).
    pub fn run(
        &self,
        scenario: &dyn Scenario,
        spec: &SweepSpec,
    ) -> Result<SweepResult, SweepError> {
        let plan = plan(scenario, spec, self.allow_unknown)?;
        let started = Instant::now();
        let walked =
            walk_points(scenario.name(), &plan, self.threads, self.cache.as_deref(), &Aggregate)?;
        let summaries = walked.folds;
        let reference = summaries[0].names();
        for (i, summary) in summaries.iter().enumerate() {
            assert_eq!(
                summary.names(),
                reference,
                "scenario reported inconsistent metrics at point {i}"
            );
        }

        let SweepPlan { points, seeds, .. } = plan;
        Ok(SweepResult {
            scenario: scenario.name().to_string(),
            master_seed: spec.master_seed,
            threads: self.threads,
            elapsed: started.elapsed(),
            rounds_simulated: walked.rounds_simulated,
            rounds_cached: walked.rounds_cached,
            points,
            seeds,
            summaries,
        })
    }
}

impl Default for SweepEngine {
    fn default() -> Self {
        SweepEngine::new(0)
    }
}

/// The outcome of a sweep: the expanded points, their derived seeds and
/// their metric rows, in expansion order.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Name of the scenario that ran.
    pub scenario: String,
    /// The master seed the sweep ran with.
    pub master_seed: u64,
    /// Worker count used.
    pub threads: usize,
    /// Wall-clock time of the whole sweep.
    pub elapsed: Duration,
    /// Rounds that were actually simulated (i.e. `run_round` calls made).
    /// A re-run of an identical spec against a warm cache reports 0 here.
    pub rounds_simulated: usize,
    /// Rounds served from the attached cache (always 0 without one).
    ///
    /// Like `elapsed` and `threads`, these two are provenance, not results:
    /// they depend on cache state and deliberately stay out of
    /// [`SweepResult::to_table`] so exports are reproducible byte for byte.
    pub rounds_cached: usize,
    /// The points, in expansion order.
    pub points: Vec<SweepPoint>,
    /// The per-point seeds, aligned with `points`.
    pub seeds: Vec<u64>,
    /// The per-point metric rows, aligned with `points`.
    pub summaries: Vec<PointSummary>,
}

impl SweepResult {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the sweep had no points (never true for an executed sweep).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Points executed per wall-clock second.
    pub fn points_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.len() as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Converts the result into a [`RecordTable`]: one row per point with
    /// `scenario`, `point`, `seed`, one column per swept parameter, and one
    /// column per metric (see [`point_table`]).
    ///
    /// Wall-clock data (`elapsed`, `threads`) deliberately stays out of the
    /// table so exports are reproducible byte for byte.
    pub fn to_table(&self) -> RecordTable {
        let metrics = self.summaries.first().map(PointSummary::names).unwrap_or_default();
        point_table(&self.scenario, &self.points, &self.seeds, &metrics, |index, row| {
            row.extend(self.summaries[index].metrics.iter().map(|&(_, x)| CellValue::Float(x)));
        })
    }

    /// Renders the result as CSV.
    pub fn to_csv(&self) -> String {
        self.to_table().to_csv()
    }

    /// Renders the result as JSON.
    pub fn to_json(&self) -> String {
        self.to_table().to_json()
    }
}

/// The layout every per-point export shares: one row per point with
/// `scenario`, `point`, `seed`, one column per swept parameter, then one
/// column per name in `metrics`, whose cells `cells(index, row)` appends.
///
/// The parameter columns are the union over all points in first-seen
/// order, so explicit extra points that assign fewer parameters still
/// align (their missing cells stay empty). Seeds render as hex text: they
/// can exceed `i64::MAX`, which the integer cell type would saturate (and
/// collide) at.
pub fn point_table(
    scenario: &str,
    points: &[SweepPoint],
    seeds: &[u64],
    metrics: &[&str],
    mut cells: impl FnMut(usize, &mut Vec<CellValue>),
) -> RecordTable {
    let mut params: Vec<crate::Param> = Vec::new();
    for point in points {
        for (param, _) in point.assignments() {
            if !params.contains(param) {
                params.push(*param);
            }
        }
    }
    let mut columns: Vec<String> = vec!["scenario".into(), "point".into(), "seed".into()];
    columns.extend(params.iter().map(|p| p.key().to_string()));
    columns.extend(metrics.iter().map(|name| (*name).to_string()));

    let mut table = RecordTable::new(columns);
    for (index, point) in points.iter().enumerate() {
        let mut row: Vec<CellValue> =
            vec![scenario.into(), index.into(), format!("{:#018x}", seeds[index]).into()];
        for param in &params {
            row.push(point.get(*param).map_or_else(|| "".into(), CellValue::from));
        }
        cells(index, &mut row);
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Param, ParamValue};
    use vanet_scenarios::{ParamSchema, ParamSpec};
    use vanet_stats::RoundReport;

    /// A cheap fake scenario: metrics are pure functions of the point and
    /// seed, with a per-point artificial imbalance in runtime.
    struct FakeScenario {
        schema: ParamSchema,
    }

    impl FakeScenario {
        fn new() -> Self {
            FakeScenario {
                schema: ParamSchema::new(
                    "fake",
                    vec![
                        ParamSpec::float(Param::SpeedKmh, "speed", 0.0, 0.0, 1_000.0),
                        ParamSpec::int(Param::NCars, "cars", 0, 0, 1_000),
                    ],
                ),
            }
        }
    }

    struct FakeRun {
        x: f64,
        n: u64,
    }

    impl Scenario for FakeScenario {
        fn name(&self) -> &'static str {
            "fake"
        }

        fn description(&self) -> &'static str {
            "fake"
        }

        fn schema(&self) -> &ParamSchema {
            &self.schema
        }

        fn configure(&self, point: &SweepPoint) -> Result<Box<dyn ScenarioRun>, ParamError> {
            self.schema.validate(point)?;
            Ok(Box::new(FakeRun {
                x: point.get(Param::SpeedKmh).and_then(|v| v.as_f64()).unwrap_or(0.0),
                n: point.get(Param::NCars).and_then(|v| v.as_u64()).unwrap_or(0),
            }))
        }
    }

    impl ScenarioRun for FakeRun {
        fn rounds(&self) -> u32 {
            2
        }

        fn run_round(&self, round: u32, seed: u64) -> RoundReport {
            // Uneven cost exercises the dynamic load balancing.
            std::thread::sleep(std::time::Duration::from_millis(self.n % 3));
            RoundReport::new(round, seed, vanet_stats::RoundResult::default())
                .with_counter("seed_low", (seed % 1000) as f64)
        }

        fn aggregate(&self, rounds: &[RoundReport]) -> PointSummary {
            PointSummary {
                metrics: vec![
                    ("x_plus_n", self.x + self.n as f64),
                    ("seed_low_sum", vanet_stats::counter_total(rounds, "seed_low")),
                ],
            }
        }
    }

    fn spec() -> SweepSpec {
        SweepSpec::new(0xABCD)
            .axis(Param::SpeedKmh, vec![ParamValue::Float(10.0), ParamValue::Float(20.0)])
            .axis(Param::NCars, vec![ParamValue::Int(1), ParamValue::Int(2), ParamValue::Int(3)])
    }

    #[test]
    fn point_seeds_depend_only_on_master_seed_and_canonical_config() {
        let canon_a = "scenario=fake;speed_kmh=f4024000000000000";
        let canon_b = "scenario=fake;speed_kmh=f4034000000000000";
        assert_eq!(point_seed(1, canon_a), point_seed(1, canon_a));
        assert_ne!(point_seed(1, canon_a), point_seed(1, canon_b));
        assert_ne!(point_seed(1, canon_a), point_seed(2, canon_a));
    }

    #[test]
    fn an_integer_speed_is_the_same_urban_point_as_its_float() {
        // `speed_kmh` is a float; an integer for it runs the same physics,
        // so it must get the same canonical configuration and point seed.
        use vanet_scenarios::{Scenario, SweepPoint, UrbanScenario};
        let urban = UrbanScenario::paper_testbed();
        let canonical = |value| {
            let point = SweepPoint::new(vec![(Param::SpeedKmh, value)]);
            urban.schema().canonical_config(&point)
        };
        let (int, float) = (canonical(ParamValue::Int(30)), canonical(ParamValue::Float(30.0)));
        assert_eq!(int, float);
        assert!(float.contains(";speed_kmh=f403e000000000000"), "{float}");
        assert_eq!(point_seed(0x2008_1cdc, &int), point_seed(0x2008_1cdc, &float));
    }

    #[test]
    fn equal_configs_share_seeds_across_grid_positions() {
        // The same configuration at a different position in a different
        // spec keeps its seed — the property that makes widened and
        // reordered grids resumable.
        let scenario = FakeScenario::new();
        let narrow = SweepSpec::new(5)
            .axis(Param::SpeedKmh, vec![ParamValue::Float(10.0), ParamValue::Float(20.0)])
            .axis(Param::NCars, vec![ParamValue::Int(1)]);
        let widened = SweepSpec::new(5)
            .axis(
                Param::SpeedKmh,
                vec![ParamValue::Float(5.0), ParamValue::Float(10.0), ParamValue::Float(20.0)],
            )
            .axis(Param::NCars, vec![ParamValue::Int(1), ParamValue::Int(2)]);
        let a = SweepEngine::new(2).run(&scenario, &narrow).unwrap();
        let b = SweepEngine::new(2).run(&scenario, &widened).unwrap();
        for (i, point) in a.points.iter().enumerate() {
            let pos = b.points.iter().position(|p| p == point).expect("widened keeps the point");
            assert_eq!(b.seeds[pos], a.seeds[i], "seed moved for {}", point.label());
            assert_eq!(b.summaries[pos], a.summaries[i], "results moved for {}", point.label());
        }
    }

    #[test]
    fn engine_resolves_zero_threads_to_available_parallelism() {
        assert!(SweepEngine::new(0).threads() >= 1);
        assert_eq!(SweepEngine::new(3).threads(), 3);
        assert!(SweepEngine::default().threads() >= 1);
    }

    #[test]
    fn results_are_in_expansion_order_and_thread_count_independent() {
        let scenario = FakeScenario::new();
        let spec = spec();
        let serial = SweepEngine::new(1).run(&scenario, &spec).unwrap();
        let parallel = SweepEngine::new(4).run(&scenario, &spec).unwrap();
        let wide = SweepEngine::new(16).run(&scenario, &spec).unwrap();
        assert_eq!(serial.len(), 6);
        assert_eq!(serial.points, parallel.points);
        assert_eq!(serial.summaries, parallel.summaries);
        assert_eq!(serial.summaries, wide.summaries);
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(serial.to_csv(), wide.to_csv());
        assert_eq!(serial.to_json(), parallel.to_json());
    }

    #[test]
    fn table_has_param_and_metric_columns() {
        let result = SweepEngine::new(2).run(&FakeScenario::new(), &spec()).unwrap();
        let table = result.to_table();
        assert_eq!(
            table.columns(),
            &["scenario", "point", "seed", "speed_kmh", "n_cars", "x_plus_n", "seed_low_sum"]
        );
        assert_eq!(table.rows().len(), 6);
        let csv = result.to_csv();
        assert!(csv.starts_with("scenario,point,seed,speed_kmh,n_cars,x_plus_n,seed_low_sum\n"));
        assert!(csv.contains("fake,0,0x"), "seeds export as hex text: {csv}");
        assert!(result.points_per_second() > 0.0);
        assert!(!result.is_empty());
        // Hex rendering is lossless, so per-point seeds stay distinct.
        let seed_cells: std::collections::BTreeSet<&str> =
            csv.lines().skip(1).map(|line| line.split(',').nth(2).unwrap()).collect();
        assert_eq!(seed_cells.len(), 6);
    }

    #[test]
    fn explicit_points_missing_a_param_export_empty_cells() {
        let spec = SweepSpec::new(9)
            .axis(Param::SpeedKmh, vec![ParamValue::Float(10.0)])
            .axis(Param::NCars, vec![ParamValue::Int(2)])
            .point(SweepPoint::new(vec![(Param::SpeedKmh, ParamValue::Float(99.0))]));
        let result = SweepEngine::new(2).run(&FakeScenario::new(), &spec).unwrap();
        let csv = result.to_csv();
        let last_row = csv.lines().last().unwrap();
        assert!(last_row.starts_with("fake,1,"));
        assert!(
            last_row.contains(",99.000000,,"),
            "missing n_cars must export as empty: {last_row}"
        );
    }

    fn temp_cache(tag: &str) -> (std::path::PathBuf, Arc<SweepCache>) {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vanet-sweep-cache-test-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        let cache = Arc::new(SweepCache::open(&dir).expect("cache opens"));
        (dir, cache)
    }

    #[test]
    fn warm_cache_re_run_simulates_nothing() {
        let scenario = FakeScenario::new();
        let spec = spec();
        let reference = SweepEngine::new(2).run(&scenario, &spec).unwrap();
        assert_eq!(reference.rounds_simulated, 12, "6 points x 2 rounds, no cache");
        assert_eq!(reference.rounds_cached, 0);

        let (dir, cache) = temp_cache("warm");
        let cold = SweepEngine::new(2).with_cache(cache.clone()).run(&scenario, &spec).unwrap();
        assert_eq!(cold.rounds_simulated, 12);
        assert_eq!(cold.rounds_cached, 0);
        assert_eq!(cold.to_csv(), reference.to_csv(), "cold cache must not change exports");
        assert_eq!(cache.len(), 12);

        // The acceptance bar: a second identical run makes zero run_round
        // calls, with byte-identical exports — at 1 and 8 threads.
        for threads in [1, 2, 8] {
            let warm =
                SweepEngine::new(threads).with_cache(cache.clone()).run(&scenario, &spec).unwrap();
            assert_eq!(warm.rounds_simulated, 0, "warm run at {threads} threads simulated");
            assert_eq!(warm.rounds_cached, 12);
            assert_eq!(warm.to_csv(), reference.to_csv());
            assert_eq!(warm.to_json(), reference.to_json());
        }

        // A reopened cache (fresh process) serves the same entries.
        drop(cache);
        let reopened = Arc::new(SweepCache::open(&dir).unwrap());
        let resumed = SweepEngine::new(4).with_cache(reopened).run(&scenario, &spec).unwrap();
        assert_eq!(resumed.rounds_simulated, 0);
        assert_eq!(resumed.to_csv(), reference.to_csv());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn widened_grid_simulates_only_the_delta() {
        let scenario = FakeScenario::new();
        let (dir, cache) = temp_cache("widen");
        let narrow = spec();
        SweepEngine::new(2).with_cache(cache.clone()).run(&scenario, &narrow).unwrap();

        // Widen the speed axis: 3 new points (x 2 rounds) on top of the 6.
        let widened = SweepSpec::new(0xABCD)
            .axis(
                Param::SpeedKmh,
                vec![ParamValue::Float(10.0), ParamValue::Float(20.0), ParamValue::Float(30.0)],
            )
            .axis(Param::NCars, vec![ParamValue::Int(1), ParamValue::Int(2), ParamValue::Int(3)]);
        let delta = SweepEngine::new(2).with_cache(cache.clone()).run(&scenario, &widened).unwrap();
        assert_eq!(delta.rounds_simulated, 6, "only the 3 new points simulate");
        assert_eq!(delta.rounds_cached, 12);
        let uncached = SweepEngine::new(1).run(&scenario, &widened).unwrap();
        assert_eq!(delta.to_csv(), uncached.to_csv(), "resumed export equals a fresh one");

        // Deleting points and re-running what remains is all hits too.
        let shrunk = SweepSpec::new(0xABCD)
            .axis(Param::SpeedKmh, vec![ParamValue::Float(30.0)])
            .axis(Param::NCars, vec![ParamValue::Int(3), ParamValue::Int(1)]);
        let shrunk_run =
            SweepEngine::new(2).with_cache(cache.clone()).run(&scenario, &shrunk).unwrap();
        assert_eq!(shrunk_run.rounds_simulated, 0, "reordered survivors still hit");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn half_populated_cache_fills_in_and_exports_identically() {
        let scenario = FakeScenario::new();
        let spec = spec();
        let reference = SweepEngine::new(1).run(&scenario, &spec).unwrap();

        let (dir, cache) = temp_cache("half");
        SweepEngine::new(2).with_cache(cache.clone()).run(&scenario, &spec).unwrap();
        // Evict every other entry from the in-memory index.
        let evicted: Vec<_> = cache.keys().into_iter().step_by(2).collect();
        for key in &evicted {
            assert!(cache.forget(key));
        }
        let patched = SweepEngine::new(4).with_cache(cache.clone()).run(&scenario, &spec).unwrap();
        assert_eq!(patched.rounds_simulated, evicted.len());
        assert_eq!(patched.rounds_cached, 12 - evicted.len());
        assert_eq!(patched.to_csv(), reference.to_csv());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strategy_compare_preset_warm_run_simulates_nothing() {
        // Cache-identity regression for the `strategy` parameter, end to
        // end through the real preset: every strategy point lands in its
        // own cache entry (same config, different strategy, different key),
        // and a warm re-run of the whole strategy-compare grid is served
        // entirely from the cache — zero rounds simulated for any strategy.
        let (scenario, spec) = crate::presets::find("strategy-compare").unwrap().build(7, 1);
        let points = spec.len();
        let (dir, cache) = temp_cache("strategy");
        let cold =
            SweepEngine::new(2).with_cache(cache.clone()).run(scenario.as_ref(), &spec).unwrap();
        assert_eq!(cold.rounds_simulated, points, "cold run simulates every strategy point");
        assert_eq!(cold.rounds_cached, 0);
        assert_eq!(
            cache.len(),
            points,
            "each strategy x platoon point must own a distinct cache entry"
        );
        let warm =
            SweepEngine::new(2).with_cache(cache.clone()).run(scenario.as_ref(), &spec).unwrap();
        assert_eq!(warm.rounds_simulated, 0, "no strategy re-simulates on a warm cache");
        assert_eq!(warm.rounds_cached, points);
        assert_eq!(warm.to_csv(), cold.to_csv());
        assert_eq!(warm.to_json(), cold.to_json());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_spec_is_an_error() {
        let err = SweepEngine::new(1).run(&FakeScenario::new(), &SweepSpec::new(1)).unwrap_err();
        assert_eq!(err, SweepError::EmptySweep);
        assert!(err.to_string().contains("empty sweep"));
    }

    #[test]
    fn unknown_parameters_fail_validation_before_running() {
        let spec = SweepSpec::new(1)
            .axis(Param::SpeedKmh, vec![ParamValue::Float(10.0)])
            .axis(Param::FileBlocks, vec![ParamValue::Int(100)]);
        let err = SweepEngine::new(1).run(&FakeScenario::new(), &spec).unwrap_err();
        match &err {
            SweepError::Param { point, label, source } => {
                assert_eq!(*point, 0);
                assert!(label.contains("file_blocks"), "{label}");
                assert!(matches!(source, ParamError::Unknown { .. }));
            }
            other => panic!("expected a param error, got {other:?}"),
        }
        assert!(err.to_string().contains("file_blocks"), "{err}");

        // The escape hatch drops the unknown axis and runs.
        let result =
            SweepEngine::new(1).with_allow_unknown(true).run(&FakeScenario::new(), &spec).unwrap();
        assert_eq!(result.len(), 1);
        // The dropped parameter still appears in the export (it was swept).
        assert!(result.to_csv().contains("file_blocks"));
    }

    /// A scenario whose metric names depend on the point — must be caught.
    struct InconsistentScenario {
        schema: ParamSchema,
    }

    struct InconsistentRun {
        n: u64,
    }

    impl Scenario for InconsistentScenario {
        fn name(&self) -> &'static str {
            "inconsistent"
        }

        fn description(&self) -> &'static str {
            "inconsistent"
        }

        fn schema(&self) -> &ParamSchema {
            &self.schema
        }

        fn configure(&self, point: &SweepPoint) -> Result<Box<dyn ScenarioRun>, ParamError> {
            Ok(Box::new(InconsistentRun {
                n: point.get(Param::NCars).and_then(|v| v.as_u64()).unwrap_or(0),
            }))
        }
    }

    impl ScenarioRun for InconsistentRun {
        fn rounds(&self) -> u32 {
            1
        }

        fn run_round(&self, round: u32, seed: u64) -> RoundReport {
            RoundReport::new(round, seed, vanet_stats::RoundResult::default())
        }

        fn aggregate(&self, _rounds: &[RoundReport]) -> PointSummary {
            PointSummary { metrics: vec![(if self.n == 1 { "a" } else { "b" }, 0.0)] }
        }
    }

    #[test]
    #[should_panic(expected = "inconsistent metrics")]
    fn inconsistent_metric_names_rejected() {
        let scenario = InconsistentScenario {
            schema: ParamSchema::new(
                "inconsistent",
                vec![ParamSpec::int(Param::NCars, "cars", 0, 0, 10)],
            ),
        };
        let spec =
            SweepSpec::new(1).axis(Param::NCars, vec![ParamValue::Int(1), ParamValue::Int(2)]);
        let _ = SweepEngine::new(1).run(&scenario, &spec);
    }
}
