//! The parallel analysis executor: traces every round of a sweep plan and
//! folds each round's record stream into a [`RoundDigest`].
//!
//! The engine is the sweep's own point executor ([`vanet_sweep::walk_points`])
//! over the digest journal: the same points, the same content-addressed
//! seeds, the same cache keys. Analysing `strategy-compare` therefore walks
//! the *exact* rounds `carq-cli sweep --preset strategy-compare` would run —
//! and when an [`AnalysisStore`] is attached, a re-run of an identical spec
//! re-simulates nothing (the digests come back from the journal), while
//! tables stay byte-identical at any thread count by the same
//! slot-assembly argument the sweep engine makes.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use vanet_scenarios::{worker_threads, Scenario, ScenarioRun};
use vanet_stats::{CellValue, Percentiles, RecordTable};
use vanet_sweep::{
    point_table, walk_points, PointWork, SweepError, SweepPlan, SweepPoint, SweepSpec,
};

use crate::digest::RoundDigest;
use crate::occupancy::OccupancyReport;
use crate::store::AnalysisStore;

/// The analysis instance of the point executor: every round traced and
/// digested, each point's digests kept in round order.
///
/// Unlike the sweep, analysis never settles (the [`PointWork::settled`]
/// default). Settling is a statistics shortcut ("the aggregate won't
/// change"); a latency distribution, by contrast, is defined over every
/// round the scenario declares, and truncating it would bias the tail
/// percentiles.
struct Digests;

impl PointWork for Digests {
    type Product = RoundDigest;
    type Fold = Vec<RoundDigest>;

    fn produce(&self, run: &dyn ScenarioRun, round: u32, seed: u64) -> RoundDigest {
        let (_report, records) = run.run_round_traced(round, seed);
        RoundDigest::compute(round, seed, &records)
    }

    fn fold(&self, _run: &dyn ScenarioRun, digests: Vec<RoundDigest>) -> Vec<RoundDigest> {
        digests
    }
}

/// The work-sharing parallel analysis executor: the sweep's point executor
/// with a digest journal attached instead of a round cache.
#[derive(Debug)]
pub struct AnalysisEngine {
    threads: usize,
    store: Option<Arc<Mutex<AnalysisStore>>>,
}

impl AnalysisEngine {
    /// Creates an engine running `threads` workers; `0` means one per
    /// available CPU.
    pub fn new(threads: usize) -> Self {
        AnalysisEngine { threads: worker_threads(threads), store: None }
    }

    /// Attaches a persistent digest journal: rounds whose digest is already
    /// stored are served from it without simulating, fresh digests are
    /// written back wave by wave.
    #[must_use]
    pub fn with_store(mut self, store: Arc<Mutex<AnalysisStore>>) -> Self {
        self.store = Some(store);
        self
    }

    /// The worker count this engine uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Traces and analyses every round of every point of `spec`.
    ///
    /// # Errors
    ///
    /// [`SweepError::EmptySweep`] or [`SweepError::Param`] when the spec is
    /// empty or a point fails schema validation; [`SweepError::Cache`] when
    /// the attached journal fails to persist a digest.
    pub fn run(
        &self,
        scenario: &dyn Scenario,
        spec: &SweepSpec,
    ) -> Result<AnalysisResult, SweepError> {
        let plan = vanet_sweep::plan(scenario, spec, false)?;
        // The journal's `get` and `put` take `&self`; the lock only holds
        // other users of the shared handle off for the run.
        let store = self.store.as_ref().map(|store| store.lock().expect("analysis store poisoned"));
        let walked = walk_points(scenario.name(), &plan, self.threads, store.as_deref(), &Digests)?;
        let SweepPlan { points, seeds, .. } = plan;
        Ok(AnalysisResult {
            scenario: scenario.name().to_string(),
            master_seed: spec.master_seed,
            threads: self.threads,
            rounds_simulated: walked.rounds_simulated,
            rounds_cached: walked.rounds_cached,
            points,
            seeds,
            analyses: walked.folds,
        })
    }
}

impl Default for AnalysisEngine {
    fn default() -> Self {
        AnalysisEngine::new(0)
    }
}

/// The outcome of an analysis: per point, the digests of all its rounds,
/// in expansion (point) and round order.
#[derive(Debug, Clone)]
pub struct AnalysisResult {
    /// Name of the scenario that was analysed.
    pub scenario: String,
    /// The master seed the plan was derived from.
    pub master_seed: u64,
    /// Worker count used (provenance, never in tables).
    pub threads: usize,
    /// Rounds that were actually traced (i.e. `run_round_traced` calls).
    /// A re-run against a warm digest journal reports 0 here.
    pub rounds_simulated: usize,
    /// Rounds served from the attached digest journal (0 without one).
    pub rounds_cached: usize,
    /// The points, in expansion order.
    pub points: Vec<SweepPoint>,
    /// The per-point seeds, aligned with `points`.
    pub seeds: Vec<u64>,
    /// The per-point round digests, aligned with `points`.
    pub analyses: Vec<Vec<RoundDigest>>,
}

impl AnalysisResult {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the analysis had no points (never true once executed).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The recovery-latency table: one row per point with the pooled
    /// request-to-repair distribution of all its rounds — sample counts,
    /// the unmatched tail and the percentile spread in milliseconds.
    /// Percentile cells are empty when a point produced no samples (a
    /// lossless channel, or a strategy that never repairs): an empty cell
    /// is honest where a fabricated `0.0` would read as "instant repair".
    pub fn latency_table(&self) -> RecordTable {
        let columns =
            ["rounds", "opened", "matched", "unmatched", "p50_ms", "p90_ms", "p99_ms", "max_ms"];
        point_table(&self.scenario, &self.points, &self.seeds, &columns, |index, row| {
            let rounds = &self.analyses[index];
            let samples_ms: Vec<f64> = rounds
                .iter()
                .flat_map(|d| d.latency.samples_ns.iter().map(|&ns| ns as f64 / 1_000_000.0))
                .collect();
            let opened: u64 = rounds.iter().map(|d| u64::from(d.latency.opened)).sum();
            let unmatched: u64 = rounds.iter().map(|d| u64::from(d.latency.unmatched)).sum();
            row.push(rounds.len().into());
            row.push(opened.into());
            row.push(samples_ms.len().into());
            row.push(unmatched.into());
            if samples_ms.is_empty() {
                row.extend(std::iter::repeat_n(CellValue::from(""), 4));
            } else {
                let p = Percentiles::of(&samples_ms);
                row.extend([p.p50, p.p90, p.p99, p.max].map(CellValue::Float));
            }
        })
    }

    /// The medium-occupancy table: one row per point with the pooled
    /// airtime profile of all its rounds (rounds are disjoint timelines, so
    /// spans, airtimes and collision windows add).
    pub fn occupancy_table(&self) -> RecordTable {
        let columns =
            ["rounds", "tx", "collisions", "airtime_ms", "busy_pct", "top_node", "top_share_pct"];
        point_table(&self.scenario, &self.points, &self.seeds, &columns, |index, row| {
            let rounds = &self.analyses[index];
            let mut per_node: BTreeMap<u32, u64> = BTreeMap::new();
            let mut pooled = OccupancyReport::default();
            for digest in rounds {
                let o = &digest.occupancy;
                pooled.span_ns += o.span_ns;
                pooled.busy_ns += o.busy_ns;
                pooled.airtime_ns += o.airtime_ns;
                pooled.tx_count += o.tx_count;
                pooled.collision_windows += o.collision_windows;
                for &(node, ns) in &o.per_node_airtime_ns {
                    *per_node.entry(node).or_insert(0) += ns;
                }
            }
            pooled.per_node_airtime_ns = per_node.into_iter().collect();
            row.push(rounds.len().into());
            row.push(pooled.tx_count.into());
            row.push(pooled.collision_windows.into());
            row.push(CellValue::Float(pooled.airtime_ms()));
            row.push(CellValue::Float(pooled.busy_fraction() * 100.0));
            match pooled.top_talker() {
                Some((node, share)) => {
                    row.push(node.into());
                    row.push(CellValue::Float(share * 100.0));
                }
                None => {
                    row.extend([CellValue::from(""), CellValue::from("")]);
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimTime;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vanet_scenarios::{ParamError, ParamSchema, ParamSpec};
    use vanet_stats::{PointSummary, RoundReport, RoundResult};
    use vanet_sweep::{Param, ParamValue};
    use vanet_trace::TraceRecord;

    /// A fake traced scenario: each round emits a deterministic recovery
    /// signature whose latency is a pure function of `(n_cars, round)`.
    struct TracedScenario {
        schema: ParamSchema,
    }

    impl TracedScenario {
        fn new() -> Self {
            TracedScenario {
                schema: ParamSchema::new(
                    "traced",
                    vec![ParamSpec::int(Param::NCars, "cars", 2, 2, 100)],
                ),
            }
        }
    }

    struct TracedRun {
        n: u64,
    }

    impl Scenario for TracedScenario {
        fn name(&self) -> &'static str {
            "traced"
        }

        fn description(&self) -> &'static str {
            "traced fake"
        }

        fn schema(&self) -> &ParamSchema {
            &self.schema
        }

        fn configure(&self, point: &SweepPoint) -> Result<Box<dyn ScenarioRun>, ParamError> {
            self.schema.validate(point)?;
            Ok(Box::new(TracedRun {
                n: point.get(Param::NCars).and_then(|v| v.as_u64()).unwrap_or(2),
            }))
        }
    }

    impl ScenarioRun for TracedRun {
        fn rounds(&self) -> u32 {
            2
        }

        fn run_round(&self, round: u32, seed: u64) -> RoundReport {
            RoundReport::new(round, seed, RoundResult::default())
        }

        fn run_round_traced(&self, round: u32, seed: u64) -> (RoundReport, Vec<TraceRecord>) {
            let t = |us: u64| SimTime::from_micros(us);
            // Repair latency = (n + round) * 10us, purely deterministic.
            let lat = (self.n + u64::from(round)) * 10;
            let records = vec![
                TraceRecord::TxStart { at: t(0), until: t(8), node: 0, bits: 800 },
                TraceRecord::StrategyDecision { at: t(9), node: 1, strategy: 0, missing: 1 },
                TraceRecord::ArqRequest { at: t(10), node: 1, seqs: 1, cooperators: 1 },
                TraceRecord::TxStart { at: t(10 + lat), until: t(14 + lat), node: 2, bits: 800 },
                TraceRecord::CoopRetransmit { at: t(10 + lat), node: 2, seqs: 1 },
                TraceRecord::Delivery {
                    at: t(10 + lat),
                    tx: 2,
                    rx: 1,
                    received: true,
                    cached: false,
                    snr_db: 6.0,
                },
            ];
            (self.run_round(round, seed), records)
        }

        fn aggregate(&self, _rounds: &[RoundReport]) -> PointSummary {
            PointSummary { metrics: vec![] }
        }
    }

    fn spec() -> SweepSpec {
        SweepSpec::new(0x5EED)
            .axis(Param::NCars, vec![ParamValue::Int(3), ParamValue::Int(5), ParamValue::Int(8)])
    }

    fn temp_store(tag: &str) -> (std::path::PathBuf, Arc<Mutex<AnalysisStore>>) {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vanet-analysis-engine-test-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = Arc::new(Mutex::new(AnalysisStore::open(&dir).expect("store opens")));
        (dir, store)
    }

    #[test]
    fn tables_are_byte_identical_at_any_thread_count() {
        let scenario = TracedScenario::new();
        let spec = spec();
        let reference = AnalysisEngine::new(1).run(&scenario, &spec).unwrap();
        assert_eq!(reference.len(), 3);
        assert_eq!(reference.rounds_simulated, 6, "3 points x 2 rounds");
        assert_eq!(reference.rounds_cached, 0);
        for threads in [2, 8] {
            let run = AnalysisEngine::new(threads).run(&scenario, &spec).unwrap();
            assert_eq!(run.latency_table().to_csv(), reference.latency_table().to_csv());
            assert_eq!(run.occupancy_table().to_csv(), reference.occupancy_table().to_csv());
        }
        // Latency columns include the point's parameter and percentiles.
        let csv = reference.latency_table().to_csv();
        assert!(
            csv.starts_with(
                "scenario,point,seed,n_cars,rounds,opened,matched,unmatched,p50_ms,p90_ms,p99_ms,max_ms\n"
            ),
            "{csv}"
        );
        // n=3: latencies 30us,40us → p50 0.035 ms.
        assert!(csv.contains("0.035000"), "{csv}");
        let occ = reference.occupancy_table().to_csv();
        assert!(
            occ.starts_with(
                "scenario,point,seed,n_cars,rounds,tx,collisions,airtime_ms,busy_pct,top_node,top_share_pct\n"
            ),
            "{occ}"
        );
    }

    #[test]
    fn warm_store_re_run_simulates_nothing_and_matches() {
        let scenario = TracedScenario::new();
        let spec = spec();
        let reference = AnalysisEngine::new(2).run(&scenario, &spec).unwrap();

        let (dir, store) = temp_store("warm");
        let cold = AnalysisEngine::new(2).with_store(store.clone()).run(&scenario, &spec).unwrap();
        assert_eq!(cold.rounds_simulated, 6);
        assert_eq!(store.lock().unwrap().len(), 6);

        for threads in [1, 2, 8] {
            let warm = AnalysisEngine::new(threads)
                .with_store(store.clone())
                .run(&scenario, &spec)
                .unwrap();
            assert_eq!(warm.rounds_simulated, 0, "warm at {threads} threads simulated");
            assert_eq!(warm.rounds_cached, 6);
            assert_eq!(warm.latency_table().to_csv(), reference.latency_table().to_csv());
            assert_eq!(warm.occupancy_table().to_csv(), reference.occupancy_table().to_csv());
        }

        // A reopened journal (fresh process) serves the same digests.
        drop(store);
        let reopened = Arc::new(Mutex::new(AnalysisStore::open(&dir).unwrap()));
        let resumed = AnalysisEngine::new(4).with_store(reopened).run(&scenario, &spec).unwrap();
        assert_eq!(resumed.rounds_simulated, 0);
        assert_eq!(resumed.latency_table().to_csv(), reference.latency_table().to_csv());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_spec_is_a_sweep_error() {
        let err =
            AnalysisEngine::new(1).run(&TracedScenario::new(), &SweepSpec::new(1)).unwrap_err();
        assert_eq!(err, SweepError::EmptySweep);
        assert!(err.to_string().contains("empty sweep"));
    }

    #[test]
    fn engine_surface_behaves() {
        assert!(AnalysisEngine::new(0).threads() >= 1);
        assert_eq!(AnalysisEngine::new(3).threads(), 3);
        assert!(AnalysisEngine::default().threads() >= 1);
        let debug = format!("{:?}", AnalysisEngine::new(2));
        assert!(debug.contains("threads: 2"), "{debug}");
    }
}
