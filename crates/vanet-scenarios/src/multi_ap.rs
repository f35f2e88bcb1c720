//! Multi-AP file-download extension experiment.
//!
//! The paper's conclusions ask (§6): "how the presented loss reduction can
//! reduce the number of APs that a vehicular node needs to visit to download
//! a file". This experiment answers that question with the simulator: a
//! platoon repeatedly passes isolated APs (the Infostation model the paper
//! builds on); at each pass the infrastructure sends each car the blocks it
//! still misses, the cars run C-ARQ in the gap after the AP, and we count how
//! many AP visits each car needs before its file is complete.
//!
//! Under the unified [`Scenario`] API one *round* is one AP visit — a full
//! drive-by simulation (the same machinery as the highway experiment) that
//! is a pure function of its seed. The sequential part of the story — the
//! infrastructure learning what each car holds and ticking blocks off until
//! the file completes — is a deterministic fold over the per-visit reports
//! in [`ScenarioRun::aggregate`], so visits can simulate in parallel while
//! the accounting stays exactly sequential. [`ScenarioRun::is_settled`]
//! stops the visit budget early once every car has finished.

use vanet_mac::NodeId;
use vanet_stats::{mean, PointSummary, RoundReport};
use vanet_trace::{NoTrace, TraceRecord, VecSink};

use crate::highway::{round_model, HighwayConfig, PassInvariants};
use crate::params::{Param, SweepPoint};
use crate::scenario::{Scenario, ScenarioRun};
use crate::schema::{ParamError, ParamSchema, ParamSpec};
use crate::urban::saturate_u32;

/// Configuration of the multi-AP download experiment.
#[derive(Debug, Clone)]
pub struct MultiApConfig {
    /// The file size each car must download, in blocks (one block = one
    /// packet of `pass.payload_bytes`).
    pub file_blocks: u32,
    /// The per-pass drive-by configuration (speed, rate, platoon size,
    /// cooperation on/off).
    pub pass: HighwayConfig,
    /// Safety bound on the number of AP visits simulated.
    pub max_passes: u32,
}

impl MultiApConfig {
    /// A 1500-block (≈ 1.5 MB) download by a three-car cooperative platoon on
    /// an arterial road (80 km/h, 5 pkt/s per car): each AP pass delivers a
    /// few hundred blocks, so several visits are needed and the effect of
    /// cooperation on the visit count is visible.
    pub fn default_download() -> Self {
        MultiApConfig {
            file_blocks: 1_500,
            pass: HighwayConfig::drive_thru_reference()
                .with_speed_kmh(80.0)
                .with_rate_pps(5.0)
                .with_cooperating_platoon(3)
                .with_passes(1),
            max_passes: 40,
        }
    }

    /// Disables cooperation for the baseline comparison.
    pub fn without_cooperation(mut self) -> Self {
        self.pass.cooperation_enabled = false;
        self
    }

    /// Overrides the file size in blocks.
    pub fn with_file_blocks(mut self, blocks: u32) -> Self {
        self.file_blocks = blocks;
        self
    }
}

/// The outcome of a multi-AP download for one car.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiApOutcome {
    /// The car.
    pub car: NodeId,
    /// Number of AP visits needed to complete the file, or `None` if the
    /// download did not finish within the configured pass budget.
    pub passes_needed: Option<u32>,
    /// Blocks obtained after the final simulated pass.
    pub blocks_obtained: u32,
    /// Total blocks delivered per pass on average (goodput per visit).
    pub mean_blocks_per_pass: f64,
}

/// The multi-AP download as a registry-discoverable [`Scenario`].
#[derive(Debug)]
pub struct MultiApScenario {
    base: MultiApConfig,
    schema: ParamSchema,
}

impl MultiApScenario {
    /// A scenario sweeping around `base`.
    pub fn new(base: MultiApConfig) -> Self {
        let schema = ParamSchema::new(
            "multi-ap",
            vec![
                // Round-neutral: a visit simulates the AP streaming fresh
                // blocks regardless of file size — the size only decides in
                // `aggregate`/`is_settled` when the download is complete, so
                // a file-size sweep shares its per-visit reports.
                ParamSpec::int(
                    Param::FileBlocks,
                    "file size per car in blocks (one block per packet)",
                    u64::from(base.file_blocks),
                    1,
                    10_000_000,
                )
                .round_neutral(),
                ParamSpec::float(
                    Param::SpeedKmh,
                    "vehicle speed in km/h",
                    base.pass.speed_kmh,
                    1.0,
                    250.0,
                ),
                ParamSpec::float(
                    Param::ApRatePps,
                    "AP sending rate per car (packets/s)",
                    base.pass.ap_rate_pps,
                    0.1,
                    1_000.0,
                ),
                ParamSpec::int(
                    Param::NCars,
                    "number of cars in the platoon",
                    base.pass.n_cars as u64,
                    1,
                    32,
                ),
                ParamSpec::int(
                    Param::PayloadBytes,
                    "payload per data packet in bytes",
                    u64::from(base.pass.payload_bytes),
                    1,
                    65_535,
                ),
                // Default-transparent: points at the default (the paper's
                // C-ARQ) keep the canonical configuration this schema had
                // before the parameter existed; rival strategies get
                // distinct canonicals (and cache keys) automatically.
                ParamSpec::strategy(
                    Param::Strategy,
                    "recovery strategy run after leaving coverage",
                    base.pass.strategy,
                )
                .default_transparent(),
                ParamSpec::bool(
                    Param::Cooperation,
                    "whether the platoon runs C-ARQ",
                    base.pass.cooperation_enabled,
                ),
                // Round-neutral: the budget only bounds how many visits
                // may run.
                ParamSpec::int(
                    Param::Rounds,
                    "AP-visit budget per download (safety bound)",
                    u64::from(base.max_passes),
                    1,
                    10_000,
                )
                .round_neutral(),
            ],
        );
        MultiApScenario { base, schema }
    }

    /// The scenario at the default 1500-block download configuration.
    pub fn default_download() -> Self {
        MultiApScenario::new(MultiApConfig::default_download())
    }

    /// The configuration a point runs. The drive-by parameters share the
    /// highway scenario's override logic; only `FileBlocks` and the
    /// AP-visit budget are this scenario's own.
    pub fn config_for(&self, point: &SweepPoint) -> Result<MultiApConfig, ParamError> {
        self.schema.validate(point)?;
        let mut cfg = self.base.clone();
        crate::highway::apply_pass_overrides(&mut cfg.pass, point);
        if let Some(blocks) = point.get(Param::FileBlocks).and_then(|v| v.as_u64()) {
            cfg.file_blocks = saturate_u32(blocks);
        }
        if let Some(budget) = point.get(Param::Rounds).and_then(|v| v.as_u64()) {
            cfg.max_passes = saturate_u32(budget);
        }
        Ok(cfg)
    }
}

impl Scenario for MultiApScenario {
    fn name(&self) -> &'static str {
        "multi-ap"
    }

    fn description(&self) -> &'static str {
        "the §6 extension: AP visits a platoon needs to finish a file download, with/without C-ARQ"
    }

    fn schema(&self) -> &ParamSchema {
        &self.schema
    }

    fn configure(&self, point: &SweepPoint) -> Result<Box<dyn ScenarioRun>, ParamError> {
        Ok(Box::new(MultiApRun::new(self.config_for(point)?)))
    }
}

/// One configured download: [`ScenarioRun::run_round`] simulates one AP
/// visit, [`ScenarioRun::aggregate`] folds the visits into per-car visit
/// counts.
#[derive(Debug, Clone)]
pub struct MultiApRun {
    config: MultiApConfig,
    invariants: PassInvariants,
}

impl MultiApRun {
    /// Creates a run.
    ///
    /// # Panics
    ///
    /// Panics if the file size or pass budget is zero, or if the per-visit
    /// pass configuration is inconsistent (no cars, non-positive speed or
    /// rate). Configurations built through [`MultiApScenario::configure`]
    /// are schema-checked and cannot trip these.
    pub fn new(config: MultiApConfig) -> Self {
        assert!(config.file_blocks > 0, "file must have at least one block");
        assert!(config.max_passes > 0, "at least one pass must be allowed");
        assert!(config.pass.n_cars >= 1, "at least one car required");
        assert!(config.pass.speed_kmh > 0.0, "speed must be positive");
        assert!(config.pass.ap_rate_pps > 0.0, "rate must be positive");
        let invariants = PassInvariants::of(&config.pass);
        MultiApRun { config, invariants }
    }

    /// Folds the per-visit reports (in visit order) into per-car outcomes:
    /// the sequential accounting of which blocks the infrastructure can tick
    /// off after each visit. Reports past the visit where every car finished
    /// are ignored, which is what lets visits simulate in parallel waves.
    pub fn outcomes(&self, reports: &[RoundReport]) -> Vec<MultiApOutcome> {
        let cfg = &self.config;
        let n_cars = cfg.pass.n_cars;
        let mut blocks: Vec<u32> = vec![0; n_cars];
        let mut finished_at: Vec<Option<u32>> = vec![None; n_cars];
        let mut per_pass_gain: Vec<Vec<f64>> = vec![Vec::new(); n_cars];

        for (pass, report) in reports.iter().enumerate() {
            if finished_at.iter().all(Option::is_some) {
                break;
            }
            for (i, car) in report.result.cars().iter().enumerate() {
                if i >= n_cars || finished_at[i].is_some() {
                    continue;
                }
                let Some(flow) = report.result.flow_for(*car) else { continue };
                // Blocks the infrastructure can tick off after this visit:
                // whatever the car ended up holding (after cooperation if it
                // is enabled).
                let gained = flow.after_coop.received_count() as u32;
                per_pass_gain[i].push(f64::from(gained));
                blocks[i] = (blocks[i] + gained).min(cfg.file_blocks);
                if blocks[i] >= cfg.file_blocks {
                    finished_at[i] = Some(pass as u32 + 1);
                }
            }
        }

        (0..n_cars)
            .map(|i| MultiApOutcome {
                car: NodeId::new(i as u32 + 1),
                passes_needed: finished_at[i],
                blocks_obtained: blocks[i],
                mean_blocks_per_pass: mean(&per_pass_gain[i]),
            })
            .collect()
    }
}

impl ScenarioRun for MultiApRun {
    fn rounds(&self) -> u32 {
        self.config.max_passes
    }

    fn run_round(&self, round: u32, seed: u64) -> RoundReport {
        let (model, horizon) = round_model(&self.config.pass, &self.invariants, seed, NoTrace);
        model.run_round(horizon, round, seed)
    }

    fn run_round_traced(&self, round: u32, seed: u64) -> (RoundReport, Vec<TraceRecord>) {
        let mut sink = VecSink::new();
        let (model, horizon) = round_model(&self.config.pass, &self.invariants, seed, &mut sink);
        (model.run_round(horizon, round, seed), sink.into_records())
    }

    fn is_settled(&self, rounds_so_far: &[RoundReport]) -> bool {
        self.outcomes(rounds_so_far).iter().all(|o| o.passes_needed.is_some())
    }

    fn aggregate(&self, rounds: &[RoundReport]) -> PointSummary {
        let max_passes = self.config.max_passes;
        let outcomes = self.outcomes(rounds);
        // A car that never finishes counts as `max_passes + 1` visits — a
        // pessimistic lower bound that keeps the mean monotone across a
        // sweep axis instead of collapsing to 0 exactly where downloads
        // stop completing.
        let visits: Vec<f64> =
            outcomes.iter().map(|o| f64::from(o.passes_needed.unwrap_or(max_passes + 1))).collect();
        let unfinished = outcomes.iter().filter(|o| o.passes_needed.is_none()).count();
        let worst = visits.iter().copied().fold(0.0, f64::max);
        let blocks_per_pass: Vec<f64> = outcomes.iter().map(|o| o.mean_blocks_per_pass).collect();
        PointSummary {
            metrics: vec![
                ("passes_needed_mean", mean(&visits)),
                ("passes_needed_max", worst),
                ("unfinished_cars", unfinished as f64),
                ("blocks_per_pass_mean", mean(&blocks_per_pass)),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamValue;
    use crate::scenario::run_rounds;

    fn small_download(cooperation: bool) -> (MultiApRun, Vec<MultiApOutcome>) {
        let mut config = MultiApConfig::default_download().with_file_blocks(150);
        config.max_passes = 12;
        if !cooperation {
            config = config.without_cooperation();
        }
        let run = MultiApRun::new(config);
        let reports = run_rounds(&run, 0xd21e, 1);
        let outcomes = run.outcomes(&reports);
        (run, outcomes)
    }

    #[test]
    fn download_completes_within_the_pass_budget() {
        let (_, outcomes) = small_download(true);
        assert_eq!(outcomes.len(), 3);
        for outcome in &outcomes {
            assert!(outcome.passes_needed.is_some(), "car {} never finished", outcome.car);
            assert!(outcome.blocks_obtained >= 150);
            assert!(outcome.mean_blocks_per_pass > 0.0);
        }
    }

    #[test]
    fn cooperation_needs_no_more_passes_than_the_baseline() {
        let (_, with_coop) = small_download(true);
        let (_, without) = small_download(false);
        let total_with: u32 = with_coop.iter().filter_map(|o| o.passes_needed).sum();
        let total_without: u32 = without.iter().map(|o| o.passes_needed.unwrap_or(13)).sum();
        assert!(
            total_with <= total_without,
            "cooperation should not need more AP visits ({total_with} > {total_without})"
        );
    }

    #[test]
    fn early_exit_does_not_change_the_summary() {
        let mut config = MultiApConfig::default_download().with_file_blocks(150);
        config.max_passes = 12;
        let run = MultiApRun::new(config);
        let serial = run_rounds(&run, 7, 1);
        let wide = run_rounds(&run, 7, 8);
        // The wide execution may overshoot the settle point...
        assert!(wide.len() >= serial.len());
        // ...but folds to the identical summary.
        assert_eq!(run.aggregate(&serial), run.aggregate(&wide));
        // And it settles well before the full budget.
        assert!(serial.len() < 12, "download should finish early ({} passes)", serial.len());
    }

    #[test]
    fn unfinished_downloads_report_pessimistic_visit_counts() {
        let mut base = MultiApConfig::default_download();
        base.max_passes = 1; // one visit can never move ~10k blocks
        base.file_blocks = 10_000;
        let run = MultiApRun::new(base);
        let reports = run_rounds(&run, 5, 1);
        let summary = run.aggregate(&reports);
        assert_eq!(summary.get("unfinished_cars"), Some(3.0));
        // Unfinished cars count as max_passes + 1 visits, not 0.
        assert_eq!(summary.get("passes_needed_mean"), Some(2.0));
        assert_eq!(summary.get("passes_needed_max"), Some(2.0));
    }

    #[test]
    fn scenario_overrides_reach_pass_and_file() {
        let scenario = MultiApScenario::default_download();
        let cfg = scenario
            .config_for(&SweepPoint::new(vec![
                (Param::FileBlocks, ParamValue::Int(600)),
                (Param::SpeedKmh, ParamValue::Float(60.0)),
                (Param::Cooperation, ParamValue::Bool(false)),
                (Param::Strategy, ParamValue::Strategy(carq::RecoveryStrategyKind::OneHopListen)),
                (Param::Rounds, ParamValue::Int(8)),
            ]))
            .unwrap();
        assert_eq!(cfg.file_blocks, 600);
        assert_eq!(cfg.pass.speed_kmh, 60.0);
        assert!(!cfg.pass.cooperation_enabled);
        assert_eq!(cfg.pass.strategy, carq::RecoveryStrategyKind::OneHopListen);
        assert_eq!(cfg.max_passes, 8);
        // Urban-only strategy parameters are rejected by the schema.
        let err = scenario
            .config_for(&SweepPoint::new(vec![(
                Param::Request,
                ParamValue::Request(carq::RequestStrategy::Batched),
            )]))
            .unwrap_err();
        assert!(matches!(err, ParamError::Unknown { scenario: "multi-ap", .. }), "{err}");
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn empty_file_rejected() {
        let _ = MultiApRun::new(MultiApConfig::default_download().with_file_blocks(0));
    }
}
