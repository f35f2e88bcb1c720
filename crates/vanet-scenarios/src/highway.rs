//! The highway drive-thru context experiment.
//!
//! The paper motivates Cooperative ARQ with the drive-thru-Internet
//! measurements of its reference \[1\]: a car passing a roadside AP on a
//! highway loses 50–60 % of the packets, depending on speed and nominal
//! sending rate. This experiment reproduces that context: a single car (or a
//! small platoon) passes one AP on a straight road at highway speed while the
//! AP sends at a configurable rate, and we report the per-pass loss
//! percentage with and without cooperation.
//!
//! Exposed through the unified [`Scenario`] API: one round of
//! [`HighwayScenario`] is one drive-by pass — the same per-pass simulation
//! the multi-AP download reuses for each AP visit.

use rand::Rng;
use sim_core::{SimDuration, SimTime, StreamRng};
use vanet_dtn::{AccessPointApp, ApConfig};
use vanet_geo::{highway_segment, kmh_to_ms, DriverProfile, PlatoonMobility, RoadLayout};
use vanet_mac::{MediumConfig, NodeId};
use vanet_radio::DataRate;
use vanet_stats::{PointSummary, RoundReport};
use vanet_trace::{NoTrace, TraceRecord, TraceSink, VecSink};

use crate::model::{ModelConfig, VanetModel};
use crate::params::{Param, SweepPoint};
use crate::scenario::{LossSamples, Scenario, ScenarioRun};
use crate::schema::{ParamError, ParamSchema, ParamSpec};
use crate::urban::saturate_u32;
use carq::{CarqConfig, RecoveryStrategyKind};

/// Configuration of one highway drive-thru run.
#[derive(Debug, Clone)]
pub struct HighwayConfig {
    /// Vehicle speed in km/h.
    pub speed_kmh: f64,
    /// AP sending rate per car, packets per second.
    pub ap_rate_pps: f64,
    /// Payload per packet in bytes.
    pub payload_bytes: u32,
    /// Number of cars in the platoon (1 reproduces the reference
    /// measurements; more cars exercise cooperation at speed).
    pub n_cars: usize,
    /// Number of passes to average over.
    pub passes: u32,
    /// Length of the simulated road segment in metres (the AP sits at its
    /// centre).
    pub road_length_m: f64,
    /// PHY rate.
    pub data_rate: DataRate,
    /// Whether the cars run C-ARQ.
    pub cooperation_enabled: bool,
    /// The recovery strategy the cars run after leaving coverage.
    pub strategy: RecoveryStrategyKind,
}

impl HighwayConfig {
    /// The drive-thru reference setting: one car at 100 km/h, 5 pkt/s,
    /// 1000-byte payloads.
    pub fn drive_thru_reference() -> Self {
        HighwayConfig {
            speed_kmh: 100.0,
            ap_rate_pps: 5.0,
            payload_bytes: 1_000,
            n_cars: 1,
            passes: 10,
            road_length_m: 2_000.0,
            data_rate: DataRate::Mbps1,
            cooperation_enabled: false,
            strategy: RecoveryStrategyKind::CoopArq,
        }
    }

    /// Overrides the speed.
    pub fn with_speed_kmh(mut self, speed: f64) -> Self {
        self.speed_kmh = speed;
        self
    }

    /// Overrides the AP rate.
    pub fn with_rate_pps(mut self, rate: f64) -> Self {
        self.ap_rate_pps = rate;
        self
    }

    /// Uses a platoon of `n` cooperating cars.
    pub fn with_cooperating_platoon(mut self, n: usize) -> Self {
        self.n_cars = n;
        self.cooperation_enabled = true;
        self
    }

    /// Overrides the number of passes.
    pub fn with_passes(mut self, passes: u32) -> Self {
        self.passes = passes;
        self
    }

    /// Overrides the recovery strategy.
    pub fn with_strategy(mut self, strategy: RecoveryStrategyKind) -> Self {
        self.strategy = strategy;
        self
    }
}

/// Per-run invariants of a drive-by pass, hoisted out of the per-round hot
/// path and shared by the highway scenario and the multi-AP download: the
/// road layout, the configuration templates and the platoon roster never
/// change between passes — only the per-pass seeds do.
#[derive(Debug, Clone)]
pub(crate) struct PassInvariants {
    layout: RoadLayout,
    medium_template: MediumConfig,
    carq: CarqConfig,
    drivers: Vec<DriverProfile>,
    car_ids: Vec<NodeId>,
    speed_ms: f64,
    horizon: SimTime,
}

impl PassInvariants {
    pub(crate) fn of(cfg: &HighwayConfig) -> Self {
        let layout = highway_segment(cfg.road_length_m, cfg.road_length_m);
        let speed_ms = kmh_to_ms(cfg.speed_kmh);
        // Simulate until the last car has cleared the road plus a margin for
        // the Cooperative-ARQ phase.
        let travel_secs = cfg.road_length_m / speed_ms + 20.0;
        PassInvariants {
            layout,
            medium_template: MediumConfig::highway(),
            carq: CarqConfig::paper_prototype()
                .with_ap_timeout(SimDuration::from_secs(3))
                .with_strategy(cfg.strategy),
            drivers: vec![DriverProfile::experienced(); cfg.n_cars],
            car_ids: (1..=cfg.n_cars as u32).map(NodeId::new).collect(),
            speed_ms,
            horizon: SimTime::from_secs_f64(travel_secs),
        }
    }
}

/// The model one drive-by pass of `cfg` simulates at `seed`, emitting into
/// `sink`, and the horizon it runs to. Shared by the highway scenario (one
/// pass per round) and the multi-AP download (one pass per AP visit). `inv`
/// must be [`PassInvariants::of`] the same `cfg`.
pub(crate) fn round_model<S: TraceSink>(
    cfg: &HighwayConfig,
    inv: &PassInvariants,
    seed: u64,
    sink: S,
) -> (VanetModel<S>, SimTime) {
    let pass_rng = StreamRng::derive(seed, "highway-pass");
    let mut mobility_rng = pass_rng.substream(1);
    let shadow_seed = pass_rng.substream(2).gen::<u64>();
    let model_seed = pass_rng.substream(3).gen::<u64>();

    let mut medium = inv.medium_template.clone();
    medium.ap_vehicle.shadowing_seed = shadow_seed;

    let model_config = ModelConfig {
        medium,
        data_rate: cfg.data_rate,
        carq: inv.carq.clone(),
        position_update_interval: SimDuration::from_millis(50),
        seed: model_seed,
        cooperation_enabled: cfg.cooperation_enabled,
    };
    let mut model = VanetModel::with_sink(model_config, sink);

    let ap_config = ApConfig {
        cars: inv.car_ids.clone(),
        packets_per_second_per_car: cfg.ap_rate_pps,
        payload_bytes: cfg.payload_bytes,
        policy: vanet_dtn::ApSchedulingPolicy::FreshDataOnly,
    };
    model.add_access_point(
        NodeId::new(0),
        inv.layout.access_points[0],
        AccessPointApp::new(ap_config),
    );

    let platoon = PlatoonMobility::new(
        inv.layout.path.clone(),
        inv.speed_ms,
        &inv.drivers,
        &mut mobility_rng,
    );
    for (i, id) in inv.car_ids.iter().enumerate() {
        model.add_car(*id, platoon.member(i).clone());
    }

    (model, inv.horizon)
}

/// The highway drive-thru as a registry-discoverable [`Scenario`].
#[derive(Debug)]
pub struct HighwayScenario {
    base: HighwayConfig,
    schema: ParamSchema,
}

impl HighwayScenario {
    /// A scenario sweeping around `base`.
    pub fn new(base: HighwayConfig) -> Self {
        let schema = ParamSchema::new(
            "highway",
            vec![
                ParamSpec::float(
                    Param::SpeedKmh,
                    "vehicle speed in km/h",
                    base.speed_kmh,
                    1.0,
                    250.0,
                ),
                ParamSpec::float(
                    Param::ApRatePps,
                    "AP sending rate per car (packets/s)",
                    base.ap_rate_pps,
                    0.1,
                    1_000.0,
                ),
                ParamSpec::int(
                    Param::NCars,
                    "number of cars in the platoon",
                    base.n_cars as u64,
                    1,
                    32,
                ),
                ParamSpec::int(
                    Param::PayloadBytes,
                    "payload per data packet in bytes",
                    u64::from(base.payload_bytes),
                    1,
                    65_535,
                ),
                // Default-transparent: at the default (the paper's C-ARQ)
                // points keep the canonical configuration this schema had
                // before the parameter existed, so historical seeds and
                // cache entries survive; rival strategies get distinct
                // canonicals (and cache keys) automatically.
                ParamSpec::strategy(
                    Param::Strategy,
                    "recovery strategy run after leaving coverage",
                    base.strategy,
                )
                .default_transparent(),
                ParamSpec::bool(
                    Param::Cooperation,
                    "whether the platoon runs C-ARQ",
                    base.cooperation_enabled,
                ),
                // Round-neutral: one drive-by is independent of how many
                // passes are averaged, so extending `--rounds` resumes from
                // the cached prefix.
                ParamSpec::int(
                    Param::Rounds,
                    "drive-by passes to average over",
                    u64::from(base.passes),
                    1,
                    10_000,
                )
                .round_neutral(),
            ],
        );
        HighwayScenario { base, schema }
    }

    /// The scenario at the drive-thru reference configuration.
    pub fn drive_thru() -> Self {
        HighwayScenario::new(HighwayConfig::drive_thru_reference())
    }

    /// The configuration a point runs.
    pub fn config_for(&self, point: &SweepPoint) -> Result<HighwayConfig, ParamError> {
        self.schema.validate(point)?;
        let mut cfg = self.base.clone();
        apply_pass_overrides(&mut cfg, point);
        if let Some(passes) = point.get(Param::Rounds).and_then(|v| v.as_u64()) {
            cfg.passes = saturate_u32(passes);
        }
        Ok(cfg)
    }
}

/// Applies the drive-by parameter overrides a point assigns to `cfg` —
/// the override set shared by the highway scenario and the multi-AP
/// download's per-visit pass configuration.
pub(crate) fn apply_pass_overrides(cfg: &mut HighwayConfig, point: &SweepPoint) {
    if let Some(speed) = point.get(Param::SpeedKmh).and_then(|v| v.as_f64()) {
        cfg.speed_kmh = speed;
    }
    if let Some(rate) = point.get(Param::ApRatePps).and_then(|v| v.as_f64()) {
        cfg.ap_rate_pps = rate;
    }
    if let Some(n) = point.get(Param::NCars).and_then(|v| v.as_u64()) {
        cfg.n_cars = n as usize;
    }
    if let Some(payload) = point.get(Param::PayloadBytes).and_then(|v| v.as_u64()) {
        cfg.payload_bytes = saturate_u32(payload);
    }
    if let Some(coop) = point.get(Param::Cooperation).and_then(|v| v.as_bool()) {
        cfg.cooperation_enabled = coop;
    }
    if let Some(strategy) = point.get(Param::Strategy).and_then(|v| v.as_strategy()) {
        cfg.strategy = strategy;
    }
}

impl Scenario for HighwayScenario {
    fn name(&self) -> &'static str {
        "highway"
    }

    fn description(&self) -> &'static str {
        "drive-thru-Internet context: loss rates of cars passing a roadside AP at highway speed"
    }

    fn schema(&self) -> &ParamSchema {
        &self.schema
    }

    fn configure(&self, point: &SweepPoint) -> Result<Box<dyn ScenarioRun>, ParamError> {
        Ok(Box::new(HighwayRun::new(self.config_for(point)?)))
    }
}

/// One configured highway experiment: [`ScenarioRun::run_round`] simulates
/// one drive-by pass.
#[derive(Debug, Clone)]
pub struct HighwayRun {
    config: HighwayConfig,
    invariants: PassInvariants,
}

impl HighwayRun {
    /// Creates a run.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (no cars, no passes,
    /// non-positive speed or rate). Configurations built through
    /// [`HighwayScenario::configure`] are schema-checked and cannot trip
    /// these.
    pub fn new(config: HighwayConfig) -> Self {
        assert!(config.n_cars >= 1, "at least one car required");
        assert!(config.passes >= 1, "at least one pass required");
        assert!(config.speed_kmh > 0.0, "speed must be positive");
        assert!(config.ap_rate_pps > 0.0, "rate must be positive");
        let invariants = PassInvariants::of(&config);
        HighwayRun { config, invariants }
    }
}

impl ScenarioRun for HighwayRun {
    fn rounds(&self) -> u32 {
        self.config.passes
    }

    fn run_round(&self, round: u32, seed: u64) -> RoundReport {
        let (model, horizon) = round_model(&self.config, &self.invariants, seed, NoTrace);
        model.run_round(horizon, round, seed)
    }

    fn run_round_traced(&self, round: u32, seed: u64) -> (RoundReport, Vec<TraceRecord>) {
        let mut sink = VecSink::new();
        let (model, horizon) = round_model(&self.config, &self.invariants, seed, &mut sink);
        (model.run_round(horizon, round, seed), sink.into_records())
    }

    fn aggregate(&self, rounds: &[RoundReport]) -> PointSummary {
        let mut losses = LossSamples::default();
        for report in rounds {
            losses.absorb(&report.result);
        }
        PointSummary { metrics: losses.metrics() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamValue;
    use crate::scenario::run_rounds;

    fn summary_for(cfg: HighwayConfig, seed: u64) -> PointSummary {
        let run = HighwayRun::new(cfg);
        let reports = run_rounds(&run, seed, 1);
        run.aggregate(&reports)
    }

    #[test]
    fn single_pass_produces_a_window_with_losses() {
        let run = HighwayRun::new(HighwayConfig::drive_thru_reference().with_passes(1));
        let report = run.run_round(0, 3);
        let counts = report.result.flow_for(NodeId::new(1)).unwrap().counts();
        assert!(counts.tx_in_window > 10, "window {}", counts.tx_in_window);
        assert!(counts.lost_before_coop > 0);
    }

    #[test]
    fn passes_are_pure_functions_of_the_seed() {
        let run = HighwayRun::new(HighwayConfig::drive_thru_reference().with_passes(2));
        assert_eq!(run.run_round(0, 11), run.run_round(0, 11));
        assert_ne!(run.run_round(0, 11).result, run.run_round(0, 12).result);
    }

    #[test]
    fn faster_cars_have_smaller_windows() {
        let slow = summary_for(
            HighwayConfig::drive_thru_reference().with_speed_kmh(60.0).with_passes(2),
            7,
        );
        let fast = summary_for(
            HighwayConfig::drive_thru_reference().with_speed_kmh(140.0).with_passes(2),
            7,
        );
        assert!(fast.get("tx_window_mean").unwrap() < slow.get("tx_window_mean").unwrap());
    }

    #[test]
    fn cooperating_platoon_reduces_losses_at_speed() {
        let solo = summary_for(HighwayConfig::drive_thru_reference().with_passes(3), 5);
        let platoon = summary_for(
            HighwayConfig::drive_thru_reference().with_cooperating_platoon(3).with_passes(3),
            5,
        );
        assert_eq!(
            solo.get("loss_before_pct_mean"),
            solo.get("loss_after_pct_mean"),
            "no cooperation possible alone"
        );
        assert!(
            platoon.get("loss_after_pct_mean").unwrap()
                < platoon.get("loss_before_pct_mean").unwrap()
        );
    }

    #[test]
    fn scenario_overrides_and_validation() {
        let scenario = HighwayScenario::drive_thru();
        let cfg = scenario
            .config_for(&SweepPoint::new(vec![
                (Param::SpeedKmh, ParamValue::Float(120.0)),
                (Param::ApRatePps, ParamValue::Float(10.0)),
                (Param::NCars, ParamValue::Int(3)),
                (Param::Cooperation, ParamValue::Bool(true)),
                (Param::Strategy, ParamValue::Strategy(RecoveryStrategyKind::NetCoded)),
                (Param::Rounds, ParamValue::Int(2)),
            ]))
            .unwrap();
        assert_eq!(cfg.speed_kmh, 120.0);
        assert_eq!(cfg.ap_rate_pps, 10.0);
        assert_eq!(cfg.n_cars, 3);
        assert!(cfg.cooperation_enabled);
        assert_eq!(cfg.strategy, RecoveryStrategyKind::NetCoded);
        assert_eq!(cfg.passes, 2);
        // The strategy reaches the per-pass protocol configuration.
        assert_eq!(
            PassInvariants::of(&cfg).carq.strategy,
            RecoveryStrategyKind::NetCoded,
            "strategy must reach the CarqConfig every pass runs"
        );
        // Selection is an urban-only parameter: the highway schema rejects it.
        let err = scenario
            .config_for(&SweepPoint::new(vec![(
                Param::Selection,
                ParamValue::Selection(carq::SelectionStrategy::AllNeighbours),
            )]))
            .unwrap_err();
        assert!(matches!(err, ParamError::Unknown { scenario: "highway", .. }), "{err}");
    }

    #[test]
    #[should_panic(expected = "at least one car")]
    fn zero_cars_rejected() {
        let mut cfg = HighwayConfig::drive_thru_reference();
        cfg.n_cars = 0;
        let _ = HighwayRun::new(cfg);
    }
}
