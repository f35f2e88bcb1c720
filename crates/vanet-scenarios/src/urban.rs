//! The paper's urban testbed (Figure 2), reproduced in simulation.
//!
//! Three cars drive a city-block loop at about 20 km/h past an access point
//! whose antenna sits on a first-floor office window. The AP continuously
//! transmits numbered 1000-byte packets to each car at 5 packets per second
//! per car, everything at 1 Mbps. Each of the 30 rounds is one lap: the
//! platoon enters coverage, crosses it, leaves it, and performs the
//! Cooperative-ARQ phase in the dark part of the loop.
//!
//! The experiment is exposed through the unified [`Scenario`] API:
//! [`UrbanScenario`] declares the typed parameter schema, and the
//! [`ScenarioRun`] it configures runs one lap per round — a pure function
//! of `(round, seed)`.

use rand::Rng;
use sim_core::{RunOutcome, SimTime, Simulation, StreamRng};
use vanet_dtn::{AccessPointApp, ApConfig, ApSchedulingPolicy};
use vanet_geo::{
    kmh_to_ms, urban_testbed_block, urban_testbed_loop, DriverProfile, PathMobility,
    PlatoonMobility, RoadLayout,
};
use vanet_mac::{MediumConfig, NodeId};
use vanet_radio::{Building, DataRate, ObstacleMap};
use vanet_stats::{PointSummary, RoundReport};
use vanet_trace::{NoTrace, TraceRecord, TraceSink, VecSink};

use crate::model::{ModelConfig, VanetModel};
use crate::params::{Param, ParamValue, SweepPoint};
use crate::scenario::{urban_summary, Scenario, ScenarioRun};
use crate::schema::{ParamError, ParamSchema, ParamSpec};

use carq::CarqConfig;
use sim_core::SimDuration;

/// Configuration of the urban experiment. This is the *base* configuration;
/// per-point overrides arrive through [`UrbanScenario::configure`] and all
/// randomness derives from the per-round seed.
#[derive(Debug, Clone)]
pub struct UrbanConfig {
    /// Number of experiment rounds (laps); the paper uses 30.
    pub rounds: u32,
    /// Number of cars in the platoon; the paper uses 3.
    pub n_cars: usize,
    /// Platoon cruise speed in km/h; the paper reports "about 20 Km/h".
    pub speed_kmh: f64,
    /// Driver profiles, leader first. Defaults model the paper's description
    /// (the car-2 driver was the least experienced).
    pub drivers: Vec<DriverProfile>,
    /// Protocol configuration run by every car.
    pub carq: CarqConfig,
    /// Wireless medium configuration.
    pub medium: MediumConfig,
    /// AP sending rate per car in packets per second (5 in the paper).
    pub ap_rate_pps: f64,
    /// Data payload per packet in bytes (1000 in the paper).
    pub payload_bytes: u32,
    /// PHY rate (1 Mbps in the paper).
    pub data_rate: DataRate,
    /// AP scheduling policy (fresh data only in the paper).
    pub ap_policy: ApSchedulingPolicy,
    /// Whether cars cooperate. Disable for the no-cooperation baseline.
    pub cooperation_enabled: bool,
    /// Fraction of a lap to simulate per round. The C-ARQ phase completes
    /// shortly after the platoon leaves coverage, so simulating the full dark
    /// part of the lap is unnecessary; 0.7 leaves ample margin.
    pub lap_fraction: f64,
}

impl UrbanConfig {
    /// The paper's testbed configuration.
    pub fn paper_testbed() -> Self {
        UrbanConfig {
            rounds: 30,
            n_cars: 3,
            speed_kmh: 20.0,
            drivers: vec![
                DriverProfile::experienced(),
                DriverProfile::inexperienced(),
                DriverProfile::default(),
            ],
            carq: CarqConfig::paper_prototype(),
            medium: MediumConfig::urban_testbed(),
            ap_rate_pps: 5.0,
            payload_bytes: 1_000,
            data_rate: DataRate::Mbps1,
            ap_policy: ApSchedulingPolicy::FreshDataOnly,
            cooperation_enabled: true,
            lap_fraction: 0.7,
        }
    }

    /// Disables cooperation (no-coop baseline).
    pub fn without_cooperation(mut self) -> Self {
        self.cooperation_enabled = false;
        self
    }

    /// Overrides the number of rounds.
    pub fn with_rounds(mut self, rounds: u32) -> Self {
        self.rounds = rounds;
        self
    }

    /// Overrides the protocol configuration.
    pub fn with_carq(mut self, carq: CarqConfig) -> Self {
        self.carq = carq;
        self
    }

    /// Overrides the platoon size, reusing default driver profiles for the
    /// extra cars.
    pub fn with_platoon_size(mut self, n_cars: usize) -> Self {
        self.n_cars = n_cars;
        while self.drivers.len() < n_cars {
            self.drivers.push(DriverProfile::default());
        }
        self.drivers.truncate(n_cars.max(1));
        self
    }
}

/// Narrows a sweep value to the `u32` the configs use, saturating rather
/// than wrapping.
pub(crate) fn saturate_u32(value: u64) -> u32 {
    u32::try_from(value).unwrap_or(u32::MAX)
}

/// The urban testbed as a registry-discoverable [`Scenario`].
#[derive(Debug)]
pub struct UrbanScenario {
    base: UrbanConfig,
    schema: ParamSchema,
}

impl UrbanScenario {
    /// A scenario sweeping around `base`.
    pub fn new(base: UrbanConfig) -> Self {
        let schema = ParamSchema::new(
            "urban",
            vec![
                ParamSpec::float(
                    Param::SpeedKmh,
                    "platoon cruise speed in km/h",
                    base.speed_kmh,
                    1.0,
                    200.0,
                ),
                ParamSpec::int(
                    Param::NCars,
                    "number of cars in the platoon",
                    base.n_cars as u64,
                    1,
                    32,
                ),
                ParamSpec::float(
                    Param::ApRatePps,
                    "AP sending rate per car (packets/s)",
                    base.ap_rate_pps,
                    0.1,
                    1_000.0,
                ),
                ParamSpec::int(
                    Param::PayloadBytes,
                    "payload per data packet in bytes",
                    u64::from(base.payload_bytes),
                    1,
                    65_535,
                ),
                ParamSpec::selection(
                    Param::Selection,
                    "cooperator-selection strategy",
                    base.carq.selection,
                ),
                ParamSpec::request(
                    Param::Request,
                    "REQUEST strategy (per-packet or batched)",
                    base.carq.request_strategy,
                ),
                // Default-transparent: at the default (the paper's C-ARQ)
                // the canonical configuration is the one this schema had
                // before the parameter existed, so historical seeds, cache
                // entries and golden exports survive; rival strategies get
                // distinct canonicals (and cache keys) automatically.
                ParamSpec::strategy(
                    Param::Strategy,
                    "recovery strategy run after leaving coverage",
                    base.carq.strategy,
                )
                .default_transparent(),
                ParamSpec::bool(
                    Param::Cooperation,
                    "whether the platoon runs C-ARQ",
                    base.cooperation_enabled,
                ),
                // Round-neutral: a lap's physics never depends on how
                // many laps the experiment runs, so extending `--rounds`
                // resumes from the cached prefix.
                ParamSpec::int(
                    Param::Rounds,
                    "experiment rounds (laps); the paper uses 30",
                    u64::from(base.rounds),
                    1,
                    10_000,
                )
                .round_neutral(),
            ],
        );
        UrbanScenario { base, schema }
    }

    /// The scenario at the paper's testbed configuration.
    pub fn paper_testbed() -> Self {
        UrbanScenario::new(UrbanConfig::paper_testbed())
    }

    /// The base configuration `configure` overrides.
    pub fn base(&self) -> &UrbanConfig {
        &self.base
    }

    /// The configuration a point runs: the base with the point's overrides.
    /// Callers outside `configure` (tests, benches) can inspect it.
    pub fn config_for(&self, point: &SweepPoint) -> Result<UrbanConfig, ParamError> {
        self.schema.validate(point)?;
        let mut cfg = self.base.clone();
        if let Some(speed) = point.get(Param::SpeedKmh).and_then(|v| v.as_f64()) {
            cfg.speed_kmh = speed;
        }
        if let Some(n) = point.get(Param::NCars).and_then(|v| v.as_u64()) {
            cfg = cfg.with_platoon_size(n as usize);
        }
        if let Some(rate) = point.get(Param::ApRatePps).and_then(|v| v.as_f64()) {
            cfg.ap_rate_pps = rate;
        }
        if let Some(payload) = point.get(Param::PayloadBytes).and_then(|v| v.as_u64()) {
            cfg.payload_bytes = saturate_u32(payload);
            cfg.carq.expected_payload_bytes = saturate_u32(payload);
        }
        if let Some(ParamValue::Selection(selection)) = point.get(Param::Selection) {
            cfg.carq.selection = selection;
        }
        if let Some(ParamValue::Request(request)) = point.get(Param::Request) {
            cfg.carq.request_strategy = request;
        }
        if let Some(strategy) = point.get(Param::Strategy).and_then(|v| v.as_strategy()) {
            cfg.carq.strategy = strategy;
        }
        if let Some(coop) = point.get(Param::Cooperation).and_then(|v| v.as_bool()) {
            cfg.cooperation_enabled = coop;
        }
        if let Some(rounds) = point.get(Param::Rounds).and_then(|v| v.as_u64()) {
            cfg.rounds = saturate_u32(rounds);
        }
        Ok(cfg)
    }
}

impl Scenario for UrbanScenario {
    fn name(&self) -> &'static str {
        "urban"
    }

    fn description(&self) -> &'static str {
        "the paper's urban testbed: a platoon lapping past an office-window AP (Table 1, Figs 3-8)"
    }

    fn schema(&self) -> &ParamSchema {
        &self.schema
    }

    fn configure(&self, point: &SweepPoint) -> Result<Box<dyn ScenarioRun>, ParamError> {
        Ok(Box::new(UrbanRun::new(self.config_for(point)?)))
    }
}

/// Per-run invariants hoisted out of the per-round hot path: the testbed
/// layout, the obstacle map and the medium configuration template never vary
/// between rounds — only the per-round shadowing seeds do — so they are
/// built once per configured run instead of once per lap.
#[derive(Debug, Clone)]
struct UrbanInvariants {
    layout: RoadLayout,
    /// The configured medium with the city-block obstacle map already
    /// applied to both channels; rounds only stamp their shadowing seeds.
    medium_template: vanet_mac::MediumConfig,
    car_ids: Vec<NodeId>,
    speed_ms: f64,
    horizon: SimTime,
}

impl UrbanInvariants {
    fn of(config: &UrbanConfig) -> Self {
        let layout = urban_testbed_loop();
        let speed_ms = kmh_to_ms(config.speed_kmh);
        // The city block enclosed by the loop heavily shadows every link that
        // has to cross it, confining AP coverage to the southern street.
        let (block_min, block_max) = urban_testbed_block();
        let obstacles =
            ObstacleMap::from_buildings(vec![Building::new(block_min, block_max, 30.0)]);
        let mut medium_template = config.medium.clone();
        medium_template.ap_vehicle.obstacles = obstacles.clone();
        medium_template.vehicle_vehicle.obstacles = obstacles;
        let lap_seconds = layout.lap_length() / speed_ms;
        UrbanInvariants {
            layout,
            medium_template,
            car_ids: (1..=config.n_cars as u32).map(NodeId::new).collect(),
            speed_ms,
            horizon: SimTime::from_secs_f64(lap_seconds * config.lap_fraction),
        }
    }
}

/// One configured urban experiment: [`ScenarioRun::run_round`] simulates one
/// lap.
#[derive(Debug, Clone)]
pub struct UrbanRun {
    config: UrbanConfig,
    invariants: UrbanInvariants,
}

impl UrbanRun {
    /// Creates a run for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (no cars, no
    /// drivers, non-positive speed, or an invalid protocol configuration).
    /// Configurations built through [`UrbanScenario::configure`] are
    /// schema-checked and cannot trip these.
    pub fn new(config: UrbanConfig) -> Self {
        assert!(config.n_cars >= 1, "the experiment needs at least one car");
        assert!(!config.drivers.is_empty(), "at least one driver profile is required");
        assert!(config.speed_kmh > 0.0, "speed must be positive");
        assert!(config.rounds >= 1, "at least one round is required");
        assert!((0.1..=1.0).contains(&config.lap_fraction), "lap_fraction must be in (0.1, 1.0]");
        if let Err(msg) = config.carq.validate() {
            panic!("invalid protocol configuration: {msg}");
        }
        let invariants = UrbanInvariants::of(&config);
        UrbanRun { config, invariants }
    }

    /// The configuration in use.
    pub fn config(&self) -> &UrbanConfig {
        &self.config
    }

    /// The model one round simulates at `seed`, emitting into `sink`, and
    /// the horizon it runs to: what [`ScenarioRun::run_round`] simulates,
    /// for a caller that drives the simulation itself.
    pub fn round_model<S: TraceSink>(&self, seed: u64, sink: S) -> (VanetModel<S>, SimTime) {
        let cfg = &self.config;
        let inv = &self.invariants;

        let round_rng = StreamRng::derive(seed, "urban-round");
        let mut mobility_rng = round_rng.substream(1);
        let shadow_seed_a = round_rng.substream(2).gen::<u64>();
        let shadow_seed_b = round_rng.substream(3).gen::<u64>();
        let model_seed = round_rng.substream(4).gen::<u64>();

        // The layout, obstacle map and channel parameters are invariant
        // across rounds (see `UrbanInvariants`); only the shadowing
        // landscape is re-seeded per lap.
        let mut medium = inv.medium_template.clone();
        medium.ap_vehicle.shadowing_seed = shadow_seed_a;
        medium.vehicle_vehicle.shadowing_seed = shadow_seed_b;

        let model_config = ModelConfig {
            medium,
            data_rate: cfg.data_rate,
            carq: cfg.carq.clone(),
            position_update_interval: SimDuration::from_millis(100),
            seed: model_seed,
            cooperation_enabled: cfg.cooperation_enabled,
        };
        let mut model = VanetModel::with_sink(model_config, sink);

        // Cars are numbered 1..=n, the AP is node 0, matching the paper's
        // car 1 / car 2 / car 3 naming.
        let ap_config = ApConfig {
            cars: inv.car_ids.clone(),
            packets_per_second_per_car: cfg.ap_rate_pps,
            payload_bytes: cfg.payload_bytes,
            policy: cfg.ap_policy,
        };
        model.add_access_point(
            NodeId::new(0),
            inv.layout.access_points[0],
            AccessPointApp::new(ap_config),
        );

        let platoon = PlatoonMobility::new(
            inv.layout.path.clone(),
            inv.speed_ms,
            &cfg.drivers[..cfg.n_cars],
            &mut mobility_rng,
        );
        for (i, id) in inv.car_ids.iter().enumerate() {
            let mobility: PathMobility = platoon.member(i).clone();
            model.add_car(*id, mobility);
        }
        (model, inv.horizon)
    }

    /// The round body, generic over the trace sink: `run_round` instantiates
    /// it with [`NoTrace`] (compiling the tracing away), `run_round_traced`
    /// with a recording sink. One body, so the traced and untraced paths
    /// cannot drift apart.
    fn run_round_sink<S: TraceSink>(&self, round: u32, seed: u64, sink: &mut S) -> RoundReport {
        let (model, horizon) = self.round_model(seed, sink);
        let mut sim = Simulation::new(model).with_horizon(horizon).with_event_budget(5_000_000);
        for (t, ev) in sim.model().initial_events() {
            sim.schedule_at(t, ev);
        }
        let outcome = sim.run();
        debug_assert_ne!(outcome, RunOutcome::EventBudgetExhausted, "runaway event loop");
        let events = sim.processed_events();
        let model = sim.into_model();

        let node_stats = model.node_stats();
        let sum = |f: fn(&carq::CarqNodeStats) -> u64| -> f64 {
            node_stats.iter().map(|s| f(&s.stats) as f64).sum()
        };
        RoundReport::new(round, seed, model.round_result())
            .with_counter("requests_sent", sum(|s| s.requests_sent))
            .with_counter("coop_data_sent", sum(|s| s.coop_data_sent))
            .with_counter("recovered_via_coop", sum(|s| s.recovered_via_coop))
            .with_counter("responses_suppressed", sum(|s| s.responses_suppressed))
            .with_counter("medium_frames_sent", model.medium_stats().frames_sent as f64)
            .with_counter("sim_events", events as f64)
            .with_counter("csma_deferrals", model.csma_deferrals() as f64)
            .with_counter(
                "arq_retransmissions",
                model.ap_retransmissions_queued() as f64 + sum(|s| s.coop_data_sent),
            )
            .with_counter("buffer_evictions", sum(|s| s.buffer_evictions))
            .with_counter("strategy_decisions", model.strategy_decisions() as f64)
    }
}

impl ScenarioRun for UrbanRun {
    fn rounds(&self) -> u32 {
        self.config.rounds
    }

    /// Runs a single round (lap). All randomness — mobility realisation,
    /// shadowing landscape, every sampling stream — derives from `seed`.
    fn run_round(&self, round: u32, seed: u64) -> RoundReport {
        self.run_round_sink(round, seed, &mut NoTrace)
    }

    fn run_round_traced(&self, round: u32, seed: u64) -> (RoundReport, Vec<TraceRecord>) {
        let mut sink = VecSink::new();
        let report = self.run_round_sink(round, seed, &mut sink);
        (report, sink.into_records())
    }

    fn aggregate(&self, rounds: &[RoundReport]) -> PointSummary {
        urban_summary(rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{round_seed, run_rounds};

    fn quick_run(rounds: u32) -> UrbanRun {
        UrbanRun::new(UrbanConfig::paper_testbed().with_rounds(rounds))
    }

    #[test]
    fn single_round_produces_observations_for_every_car() {
        let run = quick_run(1);
        let report = run.run_round(0, 99);
        assert_eq!(report.result.cars(), vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]);
        assert!(
            report.counter("medium_frames_sent").unwrap() > 500.0,
            "AP alone sends ~15 frames/s"
        );
        for car in report.result.cars() {
            let counts = report.result.flow_for(car).unwrap().counts();
            assert!(
                counts.tx_in_window > 40,
                "car {car} saw only {} packets in its window",
                counts.tx_in_window
            );
            assert!(counts.lost_before_coop > 0, "urban channel should lose packets");
        }
    }

    #[test]
    fn cooperation_reduces_losses_in_a_round() {
        let run = quick_run(2);
        let report = run.run_round(1, round_seed(99, 1));
        let mut total_before = 0usize;
        let mut total_after = 0usize;
        for car in report.result.cars() {
            let counts = report.result.flow_for(car).unwrap().counts();
            total_before += counts.lost_before_coop;
            total_after += counts.lost_after_coop;
        }
        assert!(
            total_after < total_before,
            "cooperation must recover packets ({total_after} !< {total_before})"
        );
        assert!(report.counter("recovered_via_coop").unwrap() > 0.0);
    }

    #[test]
    fn rounds_are_pure_functions_of_round_and_seed() {
        let run = quick_run(2);
        assert_eq!(run.run_round(0, 7), run.run_round(0, 7));
        assert_ne!(run.run_round(0, 7).result, run.run_round(0, 8).result);
        // The round index alone does not re-randomise: the seed carries all
        // the entropy.
        assert_eq!(run.run_round(0, 7).result, run.run_round(1, 7).result);
    }

    #[test]
    fn run_rounds_aggregates_all_rounds() {
        let run = quick_run(2);
        let reports = run_rounds(&run, 99, 1);
        assert_eq!(reports.len(), 2);
        let summary = run.aggregate(&reports);
        assert!(summary.get("requests_sent").unwrap() > 0.0);
        assert!(summary.get("coop_data_sent").unwrap() > 0.0);
        let before = summary.get("loss_before_pct_mean").unwrap();
        let after = summary.get("loss_after_pct_mean").unwrap();
        assert!(after <= before, "cooperation must not increase losses ({after} > {before})");
    }

    #[test]
    fn no_cooperation_baseline_sends_no_protocol_traffic() {
        let run = UrbanRun::new(UrbanConfig::paper_testbed().without_cooperation().with_rounds(1));
        let reports = run_rounds(&run, 5, 1);
        let summary = run.aggregate(&reports);
        assert_eq!(summary.get("requests_sent"), Some(0.0));
        assert_eq!(summary.get("coop_data_sent"), Some(0.0));
        // Losses before and after coincide in the baseline.
        for car in reports[0].result.cars() {
            let counts = reports[0].result.flow_for(car).unwrap().counts();
            assert_eq!(counts.lost_before_coop, counts.lost_after_coop);
        }
    }

    #[test]
    fn scenario_overrides_reach_the_config() {
        use carq::{RecoveryStrategyKind, RequestStrategy, SelectionStrategy};
        let scenario = UrbanScenario::paper_testbed();
        let cfg = scenario
            .config_for(&SweepPoint::new(vec![
                (Param::SpeedKmh, ParamValue::Float(35.0)),
                (Param::NCars, ParamValue::Int(5)),
                (Param::ApRatePps, ParamValue::Float(8.0)),
                (Param::PayloadBytes, ParamValue::Int(500)),
                (Param::Selection, ParamValue::Selection(SelectionStrategy::FirstHeard { k: 2 })),
                (Param::Request, ParamValue::Request(RequestStrategy::Batched)),
                (Param::Strategy, ParamValue::Strategy(RecoveryStrategyKind::OneHopListen)),
                (Param::Cooperation, ParamValue::Bool(false)),
                (Param::Rounds, ParamValue::Int(4)),
            ]))
            .unwrap();
        assert_eq!(cfg.speed_kmh, 35.0);
        assert_eq!(cfg.n_cars, 5);
        assert_eq!(cfg.drivers.len(), 5);
        assert_eq!(cfg.ap_rate_pps, 8.0);
        assert_eq!(cfg.payload_bytes, 500);
        assert_eq!(cfg.carq.expected_payload_bytes, 500);
        assert_eq!(cfg.carq.selection, SelectionStrategy::FirstHeard { k: 2 });
        assert_eq!(cfg.carq.request_strategy, RequestStrategy::Batched);
        assert_eq!(cfg.carq.strategy, RecoveryStrategyKind::OneHopListen);
        assert!(!cfg.cooperation_enabled);
        assert_eq!(cfg.rounds, 4);
    }

    #[test]
    fn unassigned_parameters_keep_base_values() {
        let scenario = UrbanScenario::paper_testbed();
        let cfg = scenario
            .config_for(&SweepPoint::new(vec![(Param::NCars, ParamValue::Int(4))]))
            .unwrap();
        let base = UrbanConfig::paper_testbed();
        assert_eq!(cfg.speed_kmh, base.speed_kmh);
        assert_eq!(cfg.ap_rate_pps, base.ap_rate_pps);
        assert_eq!(cfg.rounds, base.rounds);
        assert_eq!(cfg.n_cars, 4);
    }

    #[test]
    fn unknown_and_out_of_range_parameters_are_rejected() {
        let scenario = UrbanScenario::paper_testbed();
        let err = scenario
            .configure(&SweepPoint::new(vec![(Param::FileBlocks, ParamValue::Int(100))]))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, ParamError::Unknown { scenario: "urban", .. }), "{err}");
        let err = scenario
            .configure(&SweepPoint::new(vec![(Param::NCars, ParamValue::Int(0))]))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, ParamError::Range { param: Param::NCars, .. }), "{err}");
    }

    #[test]
    #[should_panic(expected = "at least one car")]
    fn zero_cars_rejected() {
        let mut cfg = UrbanConfig::paper_testbed();
        cfg.n_cars = 0;
        let _ = UrbanRun::new(cfg);
    }
}
