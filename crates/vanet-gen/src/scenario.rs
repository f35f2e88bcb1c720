//! Generated scenarios: a [`Blueprint`] behind the standard
//! [`Scenario`]/[`ScenarioRun`] API.
//!
//! Identity is the heart of this module. A generated scenario is named
//! `gen/{generator}/{id16}` where `id16` hashes the *canonical* generator
//! parameters and the gen seed — nothing else. Because the scenario name
//! feeds `ParamSchema::fingerprint` and `canonical_config`, the existing
//! content-addressed cache keys distinguish every generated world without
//! any cache-layer changes, and any cache entry can be traced back to a
//! regenerable `(generator, params, seed)` triple.

use rand::Rng;
use sim_core::{fnv1a64, RunOutcome, SimDuration, SimTime, Simulation, StreamRng};
use vanet_dtn::{AccessPointApp, ApConfig, ApSchedulingPolicy};
use vanet_geo::PathMobility;
use vanet_mac::NodeId;
use vanet_radio::DataRate;
use vanet_scenarios::{
    urban_summary, ModelConfig, Param, ParamError, ParamSchema, ParamSpec, Scenario, ScenarioRun,
    SweepPoint, VanetModel,
};
use vanet_stats::{PointSummary, RoundReport};
use vanet_trace::{NoTrace, TraceRecord, TraceSink, VecSink};

use carq::CarqConfig;

use crate::blueprint::Blueprint;
use crate::generators::{self, Generator};
use crate::params::{GenError, GenValue, ResolvedParams};

/// The regenerable identity of a generated scenario: the triple every
/// downstream artefact (scenario name, cache keys, `VANETGEN1` files,
/// campaign shards) derives from.
#[derive(Debug, Clone, PartialEq)]
pub struct GenIdentity {
    /// The generator that built the world.
    pub generator: &'static str,
    /// The fully resolved generator parameters.
    pub params: ResolvedParams,
    /// The generation seed.
    pub seed: u64,
}

impl GenIdentity {
    /// The lossless one-line rendering:
    /// `generator=NAME;key=canon;…;gen_seed=0x…`.
    pub fn canonical(&self) -> String {
        format!(
            "generator={};{};gen_seed={:#018x}",
            self.generator,
            self.params.canonical(),
            self.seed
        )
    }

    /// The 16-hex-digit content hash of the canonical identity — the last
    /// path segment of the scenario name.
    pub fn id16(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical().as_bytes()))
    }

    /// The scenario name this identity instantiates as:
    /// `gen/{generator}/{id16}`.
    pub fn scenario_name(&self) -> String {
        format!("gen/{}/{}", self.generator, self.id16())
    }
}

/// Instantiates a generated scenario from `(generator, assignments, seed)`.
///
/// The assignments may be partial (defaults fill the rest) and in any
/// order; resolution normalises them into the canonical identity, so every
/// spelling of the same parameters yields the same scenario name, blueprint
/// and cache keys.
///
/// # Errors
///
/// [`GenError::UnknownGenerator`] for a name not in the catalogue, and the
/// schema's validation errors for bad assignments.
pub fn instantiate(
    generator: &str,
    assignments: &[(String, GenValue)],
    seed: u64,
) -> Result<GeneratedScenario, GenError> {
    let generator = generators::find(generator)
        .ok_or_else(|| GenError::UnknownGenerator(generator.to_string()))?;
    instantiate_with(&generator, assignments, seed)
}

/// [`instantiate`] with an already resolved catalogue entry.
pub fn instantiate_with(
    generator: &Generator,
    assignments: &[(String, GenValue)],
    seed: u64,
) -> Result<GeneratedScenario, GenError> {
    let params = generator.schema().resolve(assignments)?;
    let identity = GenIdentity { generator: generator.name, params, seed };
    let blueprint = generator.blueprint(&identity.params, seed);
    Ok(GeneratedScenario::from_parts(identity, blueprint))
}

/// A generated world as a first-class [`Scenario`]: registry-compatible,
/// sweepable, cacheable.
#[derive(Debug)]
pub struct GeneratedScenario {
    identity: GenIdentity,
    blueprint: Blueprint,
    /// Leaked once per instantiation: scenario names are `&'static str`
    /// throughout the platform. A campaign instantiates each identity a
    /// handful of times per process, so the leak is small and bounded.
    name: &'static str,
    description: &'static str,
    schema: ParamSchema,
}

impl GeneratedScenario {
    fn from_parts(identity: GenIdentity, blueprint: Blueprint) -> Self {
        let name: &'static str = Box::leak(identity.scenario_name().into_boxed_str());
        let description: &'static str = Box::leak(
            format!(
                "generated by `{}` ({} car(s), {} AP(s)); regenerable from its identity",
                identity.generator,
                blueprint.cars.len(),
                blueprint.ap_positions.len()
            )
            .into_boxed_str(),
        );
        // The runtime schema exposes the same experiment-level knobs for
        // every generated scenario; the *world* is fixed by the identity.
        // `Rounds` is round-neutral, so raising a campaign's round budget
        // resumes from the cached prefix exactly like the built-ins.
        let schema = ParamSchema::new(
            name,
            vec![
                ParamSpec::bool(Param::Cooperation, "whether the cars run C-ARQ", true),
                // Default-transparent: at the default (the paper's C-ARQ)
                // the canonical configuration matches what this schema
                // produced before the parameter existed, so campaign cache
                // entries survive; rival strategies get distinct canonicals.
                ParamSpec::strategy(
                    Param::Strategy,
                    "recovery strategy run after leaving coverage",
                    carq::RecoveryStrategyKind::CoopArq,
                )
                .default_transparent(),
                ParamSpec::int(
                    Param::Rounds,
                    "experiment rounds over the generated world",
                    u64::from(blueprint.rounds_default),
                    1,
                    10_000,
                )
                .round_neutral(),
            ],
        );
        GeneratedScenario { identity, blueprint, name, description, schema }
    }

    /// The regenerable identity.
    pub fn identity(&self) -> &GenIdentity {
        &self.identity
    }

    /// The frozen world.
    pub fn blueprint(&self) -> &Blueprint {
        &self.blueprint
    }
}

impl Scenario for GeneratedScenario {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn schema(&self) -> &ParamSchema {
        &self.schema
    }

    fn configure(&self, point: &SweepPoint) -> Result<Box<dyn ScenarioRun>, ParamError> {
        Ok(Box::new(self.generated_run(point)?))
    }
}

impl GeneratedScenario {
    /// [`Scenario::configure`]'s run, as its concrete type.
    fn generated_run(&self, point: &SweepPoint) -> Result<GeneratedRun, ParamError> {
        self.schema.validate(point)?;
        let cooperation = point.get(Param::Cooperation).and_then(|v| v.as_bool()).unwrap_or(true);
        let rounds = point
            .get(Param::Rounds)
            .and_then(|v| v.as_u64())
            .map(|r| u32::try_from(r).unwrap_or(u32::MAX))
            .unwrap_or(self.blueprint.rounds_default);
        let mut carq = CarqConfig::paper_prototype().with_ap_timeout(SimDuration::from_secs(3));
        carq.expected_payload_bytes = self.blueprint.payload_bytes;
        if let Some(strategy) = point.get(Param::Strategy).and_then(|v| v.as_strategy()) {
            carq.strategy = strategy;
        }
        Ok(GeneratedRun {
            blueprint: self.blueprint.clone(),
            carq,
            cooperation_enabled: cooperation,
            rounds,
        })
    }
}

/// One configured generated experiment; each round replays the frozen world
/// under a fresh round seed.
#[derive(Debug, Clone)]
pub struct GeneratedRun {
    blueprint: Blueprint,
    carq: CarqConfig,
    cooperation_enabled: bool,
    rounds: u32,
}

impl GeneratedRun {
    /// The model one round simulates at `seed`, emitting into `sink`, and
    /// the horizon it runs to.
    fn round_model<S: TraceSink>(&self, seed: u64, sink: S) -> (VanetModel<S>, SimTime) {
        let bp = &self.blueprint;

        let round_rng = StreamRng::derive(seed, "gen-round");
        let shadow_seed_a = round_rng.substream(2).gen::<u64>();
        let shadow_seed_b = round_rng.substream(3).gen::<u64>();
        let model_seed = round_rng.substream(4).gen::<u64>();

        let mut medium = bp.medium.clone();
        medium.ap_vehicle.shadowing_seed = shadow_seed_a;
        medium.vehicle_vehicle.shadowing_seed = shadow_seed_b;

        let model_config = ModelConfig {
            medium,
            data_rate: DataRate::Mbps1,
            carq: self.carq.clone(),
            position_update_interval: SimDuration::from_millis(100),
            seed: model_seed,
            cooperation_enabled: self.cooperation_enabled,
        };
        let mut model = VanetModel::with_sink(model_config, sink);

        // APs take the low dense ids, cars follow — both contiguous so the
        // medium's dense node tables stay small.
        let n_aps = bp.ap_positions.len() as u32;
        let car_ids: Vec<NodeId> =
            (0..bp.cars.len() as u32).map(|i| NodeId::new(n_aps + i)).collect();
        for (i, position) in bp.ap_positions.iter().enumerate() {
            let ap_config = ApConfig {
                cars: car_ids.clone(),
                packets_per_second_per_car: bp.ap_rate_pps,
                payload_bytes: bp.payload_bytes,
                policy: ApSchedulingPolicy::FreshDataOnly,
            };
            model.add_access_point(
                NodeId::new(i as u32),
                *position,
                AccessPointApp::new(ap_config),
            );
        }
        for (plan, id) in bp.cars.iter().zip(&car_ids) {
            let mobility = PathMobility::new(plan.path.clone(), plan.speed_ms)
                .with_start_offset(plan.start_offset_m)
                .with_start_time(plan.start_time);
            model.add_car(*id, mobility);
        }
        (model, bp.horizon)
    }

    /// The round body, generic over the trace sink, mirroring the built-in
    /// scenarios: `run_round` instantiates it with [`NoTrace`] (tracing
    /// compiles away), `run_round_traced` with a recording sink — one body,
    /// so the two paths cannot drift.
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

impl ScenarioRun for GeneratedRun {
    fn rounds(&self) -> u32 {
        self.rounds
    }

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
    use carq::CarqMessage;
    use sim_core::{Model, Scheduler};
    use vanet_scenarios::model::VanetEvent;
    use vanet_scenarios::{round_seed, UrbanConfig, UrbanRun};

    fn quick_assignments() -> Vec<(String, GenValue)> {
        // Small worlds keep the test suite fast: short walks, few cars.
        vec![
            ("walk_m".to_string(), GenValue::Float(150.0)),
            ("n_cars".to_string(), GenValue::Int(2)),
        ]
    }

    #[test]
    fn identity_is_canonical_and_order_insensitive() {
        let a = instantiate("grid-city", &quick_assignments(), 7).unwrap();
        let mut reversed = quick_assignments();
        reversed.reverse();
        let b = instantiate("grid-city", &reversed, 7).unwrap();
        assert_eq!(a.name(), b.name(), "assignment order must not change identity");
        assert_eq!(a.identity().canonical(), b.identity().canonical());
        assert!(a.name().starts_with("gen/grid-city/"), "{}", a.name());
        assert_eq!(a.schema().scenario(), a.name());
        // Another seed is another scenario.
        let c = instantiate("grid-city", &quick_assignments(), 8).unwrap();
        assert_ne!(a.name(), c.name());
        // Other params are another scenario too.
        let d =
            instantiate("grid-city", &[("walk_m".to_string(), GenValue::Float(151.0))], 7).unwrap();
        assert_ne!(a.name(), d.name());
    }

    #[test]
    fn schema_fingerprints_differ_per_identity() {
        let a = instantiate("grid-city", &quick_assignments(), 7).unwrap();
        let b = instantiate("grid-city", &quick_assignments(), 8).unwrap();
        assert_ne!(
            a.schema().fingerprint(),
            b.schema().fingerprint(),
            "the scenario name feeds the fingerprint, so identities never share cache keys"
        );
    }

    #[test]
    fn unknown_generator_is_reported() {
        let err = instantiate("mars-rover", &[], 1).unwrap_err();
        assert!(matches!(err, GenError::UnknownGenerator(_)), "{err}");
    }

    #[test]
    fn generated_rounds_are_pure_and_observable() {
        let scenario = instantiate("grid-city", &quick_assignments(), 11).unwrap();
        let run = scenario.configure(&SweepPoint::empty()).unwrap();
        assert_eq!(run.rounds(), 2, "generator default budget");
        let seed = round_seed(3, 0);
        let a = run.run_round(0, seed);
        let b = run.run_round(0, seed);
        assert_eq!(a, b, "rounds must be pure functions of (round, seed)");
        assert!(a.counter("sim_events").unwrap() > 0.0);
        assert!(a.counter("medium_frames_sent").unwrap() > 0.0);
        let summary = run.aggregate(&[a]);
        assert!(summary.get("tx_window_mean").is_some());
    }

    #[test]
    fn traced_and_untraced_rounds_agree() {
        let scenario = instantiate(
            "platoon-merge",
            &[
                ("tail_m".to_string(), GenValue::Float(150.0)),
                ("feeder_m".to_string(), GenValue::Float(100.0)),
            ],
            5,
        )
        .unwrap();
        let run = scenario.configure(&SweepPoint::empty()).unwrap();
        let seed = round_seed(9, 0);
        let (traced_report, records) = run.run_round_traced(0, seed);
        assert_eq!(run.run_round(0, seed), traced_report, "tracing perturbed the run");
        assert!(!records.is_empty());
        let report = vanet_trace::verify(&records);
        assert!(report.is_ok(), "invariant violations: {:?}", report.violations);
    }

    #[test]
    fn cooperation_toggle_reaches_the_model() {
        let scenario = instantiate(
            "highway-flow",
            &[
                ("road_length_m".to_string(), GenValue::Float(300.0)),
                ("n_cars".to_string(), GenValue::Int(2)),
            ],
            2,
        )
        .unwrap();
        let baseline = scenario
            .configure(&SweepPoint::new(vec![(
                Param::Cooperation,
                vanet_scenarios::ParamValue::Bool(false),
            )]))
            .unwrap();
        let report = baseline.run_round(0, round_seed(1, 0));
        assert_eq!(report.counter("requests_sent"), Some(0.0));
        assert_eq!(report.counter("coop_data_sent"), Some(0.0));
    }

    #[test]
    fn strategy_override_reaches_the_protocol_config() {
        use carq::RecoveryStrategyKind;
        let scenario = instantiate("grid-city", &quick_assignments(), 3).unwrap();
        // A non-default strategy flows into every round's CarqConfig and —
        // because the parameter is default-transparent — changes the
        // canonical configuration (and therefore seeds and cache keys).
        let point = SweepPoint::new(vec![(
            Param::Strategy,
            vanet_scenarios::ParamValue::Strategy(RecoveryStrategyKind::NoCoop),
        )]);
        let run = scenario.configure(&point).unwrap();
        let report = run.run_round(0, round_seed(4, 0));
        assert_eq!(report.counter("requests_sent"), Some(0.0), "no-coop never requests");
        assert_ne!(
            scenario.schema().canonical_config(&point),
            scenario.schema().canonical_config(&SweepPoint::empty()),
            "a rival strategy must get its own canonical configuration"
        );
    }

    #[test]
    fn runtime_schema_rejects_world_parameters() {
        let scenario = instantiate("grid-city", &quick_assignments(), 1).unwrap();
        let err = scenario
            .configure(&SweepPoint::new(vec![(
                Param::SpeedKmh,
                vanet_scenarios::ParamValue::Float(10.0),
            )]))
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, ParamError::Unknown { .. }),
            "world geometry is identity, not a runtime knob: {err}"
        );
    }

    /// A round's model that reads, at every HELLO delivery, the SNR the
    /// HELLO handler reads (`Medium::snr_db` of the event's SNR; a HELLO's
    /// handler is its only reader), with the receiver and the time.
    struct HelloSnrs<S: TraceSink> {
        model: VanetModel<S>,
        read: Vec<(SimTime, NodeId, u64)>,
    }

    impl<S: TraceSink> Model for HelloSnrs<S> {
        type Event = VanetEvent;

        fn on_dispatch(&mut self, now: SimTime, queue_depth: usize) {
            self.model.on_dispatch(now, queue_depth);
        }

        fn handle(
            &mut self,
            now: SimTime,
            event: VanetEvent,
            scheduler: &mut Scheduler<VanetEvent>,
        ) {
            if let VanetEvent::FrameDelivery { to, frame, snr } = &event {
                if matches!(frame.payload, CarqMessage::Hello(_)) {
                    self.read.push((now, *to, self.model.medium().snr_db(snr).to_bits()));
                }
            }
            self.model.handle(now, event, scheduler);
        }
    }

    /// Simulates one round's model and returns the SNRs its HELLO handlers
    /// read.
    fn hello_snrs<S: TraceSink>(
        (model, horizon): (VanetModel<S>, SimTime),
    ) -> Vec<(SimTime, NodeId, u64)> {
        let mut sim = Simulation::new(HelloSnrs { model, read: Vec::new() }).with_horizon(horizon);
        for (t, ev) in sim.model().model.initial_events() {
            sim.schedule_at(t, ev);
        }
        sim.run();
        sim.into_model().read
    }

    /// Untraced verdicts are decided without their SNR, which the medium
    /// evaluates from the kept draws when a HELLO handler reads it; traced
    /// verdicts evaluate it exactly when sampled. Both must hand every
    /// HELLO handler the same bits, and those bits must be the realised
    /// SNRs the trace records for receptions at that receiver.
    #[test]
    fn hello_handlers_read_the_same_snrs_traced_and_untraced() {
        let urban = UrbanRun::new(UrbanConfig::paper_testbed());
        let assignments: Vec<(String, GenValue)> =
            [("blocks_x", 4), ("blocks_y", 4), ("n_cars", 8), ("n_aps", 4)]
                .into_iter()
                .map(|(name, value)| (name.to_string(), GenValue::Int(value)))
                .collect();
        let grid = instantiate("grid-city", &assignments, 0x2008_1cdc)
            .expect("grid-city parameters are valid")
            .generated_run(&SweepPoint::empty())
            .expect("the default point is valid");
        for round in 0..2 {
            let seed = round_seed(0x2008_1cdc, round);
            let mut urban_sink = VecSink::new();
            let mut grid_sink = VecSink::new();
            let cases = [
                (
                    "urban",
                    hello_snrs(urban.round_model(seed, &mut urban_sink)),
                    hello_snrs(urban.round_model(seed, NoTrace)),
                    urban_sink,
                ),
                (
                    "grid-city",
                    hello_snrs(grid.round_model(seed, &mut grid_sink)),
                    hello_snrs(grid.round_model(seed, NoTrace)),
                    grid_sink,
                ),
            ];
            for (name, traced, untraced, sink) in cases {
                assert!(traced.len() > 10, "{name} round {round}: {} HELLOs read", traced.len());
                assert_eq!(traced, untraced, "{name} round {round}");
                let mut recorded: Vec<(u32, u64)> = sink
                    .records()
                    .iter()
                    .filter_map(|r| match *r {
                        TraceRecord::Delivery { rx, received: true, snr_db, .. } => {
                            Some((rx, snr_db.to_bits()))
                        }
                        _ => None,
                    })
                    .collect();
                recorded.sort_unstable();
                for &(_, to, bits) in &traced {
                    let key = (to.as_u32(), bits);
                    let i = recorded.binary_search(&key).unwrap_or_else(|_| {
                        panic!("{name} round {round}: no recorded reception {key:?}")
                    });
                    recorded.remove(i);
                }
            }
        }
    }
}
