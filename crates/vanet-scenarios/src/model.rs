//! The discrete-event model that wires the protocol stack together.
//!
//! One [`VanetModel`] instance simulates one experiment round: a set of
//! static access points running [`AccessPointApp`] traffic sources, a platoon
//! of vehicles each running a [`CarqNode`], a shared [`Medium`], and the
//! vehicles' mobility. The model translates [`carq::Action`]s into medium
//! transmissions (with CSMA deferral) and timer events, and records the
//! promiscuous per-flow receptions that the evaluation needs (what the
//! testbed captured with tcpdump on every laptop).

use std::collections::BTreeMap;
use std::rc::Rc;

use carq::{Action, CarqConfig, CarqMessage, CarqNode, CarqNodeStats, TimerKind};
use sim_core::{Model, RunOutcome, Scheduler, SimDuration, SimTime, Simulation, StreamRng};
use vanet_dtn::{AccessPointApp, ApSchedulingPolicy, ReceptionMap};
use vanet_geo::{MobilityModel, PathMobility, Point};
use vanet_mac::{
    CsmaBackoff, Delivery, DeliverySnr, Destination, Frame, Medium, MediumConfig, NodeId,
    RadioClass,
};
use vanet_radio::DataRate;
use vanet_stats::{FlowObservation, RoundReport, RoundResult};
use vanet_trace::{NoTrace, TraceRecord, TraceSink};

/// Static configuration of one simulated round.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// The wireless medium configuration (channels, timing).
    pub medium: MediumConfig,
    /// PHY rate used for every transmission (1 Mbps in the testbed).
    pub data_rate: DataRate,
    /// The protocol configuration run by every car.
    pub carq: CarqConfig,
    /// How often vehicle positions are pushed to the medium.
    pub position_update_interval: SimDuration,
    /// Master seed for the round's random streams.
    pub seed: u64,
    /// Whether cars run the Cooperative-ARQ protocol. When `false` the cars
    /// still receive (so "before cooperation" statistics exist) but never
    /// beacon, buffer or recover — the no-cooperation baseline.
    pub cooperation_enabled: bool,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            medium: MediumConfig::urban_testbed(),
            data_rate: DataRate::Mbps1,
            carq: CarqConfig::paper_prototype(),
            position_update_interval: SimDuration::from_millis(100),
            seed: 1,
            cooperation_enabled: true,
        }
    }
}

/// Events driving the model.
#[derive(Debug, Clone)]
pub enum VanetEvent {
    /// Start a car's protocol instance.
    CarStart {
        /// The car to start.
        node: NodeId,
    },
    /// Push fresh vehicle positions into the medium.
    PositionUpdate,
    /// The AP with the given index transmits its next scheduled packet.
    ApTransmit {
        /// Index into the model's AP list.
        ap_index: usize,
    },
    /// A car puts a protocol frame on the air (after CSMA deferral).
    CarTransmit {
        /// The transmitting car.
        node: NodeId,
        /// The message to send.
        message: CarqMessage,
        /// The logical destination.
        dst: Destination,
    },
    /// A frame reaches a receiver. The frame is shared (one transmission
    /// reaches every receiver with the same bits), so fanning one broadcast
    /// out to N receivers clones an `Rc`, not the payload.
    FrameDelivery {
        /// The receiving node.
        to: NodeId,
        /// The received frame, shared between all receivers of the
        /// transmission.
        frame: Rc<Frame<CarqMessage>>,
        /// The reception's SNR, evaluated by `Medium::snr_db` only when
        /// the receiver's handler reads it (a HELLO's).
        snr: DeliverySnr,
    },
    /// A protocol timer fires at a car.
    CarqTimer {
        /// The car whose timer fires.
        node: NodeId,
        /// Which timer.
        kind: TimerKind,
    },
}

/// A car in the model: protocol instance plus trajectory.
#[derive(Debug)]
struct Car {
    id: NodeId,
    protocol: CarqNode,
    mobility: PathMobility,
}

/// An access point in the model: traffic source plus fixed position.
#[derive(Debug)]
struct AccessPoint {
    id: NodeId,
    app: AccessPointApp,
    position: Point,
}

/// Per-node statistics captured at the end of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeStatsSnapshot {
    /// The car.
    node: NodeId,
    /// Its protocol counters.
    stats: CarqNodeStats,
}

/// The complete simulation model for one round.
///
/// Generic over its [`TraceSink`]: the default [`NoTrace`] monomorphizes
/// every emission site away (the benchmarked hot path), while
/// [`VanetModel::with_sink`] instruments the same model — same RNG draws,
/// same results — with structured records for `carq-cli verify` and the
/// trace tooling.
#[derive(Debug)]
pub struct VanetModel<S: TraceSink = NoTrace> {
    config: ModelConfig,
    medium: Medium,
    aps: Vec<AccessPoint>,
    cars: Vec<Car>,
    rng: StreamRng,
    csma: CsmaBackoff,
    sink: S,
    /// Promiscuous reception record: which observer received which sequence
    /// numbers of which flow. `(flow destination, observer) → receptions`.
    promiscuous: BTreeMap<(NodeId, NodeId), ReceptionMap>,
    /// Reusable per-transmission delivery buffer: the medium writes every
    /// transmission's verdicts into this one allocation.
    delivery_scratch: Vec<Delivery>,
    /// Transmissions deferred by carrier sensing (always counted; surfaced
    /// as the `csma_deferrals` round counter).
    csma_deferrals: u64,
    /// AP-side retransmissions queued after idealised loss feedback (always
    /// counted; part of the `arq_retransmissions` round counter).
    ap_retransmissions_queued: u64,
    /// Loss decisions made by the cars' recovery strategies (always counted;
    /// surfaced as the `strategy_decisions` round counter and cross-checked
    /// against `strategy_decision` trace records).
    strategy_decisions: u64,
}

impl VanetModel<NoTrace> {
    /// Creates an empty model (no nodes yet) with tracing disabled.
    pub fn new(config: ModelConfig) -> Self {
        VanetModel::with_sink(config, NoTrace)
    }
}

impl<S: TraceSink> VanetModel<S> {
    /// Creates an empty model emitting trace records into `sink`. Pass
    /// `&mut VecSink` (or any other sink by mutable borrow) to keep
    /// ownership of the collected records.
    pub fn with_sink(config: ModelConfig, sink: S) -> Self {
        let medium = Medium::new(config.medium.clone());
        let rng = StreamRng::derive(config.seed, "vanet-model");
        VanetModel {
            config,
            medium,
            aps: Vec::new(),
            cars: Vec::new(),
            rng,
            csma: CsmaBackoff::default(),
            sink,
            promiscuous: BTreeMap::new(),
            delivery_scratch: Vec::new(),
            csma_deferrals: 0,
            ap_retransmissions_queued: 0,
            strategy_decisions: 0,
        }
    }

    /// Adds an access point at a fixed position with the given traffic
    /// source.
    pub fn add_access_point(&mut self, id: NodeId, position: Point, app: AccessPointApp) {
        self.medium.register_node(id, RadioClass::AccessPoint);
        self.medium.update_position(id, position);
        self.aps.push(AccessPoint { id, app, position });
    }

    /// Adds a vehicle with the given trajectory running the configured
    /// protocol.
    pub fn add_car(&mut self, id: NodeId, mobility: PathMobility) {
        self.medium.register_node(id, RadioClass::Vehicle);
        self.medium.update_position(id, mobility.position_at(SimTime::ZERO));
        let protocol = CarqNode::new(id, self.config.carq.clone());
        self.cars.push(Car { id, protocol, mobility });
    }

    /// Schedules the initial events of a round on `schedule`: car start-up,
    /// position updates and the first transmission of every AP.
    pub fn initial_events(&self) -> Vec<(SimTime, VanetEvent)> {
        let mut events = vec![(SimTime::ZERO, VanetEvent::PositionUpdate)];
        for car in &self.cars {
            events.push((SimTime::ZERO, VanetEvent::CarStart { node: car.id }));
        }
        for (i, _) in self.aps.iter().enumerate() {
            // Small per-AP stagger so co-located APs do not start in lockstep.
            events
                .push((SimTime::from_millis(i as u64 * 7), VanetEvent::ApTransmit { ap_index: i }));
        }
        events
    }

    /// Reference to a car's protocol instance.
    ///
    /// # Panics
    ///
    /// Panics if the node is unknown.
    pub fn car_protocol(&self, id: NodeId) -> &CarqNode {
        &self.cars.iter().find(|c| c.id == id).expect("unknown car").protocol
    }

    /// Aggregate medium statistics.
    fn medium_stats(&self) -> vanet_mac::medium::MediumStats {
        self.medium.stats()
    }

    /// The shared medium, e.g. to read a delivery's SNR
    /// ([`Medium::snr_db`]).
    pub fn medium(&self) -> &Medium {
        &self.medium
    }

    /// Per-car protocol statistics.
    fn node_stats(&self) -> Vec<NodeStatsSnapshot> {
        self.cars
            .iter()
            .map(|c| NodeStatsSnapshot { node: c.id, stats: c.protocol.stats() })
            .collect()
    }

    /// Builds the per-flow observations of the finished round.
    fn round_result(&self) -> RoundResult {
        let flows = self
            .cars
            .iter()
            .map(|car| {
                let mut received_by = BTreeMap::new();
                for observer in &self.cars {
                    let map =
                        self.promiscuous.get(&(car.id, observer.id)).cloned().unwrap_or_default();
                    received_by.insert(observer.id, map);
                }
                let sent = self
                    .aps
                    .iter()
                    .flat_map(|ap| ap.app.sent_to(car.id).iter().map(|(seq, _)| *seq))
                    .collect();
                // With cooperation disabled the protocol machine never runs,
                // so the baseline's "after" state is simply what the car
                // received directly.
                let after_coop = if self.config.cooperation_enabled {
                    car.protocol.after_coop_map()
                } else {
                    received_by.get(&car.id).cloned().unwrap_or_default()
                };
                FlowObservation { destination: car.id, sent, received_by, after_coop }
            })
            .collect();
        RoundResult::new(flows)
    }

    /// Simulates this round's model from its initial events to `horizon`,
    /// under a budget of 5,000,000 events, and reports it: the round's flows
    /// and its ten counters, always in the same order. This is the round
    /// body of every scenario, traced or not.
    pub fn run_round(self, horizon: SimTime, round: u32, seed: u64) -> RoundReport {
        let mut sim = Simulation::new(self).with_horizon(horizon).with_event_budget(5_000_000);
        for (t, ev) in sim.model().initial_events() {
            sim.schedule_at(t, ev);
        }
        let outcome = sim.run();
        debug_assert_ne!(outcome, RunOutcome::EventBudgetExhausted, "runaway event loop");
        let events = sim.processed_events();
        let model = sim.into_model();

        let node_stats = model.node_stats();
        let sum = |f: fn(&CarqNodeStats) -> u64| -> f64 {
            node_stats.iter().map(|s| f(&s.stats) as f64).sum()
        };
        RoundReport::new(round, seed, model.round_result())
            .with_counter("requests_sent", sum(|s| s.requests_sent))
            .with_counter("coop_data_sent", sum(|s| s.coop_data_sent))
            .with_counter("recovered_via_coop", sum(|s| s.recovered_via_coop))
            .with_counter("responses_suppressed", sum(|s| s.responses_suppressed))
            .with_counter("medium_frames_sent", model.medium_stats().frames_sent as f64)
            .with_counter("sim_events", events as f64)
            .with_counter("csma_deferrals", model.csma_deferrals as f64)
            .with_counter(
                "arq_retransmissions",
                model.ap_retransmissions_queued as f64 + sum(|s| s.coop_data_sent),
            )
            .with_counter("buffer_evictions", sum(|s| s.buffer_evictions))
            .with_counter("strategy_decisions", model.strategy_decisions as f64)
    }

    fn car_index(&self, id: NodeId) -> Option<usize> {
        self.cars.iter().position(|c| c.id == id)
    }

    fn is_car(&self, id: NodeId) -> bool {
        self.car_index(id).is_some()
    }

    fn process_actions(
        &mut self,
        now: SimTime,
        node: NodeId,
        actions: Vec<Action>,
        scheduler: &mut Scheduler<VanetEvent>,
    ) {
        for action in actions {
            match action {
                Action::Send { message, dst } => {
                    scheduler.schedule_now(VanetEvent::CarTransmit { node, message, dst });
                }
                Action::SetTimer { kind, after } => {
                    scheduler.schedule_in(after, VanetEvent::CarqTimer { node, kind });
                }
                Action::DecideRecovery { missing } => {
                    // Purely observational: nothing is scheduled, so the
                    // decision record can never perturb the simulation.
                    self.strategy_decisions += 1;
                    if S::ENABLED {
                        self.sink.record(TraceRecord::StrategyDecision {
                            at: now,
                            node: node.as_u32(),
                            strategy: self.config.carq.strategy.tag(),
                            missing,
                        });
                    }
                }
            }
        }
    }

    /// Schedules the received entries of the delivery scratch buffer,
    /// sharing `frame` between all of them.
    fn deliver_scratch(
        &mut self,
        frame: &Rc<Frame<CarqMessage>>,
        scheduler: &mut Scheduler<VanetEvent>,
    ) {
        for delivery in &self.delivery_scratch {
            if !delivery.outcome.is_received() {
                continue;
            }
            scheduler.schedule_at(
                delivery.at,
                VanetEvent::FrameDelivery {
                    to: delivery.node,
                    frame: Rc::clone(frame),
                    snr: delivery.snr,
                },
            );
        }
    }

    fn handle_ap_transmit(
        &mut self,
        now: SimTime,
        ap_index: usize,
        scheduler: &mut Scheduler<VanetEvent>,
    ) {
        let interval = self.aps[ap_index].app.transmission_interval();
        let scheduled = self.aps[ap_index].app.next_transmission(now);
        let ap_id = self.aps[ap_index].id;
        let packet = scheduled.packet;
        let frame = Frame::new(
            ap_id,
            Destination::Unicast(packet.destination),
            packet.payload_bytes,
            CarqMessage::Data(packet),
        );
        let mut deliveries = std::mem::take(&mut self.delivery_scratch);
        self.medium.transmit_into_traced(
            now,
            &frame,
            self.config.data_rate,
            &mut self.rng,
            &mut deliveries,
            &mut self.sink,
        );
        self.delivery_scratch = deliveries;
        // Idealised loss feedback for the AP-side retransmission baseline: the
        // AP learns about a lost delivery to the destination when the SNR
        // realised for that delivery was above -5 dB (a fixed threshold, not
        // the medium's -3 dB carrier-sense floor). A certain loss reads its
        // ceiling, at most -10 dB, so it never reports.
        if matches!(
            self.aps[ap_index].app.config().policy,
            ApSchedulingPolicy::RetransmitUnacked { .. }
        ) {
            if let Some(delivery) =
                self.delivery_scratch.iter().find(|d| d.node == packet.destination)
            {
                if !delivery.outcome.is_received() && self.medium.snr_db(&delivery.snr) > -5.0 {
                    self.aps[ap_index].app.report_missing(packet.destination, packet.seq);
                    self.ap_retransmissions_queued += 1;
                    if S::ENABLED {
                        self.sink.record(TraceRecord::ApRetransmitQueued {
                            at: now,
                            ap: ap_id.as_u32(),
                            destination: packet.destination.as_u32(),
                            seq: packet.seq.value(),
                        });
                    }
                }
            }
        }
        self.deliver_scratch(&Rc::new(frame), scheduler);
        scheduler.schedule_in(interval, VanetEvent::ApTransmit { ap_index });
    }

    fn handle_car_transmit(
        &mut self,
        now: SimTime,
        node: NodeId,
        message: CarqMessage,
        dst: Destination,
        scheduler: &mut Scheduler<VanetEvent>,
    ) {
        // CSMA: defer while the medium is sensed busy.
        let busy_until = self.medium.busy_until(now);
        if busy_until > now {
            let timing = *self.medium.timing();
            let retry_at = self.csma.next_opportunity(now, busy_until, &timing, &mut self.rng);
            self.csma_deferrals += 1;
            // Emitted *after* the backoff draw, so tracing never reorders it.
            if S::ENABLED {
                self.sink.record(TraceRecord::CsmaDeferred {
                    at: now,
                    node: node.as_u32(),
                    until: retry_at,
                });
            }
            scheduler.schedule_at(retry_at, VanetEvent::CarTransmit { node, message, dst });
            return;
        }
        // The ARQ decision records are emitted at actual transmission time
        // (after carrier sensing cleared), so REQUESTs always precede the
        // COOP-DATA they trigger in the trace.
        if S::ENABLED {
            match &message {
                CarqMessage::Request(request) => self.sink.record(TraceRecord::ArqRequest {
                    at: now,
                    node: node.as_u32(),
                    seqs: u32::try_from(request.seqs.len()).unwrap_or(u32::MAX),
                    cooperators: request.cooperator_count,
                }),
                CarqMessage::CoopData(_) => self.sink.record(TraceRecord::CoopRetransmit {
                    at: now,
                    node: node.as_u32(),
                    seqs: 1,
                }),
                CarqMessage::CodedData(_) => self.sink.record(TraceRecord::CoopRetransmit {
                    at: now,
                    node: node.as_u32(),
                    seqs: 2,
                }),
                CarqMessage::Data(_) | CarqMessage::Hello(_) => {}
            }
        }
        let payload_bytes = message.encoded_bytes();
        let frame = Frame::new(node, dst, payload_bytes, message);
        let mut deliveries = std::mem::take(&mut self.delivery_scratch);
        self.medium.transmit_into_traced(
            now,
            &frame,
            self.config.data_rate,
            &mut self.rng,
            &mut deliveries,
            &mut self.sink,
        );
        self.delivery_scratch = deliveries;
        self.deliver_scratch(&Rc::new(frame), scheduler);
    }

    fn handle_frame_delivery(
        &mut self,
        now: SimTime,
        to: NodeId,
        frame: &Frame<CarqMessage>,
        snr: DeliverySnr,
        scheduler: &mut Scheduler<VanetEvent>,
    ) {
        // Record promiscuous data receptions for the evaluation (every laptop
        // captured every frame it could decode, whoever it was addressed to).
        if let CarqMessage::Data(packet) = &frame.payload {
            if self.is_car(to) {
                self.promiscuous
                    .entry((packet.destination, to))
                    .or_default()
                    .mark_received(packet.seq);
            }
        }
        let Some(idx) = self.car_index(to) else {
            return; // APs are traffic sources only in this model.
        };
        if !self.config.cooperation_enabled {
            // Baseline: data still counts as received (recorded above), but
            // the protocol machine is never driven, so no HELLOs, no
            // buffering, no recovery.
            if !matches!(frame.payload, CarqMessage::Data(_)) {
                return;
            }
            // Even the destination's own protocol instance is bypassed; the
            // promiscuous record above is the ground truth for the baseline.
            return;
        }
        if S::ENABLED {
            // Cooperation-buffer activity is observed as a counter delta
            // around the protocol handler — no protocol code path changes.
            let before = self.cars[idx].protocol.stats();
            let snr_db = || self.medium.snr_db(&snr);
            let actions = self.cars[idx].protocol.handle_frame(now, frame, snr_db);
            let after = self.cars[idx].protocol.stats();
            let stored = after.packets_buffered_for_peers - before.packets_buffered_for_peers;
            let evicted = after.buffer_evictions - before.buffer_evictions;
            if stored > 0 || evicted > 0 {
                self.sink.record(TraceRecord::BufferStore {
                    at: now,
                    node: to.as_u32(),
                    stored: u32::try_from(stored).unwrap_or(u32::MAX),
                    evicted: u32::try_from(evicted).unwrap_or(u32::MAX),
                });
            }
            self.process_actions(now, to, actions, scheduler);
        } else {
            let snr_db = || self.medium.snr_db(&snr);
            let actions = self.cars[idx].protocol.handle_frame(now, frame, snr_db);
            self.process_actions(now, to, actions, scheduler);
        }
    }

    fn handle_position_update(&mut self, now: SimTime, scheduler: &mut Scheduler<VanetEvent>) {
        for car in &self.cars {
            self.medium.update_position(car.id, car.mobility.position_at(now));
        }
        for ap in &self.aps {
            self.medium.update_position(ap.id, ap.position);
        }
        scheduler.schedule_in(self.config.position_update_interval, VanetEvent::PositionUpdate);
    }
}

impl<S: TraceSink> Model for VanetModel<S> {
    type Event = VanetEvent;

    fn on_dispatch(&mut self, now: SimTime, queue_depth: usize) {
        if S::ENABLED {
            self.sink.record(TraceRecord::EventDispatched {
                at: now,
                queue_depth: u32::try_from(queue_depth).unwrap_or(u32::MAX),
            });
        }
    }

    fn handle(&mut self, now: SimTime, event: VanetEvent, scheduler: &mut Scheduler<VanetEvent>) {
        match event {
            VanetEvent::CarStart { node } => {
                if !self.config.cooperation_enabled {
                    return;
                }
                if let Some(idx) = self.car_index(node) {
                    let actions = self.cars[idx].protocol.start(now);
                    self.process_actions(now, node, actions, scheduler);
                }
            }
            VanetEvent::PositionUpdate => self.handle_position_update(now, scheduler),
            VanetEvent::ApTransmit { ap_index } => {
                self.handle_ap_transmit(now, ap_index, scheduler)
            }
            VanetEvent::CarTransmit { node, message, dst } => {
                self.handle_car_transmit(now, node, message, dst, scheduler)
            }
            VanetEvent::FrameDelivery { to, frame, snr } => {
                self.handle_frame_delivery(now, to, &frame, snr, scheduler)
            }
            VanetEvent::CarqTimer { node, kind } => {
                if !self.config.cooperation_enabled {
                    return;
                }
                if let Some(idx) = self.car_index(node) {
                    let actions = self.cars[idx].protocol.handle_timer(now, kind);
                    self.process_actions(now, node, actions, scheduler);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Simulation;
    use vanet_dtn::ApConfig;
    use vanet_geo::{Point, Polyline};

    /// Builds a tiny scenario: an ideal medium, one AP at the origin, two cars
    /// driving slowly past it on a long straight road.
    fn tiny_model(cooperation: bool, seed: u64) -> VanetModel {
        let mut config = ModelConfig {
            medium: MediumConfig::ideal(),
            cooperation_enabled: cooperation,
            seed,
            ..ModelConfig::default()
        };
        config.carq = config.carq.clone().with_ap_timeout(SimDuration::from_secs(2));
        let mut model = VanetModel::new(config);
        let cars = vec![NodeId::new(1), NodeId::new(2)];
        let app = AccessPointApp::new(ApConfig::paper_testbed(cars.clone()).with_rate(10.0));
        model.add_access_point(NodeId::new(0), Point::new(0.0, 10.0), app);
        let road = Polyline::open(vec![Point::new(-50.0, 0.0), Point::new(500.0, 0.0)]);
        for (i, id) in cars.iter().enumerate() {
            let mobility =
                PathMobility::new(road.clone(), 10.0).with_start_offset(-(i as f64) * 20.0);
            model.add_car(*id, mobility);
        }
        model
    }

    fn run(model: VanetModel, horizon_secs: u64) -> VanetModel {
        let mut sim = Simulation::new(model).with_horizon(SimTime::from_secs(horizon_secs));
        for (t, ev) in sim.model().initial_events() {
            sim.schedule_at(t, ev);
        }
        sim.run();
        sim.into_model()
    }

    #[test]
    fn cars_receive_data_on_an_ideal_medium() {
        let model = run(tiny_model(true, 3), 10);
        let round = model.round_result();
        assert_eq!(round.cars(), vec![NodeId::new(1), NodeId::new(2)]);
        for car in [NodeId::new(1), NodeId::new(2)] {
            let counts = round.flow_for(car).expect("flow exists").counts();
            assert!(counts.tx_in_window > 20, "car {car} window too small");
            assert_eq!(counts.lost_before_coop, 0, "ideal medium loses nothing");
        }
        assert!(model.medium_stats().frames_sent > 100);
    }

    #[test]
    fn hello_exchange_builds_cooperator_relations() {
        let model = run(tiny_model(true, 4), 10);
        let car1 = model.car_protocol(NodeId::new(1));
        let car2 = model.car_protocol(NodeId::new(2));
        assert!(car1.cooperators().contains(NodeId::new(2)));
        assert!(car2.cooperators().contains(NodeId::new(1)));
        assert!(car1.cooperatees().cooperates_for(NodeId::new(2)));
        assert!(car2.cooperatees().cooperates_for(NodeId::new(1)));
        assert!(car1.stats().hellos_sent > 3);
        assert!(car1.stats().hellos_received > 3);
    }

    #[test]
    fn disabling_cooperation_suppresses_all_protocol_traffic() {
        let model = run(tiny_model(false, 5), 10);
        for car in [NodeId::new(1), NodeId::new(2)] {
            let stats = model.car_protocol(car).stats();
            assert_eq!(stats.hellos_sent, 0);
            assert_eq!(stats.requests_sent, 0);
            assert_eq!(stats.recovered_via_coop, 0);
        }
        // Data still flows and is recorded for the baseline statistics.
        let round = model.round_result();
        assert!(round.flow_for(NodeId::new(1)).unwrap().counts().tx_in_window > 0);
    }

    #[test]
    fn node_stats_snapshot_lists_every_car() {
        let model = run(tiny_model(true, 6), 5);
        let stats = model.node_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].node, NodeId::new(1));
        assert_eq!(stats[1].node, NodeId::new(2));
    }

    #[test]
    fn events_stay_eighty_bytes() {
        // Every scheduled event is one of these; a frame delivery carries
        // its SNR's draws instead of a realised value, within the size the
        // largest variant (a car's transmission) already sets.
        assert!(std::mem::size_of::<VanetEvent>() <= 80, "{}", std::mem::size_of::<VanetEvent>());
    }

    #[test]
    fn initial_events_cover_all_nodes() {
        let model = tiny_model(true, 7);
        let events = model.initial_events();
        // 1 position update + 2 car starts + 1 AP.
        assert_eq!(events.len(), 4);
    }
}
