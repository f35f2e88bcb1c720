//! The per-vehicle Cooperative-ARQ state machine.
//!
//! [`CarqNode`] is deliberately I/O-free: the surrounding simulation (or a
//! test) feeds it *indications* — a frame arrived ([`CarqNode::handle_frame`]),
//! a timer fired ([`CarqNode::handle_timer`]) — and it returns a list of
//! [`Action`]s: frames to send and timers to arm. This keeps every protocol
//! rule unit-testable without a radio model and guarantees the simulator and
//! the tests exercise the same code.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimTime};
use vanet_dtn::{CoopBuffer, DataPacket, ReceptionMap, SeqNo};
use vanet_mac::{Destination, Frame, NodeId};

use crate::config::CarqConfig;
use crate::cooperators::{CooperateeTable, CooperatorTable};
use crate::messages::{
    CarqMessage, CodedDataMessage, CoopDataMessage, HelloMessage, RequestMessage,
};
use crate::recovery::RecoveryPlanner;
use crate::strategy::{strategy_for, RecoveryStrategy};

/// The protocol phase a node is in (§3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Not associated with any AP and not recovering.
    Idle,
    /// In coverage of an AP, receiving data (and buffering for cooperatees).
    Reception,
    /// Out of coverage, recovering missing packets from cooperators.
    CooperativeArq,
}

/// Timers a node can arm. The simulation schedules an event and calls
/// [`CarqNode::handle_timer`] when it fires; stale timers are recognised and
/// ignored by the node itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimerKind {
    /// Periodic HELLO beacon.
    Hello,
    /// "No packet from the AP for a while" watchdog.
    ApTimeout,
    /// Pacing timer between successive REQUESTs of one recovery session.
    RequestCycle {
        /// The recovery session this timer belongs to; stale sessions are ignored.
        epoch: u32,
    },
    /// A scheduled cooperative response for `(peer, seq)`.
    CoopResponse {
        /// The requesting car.
        peer: NodeId,
        /// The requested sequence number.
        seq: SeqNo,
    },
}

/// What the node wants the lower layers to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Broadcast (physically) a frame with the given logical destination.
    Send {
        /// The protocol message to transmit.
        message: CarqMessage,
        /// The logical destination of the frame.
        dst: Destination,
    },
    /// Arm a timer `after` the current instant.
    SetTimer {
        /// Which timer.
        kind: TimerKind,
        /// Delay from now.
        after: SimDuration,
    },
    /// Notify the environment that the node's recovery strategy has made its
    /// loss decision: it found `missing` packets outstanding and is about to
    /// act on them (or, for the no-cooperation baseline, decline to). Purely
    /// observational — the simulation records it (counter + optional
    /// `strategy_decision` trace record) and schedules nothing.
    DecideRecovery {
        /// How many packets the node found missing when it decided.
        missing: u32,
    },
}

/// Per-node protocol counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CarqNodeStats {
    /// Own-flow packets received directly from the AP.
    pub data_received_direct: u64,
    /// Packets addressed to cooperatees that were overheard and buffered.
    pub packets_buffered_for_peers: u64,
    /// Own-flow packets recovered through cooperation.
    pub recovered_via_coop: u64,
    /// HELLO beacons sent.
    pub hellos_sent: u64,
    /// HELLO beacons received.
    pub hellos_received: u64,
    /// REQUEST frames sent.
    pub requests_sent: u64,
    /// REQUEST frames received.
    pub requests_received: u64,
    /// Cooperative retransmissions sent.
    pub coop_data_sent: u64,
    /// Cooperative retransmissions received that were addressed to us.
    pub coop_data_received: u64,
    /// Scheduled responses cancelled because another cooperator answered first.
    pub responses_suppressed: u64,
    /// Duplicate data receptions ignored (already held).
    pub duplicates_ignored: u64,
    /// Buffered packets evicted to respect the cooperation-buffer capacity
    /// (buffer drops).
    pub buffer_evictions: u64,
    /// Network-coded retransmissions sent (each pairs two recoveries; only
    /// the net-coded strategy produces these).
    pub coded_data_sent: u64,
    /// Coded frames addressed to us that we could not decode (the other
    /// component was not held).
    pub coded_decode_failures: u64,
}

/// The Cooperative-ARQ protocol instance running in one vehicle.
#[derive(Debug, Clone)]
pub struct CarqNode {
    id: NodeId,
    config: CarqConfig,
    phase: Phase,
    started: bool,
    /// Own-flow packets received directly from the AP.
    direct: ReceptionMap,
    /// Own-flow packets recovered via cooperation.
    recovered: ReceptionMap,
    /// Packets held for the original packet payloads we might have to resend.
    coop_buffer: CoopBuffer,
    cooperators: CooperatorTable,
    cooperatees: CooperateeTable,
    last_ap_packet_at: Option<SimTime>,
    ap_timeout_armed: bool,
    planner: Option<RecoveryPlanner>,
    coop_epoch: u32,
    /// Responses scheduled but not yet transmitted, keyed by `(peer, seq)`.
    pending_responses: BTreeSet<(NodeId, SeqNo)>,
    /// `(peer, seq)` pairs we have overheard being served by some cooperator.
    served_or_overheard: BTreeSet<(NodeId, SeqNo)>,
    stats: CarqNodeStats,
}

impl CarqNode {
    /// Creates a protocol instance for vehicle `id`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`CarqConfig::validate`]).
    pub fn new(id: NodeId, config: CarqConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid CarqConfig: {msg}");
        }
        CarqNode {
            id,
            coop_buffer: CoopBuffer::new(config.coop_buffer_capacity),
            cooperators: CooperatorTable::new(config.selection),
            cooperatees: CooperateeTable::new(),
            config,
            phase: Phase::Idle,
            started: false,
            direct: ReceptionMap::new(),
            recovered: ReceptionMap::new(),
            last_ap_packet_at: None,
            ap_timeout_armed: false,
            planner: None,
            coop_epoch: 0,
            pending_responses: BTreeSet::new(),
            served_or_overheard: BTreeSet::new(),
            stats: CarqNodeStats::default(),
        }
    }

    /// The strategy singleton driving this node's recovery behaviour.
    fn strategy(&self) -> &'static dyn RecoveryStrategy {
        strategy_for(self.config.strategy)
    }

    /// Starts the node: arms the periodic HELLO beacon. The first beacon is
    /// staggered by a node-dependent offset so that platoon members do not
    /// beacon in lockstep. Strategies that never cooperate (the plain-ARQ
    /// baseline) do not beacon at all.
    pub fn start(&mut self, _now: SimTime) -> Vec<Action> {
        self.started = true;
        if !self.strategy().beacons() {
            return Vec::new();
        }
        let stagger = 0.05 + f64::from(self.id.as_u32() % 10) / 10.0;
        vec![Action::SetTimer {
            kind: TimerKind::Hello,
            after: self.config.hello_interval.mul_f64(stagger),
        }]
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The current protocol phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Protocol counters.
    pub fn stats(&self) -> CarqNodeStats {
        self.stats
    }

    /// Own-flow packets received directly from the AP.
    pub fn direct_receptions(&self) -> &ReceptionMap {
        &self.direct
    }

    /// The reception state after cooperation: direct receptions plus
    /// cooperative recoveries.
    pub fn after_coop_map(&self) -> ReceptionMap {
        let mut map = self.direct.clone();
        map.union_with(&self.recovered);
        map
    }

    /// Sequence numbers still missing (between first and last received)
    /// after cooperation.
    pub fn missing_after_coop(&self) -> Vec<SeqNo> {
        self.after_coop_map().missing()
    }

    /// The cooperators this node has recruited, in response order.
    pub fn cooperators(&self) -> &CooperatorTable {
        &self.cooperators
    }

    /// The peers this node serves as a cooperator.
    pub fn cooperatees(&self) -> &CooperateeTable {
        &self.cooperatees
    }

    /// The packets currently buffered for peers.
    pub fn coop_buffer(&self) -> &CoopBuffer {
        &self.coop_buffer
    }

    /// The recovery planner of the current Cooperative-ARQ session, if one is
    /// active.
    pub fn recovery(&self) -> Option<&RecoveryPlanner> {
        self.planner.as_ref()
    }

    // ------------------------------------------------------------------
    // Indications
    // ------------------------------------------------------------------

    /// Handles a received frame. `snr_db` measures the signal quality of
    /// the reception (dB) when called: only a HELLO's handler calls it, and
    /// only under signal-based cooperator selection
    /// ([`crate::SelectionStrategy::StrongestSignal`]), so a caller may leave
    /// the SNR unevaluated until then.
    pub fn handle_frame(
        &mut self,
        now: SimTime,
        frame: &Frame<CarqMessage>,
        snr_db: impl FnOnce() -> f64,
    ) -> Vec<Action> {
        match &frame.payload {
            CarqMessage::Data(packet) => self.handle_data(now, *packet),
            CarqMessage::Hello(hello) => self.handle_hello(hello, snr_db),
            CarqMessage::Request(request) => self.handle_request(request),
            CarqMessage::CoopData(coop) => self.handle_coop_data(*coop),
            CarqMessage::CodedData(coded) => self.handle_coded_data(*coded),
        }
    }

    /// Handles an expired timer.
    pub fn handle_timer(&mut self, now: SimTime, kind: TimerKind) -> Vec<Action> {
        match kind {
            TimerKind::Hello => self.handle_hello_timer(),
            TimerKind::ApTimeout => self.handle_ap_timeout(now),
            TimerKind::RequestCycle { epoch } => self.handle_request_cycle(epoch),
            TimerKind::CoopResponse { peer, seq } => self.handle_coop_response_timer(peer, seq),
        }
    }

    // ------------------------------------------------------------------
    // Frame handlers
    // ------------------------------------------------------------------

    fn handle_data(&mut self, now: SimTime, packet: DataPacket) -> Vec<Action> {
        let mut actions = Vec::new();
        if packet.destination == self.id {
            // Association: "a vehicular node is considered associated with the
            // AP in the moment it receives a packet from the AP".
            self.last_ap_packet_at = Some(now);
            if self.direct.mark_received(packet.seq) {
                self.stats.data_received_direct += 1;
            } else {
                self.stats.duplicates_ignored += 1;
            }
            if let Some(planner) = self.planner.as_mut() {
                // A packet we were trying to recover arrived directly (e.g.
                // from a newly reached AP running a retransmission policy).
                planner.mark_recovered(packet.seq);
            }
            if self.phase != Phase::Reception {
                self.enter_reception_phase();
            }
            if !self.ap_timeout_armed {
                self.ap_timeout_armed = true;
                actions.push(Action::SetTimer {
                    kind: TimerKind::ApTimeout,
                    after: self.config.ap_timeout,
                });
            }
        } else if self.strategy().cooperates()
            && self.cooperatees.cooperates_for(packet.destination)
        {
            // Promiscuous buffering on behalf of the cars that listed us as a
            // cooperator (§3.2).
            let outcome = self.coop_buffer.store_with_eviction(packet);
            if outcome.stored {
                self.stats.packets_buffered_for_peers += 1;
            }
            if outcome.evicted.is_some() {
                self.stats.buffer_evictions += 1;
            }
        }
        actions
    }

    fn handle_hello(&mut self, hello: &HelloMessage, snr_db: impl FnOnce() -> f64) -> Vec<Action> {
        if hello.sender == self.id {
            return Vec::new();
        }
        self.stats.hellos_received += 1;
        if !self.strategy().cooperates() {
            // The plain-ARQ baseline takes no part in cooperator recruitment.
            return Vec::new();
        }
        // First function of a HELLO: learn about the sender and (possibly)
        // recruit it as one of our cooperators.
        self.cooperators.hear_neighbour(hello.sender, snr_db);
        // Second function: find out whether the sender considers *us* a
        // cooperator, and which response order it assigned to us.
        self.cooperatees.update_from_hello(hello.sender, hello.order_of(self.id));
        Vec::new()
    }

    fn handle_request(&mut self, request: &RequestMessage) -> Vec<Action> {
        self.stats.requests_received += 1;
        if !self.strategy().cooperates() {
            return Vec::new();
        }
        // Only the requester's cooperators answer (§3.3 step ii).
        let Some(order) = self.cooperatees.order_for(request.requester) else {
            return Vec::new();
        };
        let cooperator_count = request.cooperator_count.max(1);
        let mut actions = Vec::new();
        for (idx, seq) in request.seqs.iter().enumerate() {
            if !self.coop_buffer.holds(request.requester, *seq) {
                continue;
            }
            // The requester is still missing this packet, so any previous
            // overheard service evidently failed: forget it.
            self.served_or_overheard.remove(&(request.requester, *seq));
            if !self.pending_responses.insert((request.requester, *seq)) {
                continue; // already scheduled
            }
            // The strategy picks the back-off slot: the paper interleaves
            // responses across cooperators; one-hop listening compresses
            // them to order-only slots.
            let slot_index = self.strategy().response_slot_index(idx, cooperator_count, order);
            let delay = self.config.response_slot * slot_index + self.config.response_slot / 4;
            actions.push(Action::SetTimer {
                kind: TimerKind::CoopResponse { peer: request.requester, seq: *seq },
                after: delay,
            });
        }
        actions
    }

    fn handle_coop_data(&mut self, coop: CoopDataMessage) -> Vec<Action> {
        let packet = coop.packet;
        if packet.destination == self.id {
            self.stats.coop_data_received += 1;
            if self.direct.contains(packet.seq) || !self.recovered.mark_received(packet.seq) {
                self.stats.duplicates_ignored += 1;
            } else {
                self.stats.recovered_via_coop += 1;
                if let Some(planner) = self.planner.as_mut() {
                    planner.mark_recovered(packet.seq);
                }
            }
            // If everything is recovered the node can stop requesting.
            if self.planner.as_ref().is_some_and(RecoveryPlanner::is_complete)
                && self.phase == Phase::CooperativeArq
            {
                self.phase = Phase::Idle;
            }
            return Vec::new();
        }
        // Overheard a cooperator serving somebody else: suppress our own
        // pending response for the same packet ("unless other cooperator
        // sends it before", §3.3 step iii) and opportunistically buffer the
        // packet if we serve that peer.
        let key = (packet.destination, packet.seq);
        self.served_or_overheard.insert(key);
        if self.pending_responses.remove(&key) {
            self.stats.responses_suppressed += 1;
        }
        if self.strategy().cooperates() && self.cooperatees.cooperates_for(packet.destination) {
            let outcome = self.coop_buffer.store_with_eviction(packet);
            if outcome.stored {
                self.stats.packets_buffered_for_peers += 1;
            }
            if outcome.evicted.is_some() {
                self.stats.buffer_evictions += 1;
            }
        }
        Vec::new()
    }

    fn handle_coded_data(&mut self, coded: CodedDataMessage) -> Vec<Action> {
        for (component, other) in coded.components() {
            if component.destination == self.id {
                self.stats.coop_data_received += 1;
                if !self.can_decode(&other) {
                    // Opportunistic coding missed: we never saw the other
                    // component, so ours stays missing and will be
                    // re-requested on the next cycle.
                    self.stats.coded_decode_failures += 1;
                    continue;
                }
                if self.direct.contains(component.seq)
                    || !self.recovered.mark_received(component.seq)
                {
                    self.stats.duplicates_ignored += 1;
                } else {
                    self.stats.recovered_via_coop += 1;
                    if let Some(planner) = self.planner.as_mut() {
                        planner.mark_recovered(component.seq);
                    }
                }
                if self.planner.as_ref().is_some_and(RecoveryPlanner::is_complete)
                    && self.phase == Phase::CooperativeArq
                {
                    self.phase = Phase::Idle;
                }
            } else {
                // Overheard half of a coded pair being served: suppress any
                // pending response of our own for it, exactly as for a plain
                // cooperative retransmission.
                let key = (component.destination, component.seq);
                self.served_or_overheard.insert(key);
                if self.pending_responses.remove(&key) {
                    self.stats.responses_suppressed += 1;
                }
            }
        }
        Vec::new()
    }

    /// Whether this node can decode a coded component whose pair is `other`:
    /// it must already hold the pair — directly received, recovered, or
    /// buffered for the peer it is addressed to.
    fn can_decode(&self, other: &DataPacket) -> bool {
        if other.destination == self.id {
            self.direct.contains(other.seq) || self.recovered.contains(other.seq)
        } else {
            self.coop_buffer.holds(other.destination, other.seq)
        }
    }

    // ------------------------------------------------------------------
    // Timer handlers
    // ------------------------------------------------------------------

    fn handle_hello_timer(&mut self) -> Vec<Action> {
        if !self.started {
            return Vec::new();
        }
        self.stats.hellos_sent += 1;
        let hello = HelloMessage::new(self.id, self.cooperators.ordered_list());
        vec![
            Action::Send { message: CarqMessage::Hello(hello), dst: Destination::Broadcast },
            Action::SetTimer { kind: TimerKind::Hello, after: self.config.hello_interval },
        ]
    }

    fn handle_ap_timeout(&mut self, now: SimTime) -> Vec<Action> {
        if self.phase != Phase::Reception {
            self.ap_timeout_armed = false;
            return Vec::new();
        }
        let last = self.last_ap_packet_at.expect("in Reception phase only after receiving AP data");
        let deadline = last + self.config.ap_timeout;
        if now < deadline {
            // Data kept arriving after the timer was armed: re-arm for the
            // updated deadline.
            return vec![Action::SetTimer { kind: TimerKind::ApTimeout, after: deadline - now }];
        }
        self.ap_timeout_armed = false;
        self.enter_cooperative_phase()
    }

    fn handle_request_cycle(&mut self, epoch: u32) -> Vec<Action> {
        if self.phase != Phase::CooperativeArq || epoch != self.coop_epoch {
            return Vec::new();
        }
        self.issue_next_request()
    }

    fn handle_coop_response_timer(&mut self, peer: NodeId, seq: SeqNo) -> Vec<Action> {
        if !self.pending_responses.remove(&(peer, seq)) {
            // Already suppressed (another cooperator answered) or already sent.
            return Vec::new();
        }
        if self.served_or_overheard.contains(&(peer, seq)) {
            self.stats.responses_suppressed += 1;
            return Vec::new();
        }
        let Some(packet) = self.coop_buffer.get(peer, seq).copied() else {
            return Vec::new();
        };
        self.stats.coop_data_sent += 1;
        if self.strategy().codes_responses() {
            if let Some(partner) = self.take_coding_partner(peer) {
                // Two pending recoveries for different requesters ride in one
                // coded broadcast; each requester decodes its own component.
                self.stats.coded_data_sent += 1;
                let message =
                    CarqMessage::CodedData(CodedDataMessage::new(packet, partner, self.id));
                return vec![Action::Send { message, dst: Destination::Broadcast }];
            }
        }
        let message = CarqMessage::CoopData(CoopDataMessage::new(packet, self.id));
        vec![Action::Send { message, dst: Destination::Unicast(peer) }]
    }

    /// Picks (and consumes) a second pending response addressed to a
    /// *different* requester than `exclude`, for the net-coded strategy to
    /// pair with the one being served now.
    fn take_coding_partner(&mut self, exclude: NodeId) -> Option<DataPacket> {
        let key = self.pending_responses.iter().copied().find(|(peer, seq)| {
            *peer != exclude
                && !self.served_or_overheard.contains(&(*peer, *seq))
                && self.coop_buffer.holds(*peer, *seq)
        })?;
        self.pending_responses.remove(&key);
        self.coop_buffer.get(key.0, key.1).copied()
    }

    // ------------------------------------------------------------------
    // Phase transitions
    // ------------------------------------------------------------------

    fn enter_reception_phase(&mut self) {
        self.phase = Phase::Reception;
        // Invalidate any in-flight recovery session: "when it enters in range
        // of a new AP [...] the whole cycle starts again" (§3.3).
        self.coop_epoch += 1;
        self.planner = None;
    }

    fn enter_cooperative_phase(&mut self) -> Vec<Action> {
        self.coop_epoch += 1;
        let mut missing = self.direct.missing();
        missing.retain(|s| !self.recovered.contains(*s));
        if missing.is_empty() {
            self.phase = Phase::Idle;
            return Vec::new();
        }
        let mut actions = Vec::new();
        if !self.config.debug_skip_decision {
            actions.push(Action::DecideRecovery { missing: missing.len() as u32 });
        }
        // The decide-on-loss hook: the strategy turns the missing list into a
        // recovery session, or declines (the plain-ARQ baseline).
        let Some(planner) = self.strategy().plan_recovery(&self.config, missing) else {
            self.phase = Phase::Idle;
            return actions;
        };
        self.phase = Phase::CooperativeArq;
        self.planner = Some(planner);
        actions.extend(self.issue_next_request());
        actions
    }

    fn issue_next_request(&mut self) -> Vec<Action> {
        let cooperator_count = self.cooperators.len() as u32;
        let Some(planner) = self.planner.as_mut() else {
            return Vec::new();
        };
        let Some(seqs) = planner.next_request() else {
            // Recovery finished (complete or gave up).
            self.phase = Phase::Idle;
            return Vec::new();
        };
        self.stats.requests_sent += 1;
        let request = RequestMessage::new(self.id, seqs.clone(), cooperator_count);
        let pacing = self.request_pacing(seqs.len(), cooperator_count);
        vec![
            Action::Send { message: CarqMessage::Request(request), dst: Destination::Broadcast },
            Action::SetTimer {
                kind: TimerKind::RequestCycle { epoch: self.coop_epoch },
                after: pacing,
            },
        ]
    }

    /// The gap before the next REQUEST: long enough for every cooperator to
    /// answer every requested packet in its assigned slot.
    fn request_pacing(&self, requested: usize, cooperator_count: u32) -> SimDuration {
        let slots_needed = requested as u64 * u64::from(cooperator_count.max(1)) + 1;
        let responses_window = self.config.response_slot * slots_needed;
        if responses_window > self.config.request_interval {
            responses_window
        } else {
            self.config.request_interval
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanet_mac::Frame;

    const SNR: f64 = 20.0;

    fn data_frame(from_ap: u32, dst: u32, seq: u32) -> Frame<CarqMessage> {
        let packet = DataPacket::new(NodeId::new(dst), SeqNo::new(seq), 1_000, SimTime::ZERO);
        Frame::new(
            NodeId::new(from_ap),
            Destination::Unicast(NodeId::new(dst)),
            1_000,
            CarqMessage::Data(packet),
        )
    }

    fn hello_frame(sender: u32, cooperators: &[u32]) -> Frame<CarqMessage> {
        let hello = HelloMessage::new(
            NodeId::new(sender),
            cooperators.iter().map(|c| NodeId::new(*c)).collect(),
        );
        let bytes = hello.encoded_bytes();
        Frame::new(NodeId::new(sender), Destination::Broadcast, bytes, CarqMessage::Hello(hello))
    }

    fn request_frame(requester: u32, seqs: &[u32], coop_count: u32) -> Frame<CarqMessage> {
        let req = RequestMessage::new(
            NodeId::new(requester),
            seqs.iter().map(|s| SeqNo::new(*s)).collect(),
            coop_count,
        );
        let bytes = req.encoded_bytes();
        Frame::new(NodeId::new(requester), Destination::Broadcast, bytes, CarqMessage::Request(req))
    }

    fn coop_data_frame(relay: u32, dst: u32, seq: u32) -> Frame<CarqMessage> {
        let packet = DataPacket::new(NodeId::new(dst), SeqNo::new(seq), 1_000, SimTime::ZERO);
        let msg = CoopDataMessage::new(packet, NodeId::new(relay));
        Frame::new(
            NodeId::new(relay),
            Destination::Unicast(NodeId::new(dst)),
            msg.encoded_bytes(),
            CarqMessage::CoopData(msg),
        )
    }

    fn sends(actions: &[Action]) -> Vec<&CarqMessage> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { message, .. } => Some(message),
                _ => None,
            })
            .collect()
    }

    fn timers(actions: &[Action]) -> Vec<TimerKind> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::SetTimer { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect()
    }

    /// Builds a node that already cooperates for car 1 with the given order.
    fn cooperator_of_car1(id: u32, order_in_car1_list: u32) -> CarqNode {
        let mut node = CarqNode::new(NodeId::new(id), CarqConfig::paper_prototype());
        node.start(SimTime::ZERO);
        // Car 1 lists us at the requested position; pad the list with dummies.
        let mut list: Vec<u32> = (100..100 + order_in_car1_list).collect();
        list.push(id);
        let _ = node.handle_frame(SimTime::ZERO, &hello_frame(1, &list), || SNR);
        assert_eq!(node.cooperatees().order_for(NodeId::new(1)), Some(order_in_car1_list));
        node
    }

    #[test]
    fn start_arms_staggered_hello() {
        let mut node = CarqNode::new(NodeId::new(1), CarqConfig::paper_prototype());
        let actions = node.start(SimTime::ZERO);
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            Action::SetTimer { kind: TimerKind::Hello, after } => {
                assert!(*after > SimDuration::ZERO);
                assert!(*after <= SimDuration::from_secs(1));
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "invalid CarqConfig")]
    fn invalid_config_rejected() {
        let mut cfg = CarqConfig::paper_prototype();
        cfg.coop_buffer_capacity = 0;
        let _ = CarqNode::new(NodeId::new(1), cfg);
    }

    #[test]
    fn hello_timer_broadcasts_current_cooperator_list() {
        let mut node = CarqNode::new(NodeId::new(1), CarqConfig::paper_prototype());
        node.start(SimTime::ZERO);
        let _ = node.handle_frame(SimTime::ZERO, &hello_frame(2, &[]), || SNR);
        let _ = node.handle_frame(SimTime::ZERO, &hello_frame(3, &[]), || SNR);
        let actions = node.handle_timer(SimTime::from_secs(1), TimerKind::Hello);
        let messages = sends(&actions);
        assert_eq!(messages.len(), 1);
        match messages[0] {
            CarqMessage::Hello(h) => {
                assert_eq!(h.sender, NodeId::new(1));
                assert_eq!(h.cooperators, vec![NodeId::new(2), NodeId::new(3)]);
            }
            other => panic!("unexpected message {other:?}"),
        }
        // The beacon is periodic.
        assert!(timers(&actions).contains(&TimerKind::Hello));
        assert_eq!(node.stats().hellos_sent, 1);
        assert_eq!(node.stats().hellos_received, 2);
    }

    #[test]
    fn first_data_packet_associates_and_arms_ap_timeout() {
        let mut node = CarqNode::new(NodeId::new(1), CarqConfig::paper_prototype());
        node.start(SimTime::ZERO);
        assert_eq!(node.phase(), Phase::Idle);
        let actions = node.handle_frame(SimTime::from_secs(10), &data_frame(0, 1, 0), || SNR);
        assert_eq!(node.phase(), Phase::Reception);
        assert!(timers(&actions).contains(&TimerKind::ApTimeout));
        assert_eq!(node.stats().data_received_direct, 1);
        // A duplicate of the same packet is ignored.
        let _ = node.handle_frame(SimTime::from_secs(10), &data_frame(0, 1, 0), || SNR);
        assert_eq!(node.stats().data_received_direct, 1);
        assert_eq!(node.stats().duplicates_ignored, 1);
    }

    #[test]
    fn data_for_peers_is_buffered_only_when_we_are_their_cooperator() {
        let mut node = CarqNode::new(NodeId::new(2), CarqConfig::paper_prototype());
        node.start(SimTime::ZERO);
        // Not yet a cooperator of car 1: overheard data is NOT buffered.
        let _ = node.handle_frame(SimTime::ZERO, &data_frame(0, 1, 0), || SNR);
        assert_eq!(node.coop_buffer().len(), 0);
        // Car 1's HELLO lists us → we must start buffering its packets.
        let _ = node.handle_frame(SimTime::ZERO, &hello_frame(1, &[2]), || SNR);
        let _ = node.handle_frame(SimTime::ZERO, &data_frame(0, 1, 1), || SNR);
        assert_eq!(node.coop_buffer().len(), 1);
        assert!(node.coop_buffer().holds(NodeId::new(1), SeqNo::new(1)));
        assert_eq!(node.stats().packets_buffered_for_peers, 1);
    }

    #[test]
    fn ap_timeout_is_postponed_while_data_keeps_arriving() {
        let mut node = CarqNode::new(NodeId::new(1), CarqConfig::paper_prototype());
        node.start(SimTime::ZERO);
        let t0 = SimTime::from_secs(0);
        let _ = node.handle_frame(t0, &data_frame(0, 1, 0), || SNR);
        // More data arrives at t=3 s; the watchdog armed for t=5 s must re-arm.
        let _ = node.handle_frame(SimTime::from_secs(3), &data_frame(0, 1, 1), || SNR);
        let actions = node.handle_timer(SimTime::from_secs(5), TimerKind::ApTimeout);
        assert_eq!(node.phase(), Phase::Reception);
        match &actions[0] {
            Action::SetTimer { kind: TimerKind::ApTimeout, after } => {
                assert_eq!(*after, SimDuration::from_secs(3));
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn ap_timeout_with_no_losses_goes_idle() {
        let mut node = CarqNode::new(NodeId::new(1), CarqConfig::paper_prototype());
        node.start(SimTime::ZERO);
        for seq in 0..5 {
            let _ =
                node.handle_frame(SimTime::from_secs(seq as u64), &data_frame(0, 1, seq), || SNR);
        }
        let actions = node.handle_timer(SimTime::from_secs(20), TimerKind::ApTimeout);
        assert_eq!(node.phase(), Phase::Idle);
        assert!(actions.is_empty());
        assert_eq!(node.missing_after_coop(), Vec::<SeqNo>::new());
    }

    #[test]
    fn ap_timeout_with_losses_starts_requesting() {
        let mut node = CarqNode::new(NodeId::new(1), CarqConfig::paper_prototype());
        node.start(SimTime::ZERO);
        // Hear a neighbour so the cooperator count is non-zero.
        let _ = node.handle_frame(SimTime::ZERO, &hello_frame(2, &[]), || SNR);
        // Receive 0 and 3; 1 and 2 are missing.
        let _ = node.handle_frame(SimTime::from_secs(0), &data_frame(0, 1, 0), || SNR);
        let _ = node.handle_frame(SimTime::from_secs(1), &data_frame(0, 1, 3), || SNR);
        let actions = node.handle_timer(SimTime::from_secs(10), TimerKind::ApTimeout);
        assert_eq!(node.phase(), Phase::CooperativeArq);
        let messages = sends(&actions);
        assert_eq!(messages.len(), 1);
        match messages[0] {
            CarqMessage::Request(r) => {
                assert_eq!(r.requester, NodeId::new(1));
                assert_eq!(r.seqs, vec![SeqNo::new(1)]);
                assert_eq!(r.cooperator_count, 1);
            }
            other => panic!("unexpected message {other:?}"),
        }
        // A pacing timer for the next request is armed.
        assert!(matches!(timers(&actions)[0], TimerKind::RequestCycle { .. }));
        assert_eq!(node.stats().requests_sent, 1);
    }

    #[test]
    fn request_cycle_walks_the_missing_list_and_stops_when_fruitless() {
        let mut node = CarqNode::new(NodeId::new(1), CarqConfig::paper_prototype());
        node.start(SimTime::ZERO);
        let _ = node.handle_frame(SimTime::from_secs(0), &data_frame(0, 1, 0), || SNR);
        let _ = node.handle_frame(SimTime::from_secs(1), &data_frame(0, 1, 3), || SNR);
        let mut actions = node.handle_timer(SimTime::from_secs(10), TimerKind::ApTimeout);
        let mut requested = Vec::new();
        let mut guard = 0;
        while node.phase() == Phase::CooperativeArq {
            guard += 1;
            assert!(guard < 100, "request loop must terminate");
            if let Some(CarqMessage::Request(r)) = sends(&actions).first() {
                requested.extend(r.seqs.iter().map(|s| s.value()));
            }
            let Some(TimerKind::RequestCycle { epoch }) =
                timers(&actions).into_iter().find(|t| matches!(t, TimerKind::RequestCycle { .. }))
            else {
                break;
            };
            actions = node
                .handle_timer(SimTime::from_secs(10 + guard), TimerKind::RequestCycle { epoch });
        }
        // Two missing packets, two fruitless cycles allowed → each requested twice.
        assert_eq!(requested, vec![1, 2, 1, 2]);
        assert_eq!(node.phase(), Phase::Idle);
        assert!(node.recovery().expect("planner exists").gave_up());
    }

    #[test]
    fn cooperator_answers_request_after_its_assigned_backoff() {
        let mut node = cooperator_of_car1(2, 1);
        // Overhear the packet car 1 will be missing.
        let _ = node.handle_frame(SimTime::ZERO, &data_frame(0, 1, 7), || SNR);
        assert!(node.coop_buffer().holds(NodeId::new(1), SeqNo::new(7)));
        // Car 1 requests it (it has 2 cooperators).
        let actions = node.handle_frame(SimTime::from_secs(60), &request_frame(1, &[7], 2), || SNR);
        let timer_list = timers(&actions);
        assert_eq!(timer_list.len(), 1);
        let TimerKind::CoopResponse { peer, seq } = timer_list[0] else {
            panic!("expected a response timer, got {timer_list:?}");
        };
        assert_eq!(peer, NodeId::new(1));
        assert_eq!(seq, SeqNo::new(7));
        // Order 1 waits at least one full response slot.
        match &actions[0] {
            Action::SetTimer { after, .. } => {
                assert!(*after >= CarqConfig::paper_prototype().response_slot)
            }
            other => panic!("unexpected action {other:?}"),
        }
        // When the timer fires the cooperative retransmission goes out.
        let actions = node.handle_timer(SimTime::from_secs(61), timer_list[0]);
        let messages = sends(&actions);
        assert_eq!(messages.len(), 1);
        match messages[0] {
            CarqMessage::CoopData(c) => {
                assert_eq!(c.packet.seq, SeqNo::new(7));
                assert_eq!(c.packet.destination, NodeId::new(1));
                assert_eq!(c.relay, NodeId::new(2));
            }
            other => panic!("unexpected message {other:?}"),
        }
        assert_eq!(node.stats().coop_data_sent, 1);
    }

    #[test]
    fn first_order_cooperator_answers_sooner_than_second() {
        let mut first = cooperator_of_car1(2, 0);
        let mut second = cooperator_of_car1(3, 1);
        for node in [&mut first, &mut second] {
            let _ = node.handle_frame(SimTime::ZERO, &data_frame(0, 1, 7), || SNR);
        }
        let delay_of = |node: &mut CarqNode| {
            let actions =
                node.handle_frame(SimTime::from_secs(60), &request_frame(1, &[7], 2), || SNR);
            match actions
                .iter()
                .find(|a| {
                    matches!(a, Action::SetTimer { kind: TimerKind::CoopResponse { .. }, .. })
                })
                .expect("a response must be scheduled")
            {
                Action::SetTimer { after, .. } => *after,
                _ => unreachable!(),
            }
        };
        assert!(delay_of(&mut first) < delay_of(&mut second));
    }

    #[test]
    fn non_cooperators_ignore_requests() {
        let mut node = CarqNode::new(NodeId::new(5), CarqConfig::paper_prototype());
        node.start(SimTime::ZERO);
        // It overheard the packet but car 1 never listed it as a cooperator,
        // and without that listing it never even buffers car 1's packets.
        let _ = node.handle_frame(SimTime::ZERO, &data_frame(0, 1, 7), || SNR);
        let actions = node.handle_frame(SimTime::from_secs(60), &request_frame(1, &[7], 2), || SNR);
        assert!(actions.is_empty());
        assert_eq!(node.stats().requests_received, 1);
    }

    #[test]
    fn overhearing_another_cooperators_answer_suppresses_our_own() {
        let mut node = cooperator_of_car1(3, 1);
        let _ = node.handle_frame(SimTime::ZERO, &data_frame(0, 1, 7), || SNR);
        let actions = node.handle_frame(SimTime::from_secs(60), &request_frame(1, &[7], 2), || SNR);
        let timer = timers(&actions)[0];
        // Before our backoff expires, cooperator 2 serves the packet.
        let _ = node.handle_frame(SimTime::from_secs(60), &coop_data_frame(2, 1, 7), || SNR);
        let actions = node.handle_timer(SimTime::from_secs(61), timer);
        assert!(sends(&actions).is_empty(), "the suppressed response must not be sent");
        assert_eq!(node.stats().coop_data_sent, 0);
        assert_eq!(node.stats().responses_suppressed, 1);
    }

    #[test]
    fn repeated_request_after_failed_service_is_answered_again() {
        let mut node = cooperator_of_car1(2, 0);
        let _ = node.handle_frame(SimTime::ZERO, &data_frame(0, 1, 7), || SNR);
        // We overhear another cooperator serving seq 7...
        let _ = node.handle_frame(SimTime::from_secs(60), &coop_data_frame(3, 1, 7), || SNR);
        // ...but car 1 evidently did not get it: it requests seq 7 again.
        let actions = node.handle_frame(SimTime::from_secs(61), &request_frame(1, &[7], 2), || SNR);
        let timer_list = timers(&actions);
        assert_eq!(timer_list.len(), 1, "the repeated request must be honoured");
        let actions = node.handle_timer(SimTime::from_secs(62), timer_list[0]);
        assert_eq!(sends(&actions).len(), 1);
    }

    #[test]
    fn requester_counts_cooperative_recovery_and_goes_idle_when_complete() {
        let mut node = CarqNode::new(NodeId::new(1), CarqConfig::paper_prototype());
        node.start(SimTime::ZERO);
        let _ = node.handle_frame(SimTime::ZERO, &hello_frame(2, &[]), || SNR);
        let _ = node.handle_frame(SimTime::from_secs(0), &data_frame(0, 1, 0), || SNR);
        let _ = node.handle_frame(SimTime::from_secs(1), &data_frame(0, 1, 2), || SNR);
        let _ = node.handle_timer(SimTime::from_secs(10), TimerKind::ApTimeout);
        assert_eq!(node.phase(), Phase::CooperativeArq);
        // The missing packet (seq 1) arrives from a cooperator.
        let _ = node.handle_frame(SimTime::from_secs(11), &coop_data_frame(2, 1, 1), || SNR);
        assert_eq!(node.stats().recovered_via_coop, 1);
        assert_eq!(node.phase(), Phase::Idle);
        assert_eq!(node.missing_after_coop(), Vec::<SeqNo>::new());
        assert_eq!(node.after_coop_map().received_count(), 3);
        // Seq 1 is held after cooperation, not received directly.
        assert!(node.after_coop_map().contains(SeqNo::new(1)));
        assert!(!node.direct_receptions().contains(SeqNo::new(1)));
        // A duplicate recovery is ignored.
        let _ = node.handle_frame(SimTime::from_secs(12), &coop_data_frame(2, 1, 1), || SNR);
        assert_eq!(node.stats().recovered_via_coop, 1);
        assert!(node.stats().duplicates_ignored >= 1);
    }

    #[test]
    fn returning_into_coverage_restarts_the_cycle() {
        let mut node = CarqNode::new(NodeId::new(1), CarqConfig::paper_prototype());
        node.start(SimTime::ZERO);
        let _ = node.handle_frame(SimTime::ZERO, &hello_frame(2, &[]), || SNR);
        let _ = node.handle_frame(SimTime::from_secs(0), &data_frame(0, 1, 0), || SNR);
        let _ = node.handle_frame(SimTime::from_secs(1), &data_frame(0, 1, 2), || SNR);
        let actions = node.handle_timer(SimTime::from_secs(10), TimerKind::ApTimeout);
        assert_eq!(node.phase(), Phase::CooperativeArq);
        let Some(TimerKind::RequestCycle { epoch: old_epoch }) =
            timers(&actions).into_iter().find(|t| matches!(t, TimerKind::RequestCycle { .. }))
        else {
            panic!("expected a request-cycle timer");
        };
        // New AP coverage: a fresh data packet arrives.
        let actions = node.handle_frame(SimTime::from_secs(100), &data_frame(4, 1, 50), || SNR);
        assert_eq!(node.phase(), Phase::Reception);
        assert!(timers(&actions).contains(&TimerKind::ApTimeout));
        // The stale request-cycle timer from the abandoned session is ignored.
        let stale = node
            .handle_timer(SimTime::from_secs(101), TimerKind::RequestCycle { epoch: old_epoch });
        assert!(stale.is_empty());
    }

    #[test]
    fn batched_request_carries_the_whole_missing_list() {
        let cfg = CarqConfig::paper_prototype().with_batched_requests();
        let mut node = CarqNode::new(NodeId::new(1), cfg);
        node.start(SimTime::ZERO);
        let _ = node.handle_frame(SimTime::ZERO, &hello_frame(2, &[]), || SNR);
        let _ = node.handle_frame(SimTime::ZERO, &hello_frame(3, &[]), || SNR);
        let _ = node.handle_frame(SimTime::from_secs(0), &data_frame(0, 1, 0), || SNR);
        let _ = node.handle_frame(SimTime::from_secs(1), &data_frame(0, 1, 5), || SNR);
        let actions = node.handle_timer(SimTime::from_secs(10), TimerKind::ApTimeout);
        match sends(&actions)[0] {
            CarqMessage::Request(r) => {
                assert_eq!(r.seqs, (1..=4).map(SeqNo::new).collect::<Vec<_>>());
                assert_eq!(r.cooperator_count, 2);
            }
            other => panic!("unexpected message {other:?}"),
        }
    }

    #[test]
    fn no_coop_node_neither_beacons_nor_recovers() {
        use crate::strategy::RecoveryStrategyKind;
        let cfg = CarqConfig::paper_prototype().with_strategy(RecoveryStrategyKind::NoCoop);
        let mut node = CarqNode::new(NodeId::new(1), cfg);
        assert!(node.start(SimTime::ZERO).is_empty(), "plain ARQ never beacons");
        // Hellos are heard but recruit nothing.
        let _ = node.handle_frame(SimTime::ZERO, &hello_frame(2, &[1]), || SNR);
        assert_eq!(node.cooperators().len(), 0);
        assert_eq!(node.stats().hellos_received, 1);
        // Overheard peer data is never buffered.
        let _ = node.handle_frame(SimTime::ZERO, &data_frame(0, 9, 3), || SNR);
        assert_eq!(node.coop_buffer().len(), 0);
        // Losses produce a decision but no recovery session.
        let _ = node.handle_frame(SimTime::from_secs(0), &data_frame(0, 1, 0), || SNR);
        let _ = node.handle_frame(SimTime::from_secs(1), &data_frame(0, 1, 3), || SNR);
        let actions = node.handle_timer(SimTime::from_secs(10), TimerKind::ApTimeout);
        assert_eq!(actions, vec![Action::DecideRecovery { missing: 2 }]);
        assert_eq!(node.phase(), Phase::Idle);
        assert_eq!(node.stats().requests_sent, 0);
        // Requests from peers are ignored even if we somehow held the packet.
        let actions = node.handle_frame(SimTime::from_secs(11), &request_frame(9, &[3], 1), || SNR);
        assert!(actions.is_empty());
    }

    #[test]
    fn one_hop_listen_fires_one_batched_shot_then_stops() {
        use crate::strategy::RecoveryStrategyKind;
        let cfg = CarqConfig::paper_prototype().with_strategy(RecoveryStrategyKind::OneHopListen);
        let mut node = CarqNode::new(NodeId::new(1), cfg);
        node.start(SimTime::ZERO);
        let _ = node.handle_frame(SimTime::ZERO, &hello_frame(2, &[]), || SNR);
        let _ = node.handle_frame(SimTime::from_secs(0), &data_frame(0, 1, 0), || SNR);
        let _ = node.handle_frame(SimTime::from_secs(1), &data_frame(0, 1, 3), || SNR);
        let actions = node.handle_timer(SimTime::from_secs(10), TimerKind::ApTimeout);
        assert_eq!(actions[0], Action::DecideRecovery { missing: 2 });
        // One batched request carrying the whole missing list...
        match sends(&actions)[0] {
            CarqMessage::Request(r) => {
                assert_eq!(r.seqs, vec![SeqNo::new(1), SeqNo::new(2)]);
            }
            other => panic!("unexpected message {other:?}"),
        }
        // ...and the first fruitless cycle ends the session.
        let TimerKind::RequestCycle { epoch } = timers(&actions)
            .into_iter()
            .find(|t| matches!(t, TimerKind::RequestCycle { .. }))
            .expect("pacing timer armed")
        else {
            unreachable!()
        };
        let actions = node.handle_timer(SimTime::from_secs(11), TimerKind::RequestCycle { epoch });
        assert!(sends(&actions).is_empty(), "one shot only");
        assert_eq!(node.phase(), Phase::Idle);
        assert_eq!(node.stats().requests_sent, 1);
        assert!(node.recovery().expect("planner exists").gave_up());
    }

    #[test]
    fn one_hop_listen_cooperator_uses_order_only_slots() {
        use crate::strategy::RecoveryStrategyKind;
        let cfg = CarqConfig::paper_prototype().with_strategy(RecoveryStrategyKind::OneHopListen);
        let slot = cfg.response_slot;
        let mut node = CarqNode::new(NodeId::new(2), cfg);
        node.start(SimTime::ZERO);
        let _ = node.handle_frame(SimTime::ZERO, &hello_frame(1, &[100, 2]), || SNR);
        for seq in [3u32, 4, 5] {
            let _ = node.handle_frame(SimTime::ZERO, &data_frame(0, 1, seq), || SNR);
        }
        let actions =
            node.handle_frame(SimTime::from_secs(60), &request_frame(1, &[3, 4, 5], 2), || SNR);
        let delays: Vec<SimDuration> = actions
            .iter()
            .filter_map(|a| match a {
                Action::SetTimer { kind: TimerKind::CoopResponse { .. }, after } => Some(*after),
                _ => None,
            })
            .collect();
        assert_eq!(delays.len(), 3);
        // Order 1, every packet: compressed slot 1 for all three (the paper's
        // interleaving would use slots 1, 3, 5 — see
        // batched_responder_schedules_interleaved_slots).
        for delay in delays {
            assert!(delay >= slot && delay < slot * 2);
        }
    }

    #[test]
    fn net_coded_cooperator_pairs_pending_responses_for_different_peers() {
        use crate::strategy::RecoveryStrategyKind;
        let cfg = CarqConfig::paper_prototype().with_strategy(RecoveryStrategyKind::NetCoded);
        let mut node = CarqNode::new(NodeId::new(2), cfg);
        node.start(SimTime::ZERO);
        // Cooperate for cars 1 and 4; buffer one packet for each.
        let _ = node.handle_frame(SimTime::ZERO, &hello_frame(1, &[2]), || SNR);
        let _ = node.handle_frame(SimTime::ZERO, &hello_frame(4, &[2]), || SNR);
        let _ = node.handle_frame(SimTime::ZERO, &data_frame(0, 1, 7), || SNR);
        let _ = node.handle_frame(SimTime::ZERO, &data_frame(0, 4, 9), || SNR);
        // Both request their missing packet.
        let _ = node.handle_frame(SimTime::from_secs(60), &request_frame(1, &[7], 1), || SNR);
        let _ = node.handle_frame(SimTime::from_secs(60), &request_frame(4, &[9], 1), || SNR);
        // The first response slot to fire serves BOTH with one coded frame.
        let actions = node.handle_timer(
            SimTime::from_secs(61),
            TimerKind::CoopResponse { peer: NodeId::new(1), seq: SeqNo::new(7) },
        );
        let messages = sends(&actions);
        assert_eq!(messages.len(), 1);
        match messages[0] {
            CarqMessage::CodedData(c) => {
                let mut served: Vec<(NodeId, SeqNo)> =
                    vec![(c.a.destination, c.a.seq), (c.b.destination, c.b.seq)];
                served.sort();
                assert_eq!(
                    served,
                    vec![(NodeId::new(1), SeqNo::new(7)), (NodeId::new(4), SeqNo::new(9)),]
                );
                assert_eq!(c.relay, NodeId::new(2));
            }
            other => panic!("expected coded data, got {other:?}"),
        }
        assert_eq!(node.stats().coded_data_sent, 1);
        assert_eq!(node.stats().coop_data_sent, 1, "one transmission served two peers");
        // The partner's own slot finds its response already consumed.
        let actions = node.handle_timer(
            SimTime::from_secs(61),
            TimerKind::CoopResponse { peer: NodeId::new(4), seq: SeqNo::new(9) },
        );
        assert!(actions.is_empty());
    }

    #[test]
    fn net_coded_cooperator_with_a_single_response_sends_it_plain() {
        use crate::strategy::RecoveryStrategyKind;
        let cfg = CarqConfig::paper_prototype().with_strategy(RecoveryStrategyKind::NetCoded);
        let mut node = CarqNode::new(NodeId::new(2), cfg);
        node.start(SimTime::ZERO);
        let _ = node.handle_frame(SimTime::ZERO, &hello_frame(1, &[2]), || SNR);
        let _ = node.handle_frame(SimTime::ZERO, &data_frame(0, 1, 7), || SNR);
        let _ = node.handle_frame(SimTime::from_secs(60), &request_frame(1, &[7], 1), || SNR);
        let actions = node.handle_timer(
            SimTime::from_secs(61),
            TimerKind::CoopResponse { peer: NodeId::new(1), seq: SeqNo::new(7) },
        );
        match sends(&actions)[0] {
            CarqMessage::CoopData(c) => assert_eq!(c.packet.seq, SeqNo::new(7)),
            other => panic!("expected plain coop data, got {other:?}"),
        }
        assert_eq!(node.stats().coded_data_sent, 0);
    }

    #[test]
    fn coded_receiver_decodes_only_when_it_holds_the_other_component() {
        use crate::strategy::RecoveryStrategyKind;
        let cfg = CarqConfig::paper_prototype().with_strategy(RecoveryStrategyKind::NetCoded);
        let mut node = CarqNode::new(NodeId::new(1), cfg);
        node.start(SimTime::ZERO);
        let _ = node.handle_frame(SimTime::ZERO, &hello_frame(2, &[]), || SNR);
        let _ = node.handle_frame(SimTime::from_secs(0), &data_frame(0, 1, 0), || SNR);
        let _ = node.handle_frame(SimTime::from_secs(1), &data_frame(0, 1, 2), || SNR);
        let _ = node.handle_timer(SimTime::from_secs(10), TimerKind::ApTimeout);
        let mine = DataPacket::new(NodeId::new(1), SeqNo::new(1), 1_000, SimTime::ZERO);
        let unknown = DataPacket::new(NodeId::new(4), SeqNo::new(9), 1_000, SimTime::ZERO);
        let undecodable = CodedDataMessage::new(mine, unknown, NodeId::new(2));
        let frame = Frame::new(
            NodeId::new(2),
            Destination::Broadcast,
            undecodable.encoded_bytes(),
            CarqMessage::CodedData(undecodable),
        );
        let _ = node.handle_frame(SimTime::from_secs(11), &frame, || SNR);
        assert_eq!(node.stats().coded_decode_failures, 1);
        assert_eq!(node.stats().recovered_via_coop, 0, "pair unknown: undecodable");
        // Paired with a packet we already hold, the same component decodes.
        let held = DataPacket::new(NodeId::new(1), SeqNo::new(0), 1_000, SimTime::ZERO);
        let decodable = CodedDataMessage::new(mine, held, NodeId::new(2));
        let frame = Frame::new(
            NodeId::new(2),
            Destination::Broadcast,
            decodable.encoded_bytes(),
            CarqMessage::CodedData(decodable),
        );
        let _ = node.handle_frame(SimTime::from_secs(12), &frame, || SNR);
        assert_eq!(node.stats().recovered_via_coop, 1);
        assert_eq!(node.missing_after_coop(), Vec::<SeqNo>::new());
        assert_eq!(node.phase(), Phase::Idle);
    }

    #[test]
    fn debug_skip_decision_knob_suppresses_the_decision_action() {
        let mut cfg = CarqConfig::paper_prototype();
        cfg.debug_skip_decision = true;
        let mut node = CarqNode::new(NodeId::new(1), cfg);
        node.start(SimTime::ZERO);
        let _ = node.handle_frame(SimTime::ZERO, &hello_frame(2, &[]), || SNR);
        let _ = node.handle_frame(SimTime::from_secs(0), &data_frame(0, 1, 0), || SNR);
        let _ = node.handle_frame(SimTime::from_secs(1), &data_frame(0, 1, 3), || SNR);
        let actions = node.handle_timer(SimTime::from_secs(10), TimerKind::ApTimeout);
        assert!(
            !actions.iter().any(|a| matches!(a, Action::DecideRecovery { .. })),
            "the mutation knob must suppress the loss-decision notification"
        );
        assert_eq!(node.stats().requests_sent, 1, "recovery itself still runs");
    }

    #[test]
    fn recovery_decision_precedes_the_first_request() {
        let mut node = CarqNode::new(NodeId::new(1), CarqConfig::paper_prototype());
        node.start(SimTime::ZERO);
        let _ = node.handle_frame(SimTime::ZERO, &hello_frame(2, &[]), || SNR);
        let _ = node.handle_frame(SimTime::from_secs(0), &data_frame(0, 1, 0), || SNR);
        let _ = node.handle_frame(SimTime::from_secs(1), &data_frame(0, 1, 3), || SNR);
        let actions = node.handle_timer(SimTime::from_secs(10), TimerKind::ApTimeout);
        assert_eq!(actions[0], Action::DecideRecovery { missing: 2 });
        assert!(matches!(&actions[1], Action::Send { message: CarqMessage::Request(_), .. }));
    }

    #[test]
    fn batched_responder_schedules_interleaved_slots() {
        let cfg = CarqConfig::paper_prototype();
        let slot = cfg.response_slot;
        let mut node = cooperator_of_car1(2, 1);
        for seq in [3u32, 4, 5] {
            let _ = node.handle_frame(SimTime::ZERO, &data_frame(0, 1, seq), || SNR);
        }
        // Car 1 batch-requests seqs 3..=5 with 2 cooperators; we are order 1.
        let actions =
            node.handle_frame(SimTime::from_secs(60), &request_frame(1, &[3, 4, 5], 2), || SNR);
        let delays: Vec<SimDuration> = actions
            .iter()
            .filter_map(|a| match a {
                Action::SetTimer { kind: TimerKind::CoopResponse { .. }, after } => Some(*after),
                _ => None,
            })
            .collect();
        assert_eq!(delays.len(), 3);
        // Slots: idx*2+1 = 1, 3, 5.
        assert!(delays[0] >= slot && delays[0] < slot * 2);
        assert!(delays[1] >= slot * 3 && delays[1] < slot * 4);
        assert!(delays[2] >= slot * 5 && delays[2] < slot * 6);
    }
}
