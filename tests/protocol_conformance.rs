//! Protocol-conformance integration tests: drive several [`CarqNode`] state
//! machines against each other "by hand" (no radio model, no losses except
//! the ones scripted) and check that the three-phase behaviour described in
//! §3 of the paper emerges: association on first packet, promiscuous
//! buffering for cooperatees, recovery of every packet the platoon holds,
//! ordered responses and suppression.

use carq_repro::dtn::{DataPacket, SeqNo};
use carq_repro::mac::{Destination, Frame, NodeId};
use carq_repro::protocol::{Action, CarqConfig, CarqMessage, CarqNode, Phase, TimerKind};
use carq_repro::sim::{SimDuration, SimTime};

const AP: u32 = 0;
const SNR: f64 = 15.0;

/// A tiny deterministic harness that runs a set of nodes and a perfect
/// broadcast channel with optional per-node packet drops.
struct Harness {
    nodes: Vec<CarqNode>,
    /// Pending timers: (fire time, node index, kind).
    timers: Vec<(SimTime, usize, TimerKind)>,
    now: SimTime,
    /// Loss decisions observed: (deciding node, missing count).
    decisions: Vec<(NodeId, u32)>,
}

impl Harness {
    fn new(ids: &[u32]) -> Self {
        let mut nodes = Vec::new();
        let mut timers = Vec::new();
        for id in ids {
            let mut node = CarqNode::new(NodeId::new(*id), CarqConfig::paper_prototype());
            let actions = node.start(SimTime::ZERO);
            for action in actions {
                if let Action::SetTimer { kind, after } = action {
                    timers.push((SimTime::ZERO + after, nodes.len(), kind));
                }
            }
            nodes.push(node);
        }
        Harness { nodes, timers, now: SimTime::ZERO, decisions: Vec::new() }
    }

    fn node(&self, id: u32) -> &CarqNode {
        self.nodes.iter().find(|n| n.id() == NodeId::new(id)).expect("node exists")
    }

    /// Delivers a frame to every node except the sender and `drop_at`.
    fn broadcast(
        &mut self,
        src: NodeId,
        dst: Destination,
        message: CarqMessage,
        drop_at: &[NodeId],
    ) {
        let frame = Frame::new(src, dst, message.encoded_bytes(), message);
        let mut follow_ups = Vec::new();
        for (idx, node) in self.nodes.iter_mut().enumerate() {
            if node.id() == src || drop_at.contains(&node.id()) {
                continue;
            }
            let actions = node.handle_frame(self.now, &frame, || SNR);
            follow_ups.push((idx, actions));
        }
        for (idx, actions) in follow_ups {
            self.apply(idx, actions);
        }
    }

    fn apply(&mut self, idx: usize, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::SetTimer { kind, after } => self.timers.push((self.now + after, idx, kind)),
                Action::Send { message, dst } => {
                    let src = self.nodes[idx].id();
                    self.broadcast(src, dst, message, &[]);
                }
                Action::DecideRecovery { missing } => {
                    self.decisions.push((self.nodes[idx].id(), missing));
                }
            }
        }
    }

    /// Advances virtual time to `until`, firing every due timer in order.
    fn run_until(&mut self, until: SimTime) {
        loop {
            self.timers.sort_by_key(|(t, idx, _)| (*t, *idx));
            let Some(pos) = self.timers.iter().position(|(t, _, _)| *t <= until) else {
                break;
            };
            let (time, idx, kind) = self.timers.remove(pos);
            self.now = time.max(self.now);
            let actions = self.nodes[idx].handle_timer(self.now, kind);
            self.apply(idx, actions);
        }
        self.now = self.now.max(until);
    }

    /// The AP sends packet `seq` to `dst`, dropped at the listed nodes.
    fn ap_data(&mut self, dst: u32, seq: u32, drop_at: &[u32]) {
        let drop: Vec<NodeId> = drop_at.iter().map(|d| NodeId::new(*d)).collect();
        let packet = DataPacket::new(NodeId::new(dst), SeqNo::new(seq), 1_000, self.now);
        self.broadcast(
            NodeId::new(AP),
            Destination::Unicast(NodeId::new(dst)),
            CarqMessage::Data(packet),
            &drop,
        );
    }

    fn advance(&mut self, by: SimDuration) {
        let target = self.now + by;
        self.run_until(target);
    }
}

/// The scripted end-to-end story of the paper: three cars exchange HELLOs,
/// receive data with different losses, leave coverage and recover everything
/// at least one platoon member holds.
#[test]
fn three_car_platoon_recovers_everything_the_platoon_holds() {
    // Node index 0 is the AP-less harness's car 1, etc. The AP is simulated
    // by `ap_data` and is not itself a CarqNode.
    let mut h = Harness::new(&[1, 2, 3]);

    // Let a couple of HELLO cycles elapse so every car lists the others.
    h.advance(SimDuration::from_secs(3));
    for car in [1, 2, 3] {
        for other in [1, 2, 3] {
            if car == other {
                continue;
            }
            assert!(
                h.node(car).cooperators().contains(NodeId::new(other)),
                "car {car} should have recruited car {other}"
            );
            assert!(h.node(car).cooperatees().cooperates_for(NodeId::new(other)));
        }
    }

    // Reception phase: ten packets per car. Car 1 misses 3..=5, car 2 misses
    // 7, car 3 misses 5..=6; every missed packet is received by at least one
    // other car, except car 1's packet 4 which nobody receives.
    for seq in 0..10u32 {
        let drop_for_1: &[u32] = match seq {
            4 => &[1, 2, 3],
            3 | 5 => &[1],
            _ => &[],
        };
        h.ap_data(1, seq, drop_for_1);
        let drop_for_2: &[u32] = if seq == 7 { &[2] } else { &[] };
        h.ap_data(2, seq, drop_for_2);
        let drop_for_3: &[u32] = if (5..=6).contains(&seq) { &[3] } else { &[] };
        h.ap_data(3, seq, drop_for_3);
        h.advance(SimDuration::from_millis(200));
    }
    for car in [1, 2, 3] {
        assert_eq!(h.node(car).phase(), Phase::Reception);
    }
    assert!(h.node(2).coop_buffer().holds(NodeId::new(1), SeqNo::new(3)));
    assert!(h.node(1).coop_buffer().holds(NodeId::new(3), SeqNo::new(5)));

    // Coverage ends: no AP data for longer than the 5 s timeout.
    h.advance(SimDuration::from_secs(30));

    // Everyone recovered everything the platoon held.
    let car1 = h.node(1);
    assert_eq!(car1.direct_receptions().missing().len(), 3, "3, 4 and 5 were missed directly");
    assert_eq!(car1.missing_after_coop(), vec![SeqNo::new(4)], "nobody held packet 4");
    assert_eq!(car1.stats().recovered_via_coop, 2);
    assert!(car1.recovery().expect("planner ran").gave_up(), "packet 4 is unrecoverable");

    let car2 = h.node(2);
    assert!(car2.missing_after_coop().is_empty());
    assert_eq!(car2.stats().recovered_via_coop, 1);
    assert_eq!(car2.phase(), Phase::Idle);

    let car3 = h.node(3);
    assert!(car3.missing_after_coop().is_empty());
    assert_eq!(car3.stats().recovered_via_coop, 2);

    // Every recovery was answered exactly once: responses for the same packet
    // from later-ordered cooperators must have been suppressed or never
    // scheduled, so the total number of cooperative transmissions equals the
    // total number of recoveries.
    let total_sent: u64 = [1, 2, 3].iter().map(|c| h.node(*c).stats().coop_data_sent).sum();
    let total_recovered: u64 =
        [1, 2, 3].iter().map(|c| h.node(*c).stats().recovered_via_coop).sum();
    assert_eq!(total_recovered, 5);
    assert!(
        total_sent <= total_recovered + 2,
        "cooperative transmissions ({total_sent}) should not substantially exceed recoveries ({total_recovered})"
    );

    // Every car that missed packets made exactly one loss decision, with the
    // missing count it observed at the time.
    let mut decisions = h.decisions.clone();
    decisions.sort();
    assert_eq!(
        decisions,
        vec![(NodeId::new(1), 3), (NodeId::new(2), 1), (NodeId::new(3), 2)],
        "one decision per car, carrying its directly-missed count"
    );
}

/// A car that misses nothing never enters the Cooperative-ARQ phase.
#[test]
fn lossless_reception_skips_the_recovery_phase() {
    let mut h = Harness::new(&[1, 2]);
    h.advance(SimDuration::from_secs(2));
    for seq in 0..5u32 {
        h.ap_data(1, seq, &[]);
        h.ap_data(2, seq, &[]);
        h.advance(SimDuration::from_millis(100));
    }
    h.advance(SimDuration::from_secs(20));
    for car in [1, 2] {
        assert_eq!(h.node(car).phase(), Phase::Idle);
        assert_eq!(h.node(car).stats().requests_sent, 0);
        assert!(h.node(car).missing_after_coop().is_empty());
    }
    assert!(h.decisions.is_empty(), "nothing was lost, so no loss decision was made");
}

/// Without any HELLO exchange there are no cooperators, so nothing is
/// buffered and nothing can be recovered — but the node still terminates its
/// recovery attempts cleanly.
#[test]
fn no_cooperators_means_no_recovery_but_clean_termination() {
    let mut h = Harness::new(&[1]);
    h.advance(SimDuration::from_secs(2));
    for seq in 0..6u32 {
        let drop: &[u32] = if seq % 2 == 1 { &[1] } else { &[] };
        h.ap_data(1, seq, drop);
        h.advance(SimDuration::from_millis(100));
    }
    h.advance(SimDuration::from_secs(40));
    let node = h.node(1);
    assert_eq!(node.stats().recovered_via_coop, 0);
    assert_eq!(node.phase(), Phase::Idle);
    assert_eq!(node.missing_after_coop().len(), 2);
}
