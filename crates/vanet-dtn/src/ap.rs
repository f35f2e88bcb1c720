//! The access-point traffic source.
//!
//! The testbed's AP "transmitted three different data flows addressed to each
//! car on the experiment consisting of 5 ICMP Echo Request messages per
//! second with an ICMP payload of 1000 bytes". [`AccessPointApp`] generates
//! exactly that schedule: every `1/rate` seconds it emits one packet for the
//! next car in round-robin order, each flow carrying its own sequence
//! numbers.
//!
//! For the retransmission ablation (§3.2 of the paper argues retransmissions
//! waste coverage time; we quantify that), the AP can instead run an
//! [`ApSchedulingPolicy::RetransmitUnacked`] policy which interleaves
//! retransmissions of packets reported missing by the cars.

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimTime};
use vanet_mac::NodeId;

use crate::packet::{DataPacket, SeqNo};

/// How the AP chooses what to send in each transmission slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ApSchedulingPolicy {
    /// Always send fresh (never-sent) data — the paper's configuration:
    /// "no retransmissions are used […] the channel can be used by the AP to
    /// transmit as much new data addressed to the cars as possible".
    FreshDataOnly,
    /// Retransmit packets that cars have reported missing (via out-of-band
    /// feedback assumed perfect), interleaving `retransmit_ratio` of the
    /// slots for retransmissions. This is the AP-side ARQ baseline.
    RetransmitUnacked {
        /// Fraction of transmission slots devoted to retransmissions when
        /// there is pending feedback (0.0–1.0).
        retransmit_ratio: f64,
    },
}

/// Configuration of the AP traffic source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApConfig {
    /// The cars served by this AP, in round-robin order.
    pub cars: Vec<NodeId>,
    /// Packets per second *per car*.
    pub packets_per_second_per_car: f64,
    /// Payload size in bytes (the paper uses 1000-byte ICMP payloads).
    pub payload_bytes: u32,
    /// Scheduling policy.
    pub policy: ApSchedulingPolicy,
}

impl ApConfig {
    /// The paper's configuration for a given set of cars: 5 packets/s per
    /// car, 1000-byte payloads, fresh data only.
    pub fn paper_testbed(cars: Vec<NodeId>) -> Self {
        ApConfig {
            cars,
            packets_per_second_per_car: 5.0,
            payload_bytes: 1_000,
            policy: ApSchedulingPolicy::FreshDataOnly,
        }
    }

    /// Overrides the per-car packet rate.
    pub fn with_rate(mut self, packets_per_second_per_car: f64) -> Self {
        self.packets_per_second_per_car = packets_per_second_per_car;
        self
    }

    /// The interval between consecutive AP transmissions (across all flows).
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no cars or a non-positive rate.
    pub fn transmission_interval(&self) -> SimDuration {
        assert!(!self.cars.is_empty(), "AP must serve at least one car");
        assert!(self.packets_per_second_per_car > 0.0, "rate must be positive");
        SimDuration::from_secs_f64(1.0 / (self.packets_per_second_per_car * self.cars.len() as f64))
    }
}

/// One packet the AP has decided to transmit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledPacket {
    /// The packet to put on the air.
    pub packet: DataPacket,
    /// Whether this is a retransmission of a previously sent packet.
    pub is_retransmission: bool,
}

/// The access-point application state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccessPointApp {
    config: ApConfig,
    next_seq: BTreeMap<NodeId, SeqNo>,
    next_car_index: usize,
    sent_log: BTreeMap<NodeId, Vec<(SeqNo, SimTime)>>,
    retransmit_queue: VecDeque<(NodeId, SeqNo)>,
    slots_since_retransmit: u32,
}

impl AccessPointApp {
    /// Creates an AP application.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no cars or a non-positive rate.
    pub fn new(config: ApConfig) -> Self {
        assert!(!config.cars.is_empty(), "AP must serve at least one car");
        assert!(config.packets_per_second_per_car > 0.0, "rate must be positive");
        let next_seq = config.cars.iter().map(|c| (*c, SeqNo::FIRST)).collect();
        let sent_log = config.cars.iter().map(|c| (*c, Vec::new())).collect();
        AccessPointApp {
            config,
            next_seq,
            next_car_index: 0,
            sent_log,
            retransmit_queue: VecDeque::new(),
            slots_since_retransmit: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ApConfig {
        &self.config
    }

    /// The interval between consecutive AP transmissions.
    pub fn transmission_interval(&self) -> SimDuration {
        self.config.transmission_interval()
    }

    /// Decides the packet to transmit in the slot at `now` and records it in
    /// the sent log.
    pub fn next_transmission(&mut self, now: SimTime) -> ScheduledPacket {
        if let Some(scheduled) = self.maybe_retransmission(now) {
            return scheduled;
        }
        let car = self.config.cars[self.next_car_index];
        self.next_car_index = (self.next_car_index + 1) % self.config.cars.len();
        let seq = self.next_seq[&car];
        self.next_seq.insert(car, seq.next());
        self.sent_log.get_mut(&car).expect("car registered at construction").push((seq, now));
        ScheduledPacket {
            packet: DataPacket::new(car, seq, self.config.payload_bytes, now),
            is_retransmission: false,
        }
    }

    fn maybe_retransmission(&mut self, now: SimTime) -> Option<ScheduledPacket> {
        let ApSchedulingPolicy::RetransmitUnacked { retransmit_ratio } = self.config.policy else {
            return None;
        };
        if self.retransmit_queue.is_empty() {
            return None;
        }
        // Interleave: allow a retransmission once every ceil(1/ratio) slots.
        let period = if retransmit_ratio >= 1.0 {
            1
        } else {
            (1.0 / retransmit_ratio.max(1e-6)).ceil() as u32
        };
        self.slots_since_retransmit += 1;
        if self.slots_since_retransmit < period {
            return None;
        }
        self.slots_since_retransmit = 0;
        let (car, seq) = self.retransmit_queue.pop_front().expect("checked non-empty");
        Some(ScheduledPacket {
            packet: DataPacket::new(car, seq, self.config.payload_bytes, now),
            is_retransmission: true,
        })
    }

    /// Reports feedback that `car` is missing `seq` (only meaningful under
    /// [`ApSchedulingPolicy::RetransmitUnacked`]). Duplicate reports are
    /// ignored.
    pub fn report_missing(&mut self, car: NodeId, seq: SeqNo) {
        if matches!(self.config.policy, ApSchedulingPolicy::FreshDataOnly) {
            return;
        }
        if !self.retransmit_queue.contains(&(car, seq)) {
            self.retransmit_queue.push_back((car, seq));
        }
    }

    /// Number of queued retransmissions.
    pub fn pending_retransmissions(&self) -> usize {
        self.retransmit_queue.len()
    }

    /// Sequence numbers (fresh transmissions only) sent to `car` so far,
    /// with their transmission times.
    pub fn sent_to(&self, car: NodeId) -> &[(SeqNo, SimTime)] {
        self.sent_log.get(&car).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cars() -> Vec<NodeId> {
        vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]
    }

    #[test]
    fn paper_config_interval_is_one_fifteenth_second() {
        let cfg = ApConfig::paper_testbed(cars());
        let interval = cfg.transmission_interval();
        assert!((interval.as_secs_f64() - 1.0 / 15.0).abs() < 1e-9);
    }

    #[test]
    fn round_robin_assigns_independent_sequence_numbers() {
        let mut ap = AccessPointApp::new(ApConfig::paper_testbed(cars()));
        let mut seen = Vec::new();
        for i in 0..6 {
            let tx = ap.next_transmission(SimTime::from_millis(i * 67));
            assert!(!tx.is_retransmission);
            seen.push((tx.packet.destination.as_u32(), tx.packet.seq.value()));
        }
        assert_eq!(seen, vec![(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1)]);
        assert_eq!(ap.sent_to(NodeId::new(1)).len(), 2);
        assert_eq!(ap.sent_to(NodeId::new(2)).len(), 2);
    }

    #[test]
    fn fresh_data_policy_ignores_missing_reports() {
        let mut ap = AccessPointApp::new(ApConfig::paper_testbed(cars()));
        ap.report_missing(NodeId::new(1), SeqNo::new(0));
        assert_eq!(ap.pending_retransmissions(), 0);
    }

    #[test]
    fn retransmission_policy_interleaves_retransmissions() {
        let cfg = ApConfig {
            policy: ApSchedulingPolicy::RetransmitUnacked { retransmit_ratio: 0.5 },
            ..ApConfig::paper_testbed(cars())
        };
        let mut ap = AccessPointApp::new(cfg);
        // Send a few fresh packets, then report two losses.
        for i in 0..3 {
            let _ = ap.next_transmission(SimTime::from_millis(i * 67));
        }
        ap.report_missing(NodeId::new(1), SeqNo::new(0));
        ap.report_missing(NodeId::new(2), SeqNo::new(0));
        ap.report_missing(NodeId::new(2), SeqNo::new(0)); // duplicate ignored
        assert_eq!(ap.pending_retransmissions(), 2);
        let mut retransmissions = 0;
        for i in 3..13 {
            let tx = ap.next_transmission(SimTime::from_millis(i * 67));
            if tx.is_retransmission {
                retransmissions += 1;
            }
        }
        assert_eq!(retransmissions, 2, "both queued retransmissions must eventually go out");
        assert_eq!(ap.pending_retransmissions(), 0);
    }

    #[test]
    fn retransmissions_do_not_consume_fresh_sequence_numbers() {
        let cfg = ApConfig {
            policy: ApSchedulingPolicy::RetransmitUnacked { retransmit_ratio: 1.0 },
            ..ApConfig::paper_testbed(vec![NodeId::new(1)])
        };
        let mut ap = AccessPointApp::new(cfg);
        let first = ap.next_transmission(SimTime::ZERO);
        assert_eq!(first.packet.seq, SeqNo::new(0));
        ap.report_missing(NodeId::new(1), SeqNo::new(0));
        let second = ap.next_transmission(SimTime::from_millis(200));
        assert!(second.is_retransmission);
        assert_eq!(second.packet.seq, SeqNo::new(0));
        let third = ap.next_transmission(SimTime::from_millis(400));
        assert!(!third.is_retransmission);
        assert_eq!(third.packet.seq, SeqNo::new(1));
        // The fresh-data log only contains fresh transmissions.
        assert_eq!(ap.sent_to(NodeId::new(1)).len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one car")]
    fn empty_car_list_rejected() {
        let _ = AccessPointApp::new(ApConfig::paper_testbed(vec![]));
    }

    #[test]
    fn config_builders() {
        let cfg = ApConfig::paper_testbed(cars()).with_rate(10.0);
        assert_eq!(cfg.packets_per_second_per_car, 10.0);
    }
}
