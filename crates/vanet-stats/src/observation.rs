//! Raw per-round experiment records.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use vanet_dtn::{ReceptionMap, SeqNo};
use vanet_mac::NodeId;

/// Everything the evaluation needs to know about one flow (the packets
/// addressed to one car) in one experiment round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowObservation {
    /// The car this flow is addressed to.
    pub destination: NodeId,
    /// Sequence numbers the AP transmitted for this flow during the round,
    /// in transmission order.
    pub sent: Vec<SeqNo>,
    /// What each observer (the destination itself and every other car)
    /// physically received of this flow — the promiscuous captures of the
    /// testbed laptops.
    pub received_by: BTreeMap<NodeId, ReceptionMap>,
    /// What the destination holds after the Cooperative-ARQ phase.
    pub after_coop: ReceptionMap,
}

impl FlowObservation {
    /// The destination's own direct receptions (empty map if it received
    /// nothing).
    pub fn direct(&self) -> &ReceptionMap {
        static NOTHING: ReceptionMap = ReceptionMap::new();
        self.received_by.get(&self.destination).unwrap_or(&NOTHING)
    }

    /// The packet window the paper evaluates: from the first to the last
    /// packet the destination received directly from the AP.
    pub fn window(&self) -> Option<(SeqNo, SeqNo)> {
        let direct = self.direct();
        Some((direct.first()?, direct.last()?))
    }

    /// Number of packets the AP transmitted to this car within the car's own
    /// reception window — the paper's "Tx by the AP" column.
    pub fn tx_by_ap_in_window(&self) -> usize {
        let Some((first, last)) = self.window() else { return 0 };
        self.sent.iter().filter(|s| **s >= first && **s <= last).count()
    }

    /// Packets lost before cooperation (within the window).
    pub fn lost_before_coop(&self) -> usize {
        let Some((first, last)) = self.window() else { return 0 };
        let direct = self.direct();
        self.sent.iter().filter(|s| **s >= first && **s <= last && !direct.contains(**s)).count()
    }

    /// Packets still lost after cooperation (within the window).
    pub fn lost_after_coop(&self) -> usize {
        let Some((first, last)) = self.window() else { return 0 };
        self.sent
            .iter()
            .filter(|s| **s >= first && **s <= last && !self.after_coop.contains(**s))
            .count()
    }

    /// The joint ("virtual car") reception across all observers.
    pub fn joint(&self) -> ReceptionMap {
        let mut joint = ReceptionMap::new();
        for map in self.received_by.values() {
            joint.union_with(map);
        }
        joint
    }

    /// How many of the packets that were recoverable (some observer had them)
    /// within the window the destination actually ended up holding.
    /// The paper calls the protocol "almost optimal" because this ratio is
    /// close to 1.
    pub fn recovery_efficiency(&self) -> f64 {
        let Some((first, last)) = self.window() else { return 1.0 };
        let joint = self.joint();
        let recoverable: Vec<SeqNo> =
            first.range_to_inclusive(last).filter(|s| joint.contains(*s)).collect();
        if recoverable.is_empty() {
            return 1.0;
        }
        let achieved = recoverable.iter().filter(|s| self.after_coop.contains(**s)).count();
        achieved as f64 / recoverable.len() as f64
    }
}

/// The result of one experiment round: one [`FlowObservation`] per car.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RoundResult {
    /// Per-flow observations, one per car in platoon order.
    pub flows: Vec<FlowObservation>,
}

impl RoundResult {
    /// Creates a round result from its flows.
    pub fn new(flows: Vec<FlowObservation>) -> Self {
        RoundResult { flows }
    }

    /// The observation for the flow addressed to `car`, if present.
    pub fn flow_for(&self, car: NodeId) -> Option<&FlowObservation> {
        self.flows.iter().find(|f| f.destination == car)
    }

    /// The cars observed in this round, in platoon order.
    pub fn cars(&self) -> Vec<NodeId> {
        self.flows.iter().map(|f| f.destination).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds an observation where the AP sent seqs 0..10, the destination
    /// (car 1) received {2,3,4,7}, car 2 overheard {5,6,7}, and cooperation
    /// recovered 5 and 6.
    fn sample() -> FlowObservation {
        let dst = NodeId::new(1);
        let mut received_by = BTreeMap::new();
        received_by.insert(dst, [2u32, 3, 4, 7].into_iter().map(SeqNo::new).collect());
        received_by.insert(NodeId::new(2), [5u32, 6, 7].into_iter().map(SeqNo::new).collect());
        let after_coop: ReceptionMap = [2u32, 3, 4, 5, 6, 7].into_iter().map(SeqNo::new).collect();
        FlowObservation {
            destination: dst,
            sent: (0..10).map(SeqNo::new).collect(),
            received_by,
            after_coop,
        }
    }

    #[test]
    fn window_and_tx_counts() {
        let obs = sample();
        assert_eq!(obs.window(), Some((SeqNo::new(2), SeqNo::new(7))));
        assert_eq!(obs.tx_by_ap_in_window(), 6);
        assert_eq!(obs.lost_before_coop(), 2); // 5 and 6
        assert_eq!(obs.lost_after_coop(), 0);
        assert_eq!(obs.direct().received_count(), 4);
    }

    #[test]
    fn joint_reception_is_union_of_observers() {
        let obs = sample();
        let joint = obs.joint();
        for s in [2u32, 3, 4, 5, 6, 7] {
            assert!(joint.contains(SeqNo::new(s)));
        }
        assert!(!joint.contains(SeqNo::new(8)));
        assert_eq!(joint.received_count(), 6);
    }

    #[test]
    fn recovery_efficiency_is_one_when_everything_recoverable_is_recovered() {
        let obs = sample();
        assert_eq!(obs.recovery_efficiency(), 1.0);
        // Remove a recovered packet: efficiency drops below 1.
        let mut partial = obs.clone();
        partial.after_coop = [2u32, 3, 4, 5, 7].into_iter().map(SeqNo::new).collect();
        assert!(partial.recovery_efficiency() < 1.0);
        assert!(partial.recovery_efficiency() > 0.7);
    }

    #[test]
    fn empty_reception_yields_zero_counts() {
        let obs = FlowObservation {
            destination: NodeId::new(1),
            sent: (0..10).map(SeqNo::new).collect(),
            received_by: BTreeMap::new(),
            after_coop: ReceptionMap::new(),
        };
        assert_eq!(obs.window(), None);
        assert_eq!(obs.tx_by_ap_in_window(), 0);
        assert_eq!(obs.lost_before_coop(), 0);
        assert_eq!(obs.lost_after_coop(), 0);
        assert_eq!(obs.recovery_efficiency(), 1.0);
    }

    #[test]
    fn round_result_lookups() {
        let round = RoundResult::new(vec![sample()]);
        assert_eq!(round.cars(), vec![NodeId::new(1)]);
        assert!(round.flow_for(NodeId::new(1)).is_some());
        assert!(round.flow_for(NodeId::new(9)).is_none());
    }
}
