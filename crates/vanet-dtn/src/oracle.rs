//! The joint-reception oracle ("virtual car").
//!
//! Figures 6–8 of the paper compare the post-cooperation reception of each
//! car against "the joint probability of reception of the different packets
//! in car 1, 2 or 3": if *any* car in the platoon received a packet, a
//! perfect cooperation scheme would deliver it to its destination. The paper
//! concludes the protocol is "almost optimal" because the two curves nearly
//! coincide. This module computes that bound from the per-car reception
//! observations so that every experiment can report how close the protocol
//! came to it.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use vanet_mac::NodeId;

use crate::buffer::ReceptionMap;
use crate::packet::SeqNo;

/// Joint-reception oracle over a set of observers.
///
/// For a given destination flow, the oracle records which sequence numbers
/// each observer (the destination itself or any other car) received, and can
/// answer "could a perfect cooperation scheme have delivered seq `s`?".
///
/// # Examples
///
/// ```
/// use vanet_dtn::{JointReceptionOracle, SeqNo};
/// use vanet_mac::NodeId;
///
/// let mut oracle = JointReceptionOracle::new();
/// oracle.observe(NodeId::new(1), SeqNo::new(4));
/// oracle.observe(NodeId::new(3), SeqNo::new(9));
/// assert!(oracle.jointly_received(SeqNo::new(9)));
/// assert!(!oracle.jointly_received(SeqNo::new(5)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JointReceptionOracle {
    per_observer: BTreeMap<NodeId, ReceptionMap>,
}

impl JointReceptionOracle {
    /// Creates an empty oracle.
    pub fn new() -> Self {
        JointReceptionOracle::default()
    }

    /// Records that `observer` received sequence number `seq` of the flow
    /// under study.
    pub fn observe(&mut self, observer: NodeId, seq: SeqNo) {
        self.per_observer.entry(observer).or_default().mark_received(seq);
    }

    /// Merges a whole reception map for an observer (overwrites nothing,
    /// only adds).
    pub fn observe_map(&mut self, observer: NodeId, map: &ReceptionMap) {
        self.per_observer.entry(observer).or_default().union_with(map);
    }

    /// Whether at least one observer received `seq`.
    pub fn jointly_received(&self, seq: SeqNo) -> bool {
        self.per_observer.values().any(|m| m.contains(seq))
    }

    /// Whether a specific observer received `seq`.
    pub fn received_by(&self, observer: NodeId, seq: SeqNo) -> bool {
        self.per_observer.get(&observer).is_some_and(|m| m.contains(seq))
    }

    /// The union reception map across all observers.
    pub fn union(&self) -> ReceptionMap {
        let mut union = ReceptionMap::new();
        for map in self.per_observer.values() {
            union.union_with(map);
        }
        union
    }

    /// The set of observers that have reported at least one reception.
    pub fn observers(&self) -> Vec<NodeId> {
        self.per_observer.keys().copied().collect()
    }

    /// Of the sequence numbers in `targets`, how many were received by at
    /// least one observer. This is the denominator for the paper's
    /// "the destination recovers all packets *provided that the platoon has
    /// them*" optimality statement.
    pub fn recoverable_count(&self, targets: &[SeqNo]) -> usize {
        targets.iter().filter(|s| self.jointly_received(**s)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert, prop_assert_eq, proptest};

    #[test]
    fn union_and_joint_queries() {
        let mut oracle = JointReceptionOracle::new();
        oracle.observe(NodeId::new(1), SeqNo::new(0));
        oracle.observe(NodeId::new(2), SeqNo::new(1));
        oracle.observe(NodeId::new(3), SeqNo::new(1));
        assert!(oracle.jointly_received(SeqNo::new(0)));
        assert!(oracle.jointly_received(SeqNo::new(1)));
        assert!(!oracle.jointly_received(SeqNo::new(2)));
        assert!(oracle.received_by(NodeId::new(2), SeqNo::new(1)));
        assert!(!oracle.received_by(NodeId::new(2), SeqNo::new(0)));
        assert_eq!(oracle.union().received_count(), 2);
        assert_eq!(oracle.observers(), vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]);
    }

    #[test]
    fn observe_map_merges() {
        let mut oracle = JointReceptionOracle::new();
        let map: ReceptionMap = [2u32, 4, 6].into_iter().map(SeqNo::new).collect();
        oracle.observe_map(NodeId::new(1), &map);
        oracle.observe(NodeId::new(1), SeqNo::new(8));
        assert_eq!(oracle.union().received_count(), 4);
    }

    #[test]
    fn recoverable_count_counts_only_targets_someone_has() {
        let mut oracle = JointReceptionOracle::new();
        oracle.observe(NodeId::new(2), SeqNo::new(5));
        oracle.observe(NodeId::new(3), SeqNo::new(7));
        let targets = vec![SeqNo::new(5), SeqNo::new(6), SeqNo::new(7)];
        assert_eq!(oracle.recoverable_count(&targets), 2);
        assert_eq!(oracle.recoverable_count(&[]), 0);
    }

    proptest! {
        /// The union contains a sequence number iff some observer saw it.
        #[test]
        fn prop_union_is_or_of_observers(
            a in proptest::collection::btree_set(0u32..100, 0..40),
            b in proptest::collection::btree_set(0u32..100, 0..40),
        ) {
            let mut oracle = JointReceptionOracle::new();
            for s in &a { oracle.observe(NodeId::new(1), SeqNo::new(*s)); }
            for s in &b { oracle.observe(NodeId::new(2), SeqNo::new(*s)); }
            let union = oracle.union();
            for s in 0u32..100 {
                let expected = a.contains(&s) || b.contains(&s);
                prop_assert_eq!(union.contains(SeqNo::new(s)), expected);
                prop_assert_eq!(oracle.jointly_received(SeqNo::new(s)), expected);
            }
            prop_assert!(union.received_count() <= a.len() + b.len());
        }
    }
}
