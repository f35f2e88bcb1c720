//! Cooperator bookkeeping.
//!
//! The cooperation relation has two sides:
//!
//! * **My cooperators** ([`CooperatorTable`]) — the neighbours *I* have heard
//!   and recruited. Their position in my list is the response order I assign
//!   them, advertised in my HELLOs, and they are the nodes I will ask for my
//!   missing packets.
//! * **My cooperatees** ([`CooperateeTable`]) — the neighbours that have
//!   listed *me* in their HELLOs. For each of them I know the response order
//!   they assigned me, I buffer packets addressed to them, and I answer their
//!   REQUESTs after my assigned back-off.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use vanet_mac::NodeId;

use crate::config::SelectionStrategy;

/// One entry in the cooperator table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct CooperatorEntry {
    node: NodeId,
    /// Signal strength of the last HELLO heard from this neighbour (dB).
    /// Only [`SelectionStrategy::StrongestSignal`] reads it, so only that
    /// policy evaluates it; under the others it stays 0.
    last_snr_db: f64,
}

/// The ordered list of cooperators a node has recruited.
///
/// The order in which neighbours appear is the response order advertised in
/// HELLOs: the first cooperator answers a REQUEST immediately, the second one
/// a slot later, and so on (§3.2: "The list of cooperators contained in the
/// HELLO messages also indicates the order in which cooperators should act").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CooperatorTable {
    strategy: SelectionStrategy,
    entries: Vec<CooperatorEntry>,
}

impl CooperatorTable {
    /// Creates an empty table with the given selection strategy.
    pub fn new(strategy: SelectionStrategy) -> Self {
        CooperatorTable { strategy, entries: Vec::new() }
    }

    /// Records that a HELLO from `node` was heard. `snr_db` measures its
    /// signal strength (dB) when called; only
    /// [`SelectionStrategy::StrongestSignal`] calls it, since no other
    /// policy compares signals. Returns `true` if the cooperator set
    /// changed.
    pub fn hear_neighbour(&mut self, node: NodeId, snr_db: impl FnOnce() -> f64) -> bool {
        let strongest = matches!(self.strategy, SelectionStrategy::StrongestSignal { .. });
        let snr_db = if strongest { snr_db() } else { 0.0 };
        if let Some(entry) = self.entries.iter_mut().find(|e| e.node == node) {
            entry.last_snr_db = snr_db;
            // Under StrongestSignal the updated SNR can change the selection,
            // but membership of already-selected nodes does not change unless
            // the table is over its limit (it never is, see below), so the
            // selected set is stable.
            return false;
        }
        let entry = CooperatorEntry { node, last_snr_db: snr_db };
        match self.strategy {
            SelectionStrategy::AllNeighbours => {
                self.entries.push(entry);
                true
            }
            SelectionStrategy::FirstHeard { k } => {
                if self.entries.len() < k {
                    self.entries.push(entry);
                    true
                } else {
                    false
                }
            }
            SelectionStrategy::StrongestSignal { k } => {
                if self.entries.len() < k {
                    self.entries.push(entry);
                    return true;
                }
                // Replace the weakest current cooperator if the newcomer is
                // stronger.
                let (weakest_idx, weakest) = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.last_snr_db.total_cmp(&b.1.last_snr_db))
                    .expect("table is non-empty here");
                if snr_db > weakest.last_snr_db {
                    self.entries[weakest_idx] = entry;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// The ordered cooperator list, as advertised in HELLOs.
    pub fn ordered_list(&self) -> Vec<NodeId> {
        self.entries.iter().map(|e| e.node).collect()
    }

    /// Number of cooperators.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no cooperator has been recruited yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `node` is currently a cooperator.
    pub fn contains(&self, node: NodeId) -> bool {
        self.entries.iter().any(|e| e.node == node)
    }

    /// The response order assigned to `node`, if it is a cooperator.
    pub fn order_of(&self, node: NodeId) -> Option<u32> {
        self.entries.iter().position(|e| e.node == node).map(|p| p as u32)
    }

    /// Removes every cooperator (e.g. between experiment rounds).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The selection strategy in use.
    pub fn strategy(&self) -> SelectionStrategy {
        self.strategy
    }
}

/// The peers that consider this node one of *their* cooperators, with the
/// response order each of them assigned to us.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CooperateeTable {
    orders: BTreeMap<NodeId, u32>,
}

impl CooperateeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        CooperateeTable::default()
    }

    /// Processes the cooperator list of a HELLO from `peer`: if we appear in
    /// it we are (still) one of `peer`'s cooperators with the given order; if
    /// we no longer appear, the relation is dropped.
    pub fn update_from_hello(&mut self, peer: NodeId, our_order: Option<u32>) {
        match our_order {
            Some(order) => {
                self.orders.insert(peer, order);
            }
            None => {
                self.orders.remove(&peer);
            }
        }
    }

    /// Whether we act as a cooperator for `peer`.
    pub fn cooperates_for(&self, peer: NodeId) -> bool {
        self.orders.contains_key(&peer)
    }

    /// The response order `peer` assigned to us, if any.
    pub fn order_for(&self, peer: NodeId) -> Option<u32> {
        self.orders.get(&peer).copied()
    }

    /// The peers we cooperate for.
    pub fn peers(&self) -> Vec<NodeId> {
        self.orders.keys().copied().collect()
    }

    /// Number of peers we cooperate for.
    pub fn len(&self) -> usize {
        self.orders.len()
    }

    /// Whether we cooperate for nobody.
    pub fn is_empty(&self) -> bool {
        self.orders.is_empty()
    }

    /// Forgets everything.
    pub fn clear(&mut self) {
        self.orders.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert, proptest};

    #[test]
    fn all_neighbours_are_added_in_order_heard() {
        let mut table = CooperatorTable::new(SelectionStrategy::AllNeighbours);
        assert!(table.is_empty());
        assert!(table.hear_neighbour(NodeId::new(3), || -60.0));
        assert!(table.hear_neighbour(NodeId::new(1), || -70.0));
        assert!(!table.hear_neighbour(NodeId::new(3), || -55.0), "already present");
        assert_eq!(table.ordered_list(), vec![NodeId::new(3), NodeId::new(1)]);
        assert_eq!(table.order_of(NodeId::new(3)), Some(0));
        assert_eq!(table.order_of(NodeId::new(1)), Some(1));
        assert_eq!(table.order_of(NodeId::new(9)), None);
        assert!(table.contains(NodeId::new(1)));
        assert_eq!(table.len(), 2);
        assert_eq!(table.strategy(), SelectionStrategy::AllNeighbours);
        table.clear();
        assert!(table.is_empty());
    }

    #[test]
    fn first_heard_caps_the_table() {
        let mut table = CooperatorTable::new(SelectionStrategy::FirstHeard { k: 2 });
        assert!(table.hear_neighbour(NodeId::new(1), || -60.0));
        assert!(table.hear_neighbour(NodeId::new(2), || -60.0));
        assert!(!table.hear_neighbour(NodeId::new(3), || -10.0), "table is full");
        assert_eq!(table.len(), 2);
        assert!(!table.contains(NodeId::new(3)));
    }

    #[test]
    fn strongest_signal_replaces_weakest() {
        let mut table = CooperatorTable::new(SelectionStrategy::StrongestSignal { k: 2 });
        table.hear_neighbour(NodeId::new(1), || -80.0);
        table.hear_neighbour(NodeId::new(2), || -60.0);
        // Node 3 is stronger than the weakest (node 1) → replaces it.
        assert!(table.hear_neighbour(NodeId::new(3), || -50.0));
        assert!(!table.contains(NodeId::new(1)));
        assert!(table.contains(NodeId::new(3)));
        // Node 4 is weaker than everyone → rejected.
        assert!(!table.hear_neighbour(NodeId::new(4), || -90.0));
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn only_strongest_signal_evaluates_the_snr() {
        for strategy in [SelectionStrategy::AllNeighbours, SelectionStrategy::FirstHeard { k: 1 }] {
            let mut table = CooperatorTable::new(strategy);
            for node in [1, 2, 1] {
                table.hear_neighbour(NodeId::new(node), || panic!("{strategy:?} read an SNR"));
            }
        }
        let mut table = CooperatorTable::new(SelectionStrategy::StrongestSignal { k: 1 });
        let mut reads = 0;
        for (node, snr) in [(1, -70.0), (2, -60.0), (2, -65.0)] {
            table.hear_neighbour(NodeId::new(node), || {
                reads += 1;
                snr
            });
        }
        assert_eq!(reads, 3, "every HELLO's SNR is read, a known neighbour's too");
        assert_eq!(table.ordered_list(), vec![NodeId::new(2)]);
    }

    #[test]
    fn cooperatee_table_follows_hello_lists() {
        let mut table = CooperateeTable::new();
        assert!(table.is_empty());
        table.update_from_hello(NodeId::new(2), Some(1));
        table.update_from_hello(NodeId::new(3), Some(0));
        assert!(table.cooperates_for(NodeId::new(2)));
        assert_eq!(table.order_for(NodeId::new(2)), Some(1));
        assert_eq!(table.order_for(NodeId::new(3)), Some(0));
        assert_eq!(table.peers(), vec![NodeId::new(2), NodeId::new(3)]);
        assert_eq!(table.len(), 2);
        // Peer 2 drops us from its list.
        table.update_from_hello(NodeId::new(2), None);
        assert!(!table.cooperates_for(NodeId::new(2)));
        assert_eq!(table.order_for(NodeId::new(2)), None);
        table.clear();
        assert!(table.is_empty());
    }

    proptest! {
        /// Orders are always a contiguous 0..len permutation-free assignment:
        /// the i-th listed cooperator has order i.
        #[test]
        fn prop_orders_match_positions(nodes in proptest::collection::vec(0u32..50, 1..30)) {
            let mut table = CooperatorTable::new(SelectionStrategy::AllNeighbours);
            for n in &nodes {
                table.hear_neighbour(NodeId::new(*n), || -60.0);
            }
            let list = table.ordered_list();
            for (i, node) in list.iter().enumerate() {
                prop_assert!(table.order_of(*node) == Some(i as u32));
            }
            // No duplicates.
            let mut dedup = list.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert!(dedup.len() == list.len());
        }

        /// Bounded strategies never exceed their limit.
        #[test]
        fn prop_selection_respects_limit(nodes in proptest::collection::vec((0u32..50, -90.0f64..-40.0), 1..60), k in 1usize..6) {
            for strategy in [SelectionStrategy::FirstHeard { k }, SelectionStrategy::StrongestSignal { k }] {
                let mut table = CooperatorTable::new(strategy);
                for (n, snr) in &nodes {
                    table.hear_neighbour(NodeId::new(*n), || *snr);
                }
                prop_assert!(table.len() <= k);
            }
        }
    }
}
