//! Epidemic-routing-style anti-entropy exchange (overhead baseline).
//!
//! The paper positions Cooperative ARQ against epidemic routing: "although it
//! could have some similarities, the cooperation would not behave as epidemic
//! routing in which nodes carry and forward packets for other nodes.
//! Cooperative-ARQ['s] objective is to improve performance given that the
//! neighborhood of a node has received packets directed to that node."
//!
//! To make that comparison quantitative we implement the classic two-step
//! anti-entropy session of epidemic routing (Vahdat & Becker): when two nodes
//! meet, each sends its *summary vector* (the set of packets it carries) and
//! then transfers every packet the other is missing — regardless of whether
//! the other node is the packet's destination. `tests/baselines_and_extensions.rs`
//! compares the bytes and frames this exchanges against what the C-ARQ
//! REQUEST/response recovery needs for the same reception state.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};
use vanet_mac::NodeId;

use crate::packet::SeqNo;

/// The summary vector advertised by a node: which `(flow destination, seq)`
/// pairs it currently holds (its own receptions plus anything it carries for
/// others).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SummaryVector {
    entries: BTreeSet<(NodeId, SeqNo)>,
}

impl SummaryVector {
    /// Creates an empty summary vector.
    pub fn new() -> Self {
        SummaryVector::default()
    }

    /// Adds a held packet.
    pub fn insert(&mut self, flow: NodeId, seq: SeqNo) -> bool {
        self.entries.insert((flow, seq))
    }

    /// Whether the node holds `(flow, seq)`.
    pub fn contains(&self, flow: NodeId, seq: SeqNo) -> bool {
        self.entries.contains(&(flow, seq))
    }

    /// Number of held packets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over held `(flow, seq)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, SeqNo)> + '_ {
        self.entries.iter().copied()
    }

    /// The entries present in `self` but not in `other` — the packets this
    /// node would push to the other in an anti-entropy session.
    pub fn difference(&self, other: &SummaryVector) -> Vec<(NodeId, SeqNo)> {
        self.entries.difference(&other.entries).copied().collect()
    }

    /// The on-air size of the summary vector in bytes (6 bytes per entry:
    /// a 2-byte node id and a 4-byte sequence number).
    pub fn encoded_bytes(&self) -> u32 {
        (self.entries.len() as u32) * 6
    }
}

impl FromIterator<(NodeId, SeqNo)> for SummaryVector {
    fn from_iter<I: IntoIterator<Item = (NodeId, SeqNo)>>(iter: I) -> Self {
        SummaryVector { entries: iter.into_iter().collect() }
    }
}

/// The traffic generated by one pairwise anti-entropy session.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExchangePlan {
    /// Packets A pushes to B.
    pub a_to_b: Vec<(NodeId, SeqNo)>,
    /// Packets B pushes to A.
    pub b_to_a: Vec<(NodeId, SeqNo)>,
    /// Control bytes exchanged (the two summary vectors).
    pub control_bytes: u32,
    /// Data bytes exchanged, assuming each packet carries `payload_bytes`.
    pub data_bytes: u64,
}

impl ExchangePlan {
    /// Total number of data frames exchanged.
    pub fn data_frames(&self) -> usize {
        self.a_to_b.len() + self.b_to_a.len()
    }

    /// Total bytes on the air (control + data).
    pub fn total_bytes(&self) -> u64 {
        u64::from(self.control_bytes) + self.data_bytes
    }
}

/// A pairwise epidemic anti-entropy session between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AntiEntropySession {
    /// Payload size of each transferred data packet in bytes.
    pub payload_bytes: u32,
}

impl AntiEntropySession {
    /// Creates a session descriptor with the paper's 1000-byte payloads.
    pub fn paper_default() -> Self {
        AntiEntropySession { payload_bytes: 1_000 }
    }

    /// Computes the exchange both directions would perform when nodes with
    /// summary vectors `a` and `b` meet.
    pub fn plan(&self, a: &SummaryVector, b: &SummaryVector) -> ExchangePlan {
        let a_to_b = a.difference(b);
        let b_to_a = b.difference(a);
        let control_bytes = a.encoded_bytes() + b.encoded_bytes();
        let data_bytes = (a_to_b.len() + b_to_a.len()) as u64 * u64::from(self.payload_bytes);
        ExchangePlan { a_to_b, b_to_a, control_bytes, data_bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert, prop_assert_eq, proptest};

    fn sv(flow: u32, seqs: &[u32]) -> SummaryVector {
        seqs.iter().map(|s| (NodeId::new(flow), SeqNo::new(*s))).collect()
    }

    #[test]
    fn summary_vector_basics() {
        let mut v = SummaryVector::new();
        assert!(v.is_empty());
        assert!(v.insert(NodeId::new(1), SeqNo::new(2)));
        assert!(!v.insert(NodeId::new(1), SeqNo::new(2)));
        assert!(v.contains(NodeId::new(1), SeqNo::new(2)));
        assert!(!v.contains(NodeId::new(1), SeqNo::new(3)));
        assert_eq!(v.len(), 1);
        assert_eq!(v.encoded_bytes(), 6);
        assert_eq!(v.iter().count(), 1);
    }

    #[test]
    fn exchange_transfers_symmetric_difference() {
        let a = sv(1, &[0, 1, 2, 3]);
        let b = sv(1, &[2, 3, 4, 5]);
        let plan = AntiEntropySession::paper_default().plan(&a, &b);
        let a_to_b: Vec<u32> = plan.a_to_b.iter().map(|(_, s)| s.value()).collect();
        let b_to_a: Vec<u32> = plan.b_to_a.iter().map(|(_, s)| s.value()).collect();
        assert_eq!(a_to_b, vec![0, 1]);
        assert_eq!(b_to_a, vec![4, 5]);
        assert_eq!(plan.data_frames(), 4);
        assert_eq!(plan.data_bytes, 4_000);
        assert_eq!(plan.control_bytes, 48);
        assert_eq!(plan.total_bytes(), 4_048);
    }

    #[test]
    fn identical_vectors_exchange_no_data() {
        let a = sv(2, &[1, 2, 3]);
        let plan = AntiEntropySession::paper_default().plan(&a, &a.clone());
        assert_eq!(plan.data_frames(), 0);
        assert_eq!(plan.data_bytes, 0);
        assert!(plan.control_bytes > 0, "summary vectors are still exchanged");
    }

    #[test]
    fn multiple_flows_are_kept_apart() {
        let mut a = SummaryVector::new();
        a.insert(NodeId::new(1), SeqNo::new(5));
        let mut b = SummaryVector::new();
        b.insert(NodeId::new(2), SeqNo::new(5));
        let plan = AntiEntropySession::paper_default().plan(&a, &b);
        assert_eq!(plan.data_frames(), 2, "same seq in different flows is a different packet");
    }

    proptest! {
        /// After an exchange both sides hold the union, and no packet is
        /// transferred that the receiver already had.
        #[test]
        fn prop_exchange_reaches_union(
            a_seqs in proptest::collection::btree_set(0u32..60, 0..30),
            b_seqs in proptest::collection::btree_set(0u32..60, 0..30),
        ) {
            let a = sv(7, &a_seqs.iter().copied().collect::<Vec<_>>());
            let b = sv(7, &b_seqs.iter().copied().collect::<Vec<_>>());
            let plan = AntiEntropySession::paper_default().plan(&a, &b);
            for (_, s) in &plan.a_to_b {
                prop_assert!(!b.contains(NodeId::new(7), *s));
            }
            for (_, s) in &plan.b_to_a {
                prop_assert!(!a.contains(NodeId::new(7), *s));
            }
            let union_size = a_seqs.union(&b_seqs).count();
            prop_assert_eq!(a.len() + plan.b_to_a.len(), union_size);
            prop_assert_eq!(b.len() + plan.a_to_b.len(), union_size);
        }
    }
}
