//! Protocol wire messages.
//!
//! Four message kinds flow over the broadcast medium:
//!
//! * `DATA` — a numbered packet from the AP to one car (the payload the cars
//!   actually want);
//! * `HELLO` — the periodic beacon each car broadcasts; it announces the
//!   car's presence and carries its current cooperator list, which both
//!   recruits the listed cars as cooperators and assigns them their response
//!   order;
//! * `REQUEST` — sent during the Cooperative-ARQ phase for one missing packet
//!   (prototype behaviour) or for the whole missing list (the batched
//!   optimisation of §3.3);
//! * `COOP-DATA` — a cooperator's retransmission of a buffered packet to the
//!   requesting car;
//! * `CODED-DATA` — the network-coded strategy's pairing of two pending
//!   retransmissions for *different* requesters into one XOR-coded frame
//!   (each requester decodes its component if it holds the other).
//!
//! Encoded sizes are modelled so that protocol overhead is accounted in bytes,
//! matching how the testbed would account for it on the air.

use serde::{Deserialize, Serialize};
use vanet_dtn::{DataPacket, SeqNo};
use vanet_mac::NodeId;

/// The periodic beacon broadcast by every vehicular node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HelloMessage {
    /// The beaconing car.
    pub sender: NodeId,
    /// The sender's current cooperator list, in response order: position `k`
    /// in this list tells the listed node to wait `k` response slots before
    /// answering a REQUEST from the sender.
    pub cooperators: Vec<NodeId>,
}

impl HelloMessage {
    /// Creates a HELLO.
    pub fn new(sender: NodeId, cooperators: Vec<NodeId>) -> Self {
        HelloMessage { sender, cooperators }
    }

    /// The response order assigned to `node`, if it is listed.
    pub fn order_of(&self, node: NodeId) -> Option<u32> {
        self.cooperators.iter().position(|c| *c == node).map(|p| p as u32)
    }

    /// Encoded size in bytes: sender id (2), count (1), 2 bytes per listed
    /// cooperator.
    pub fn encoded_bytes(&self) -> u32 {
        3 + 2 * self.cooperators.len() as u32
    }
}

/// A request for missing packets, broadcast by a car in the Cooperative-ARQ
/// phase.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestMessage {
    /// The requesting car (the destination of the wanted packets).
    pub requester: NodeId,
    /// The missing sequence numbers being requested. The prototype sends one
    /// per REQUEST; the batched optimisation sends the whole missing list.
    pub seqs: Vec<SeqNo>,
    /// How many cooperators the requester currently has — lets every
    /// cooperator compute a collision-free response schedule for batched
    /// requests.
    pub cooperator_count: u32,
}

impl RequestMessage {
    /// Creates a REQUEST.
    pub fn new(requester: NodeId, seqs: Vec<SeqNo>, cooperator_count: u32) -> Self {
        RequestMessage { requester, seqs, cooperator_count }
    }

    /// Encoded size in bytes: requester id (2), cooperator count (1),
    /// seq count (2), 4 bytes per requested sequence number.
    pub fn encoded_bytes(&self) -> u32 {
        5 + 4 * self.seqs.len() as u32
    }
}

/// A cooperator's retransmission of a buffered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoopDataMessage {
    /// The original packet (destination and sequence number identify it).
    pub packet: DataPacket,
    /// The cooperator relaying it.
    pub relay: NodeId,
}

impl CoopDataMessage {
    /// Creates a COOP-DATA message.
    pub fn new(packet: DataPacket, relay: NodeId) -> Self {
        CoopDataMessage { packet, relay }
    }

    /// Encoded size in bytes: the original payload plus a 6-byte cooperative
    /// relay header.
    pub fn encoded_bytes(&self) -> u32 {
        self.packet.payload_bytes + 6
    }
}

/// Two cooperative retransmissions for different requesters XOR-ed into one
/// frame (the network-coded strategy; see [`crate::strategy`]).
///
/// The air-time cost of a coded frame is the *larger* of the two payloads
/// plus a header — that is the whole point of the scheme: two recoveries for
/// one transmission. A receiver recovers the component addressed to it iff
/// it already holds the other component (directly, recovered, or buffered
/// for a peer); otherwise the frame is undecodable for it and the packet
/// stays missing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CodedDataMessage {
    /// The first coded component.
    pub a: DataPacket,
    /// The second coded component (a different destination than `a`).
    pub b: DataPacket,
    /// The cooperator relaying the pair.
    pub relay: NodeId,
}

impl CodedDataMessage {
    /// Creates a CODED-DATA message.
    pub fn new(a: DataPacket, b: DataPacket, relay: NodeId) -> Self {
        CodedDataMessage { a, b, relay }
    }

    /// Encoded size in bytes: the larger component payload (XOR pads the
    /// shorter one) plus a 10-byte coding header naming both components.
    pub fn encoded_bytes(&self) -> u32 {
        self.a.payload_bytes.max(self.b.payload_bytes) + 10
    }

    /// The two components, each paired with the one a receiver must already
    /// hold to decode it.
    pub fn components(&self) -> [(DataPacket, DataPacket); 2] {
        [(self.a, self.b), (self.b, self.a)]
    }
}

/// Every frame payload exchanged by the protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CarqMessage {
    /// A numbered data packet from the AP.
    Data(DataPacket),
    /// A periodic cooperator beacon.
    Hello(HelloMessage),
    /// A request for missing packets.
    Request(RequestMessage),
    /// A cooperative retransmission.
    CoopData(CoopDataMessage),
    /// A network-coded pair of cooperative retransmissions.
    CodedData(CodedDataMessage),
}

impl CarqMessage {
    /// The encoded payload size in bytes (what the MAC layer puts on the air
    /// in addition to its own framing).
    pub fn encoded_bytes(&self) -> u32 {
        match self {
            CarqMessage::Data(p) => p.payload_bytes,
            CarqMessage::Hello(h) => h.encoded_bytes(),
            CarqMessage::Request(r) => r.encoded_bytes(),
            CarqMessage::CoopData(c) => c.encoded_bytes(),
            CarqMessage::CodedData(c) => c.encoded_bytes(),
        }
    }

    /// A short label for tracing.
    pub fn kind(&self) -> &'static str {
        match self {
            CarqMessage::Data(_) => "data",
            CarqMessage::Hello(_) => "hello",
            CarqMessage::Request(_) => "request",
            CarqMessage::CoopData(_) => "coop-data",
            CarqMessage::CodedData(_) => "coded-data",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimTime;

    #[test]
    fn hello_orders_follow_list_positions() {
        let hello = HelloMessage::new(NodeId::new(1), vec![NodeId::new(2), NodeId::new(3)]);
        assert_eq!(hello.order_of(NodeId::new(2)), Some(0));
        assert_eq!(hello.order_of(NodeId::new(3)), Some(1));
        assert_eq!(hello.order_of(NodeId::new(4)), None);
        assert_eq!(hello.encoded_bytes(), 7);
    }

    #[test]
    fn request_sizes_scale_with_seq_count() {
        let single = RequestMessage::new(NodeId::new(1), vec![SeqNo::new(4)], 2);
        let batched = RequestMessage::new(NodeId::new(1), (0..10).map(SeqNo::new).collect(), 2);
        assert_eq!(single.encoded_bytes(), 9);
        assert_eq!(batched.encoded_bytes(), 45);
        assert!(batched.encoded_bytes() < 10 * single.encoded_bytes(), "batching saves bytes");
    }

    #[test]
    fn coop_data_carries_original_payload() {
        let pkt = DataPacket::new(NodeId::new(2), SeqNo::new(9), 1_000, SimTime::ZERO);
        let msg = CoopDataMessage::new(pkt, NodeId::new(3));
        assert_eq!(msg.encoded_bytes(), 1_006);
        assert_eq!(msg.packet.seq, SeqNo::new(9));
    }

    #[test]
    fn coded_data_costs_one_payload_for_two_recoveries() {
        let a = DataPacket::new(NodeId::new(2), SeqNo::new(9), 1_000, SimTime::ZERO);
        let b = DataPacket::new(NodeId::new(4), SeqNo::new(7), 400, SimTime::ZERO);
        let msg = CodedDataMessage::new(a, b, NodeId::new(3));
        assert_eq!(msg.encoded_bytes(), 1_010, "max payload + coding header");
        let [(first, needs_b), (second, needs_a)] = msg.components();
        assert_eq!(first, a);
        assert_eq!(needs_b, b);
        assert_eq!(second, b);
        assert_eq!(needs_a, a);
        let sep = CoopDataMessage::new(a, NodeId::new(3)).encoded_bytes()
            + CoopDataMessage::new(b, NodeId::new(3)).encoded_bytes();
        assert!(msg.encoded_bytes() < sep, "coding beats two separate frames");
    }

    #[test]
    fn message_kinds_and_sizes() {
        let pkt = DataPacket::new(NodeId::new(1), SeqNo::new(0), 1_000, SimTime::ZERO);
        let data = CarqMessage::Data(pkt);
        let hello = CarqMessage::Hello(HelloMessage::new(NodeId::new(1), vec![]));
        let request =
            CarqMessage::Request(RequestMessage::new(NodeId::new(1), vec![SeqNo::new(1)], 1));
        let coop = CarqMessage::CoopData(CoopDataMessage::new(pkt, NodeId::new(2)));
        let pkt2 = DataPacket::new(NodeId::new(4), SeqNo::new(1), 1_000, SimTime::ZERO);
        let coded = CarqMessage::CodedData(CodedDataMessage::new(pkt, pkt2, NodeId::new(2)));
        assert_eq!(coded.kind(), "coded-data");
        assert_eq!(coded.encoded_bytes(), 1_010);
        assert_eq!(data.kind(), "data");
        assert_eq!(hello.kind(), "hello");
        assert_eq!(request.kind(), "request");
        assert_eq!(coop.kind(), "coop-data");
        assert_eq!(data.encoded_bytes(), 1_000);
        assert_eq!(hello.encoded_bytes(), 3);
        assert!(request.encoded_bytes() < 20);
        assert!(coop.encoded_bytes() > 1_000);
    }
}
