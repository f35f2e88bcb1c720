//! Node identifiers and frame destinations.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a node (access point or vehicle) in the network.
///
/// Node ids are small integers assigned by the scenario; they play the role
/// of MAC addresses in the prototype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its raw value.
    pub const fn new(id: u32) -> Self {
        NodeId(id)
    }

    /// The raw numeric value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The raw value as a usize, convenient for indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

/// The destination of a frame.
///
/// In the testbed everything is physically a broadcast (monitor mode), but
/// frames still carry a logical destination: the AP's numbered data packets
/// are addressed to a specific car, while HELLO and REQUEST messages are
/// logical broadcasts. Nodes receive every frame and filter/buffer based on
/// this field, which is exactly what promiscuous cooperation relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Destination {
    /// Addressed to one node (but still overhearable by everyone in range).
    Unicast(NodeId),
    /// Addressed to all nodes.
    Broadcast,
}

impl fmt::Display for Destination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Destination::Unicast(id) => write!(f, "{id}"),
            Destination::Broadcast => f.write_str("broadcast"),
        }
    }
}

impl From<NodeId> for Destination {
    fn from(id: NodeId) -> Self {
        Destination::Unicast(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrips() {
        let id = NodeId::new(7);
        assert_eq!(id.as_u32(), 7);
        assert_eq!(id.index(), 7);
        assert_eq!(u32::from(id), 7);
        assert_eq!(NodeId::from(7u32), id);
        assert_eq!(id.to_string(), "n7");
    }

    #[test]
    fn node_ids_are_ordered() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::new(3), NodeId::new(3));
    }

    #[test]
    fn destination_display_and_from() {
        let d: Destination = NodeId::new(4).into();
        assert_eq!(d, Destination::Unicast(NodeId::new(4)));
        assert_eq!(d.to_string(), "n4");
        assert_eq!(Destination::Broadcast.to_string(), "broadcast");
    }
}
