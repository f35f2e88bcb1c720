//! MAC frames.

use serde::{Deserialize, Serialize};

use crate::address::{Destination, NodeId};

/// MAC + PHY framing overhead in bytes added to every payload: a 24-byte
/// 802.11 data header, a 4-byte FCS and an 8-byte LLC/SNAP header — the
/// framing the prototype's monitor-mode captures would show.
pub const FRAME_OVERHEAD_BYTES: u32 = 36;

/// A MAC frame carrying an opaque payload of type `P`.
///
/// The payload type is supplied by the protocol layer (the `carq` crate uses
/// its protocol message enum); the MAC layer only needs the payload *size* to
/// compute airtime.
///
/// # Examples
///
/// ```
/// use vanet_mac::{Destination, Frame, NodeId};
///
/// let frame = Frame::new(NodeId::new(0), Destination::Unicast(NodeId::new(1)), 1_000, "data");
/// assert_eq!(frame.payload_bytes, 1_000);
/// assert_eq!(frame.total_bytes(), 1_036);
/// assert_eq!(frame.total_bits(), 1_036 * 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frame<P> {
    /// The transmitting node.
    pub src: NodeId,
    /// The logical destination.
    pub dst: Destination,
    /// Payload size in bytes (excluding MAC framing overhead).
    pub payload_bytes: u32,
    /// The protocol payload.
    pub payload: P,
}

impl<P> Frame<P> {
    /// Creates a frame.
    pub fn new(src: NodeId, dst: Destination, payload_bytes: u32, payload: P) -> Self {
        Frame { src, dst, payload_bytes, payload }
    }

    /// Total on-air size in bytes, including MAC framing overhead.
    pub fn total_bytes(&self) -> u32 {
        self.payload_bytes + FRAME_OVERHEAD_BYTES
    }

    /// Total on-air size in bits.
    pub fn total_bits(&self) -> u64 {
        u64::from(self.total_bytes()) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_include_overhead() {
        let f = Frame::new(NodeId::new(1), Destination::Broadcast, 100, ());
        assert_eq!(f.total_bytes(), 136);
        assert_eq!(f.total_bits(), 1_088);
    }
}
