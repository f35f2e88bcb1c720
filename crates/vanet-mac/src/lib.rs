//! # vanet-mac — broadcast 802.11-like MAC layer
//!
//! The paper's prototype drove the wireless cards in *monitor mode with
//! retransmissions disabled*: every frame — AP data, HELLO beacons, REQUESTs
//! and cooperative retransmissions — is effectively a broadcast with no
//! link-layer ACKs. The MAC behaviour that matters for the evaluation is
//! therefore:
//!
//! * frame airtime at the configured PHY rate (it bounds AP goodput and sets
//!   the collision window during the Cooperative-ARQ phase);
//! * carrier sensing / DCF-style deferral with slotted random backoff;
//! * collisions between overlapping transmissions in the shared medium.
//!
//! This crate models exactly that and nothing more: no RTS/CTS, no ACKs, no
//! retries, mirroring the testbed configuration.
//!
//! The central type is [`Medium`], a passive component owned by the
//! simulation model. A transmission is submitted with
//! [`Medium::transmit`]; the medium samples the channel for every other
//! registered node and returns the per-receiver [`Delivery`] verdicts, which
//! the caller schedules as reception events at the frame end time.
//!
//! ```rust
//! use sim_core::{SimTime, StreamRng};
//! use vanet_geo::Point;
//! use vanet_mac::{Destination, Frame, Medium, MediumConfig, NodeId, RadioClass};
//! use vanet_radio::DataRate;
//!
//! let mut medium = Medium::new(MediumConfig::urban_testbed());
//! let ap = NodeId::new(0);
//! let car = NodeId::new(1);
//! medium.register_node(ap, RadioClass::AccessPoint);
//! medium.register_node(car, RadioClass::Vehicle);
//! medium.update_position(ap, Point::new(0.0, 18.0));
//! medium.update_position(car, Point::new(10.0, 0.0));
//!
//! let mut rng = StreamRng::derive(7, "mac");
//! let frame = Frame::new(ap, Destination::Broadcast, 1_000, "payload");
//! let result = medium.transmit(SimTime::ZERO, &frame, DataRate::Mbps1, &mut rng);
//! assert_eq!(result.deliveries.len(), 1); // one other node registered
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod address;
pub mod csma;
pub mod frame;
pub mod medium;

pub use address::{Destination, NodeId};
pub use csma::CsmaBackoff;
pub use frame::Frame;
pub use medium::{
    Delivery, DeliveryOutcome, DeliverySnr, Medium, MediumConfig, RadioClass, Transmission,
    TransmissionResult,
};
