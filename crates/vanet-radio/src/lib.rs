//! # vanet-radio — wireless channel models for the C-ARQ reproduction
//!
//! The paper's prototype used 802.11g cards at 1 Mbps with MadWiFi in monitor
//! mode and link-layer retransmissions disabled; what the protocol sees is
//! therefore simply "this broadcast frame was received / was not received" at
//! each car. This crate produces that per-frame verdict from physical
//! principles so that the *shape* of the paper's reception curves (the three
//! regions of Figures 3–5) emerges from geometry rather than being hard-coded:
//!
//! * [`DataRate`] and frame airtime — 802.11b/g rates with preamble overhead.
//! * [`pathloss`] — the log-distance path-loss model, [`LogDistance`].
//! * [`fading`] — per-frame Rayleigh or Rician fast fading, resolved once
//!   per channel.
//! * [`per`] — SNR → bit-error-rate → packet-error-rate curves for the
//!   DSSS/CCK and OFDM modulations used by 802.11b/g, and the certain-loss
//!   predicate where the PER is exactly 1.
//! * [`channel`] — the composite [`channel::RadioChannel`], which combines
//!   path loss, shadowing, fading and thermal noise into a single
//!   "was this frame received?" sampling interface (with the ceilings of
//!   its shadowing and fading, which settle certain losses before any
//!   draw, [`RadioChannel::decide`], which settles most other verdicts
//!   from table bounds on their draws without evaluating them, and
//!   [`RadioChannel::shadowing_bounds`], which bounds a link's shadowing
//!   from its [`FieldAnchor`] without evaluating the field).
//!
//! ## Example
//!
//! ```rust
//! use vanet_geo::Point;
//! use vanet_radio::{DataRate, RadioChannel, RadioConfig};
//! use sim_core::StreamRng;
//!
//! let channel = RadioChannel::new(RadioConfig::urban_2_4ghz());
//! let mut rng = StreamRng::derive(1, "channel");
//! let link = channel.link_state(Point::new(0.0, 0.0), Point::new(60.0, 0.0));
//! let verdict = channel.sample_from_state(&link, 1_000 * 8, DataRate::Mbps1, &mut rng);
//! // 60 m in an urban channel: usually received, sometimes not — but always a
//! // well-defined probability.
//! assert!((0.0..=1.0).contains(&verdict.success_probability));
//! ```
//!
//! ## Unsafe code
//!
//! The crate denies `unsafe` code with one exception: the calls into the
//! shadowing field's two AVX2/FMA kernels, the cosine kernel and the
//! anchor's rotation, `#[target_feature]` functions that may run only on a
//! CPU with those features. Each call is made only through a value that
//! exists once `is_x86_feature_detected!` has reported `avx2` and `fma`,
//! checked once per channel when its field is built. The cosine kernel
//! returns the bits `f64::cos` returns, and the rotation's bounds hold on
//! either path, so results do not depend on which path a host takes (see
//! `docs/PERFORMANCE.md`).

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod anchor;
mod bounds;
pub mod channel;
mod cosine;
pub mod datarate;
pub mod fading;
pub mod obstacles;
pub mod pathloss;
pub mod per;

pub use anchor::FieldAnchor;
pub use channel::{
    LinkBudget, LinkState, RadioChannel, RadioConfig, ReceptionVerdict, VerdictDraws,
};
pub use datarate::{DataRate, FrameTiming};
pub use fading::FadingKind;
pub use obstacles::{Building, ObstacleMap};
pub use pathloss::LogDistance;
pub use per::{is_certain_loss, packet_error_rate, snr_to_ber, Modulation};
