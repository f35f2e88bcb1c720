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
//! * [`pathloss`] — free-space, log-distance and two-ray ground models.
//! * [`fading`] — per-frame Rayleigh or Rician fast fading, resolved once
//!   per channel.
//! * [`per`] — SNR → bit-error-rate → packet-error-rate curves for the
//!   DSSS/CCK and OFDM modulations used by 802.11b/g, and the certain-loss
//!   predicate where the PER is exactly 1.
//! * [`channel`] — the composite [`channel::RadioChannel`], which combines
//!   path loss, shadowing, fading and thermal noise into a single
//!   "was this frame received?" sampling interface (with the ceilings of
//!   its shadowing and fading, which settle certain losses before any
//!   draw, and [`RadioChannel::decide`], which settles most other verdicts
//!   from table bounds on their draws without evaluating them), plus
//!   [`channel::EmpiricalProfile`] for distance-binned loss curves measured
//!   in drive-thru studies (reference \[1\] of the paper).
//!
//! ## Example
//!
//! ```rust
//! use vanet_geo::Point;
//! use vanet_radio::{ChannelModel, DataRate, RadioChannel, RadioConfig};
//! use sim_core::StreamRng;
//!
//! let channel = RadioChannel::new(RadioConfig::urban_2_4ghz());
//! let mut rng = StreamRng::derive(1, "channel");
//! let verdict = channel.sample_reception(
//!     Point::new(0.0, 0.0),
//!     Point::new(60.0, 0.0),
//!     1_000 * 8,
//!     DataRate::Mbps1,
//!     &mut rng,
//! );
//! // 60 m in an urban channel: usually received, sometimes not — but always a
//! // well-defined probability.
//! assert!((0.0..=1.0).contains(&verdict.success_probability));
//! ```
//!
//! ## Unsafe code
//!
//! The crate denies `unsafe` code with one exception: the call into the
//! shadowing field's AVX2/FMA cosine kernel, a `#[target_feature]` function
//! that may run only on a CPU with those features. The call is made only
//! through a value that exists once `is_x86_feature_detected!` has reported
//! `avx2` and `fma`, checked once per channel when its field is built. The
//! kernel returns the bits `f64::cos` returns, so results do not depend on
//! which path a host takes (see `docs/PERFORMANCE.md`).

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bounds;
pub mod channel;
mod cosine;
pub mod datarate;
pub mod fading;
pub mod obstacles;
pub mod pathloss;
pub mod per;

pub use channel::{
    ChannelModel, EmpiricalProfile, LinkBudget, LinkState, RadioChannel, RadioConfig,
    ReceptionVerdict, VerdictDraws,
};
pub use datarate::{DataRate, FrameTiming};
pub use fading::FadingKind;
pub use obstacles::{Building, ObstacleMap};
pub use pathloss::{FreeSpace, LogDistance, PathLossModel, TwoRayGround};
pub use per::{is_certain_loss, packet_error_rate, snr_to_ber, Modulation};

/// Converts a linear power ratio to decibels.
///
/// ```
/// assert!((vanet_radio::to_db(100.0) - 20.0).abs() < 1e-9);
/// ```
pub fn to_db(linear: f64) -> f64 {
    10.0 * linear.log10()
}

/// Converts decibels to a linear power ratio.
///
/// ```
/// assert!((vanet_radio::from_db(20.0) - 100.0).abs() < 1e-9);
/// ```
pub fn from_db(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts milliwatts to dBm.
pub fn mw_to_dbm(mw: f64) -> f64 {
    to_db(mw)
}

/// Converts dBm to milliwatts.
pub fn dbm_to_mw(dbm: f64) -> f64 {
    from_db(dbm)
}

#[cfg(test)]
mod tests {
    #[test]
    fn db_conversions_roundtrip() {
        for v in [0.5, 1.0, 10.0, 123.4] {
            assert!((super::from_db(super::to_db(v)) - v).abs() < 1e-9);
        }
        assert!((super::dbm_to_mw(super::mw_to_dbm(3.2)) - 3.2).abs() < 1e-9);
    }
}
