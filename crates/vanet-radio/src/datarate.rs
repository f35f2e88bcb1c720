//! 802.11b/g data rates and frame airtime.
//!
//! The testbed ran every transmission (AP→car and car→car) at 1 Mbps, the
//! most robust 802.11b rate; the airtime of a 1000-byte frame at that rate
//! (≈ 8.4 ms including PLCP overhead) sets the timescale of collisions during
//! the Cooperative-ARQ phase and the maximum achievable goodput from the AP.

use serde::{Deserialize, Serialize};
use sim_core::SimDuration;

/// Physical-layer data rates available to the prototype's 802.11b/g cards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DataRate {
    /// 1 Mbps DSSS/DBPSK — the rate used throughout the paper's experiments.
    Mbps1,
    /// 2 Mbps DSSS/DQPSK.
    Mbps2,
    /// 5.5 Mbps CCK.
    Mbps5_5,
    /// 11 Mbps CCK.
    Mbps11,
    /// 6 Mbps OFDM/BPSK 1/2.
    Mbps6,
    /// 12 Mbps OFDM/QPSK 1/2.
    Mbps12,
    /// 24 Mbps OFDM/16-QAM 1/2.
    Mbps24,
    /// 54 Mbps OFDM/64-QAM 3/4.
    Mbps54,
}

impl DataRate {
    /// The nominal bit rate in bits per second.
    pub fn bits_per_second(self) -> f64 {
        match self {
            DataRate::Mbps1 => 1e6,
            DataRate::Mbps2 => 2e6,
            DataRate::Mbps5_5 => 5.5e6,
            DataRate::Mbps11 => 11e6,
            DataRate::Mbps6 => 6e6,
            DataRate::Mbps12 => 12e6,
            DataRate::Mbps24 => 24e6,
            DataRate::Mbps54 => 54e6,
        }
    }

    /// All supported rates, slowest first.
    pub fn all() -> [DataRate; 8] {
        [
            DataRate::Mbps1,
            DataRate::Mbps2,
            DataRate::Mbps5_5,
            DataRate::Mbps6,
            DataRate::Mbps11,
            DataRate::Mbps12,
            DataRate::Mbps24,
            DataRate::Mbps54,
        ]
    }
}

impl std::fmt::Display for DataRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DataRate::Mbps1 => "1 Mbps",
            DataRate::Mbps2 => "2 Mbps",
            DataRate::Mbps5_5 => "5.5 Mbps",
            DataRate::Mbps11 => "11 Mbps",
            DataRate::Mbps6 => "6 Mbps",
            DataRate::Mbps12 => "12 Mbps",
            DataRate::Mbps24 => "24 Mbps",
            DataRate::Mbps54 => "54 Mbps",
        };
        f.write_str(s)
    }
}

/// Frame timing parameters: PHY preamble/header overhead and inter-frame
/// spacing, following 802.11b long-preamble figures (which is what 1 Mbps
/// broadcast frames use).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameTiming {
    /// PLCP preamble + header duration.
    pub phy_overhead: SimDuration,
    /// Short inter-frame space.
    pub sifs: SimDuration,
    /// DCF inter-frame space.
    pub difs: SimDuration,
    /// Slot time used for backoff.
    pub slot: SimDuration,
}

impl Default for FrameTiming {
    fn default() -> Self {
        FrameTiming::dot11b_long_preamble()
    }
}

impl FrameTiming {
    /// Long-preamble 802.11b timing (192 µs PLCP, 10 µs SIFS, 50 µs DIFS,
    /// 20 µs slots).
    pub fn dot11b_long_preamble() -> Self {
        FrameTiming {
            phy_overhead: SimDuration::from_micros(192),
            sifs: SimDuration::from_micros(10),
            difs: SimDuration::from_micros(50),
            slot: SimDuration::from_micros(20),
        }
    }

    /// Airtime of a frame whose MAC payload (header + body) is `bits` long at
    /// `rate`, including PHY overhead.
    pub fn airtime(&self, bits: u64, rate: DataRate) -> SimDuration {
        let payload_secs = bits as f64 / rate.bits_per_second();
        self.phy_overhead + SimDuration::from_secs_f64(payload_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_values() {
        assert_eq!(DataRate::Mbps1.bits_per_second(), 1e6);
        assert_eq!(DataRate::Mbps54.bits_per_second(), 54e6);
        assert_eq!(DataRate::all().len(), 8);
        assert_eq!(DataRate::Mbps5_5.to_string(), "5.5 Mbps");
    }

    #[test]
    fn thousand_byte_frame_at_1mbps_takes_about_8ms() {
        let timing = FrameTiming::dot11b_long_preamble();
        let airtime = timing.airtime(1_000 * 8, DataRate::Mbps1);
        let ms = airtime.as_millis_f64();
        assert!((8.1..8.3).contains(&ms), "airtime {ms} ms");
    }

    #[test]
    fn faster_rate_means_shorter_airtime() {
        let timing = FrameTiming::default();
        let slow = timing.airtime(12_000, DataRate::Mbps1);
        let fast = timing.airtime(12_000, DataRate::Mbps11);
        assert!(fast < slow);
    }
}
