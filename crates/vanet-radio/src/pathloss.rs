//! Large-scale path-loss models.
//!
//! Path loss maps a transmitter–receiver distance to an attenuation in dB.
//! The urban testbed (AP behind an office window, cars in the street) is well
//! described by a log-distance model with an exponent between 2.7 and 3.5 and
//! an extra wall-penetration loss folded into the reference attenuation.

use serde::{Deserialize, Serialize};

/// A deterministic large-scale path-loss model.
pub trait PathLossModel: std::fmt::Debug {
    /// Attenuation in dB at `distance_m` metres. Implementations must be
    /// monotone non-decreasing in distance.
    fn loss_db(&self, distance_m: f64) -> f64;
}

/// Free-space (Friis) path loss.
///
/// `L(d) = 20 log10(d) + 20 log10(f) - 147.55` with `f` in Hz and `d` in m.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FreeSpace {
    /// Carrier frequency in Hz.
    pub frequency_hz: f64,
}

impl PathLossModel for FreeSpace {
    fn loss_db(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(1.0);
        20.0 * d.log10() + 20.0 * self.frequency_hz.log10() - 147.55
    }
}

/// Log-distance path loss: free-space up to a reference distance, then a
/// power law with a configurable exponent, plus a constant extra loss (used
/// for the AP's window/wall penetration in the urban testbed).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogDistance {
    /// Reference distance in metres (typically 1 m).
    pub reference_m: f64,
    /// Loss at the reference distance, in dB.
    pub reference_loss_db: f64,
    /// Path-loss exponent (2 = free space, 2.7–3.5 = urban street).
    pub exponent: f64,
    /// Constant additional loss in dB (wall penetration, antenna cabling…).
    pub extra_loss_db: f64,
}

impl LogDistance {
    /// Urban street parametrisation at 2.4 GHz: 40 dB at 1 m, exponent 3.0.
    pub fn urban_2_4ghz() -> Self {
        LogDistance { reference_m: 1.0, reference_loss_db: 40.0, exponent: 3.0, extra_loss_db: 0.0 }
    }

    /// Open highway parametrisation: closer to free space (exponent 2.4).
    pub fn highway_2_4ghz() -> Self {
        LogDistance { reference_m: 1.0, reference_loss_db: 40.0, exponent: 2.4, extra_loss_db: 0.0 }
    }
}

impl PathLossModel for LogDistance {
    fn loss_db(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(self.reference_m);
        self.reference_loss_db
            + 10.0 * self.exponent * (d / self.reference_m).log10()
            + self.extra_loss_db
    }
}

/// Two-ray ground-reflection model: free-space behaviour up to the crossover
/// distance, then a fourth-power law determined by antenna heights. Useful
/// for flat highway scenarios with long link distances.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TwoRayGround {
    /// Transmitter antenna height in metres.
    pub tx_height_m: f64,
    /// Receiver antenna height in metres.
    pub rx_height_m: f64,
    /// Carrier frequency in Hz.
    pub frequency_hz: f64,
}

impl TwoRayGround {
    /// The crossover distance below which free space applies.
    pub fn crossover_distance_m(&self) -> f64 {
        let wavelength = 2.998e8 / self.frequency_hz;
        4.0 * std::f64::consts::PI * self.tx_height_m * self.rx_height_m / wavelength
    }
}

impl PathLossModel for TwoRayGround {
    fn loss_db(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(1.0);
        let crossover = self.crossover_distance_m();
        let free = FreeSpace { frequency_hz: self.frequency_hz };
        if d <= crossover {
            free.loss_db(d)
        } else {
            // Continuity at the crossover: offset the 40 log10(d) branch so the
            // two branches agree at d = crossover.
            let at_crossover = free.loss_db(crossover);
            at_crossover + 40.0 * (d / crossover).log10()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert, proptest};

    /// Free space at the 2.4 GHz ISM band used by 802.11b/g.
    const FREE_SPACE: FreeSpace = FreeSpace { frequency_hz: 2.412e9 };

    /// A roadside AP at 5 m and a car antenna at 1.5 m, at 2.4 GHz.
    const ROADSIDE: TwoRayGround =
        TwoRayGround { tx_height_m: 5.0, rx_height_m: 1.5, frequency_hz: 2.412e9 };

    #[test]
    fn free_space_reference_values() {
        let fs = FREE_SPACE;
        // ~40 dB at 1 m, ~60 dB at 10 m, ~80 dB at 100 m for 2.4 GHz.
        assert!((fs.loss_db(1.0) - 40.1).abs() < 0.5);
        assert!((fs.loss_db(10.0) - 60.1).abs() < 0.5);
        assert!((fs.loss_db(100.0) - 80.1).abs() < 0.5);
    }

    #[test]
    fn log_distance_slope_matches_exponent() {
        let ld = LogDistance::urban_2_4ghz();
        let per_decade = ld.loss_db(100.0) - ld.loss_db(10.0);
        assert!((per_decade - 30.0).abs() < 1e-9);
        let with_wall = LogDistance { extra_loss_db: 6.0, ..ld };
        assert!((with_wall.loss_db(10.0) - ld.loss_db(10.0) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn two_ray_reduces_to_free_space_close_in() {
        let tr = ROADSIDE;
        let fs = FreeSpace { frequency_hz: tr.frequency_hz };
        let d = tr.crossover_distance_m() / 2.0;
        assert!((tr.loss_db(d) - fs.loss_db(d)).abs() < 1e-9);
        // Beyond the crossover the two-ray slope (40 dB/decade) exceeds free space (20).
        let far = tr.crossover_distance_m() * 10.0;
        assert!(tr.loss_db(far) > fs.loss_db(far));
    }

    #[test]
    fn below_reference_distance_is_clamped() {
        let ld = LogDistance::urban_2_4ghz();
        assert_eq!(ld.loss_db(0.0), ld.loss_db(1.0));
        let fs = FREE_SPACE;
        assert_eq!(fs.loss_db(0.0), fs.loss_db(1.0));
    }

    proptest! {
        /// All models are monotone non-decreasing in distance.
        #[test]
        fn prop_monotone(d1 in 1.0f64..2_000.0, delta in 0.0f64..500.0) {
            let models: Vec<Box<dyn PathLossModel>> = vec![
                Box::new(FREE_SPACE),
                Box::new(LogDistance::urban_2_4ghz()),
                Box::new(LogDistance { extra_loss_db: 3.0, ..LogDistance::highway_2_4ghz() }),
                Box::new(ROADSIDE),
            ];
            for m in &models {
                prop_assert!(m.loss_db(d1 + delta) + 1e-9 >= m.loss_db(d1));
            }
        }
    }
}
