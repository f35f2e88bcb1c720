//! Large-scale path-loss models.
//!
//! Path loss maps a transmitter–receiver distance to an attenuation in dB.
//! The urban testbed (AP behind an office window, cars in the street) is well
//! described by a log-distance model with an exponent between 2.7 and 3.5 and
//! an extra wall-penetration loss folded into the reference attenuation.

use serde::{Deserialize, Serialize};

/// Log-distance path loss: a fixed loss up to a reference distance, then a
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
    /// Attenuation in dB at `distance_m` metres, monotone non-decreasing in
    /// distance.
    pub fn loss_db(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(self.reference_m);
        self.reference_loss_db
            + 10.0 * self.exponent * (d / self.reference_m).log10()
            + self.extra_loss_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert, proptest};

    /// 40 dB at 1 m, exponent 3.0: the urban channels' parametrisation.
    const URBAN: LogDistance = LogDistance {
        reference_m: 1.0,
        reference_loss_db: 40.0,
        exponent: 3.0,
        extra_loss_db: 0.0,
    };

    #[test]
    fn log_distance_slope_matches_exponent() {
        let ld = URBAN;
        let per_decade = ld.loss_db(100.0) - ld.loss_db(10.0);
        assert!((per_decade - 30.0).abs() < 1e-9);
        let with_wall = LogDistance { extra_loss_db: 6.0, ..ld };
        assert!((with_wall.loss_db(10.0) - ld.loss_db(10.0) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn below_reference_distance_is_clamped() {
        let ld = URBAN;
        assert_eq!(ld.loss_db(0.0), ld.loss_db(1.0));
    }

    proptest! {
        /// The model is monotone non-decreasing in distance.
        #[test]
        fn prop_monotone(d1 in 1.0f64..2_000.0, delta in 0.0f64..500.0) {
            let models = [
                URBAN,
                LogDistance { exponent: 2.4, extra_loss_db: 3.0, ..URBAN },
            ];
            for m in &models {
                prop_assert!(m.loss_db(d1 + delta) + 1e-9 >= m.loss_db(d1));
            }
        }
    }
}
