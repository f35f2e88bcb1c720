//! SNR → BER → packet-error-rate curves.
//!
//! The reception verdict for a frame is obtained by mapping the received SNR
//! to a bit-error rate for the modulation in use and assuming independent bit
//! errors across the frame: `PER = 1 - (1 - BER)^bits`. This is the standard
//! abstraction used by packet-level network simulators and is sufficient to
//! reproduce the loss *shapes* the paper reports (smoothly degrading
//! reception at the coverage edges, near-perfect reception close to the AP).

use serde::{Deserialize, Serialize};

use crate::datarate::DataRate;

/// Modulation/coding families with distinct BER curves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Modulation {
    /// Differential BPSK (1 Mbps DSSS).
    Dbpsk,
    /// Differential QPSK (2 Mbps DSSS).
    Dqpsk,
    /// CCK (5.5 / 11 Mbps).
    Cck,
    /// OFDM BPSK/QPSK with rate-1/2 coding (6 / 12 Mbps).
    OfdmLow,
    /// OFDM 16-QAM / 64-QAM (24 / 54 Mbps).
    OfdmHigh,
}

impl Modulation {
    /// The modulation used by a given PHY rate.
    pub fn for_rate(rate: DataRate) -> Modulation {
        match rate {
            DataRate::Mbps1 => Modulation::Dbpsk,
            DataRate::Mbps2 => Modulation::Dqpsk,
            DataRate::Mbps5_5 | DataRate::Mbps11 => Modulation::Cck,
            DataRate::Mbps6 | DataRate::Mbps12 => Modulation::OfdmLow,
            DataRate::Mbps24 | DataRate::Mbps54 => Modulation::OfdmHigh,
        }
    }
}

/// Complementary error function approximation (Abramowitz & Stegun 7.1.26
/// applied to `erf`), accurate to ~1.5e-7 — far tighter than the channel
/// model needs.
fn erfc(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x_abs = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x_abs);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = 1.0 - poly * (-x_abs * x_abs).exp();
    1.0 - sign * erf
}

/// Gaussian Q-function.
fn q(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Bit-error rate at a given SNR (in dB) for a modulation family.
///
/// The SNR here is the per-bit SNR after despreading; the DSSS processing
/// gain (10.4 dB for the 11-chip Barker code) is credited to the 1 and
/// 2 Mbps rates, which is what makes them usable far beyond the range of the
/// OFDM rates — and why the paper's testbed ran at 1 Mbps.
pub fn snr_to_ber(snr_db: f64, modulation: Modulation) -> f64 {
    let snr = 10f64.powf(snr_db / 10.0);
    let ber = match modulation {
        Modulation::Dbpsk => {
            // DBPSK with Barker spreading: 0.5 * exp(-Eb/N0), Eb/N0 = SNR * 11.
            0.5 * (-snr * 11.0).exp()
        }
        Modulation::Dqpsk => {
            // DQPSK with spreading gain shared over 2 bits/symbol.
            0.5 * (-snr * 5.5).exp()
        }
        Modulation::Cck => {
            // Empirical CCK approximation.
            q((snr * 4.0).sqrt())
        }
        Modulation::OfdmLow => q((2.0 * snr).sqrt()),
        Modulation::OfdmHigh => {
            // 16/64-QAM approximation: needs substantially more SNR.
            0.75 * q((snr / 5.0).sqrt())
        }
    };
    ber.clamp(0.0, 0.5)
}

/// Realised SNR (dB) from which DBPSK's PER formula returns exactly 0.0.
///
/// At 6 dB, Eb/N0 = 11 · 10^0.6 ≈ 43.8, so BER = ½·e^(−43.8) ≈ 4.8·10⁻²⁰,
/// below 2⁻⁵⁴ (≈ 5.6·10⁻¹⁷), half the spacing of the doubles just under 1.
/// `1 − BER` therefore rounds to exactly 1.0, its logarithm is 0 and the PER
/// is 0.0 for every frame length. Higher SNRs only shrink the BER. The
/// formula itself reaches 0.0 from about 5.24 dB, so the bound has margin.
const DBPSK_CLEAN_SNR_DB: f64 = 6.0;

/// Realised SNR (dB) at or below which DBPSK's PER formula returns exactly
/// 1.0 for frames of at least [`DBPSK_LOST_MIN_BITS`] bits.
///
/// At −10 dB, Eb/N0 = 1.1 and BER = ½·e^(−1.1) ≈ 0.166, so
/// bits · ln(1 − BER) ≤ 256 · (−0.182) ≈ −46.6 ≤ −40. The success
/// probability e^(−40) ≈ 4.2·10⁻¹⁸ is below 2⁻⁵⁴, so `1 − success` rounds
/// to exactly 1.0. Lower SNRs and longer frames only make the logarithm more
/// negative. At 256 bits the formula itself reaches 1.0 from about
/// −9.27 dB, so the bound has margin.
const DBPSK_LOST_SNR_DB: f64 = -10.0;

/// The shortest frame (bits) [`DBPSK_LOST_SNR_DB`] is proven for.
const DBPSK_LOST_MIN_BITS: u64 = 256;

/// Whether a frame of `bits` bits at `rate` is lost for certain at a
/// realised SNR of `snr_db`: DBPSK, at least 256 bits, at most −10 dB.
/// There [`packet_error_rate`] is exactly 1.0, so the success probability
/// is exactly 0.0 and a reception draw against it fails whatever it draws.
/// The rule holds at every SNR at or below one where it holds, which is
/// what lets a caller apply it to an upper bound of the realised SNR.
/// NaN is never a certain loss.
#[inline]
pub fn is_certain_loss(snr_db: f64, bits: u64, rate: DataRate) -> bool {
    Modulation::for_rate(rate) == Modulation::Dbpsk
        && snr_db <= DBPSK_LOST_SNR_DB
        && bits >= DBPSK_LOST_MIN_BITS
}

/// Packet error rate for a frame of `bits` bits at `snr_db`, assuming
/// independent bit errors.
///
/// Where the formula provably returns exactly 0.0 or 1.0, that value is
/// returned without evaluating it: DBPSK at a realised SNR of at least
/// 6 dB (0.0), or a certain loss (1.0; see [`is_certain_loss`]). The
/// result is bit-identical either way, and every other input takes the
/// formula.
///
/// # Examples
///
/// ```
/// use vanet_radio::{packet_error_rate, DataRate};
///
/// // Strong signal: essentially no losses even for 1000-byte frames.
/// assert!(packet_error_rate(15.0, 8_000, DataRate::Mbps1) < 1e-6);
/// // Deeply negative SNR: certain loss.
/// assert!(packet_error_rate(-10.0, 8_000, DataRate::Mbps1) > 0.99);
/// ```
pub fn packet_error_rate(snr_db: f64, bits: u64, rate: DataRate) -> f64 {
    if is_certain_loss(snr_db, bits, rate) {
        return 1.0;
    }
    let modulation = Modulation::for_rate(rate);
    // Comparisons are false for NaN, which takes the formula.
    if modulation == Modulation::Dbpsk && snr_db >= DBPSK_CLEAN_SNR_DB {
        return 0.0;
    }
    per_formula(snr_db, bits, modulation)
}

/// `1 − (1 − BER)^bits`, computed stably in log space.
fn per_formula(snr_db: f64, bits: u64, modulation: Modulation) -> f64 {
    let ber = snr_to_ber(snr_db, modulation);
    if ber <= 0.0 {
        return 0.0;
    }
    let log_success = bits as f64 * (1.0 - ber).ln();
    (1.0 - log_success.exp()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert, proptest};

    #[test]
    fn ber_decreases_with_snr() {
        for m in [
            Modulation::Dbpsk,
            Modulation::Dqpsk,
            Modulation::Cck,
            Modulation::OfdmLow,
            Modulation::OfdmHigh,
        ] {
            let low = snr_to_ber(0.0, m);
            let high = snr_to_ber(15.0, m);
            assert!(high < low, "{m:?}: {high} !< {low}");
        }
    }

    #[test]
    fn robust_modulations_outperform_fragile_ones_at_low_snr() {
        let snr = 2.0;
        assert!(snr_to_ber(snr, Modulation::Dbpsk) < snr_to_ber(snr, Modulation::OfdmHigh));
        assert!(snr_to_ber(snr, Modulation::Dbpsk) < snr_to_ber(snr, Modulation::Cck));
    }

    #[test]
    fn per_is_zero_and_one_at_extremes() {
        assert_eq!(packet_error_rate(40.0, 8_000, DataRate::Mbps1), 0.0);
        assert!(packet_error_rate(-20.0, 8_000, DataRate::Mbps54) > 0.999);
    }

    #[test]
    fn longer_frames_are_more_fragile() {
        let snr = 1.5;
        let short = packet_error_rate(snr, 400, DataRate::Mbps1);
        let long = packet_error_rate(snr, 12_000, DataRate::Mbps1);
        assert!(long > short);
    }

    #[test]
    fn modulation_for_rate_mapping() {
        assert_eq!(Modulation::for_rate(DataRate::Mbps1), Modulation::Dbpsk);
        assert_eq!(Modulation::for_rate(DataRate::Mbps11), Modulation::Cck);
        assert_eq!(Modulation::for_rate(DataRate::Mbps54), Modulation::OfdmHigh);
    }

    #[test]
    fn saturated_per_is_bit_identical_to_the_formula() {
        // Realised SNRs: a coarse sweep over [−400, 200] dB, a fine one
        // around each saturation bound, the bounds ±1e-12 and their
        // neighbouring doubles, and the non-finite values.
        let mut snrs: Vec<f64> = (0..=30_000).map(|i| -400.0 + f64::from(i) * 0.02).collect();
        for (lo, hi) in [(-10.5, -9.0), (5.0, 6.5)] {
            let steps = ((hi - lo) / 1e-4) as i32;
            snrs.extend((0..=steps).map(|i| lo + f64::from(i) * 1e-4));
        }
        for bound in [DBPSK_LOST_SNR_DB, DBPSK_CLEAN_SNR_DB] {
            let neighbours = [bound.to_bits() - 1, bound.to_bits() + 1].map(f64::from_bits);
            snrs.extend([bound, bound - 1e-12, bound + 1e-12]);
            snrs.extend(neighbours);
        }
        snrs.extend([f64::NEG_INFINITY, f64::INFINITY, f64::NAN, 0.0, -0.0, f64::MIN, f64::MAX]);
        // Frame lengths around the 256-bit minimum of the loss bound (at −10 dB
        // the formula saturates from about 206 bits), and typical to huge
        // frames.
        let bits =
            [0, 1, 2, 100, 200, 205, 255, 256, 257, 1_000, 4_000, 8_000, 12_000, 65_535, 1_000_000];
        let mut checked = 0u64;
        let mut mismatches = Vec::new();
        for rate in DataRate::all() {
            let modulation = Modulation::for_rate(rate);
            for &b in &bits {
                for &snr in &snrs {
                    let got = packet_error_rate(snr, b, rate);
                    let want = per_formula(snr, b, modulation);
                    checked += 1;
                    if got.to_bits() != want.to_bits() && mismatches.len() < 8 {
                        mismatches.push((rate, b, snr, got, want));
                    }
                }
            }
        }
        assert!(mismatches.is_empty(), "{checked} points, mismatches: {mismatches:?}");
        assert!(checked > 7_000_000, "grid too sparse: {checked} points");
    }

    #[test]
    fn erfc_reference_points() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-6);
        assert!(erfc(3.0) < 1e-4);
        assert!((erfc(-3.0) - 2.0).abs() < 1e-4);
    }

    proptest! {
        #[test]
        fn prop_per_in_unit_interval(snr in -30.0f64..40.0, bits in 1u64..20_000) {
            for rate in DataRate::all() {
                let per = packet_error_rate(snr, bits, rate);
                prop_assert!((0.0..=1.0).contains(&per));
            }
        }

        #[test]
        fn prop_per_monotone_in_snr(snr in -20.0f64..30.0, delta in 0.0f64..10.0) {
            let low = packet_error_rate(snr, 8_000, DataRate::Mbps1);
            let high = packet_error_rate(snr + delta, 8_000, DataRate::Mbps1);
            prop_assert!(high <= low + 1e-12);
        }
    }
}
