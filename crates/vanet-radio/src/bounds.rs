//! Deciding a reception verdict from its own draws, without evaluating them.
//!
//! [`crate::RadioChannel::sample_from_state`] realises a frame's SNR as
//! fl(fl(budget + shadowing) + fading), the fading evaluated from its
//! uniforms by glibc's `ln`, `cos`, `sqrt` and `log10`, and receives the
//! frame when the reception uniform U falls below 1 − PER at that SNR, the
//! PER another chain of `pow`, `exp` and `ln`. Only the outcome is needed
//! for most verdicts, and most are far from their decision boundary. So
//! [`decide`] brackets the realised SNR by table lookups on the verdict's
//! own words, brackets the success probability over that interval, and
//! compares U with it. Where the brackets settle the outcome it is the
//! chain's outcome; elsewhere (and only there) the caller runs the chain on
//! the same words.
//!
//! Every step of the chain is monotone in its inputs or bounded by a table,
//! and round-to-nearest is monotone, so the same rounded operations applied
//! to the inputs' bounds bound the chain's result. Each table entry is a
//! value glibc returned at a bucket edge, and each lookup widens it by a
//! margin at least sixteen times the error glibc documents for the function
//! (at most one ulp for `log`, `cos`, `exp` and `pow`, two for `log10`).
//! `docs/PERFORMANCE.md` ("the decided path") gives the argument in full.

use std::sync::LazyLock;

use crate::datarate::DataRate;
use crate::per::{
    is_certain_loss, ln_one_minus_ber, Modulation, DBPSK_CLEAN_SNR_DB, DBPSK_LOST_SNR_DB,
};

/// 2⁻⁵³, the spacing of the uniforms a word gives.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// Mantissa bits that split each binade of the logarithm tables.
const LN_BITS: u32 = 6;

/// The first binade of the logarithm tables, 2⁻⁵³: the smallest `1 − U` a
/// transform takes the logarithm of, and the smallest non-zero uniform.
const LN_FIRST_BINADE: u64 = 1023 - 53;

/// Edges of the logarithm tables: 2^LN_BITS per binade from 2⁻⁵³ up to 1,
/// then 1 itself and the edge above it.
const LN_EDGES: usize = (53 << LN_BITS) + 2;

/// What a logarithm bound adds to its table entry: 2⁻⁴⁰. A logarithm of
/// (0, 1] has magnitude at most 53 ln 2 ≈ 36.7, so one ulp of it is at
/// most 2⁻⁴⁷; the entry and the chain's value each carry at most one ulp of
/// glibc's error, the comparison with a reception uniform adds 2⁻⁵¹, and
/// the lookup's own rounding half an ulp.
const LN_MARGIN: f64 = 1.0 / (1u64 << 40) as f64;

/// The relative widening of a Box–Muller radius bound: 2⁻⁴⁴. The radius
/// √(−2 ln u) carries at most one ulp of `ln`'s error (halved by the root)
/// and two roundings, about 2⁻⁵¹ relative, in the chain and in the entry.
const RADIUS_MARGIN: f64 = 1.0 / (1u64 << 44) as f64;

/// Leading bits of a word that pick its Box–Muller cosine bucket.
const COS_BITS: u32 = 10;

/// Buckets of the cosine table.
const COS_BUCKETS: usize = 1 << COS_BITS;

/// What a cosine bound adds to its bucket's extremes: 2⁻⁴⁶, against one
/// ulp (at most 2⁻⁵³ below 1) at the edge and one at the chain's argument.
const COS_MARGIN: f64 = 1.0 / (1u64 << 46) as f64;

/// Mantissa bits that split each binade of the `log10` table.
const LG_BITS: u32 = 7;

/// The first binade of the `log10` table, 2⁻³⁰: below the smallest power
/// the fading clamps to (10⁻⁹ Rician, 10⁻⁶ Rayleigh).
const LG_FIRST_BINADE: u64 = 1023 - 30;

/// Edges of the `log10` table: binades 2⁻³⁰ up to 2⁷ (above the largest
/// Rician power, 20.4 at K = 6 dB, and the largest exponential, 36.7).
const LG_EDGES: usize = (37 << LG_BITS) + 1;

/// What a `log10` bound adds to its table entry: 2⁻⁴⁰, against two ulps
/// (at most 2⁻⁴⁸ each, since |log10| ≤ 9.1 here) at the edge and two at
/// the chain's argument.
const LG_MARGIN: f64 = 1.0 / (1u64 << 40) as f64;

/// The lowest realised SNR (dB) of the PER grid: the certain-loss bound.
const PER_LOW_DB: f64 = DBPSK_LOST_SNR_DB;

/// The highest realised SNR (dB) of the PER grid: DBPSK's clean bound.
const PER_HIGH_DB: f64 = DBPSK_CLEAN_SNR_DB;

/// Grid points per dB of the PER grid.
const PER_STEPS_PER_DB: f64 = 128.0;

/// Intervals of the PER grid over [−10, 6] dB.
const PER_STEPS: usize = 16 * 128;

/// The relative widening of a PER grid entry, ln(1 − BER), as a bound:
/// 2⁻³², against about 1.2·10⁻¹³ of it that the chain's `pow`, `exp` and
/// `ln` and the frame-length product can move it, twice (entry and chain).
const PER_REL_MARGIN: f64 = 1.0 / (1u64 << 32) as f64;

/// The absolute widening of a PER grid entry: 2⁻⁴⁴, against the rounding
/// of `1 − BER` to a double (at most 2⁻⁵⁴ before the logarithm doubles it),
/// twice.
const PER_ABS_MARGIN: f64 = 1.0 / (1u64 << 44) as f64;

/// The tables, built once per process at the first decided verdict. They
/// live inside the static itself, not on the heap: allocated at a first
/// verdict, their 120 KB would sit among the simulation's own allocations
/// and could move the heap's high-water mark.
struct Tables {
    /// `ln` at the edges of the logarithm buckets of (0, 1].
    ln: [f64; LN_EDGES],
    /// √(−2 ln x) at the same edges, evaluated as Box–Muller evaluates it.
    radius: [f64; LN_EDGES],
    /// Per cosine bucket of the unit interval, the least and greatest
    /// cos(2πv) over it, widened by [`COS_MARGIN`].
    cos: [[f64; 2]; COS_BUCKETS],
    /// `log10` at the edges of the `log10` buckets.
    log10: [f64; LG_EDGES],
    /// DBPSK's ln(1 − BER) at the PER grid points, as the PER chain
    /// evaluates it.
    log_success: [f64; PER_STEPS + 1],
}

static TABLES: LazyLock<Tables> = LazyLock::new(Tables::build);

impl Tables {
    fn build() -> Tables {
        let ln: [f64; LN_EDGES] = std::array::from_fn(|i| ln_edge(i).ln());
        // The edge above 1 has a positive logarithm; no radius is below 0.
        let radius = ln.map(|l| if l > 0.0 { 0.0 } else { (-2.0 * l).sqrt() });
        let cos = std::array::from_fn(|j| {
            let scale = 1.0 / COS_BUCKETS as f64;
            let a = std::f64::consts::TAU * (j as f64 * scale);
            let b = std::f64::consts::TAU * ((j + 1) as f64 * scale);
            let (ca, cb) = (a.cos(), b.cos());
            // The cosine is monotone between its extremes 0, π and 2π. No
            // argument reaches 2π (fl(2π) < 2π), and only the bucket
            // starting at fl(π) < π holds π inside.
            let least = if a <= std::f64::consts::PI && std::f64::consts::PI < b {
                -1.0
            } else {
                ca.min(cb)
            };
            [least - COS_MARGIN, ca.max(cb) + COS_MARGIN]
        });
        let log10 = std::array::from_fn(|i| lg_edge(i).log10());
        let log_success = std::array::from_fn(|i| {
            ln_one_minus_ber(per_grid_db(i), Modulation::Dbpsk).unwrap_or(0.0)
        });
        Tables { ln, radius, cos, log10, log_success }
    }

    /// The logarithm bucket of `x ∈ [2⁻⁵³, 1]`.
    #[inline]
    fn ln_bucket(x: f64) -> usize {
        ((x.to_bits() >> (52 - LN_BITS)) - (LN_FIRST_BINADE << LN_BITS)) as usize
    }

    /// Bounds of `ln x` (glibc's or exact), `x ∈ [2⁻⁵³, 1]`.
    #[inline]
    fn ln_bounds(&self, x: f64) -> (f64, f64) {
        let i = Tables::ln_bucket(x);
        (self.ln[i] - LN_MARGIN, self.ln[i + 1] + LN_MARGIN)
    }

    /// Bounds of the Box–Muller normal of two words, as
    /// `sim_core::rng::standard_normal_of` evaluates it: the radius
    /// √(−2 ln u), u = 1 − U, decreases in u; the cosine's bucket brackets
    /// it; and the product's extremes lie at the corners (the radius is
    /// never negative).
    #[inline]
    fn normal_bounds(&self, first: u64, second: u64) -> (f64, f64) {
        let (r_lo, r_hi) = self.radius_bounds(1.0 - sim_core::rng::unit_of(first));
        let [c_lo, c_hi] = self.cos[(second >> (64 - COS_BITS)) as usize];
        ((r_lo * c_lo).min(r_hi * c_lo), (r_lo * c_hi).max(r_hi * c_hi))
    }

    /// Bounds of the Box–Muller radius `√(−2 ln u)`, `u ∈ [2⁻⁵³, 1]`.
    #[inline]
    fn radius_bounds(&self, u: f64) -> (f64, f64) {
        let i = Tables::ln_bucket(u);
        (self.radius[i + 1] * (1.0 - RADIUS_MARGIN), self.radius[i] * (1.0 + RADIUS_MARGIN))
    }

    /// Bounds of `log10 p` (glibc's), `None` outside [2⁻³⁰, 2⁷).
    #[inline]
    fn log10_bounds(&self, p: f64) -> Option<(f64, f64)> {
        let i = (p.to_bits() >> (52 - LG_BITS)).wrapping_sub(LG_FIRST_BINADE << LG_BITS) as usize;
        if i + 1 >= self.log10.len() {
            return None;
        }
        Some((self.log10[i] - LG_MARGIN, self.log10[i + 1] + LG_MARGIN))
    }

    /// Bounds of `bits · ln(1 − BER)` as the DBPSK PER chain evaluates it,
    /// over every realised SNR in `[lo, hi]`, `lo < 6 dB`. ln(1 − BER)
    /// rises with the SNR and lies in [ln ½, 0].
    #[inline]
    fn log_success_bounds(&self, lo: f64, hi: f64, bits: u64) -> (f64, f64) {
        let least = if lo < PER_LOW_DB {
            -std::f64::consts::LN_2
        } else {
            // The grid point at or below `lo`; the loop corrects the
            // product's rounding and stops at −10 dB.
            let mut i = ((lo - PER_LOW_DB) * PER_STEPS_PER_DB) as usize;
            while per_grid_db(i) > lo {
                i -= 1;
            }
            self.log_success[i]
        };
        let greatest = if hi >= PER_HIGH_DB {
            0.0
        } else if hi <= PER_LOW_DB {
            self.log_success[0]
        } else {
            // The grid point at or above `hi`; the loop corrects the
            // product's rounding and stops at 6 dB.
            let mut j = (((hi - PER_LOW_DB) * PER_STEPS_PER_DB) as usize + 1).min(PER_STEPS);
            while per_grid_db(j) < hi {
                j += 1;
            }
            self.log_success[j]
        };
        let bits = bits as f64;
        (
            bits * (least * (1.0 + PER_REL_MARGIN) - PER_ABS_MARGIN),
            bits * (greatest * (1.0 - PER_REL_MARGIN) + PER_ABS_MARGIN),
        )
    }
}

/// The `i`th edge of the logarithm tables, 2^(e − 53)·(1 + m/64) for
/// `i = 64e + m`, assembled from its bits.
fn ln_edge(i: usize) -> f64 {
    f64::from_bits(((LN_FIRST_BINADE << LN_BITS) + i as u64) << (52 - LN_BITS))
}

/// The `i`th edge of the `log10` table, 2^(e − 30)·(1 + m/128) for
/// `i = 128e + m`.
fn lg_edge(i: usize) -> f64 {
    f64::from_bits(((LG_FIRST_BINADE << LG_BITS) + i as u64) << (52 - LG_BITS))
}

/// The `i`th point of the PER grid (dB), exact: −10 + i/128.
#[inline]
fn per_grid_db(i: usize) -> f64 {
    PER_LOW_DB + i as f64 / PER_STEPS_PER_DB
}

/// Bounds (dB) of the Rician gain `10 log10(max((los + σn₁)² + (σn₂)², 10⁻⁹))`
/// of four words, evaluated in the chain's order on the bounds.
#[inline]
pub(crate) fn rician_gain_bounds(los: f64, sigma: f64, words: &[u64; 4]) -> Option<(f64, f64)> {
    let tables = &*TABLES;
    let (n1_lo, n1_hi) = tables.normal_bounds(words[0], words[1]);
    let (n2_lo, n2_hi) = tables.normal_bounds(words[2], words[3]);
    let (re2_lo, re2_hi) = square_bounds(los + sigma * n1_lo, los + sigma * n1_hi);
    let (im2_lo, im2_hi) = square_bounds(sigma * n2_lo, sigma * n2_hi);
    let (lg_lo, _) = tables.log10_bounds((re2_lo + im2_lo).max(1e-9))?;
    let (_, lg_hi) = tables.log10_bounds((re2_hi + im2_hi).max(1e-9))?;
    Some((10.0 * lg_lo, 10.0 * lg_hi))
}

/// Bounds (dB) of the Rayleigh gain `10 log10(max(−ln(1 − U), 10⁻⁶))` of
/// one word.
#[inline]
pub(crate) fn rayleigh_gain_bounds(word: u64) -> Option<(f64, f64)> {
    let tables = &*TABLES;
    let (ln_lo, ln_hi) = tables.ln_bounds(1.0 - sim_core::rng::unit_of(word));
    let (lg_lo, _) = tables.log10_bounds((-ln_hi).max(1e-6))?;
    let (_, lg_hi) = tables.log10_bounds((-ln_lo).max(1e-6))?;
    Some((10.0 * lg_lo, 10.0 * lg_hi))
}

/// Bounds of x² over `x ∈ [a, b]`, rounded as the chain rounds `x * x`: the
/// least is 0 where the interval holds 0, else the square of the endpoint
/// nearer 0 (one of the two operands of the subtraction is 0, so it is
/// exact).
#[inline]
fn square_bounds(a: f64, b: f64) -> (f64, f64) {
    let nearest = a.max(0.0) - b.min(0.0);
    (nearest * nearest, (a * a).max(b * b))
}

/// Decides a verdict of `bits` bits at `rate` over a realised SNR known to
/// lie in `[lo, hi]` (dB), with reception word `reception`:
/// `Some(received)` where the bounds settle the outcome, `None` where only
/// the exact chain can, and for every modulation but DBPSK.
///
/// * `lo ≥ 6 dB`: the PER is exactly 0.0 and `U < 1` always: received.
/// * A certain loss at `hi`: the success probability is exactly 0.0: lost.
/// * Otherwise the chain's success probability s satisfies
///   |s − e^L| ≤ 2⁻⁵⁴ + e^L·2⁻⁵² for its L = bits·ln(1 − BER), and
///   L lies in the bounds of [`Tables::log_success_bounds`]. U is a
///   multiple of 2⁻⁵³, so `U < s` holds when ln(U + 2⁻⁵³) + 2⁻⁵¹ is below
///   the least L, and `U ≥ s` when ln(U − 2⁻⁵³) − 2⁻⁵¹ is at least the
///   greatest; both sides of each comparison come from the tables, whose
///   margins include the 2⁻⁵¹.
#[inline]
pub(crate) fn decide(lo: f64, hi: f64, bits: u64, rate: DataRate, reception: u64) -> Option<bool> {
    if Modulation::for_rate(rate) != Modulation::Dbpsk {
        return None;
    }
    if lo >= PER_HIGH_DB {
        return Some(true);
    }
    if is_certain_loss(hi, bits, rate) {
        return Some(false);
    }
    // The chain decides a NaN bound.
    if lo.is_nan() || hi.is_nan() {
        return None;
    }
    let tables = &*TABLES;
    let (least, greatest) = tables.log_success_bounds(lo, hi, bits);
    let k = reception >> 11;
    if tables.ln_bounds((k + 1) as f64 * UNIT).1 < least {
        return Some(true);
    }
    if k >= 2 && tables.ln_bounds((k - 1) as f64 * UNIT).0 >= greatest {
        return Some(false);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::rng::{standard_normal_of, unit_of};
    use sim_core::StreamRng;

    /// Random arguments per bound: 2·10⁵ in a debug build, 10⁷ optimised.
    const RANDOM: usize = if cfg!(debug_assertions) { 200_000 } else { 10_000_000 };

    /// `lo < x < hi`, or `lo ≤ x ≤ hi` where `strict` is false.
    fn assert_within(what: &str, (lo, hi): (f64, f64), x: f64, strict: bool) {
        let inside = if strict { lo < x && x < hi } else { lo <= x && x <= hi };
        assert!(inside, "{what}: {x:e} outside [{lo:e}, {hi:e}] (strict: {strict})");
    }

    #[test]
    fn the_tables_cover_their_domains() {
        let tables = &*TABLES;
        assert_eq!(tables.ln.len(), LN_EDGES);
        assert_eq!(Tables::ln_bucket(UNIT), 0);
        assert_eq!(Tables::ln_bucket(1.0), LN_EDGES - 2);
        assert_eq!(ln_edge(LN_EDGES - 2), 1.0);
        assert_eq!(tables.ln[LN_EDGES - 2], 0.0);
        assert_eq!(tables.radius[LN_EDGES - 2], 0.0);
        assert_eq!(tables.radius[LN_EDGES - 1], 0.0);
        assert!(tables.log10_bounds(1e-9).is_some() && tables.log10_bounds(127.9).is_some());
        assert!(tables.log10_bounds(128.0).is_none() && tables.log10_bounds(2e-10).is_none());
        assert_eq!(per_grid_db(PER_STEPS), PER_HIGH_DB);
        assert_eq!(tables.log_success.len(), PER_STEPS + 1);
        assert!(tables.log_success.windows(2).all(|w| w[0] <= w[1]));
    }

    /// At a bucket edge the chain's value is the table's own entry, so
    /// only the margin keeps the bound off it: every bound must hold
    /// strictly there.
    #[test]
    fn every_bound_holds_strictly_at_its_bucket_edges() {
        let tables = &*TABLES;
        for i in 0..LN_EDGES - 1 {
            let x = ln_edge(i);
            assert_within("ln", tables.ln_bounds(x), x.ln(), true);
            if x < 1.0 {
                let radius = (-2.0 * x.ln()).sqrt();
                assert_within("radius", tables.radius_bounds(x), radius, true);
            }
        }
        for j in 0..COS_BUCKETS as u64 {
            // The bucket's first and last uniform.
            let first = j << (64 - COS_BITS);
            let last = first | ((1 << (64 - COS_BITS)) - 1);
            for word in [first, last] {
                let c = (std::f64::consts::TAU * unit_of(word)).cos();
                let [lo, hi] = tables.cos[j as usize];
                assert_within("cos", (lo, hi), c, true);
            }
        }
        for i in 0..LG_EDGES - 1 {
            let p = lg_edge(i);
            assert_within("log10", tables.log10_bounds(p).expect("in range"), p.log10(), true);
        }
        for i in 0..=PER_STEPS {
            let x = per_grid_db(i);
            let chain = ln_one_minus_ber(x, Modulation::Dbpsk).unwrap_or(0.0);
            for bits in [1, 256, 8_288, 1_000_000] {
                let bounds = tables.log_success_bounds(x, x, bits);
                assert_within("log success", bounds, bits as f64 * chain, true);
            }
        }
    }

    #[test]
    fn bounds_contain_the_chain_on_random_arguments() {
        let tables = &*TABLES;
        let mut rng = StreamRng::derive(1, "bounds.random");
        for _ in 0..RANDOM {
            let (first, second) = (rng.word(), rng.word());
            let u = 1.0 - unit_of(first);
            assert_within("ln", tables.ln_bounds(u), u.ln(), false);
            assert_within("radius", tables.radius_bounds(u), (-2.0 * u.ln()).sqrt(), false);
            let [lo, hi] = tables.cos[(second >> (64 - COS_BITS)) as usize];
            let c = (std::f64::consts::TAU * unit_of(second)).cos();
            assert_within("cos", (lo, hi), c, false);
            let n = standard_normal_of(first, second);
            assert_within("normal", tables.normal_bounds(first, second), n, false);
            // Powers over the table's range, log-uniform.
            let p = 2f64.powf(rng.uniform(-30.0, 7.0));
            assert_within("log10", tables.log10_bounds(p).expect("in range"), p.log10(), false);
            // Realised SNR intervals up to 1 dB wide across the PER grid.
            let lo = rng.uniform(-12.0, 6.0);
            let hi = (lo + rng.uniform(0.0, 1.0)).min(5.999);
            let bits = [256, 2_688, 8_288, 1_000_000][(rng.word() % 4) as usize];
            let bounds = tables.log_success_bounds(lo, hi, bits);
            for x in [lo, hi, lo + (hi - lo) * unit_of(rng.word())] {
                let chain = bits as f64 * ln_one_minus_ber(x, Modulation::Dbpsk).unwrap_or(0.0);
                assert_within("log success", bounds, chain, false);
            }
        }
    }
}
