//! Bounding the shadowing field from a link's last exact evaluation.
//!
//! The field is `A · Σᵢ cos θᵢ` over [`WAVES`] plane waves, θᵢ = kxᵢ·p.x +
//! kyᵢ·p.y + phaseᵢ at the link's probe point p, and a link's shadowing is
//! σ times it. Between two evaluations of one link its probe moves by well
//! under a decorrelation length, so each θᵢ moves by a small δᵢ. A
//! [`FieldAnchor`] keeps, per wave, the argument θᵢ of the link's last
//! evaluation and a cosine and sine of it with a bound on their error. At
//! the next probe the anchor rotates (cos, sin) by δᵢ (angle addition, with
//! Taylor polynomials in δᵢ), carries the error bound forward, and bounds
//! the exact evaluation's result from the rotated cosines. The rotated
//! values become the anchor: a link's successive probes chain, and only a
//! δ past [`DELTA_MAX`] or an error past [`ERROR_LIMIT`] needs an exact
//! evaluation, which re-anchors.
//!
//! **The rotation.** The computed δ̂ = fl(θ − θₐ) is reduced by the
//! nearest multiple n of π/2 to r̂ = (δ̂ − n·C₁) − n·C₂, |r̂| ≤ π/4 + 10⁻¹⁵,
//! with C₁ the first 33 bits of π/2 (so n·C₁ and the first difference are
//! exact while |n| < 2²⁰) and C₂ the double nearest π/2 − C₁. Taylor
//! polynomials give cos r̂ (degree 14) and sin r̂ (degree 13), the quadrant
//! n mod 4 turns them into cos δ̂ and sin δ̂ exactly (a swap and signs), and
//! angle addition rotates the anchor's (cos, sin).
//!
//! **The error bound of a wave.** eᵢ bounds the Euclidean distance between
//! the anchor's (cos, sin) and the exact (cos θᵢ, sin θᵢ). A fresh anchor
//! takes the exact evaluation's cosine, glibc's, within [`COS_ERROR_ULP`]
//! of cos θᵢ, and a sine within [`crate::cosine::SINE_ERROR_ULP`] (the
//! vector kernel's) or [`LIBM_SINE_ERROR_ULP`] (`f64::sin`). A rotation
//! adds, with t = |δ̂| ≤ [`DELTA_MAX`], ρ = |r̂| < 0.7855, z = fl(r̂²) and
//! u = 2⁻⁵³:
//!
//! * the reduced argument's error, |r̂ − r| ≤ u·t (δ̂'s rounding) + u·ρ +
//!   u·|n·C₂| + |n|·2⁻⁸⁶ (the reduction's), once in the cosine's argument
//!   and once in the sine's;
//! * the polynomials' truncation, ρ¹⁶/16! for the cosine and ρ¹⁵/15! for
//!   the sine (alternating series whose terms fall from there on), at most
//!   z⁴·[`TRUNCATION`];
//! * their evaluation by Horner's rule, plain or fused: u + 2⁻⁴⁷·ρ² for
//!   the cosine and 2u·ρ + 2⁻⁴⁹·ρ³ for the sine (the final additions of 1
//!   round once; the tails' relative error is at most γ₂₂, and their size
//!   at most (cosh ρ − 1) ≤ 0.53·ρ² and (sinh ρ − ρ) ≤ 0.18·ρ³);
//! * those perturb the rotation matrix by at most their sum, which moves a
//!   vector of length at most 1 + e by at most (1 + e) times it;
//! * the rotation's own rounding: u·((|c| + |s|)·(1 + ρ) + |c′| + |s′|)
//!   for the two components, where |c| + |s| and |c′| + |s′| are at most
//!   √2·(1 + 2⁻²⁶) while both error bounds are within [`ERROR_LIMIT`].
//!
//! Together: e′ = e + u·(3.83 + 2t + 5.42·ρ) + 77u·z + z⁴·[`TRUNCATION`],
//! inflated by 2⁻²⁰ relative. The exact rotation is orthogonal, so the
//! carried e passes through unchanged. The inflation covers the factor
//! (1 + e) ≤ 1 + 2⁻²⁶, every second-order term, the reduction's
//! |n|·(u·C₂ + 2⁻⁸⁶) < (t + 1)·2⁻⁸⁴ (below 2⁻²⁰ of the step's first term
//! while t ≤ 1024), and the rounding of the bound's own arithmetic.
//!
//! **The enclosure.** The exact path sums glibc's cosines gᵢ in wave order
//! and multiplies by A (and the channel by σ), each operation rounded to
//! nearest. gᵢ lies within rᵢ = eᵢ + [`COS_ERROR_ULP`]·2⁻⁵² (an ulp of a
//! cosine is at most 2⁻⁵²) of the rotated cᵢ, and gᵢ is a double, so
//! fl(cᵢ − rᵢ) ≤ gᵢ ≤ fl(cᵢ + rᵢ) (a double at least a real x is at least x
//! rounded). Rounding to nearest is monotone, so the exact path's own
//! ordered sum and products applied to the lower and to the upper bounds
//! bracket its result with no further margin: the rounding of the sum and
//! of the products by A and σ needs no term of its own.

use vanet_geo::Point;

use crate::channel::WAVES;
use crate::cosine::VectorCosine;

/// The error of glibc's `cos`, in ulps of the result, that an enclosure
/// allows the exact evaluation (the error comments of
/// `sysdeps/ieee754/dbl-64/s_sin.c`).
pub(crate) const COS_ERROR_ULP: f64 = 0.518;

/// The error of `f64::sin` a fresh anchor allows where the vector kernel
/// does not give the sine: one ulp, above glibc's documented error.
pub(crate) const LIBM_SINE_ERROR_ULP: f64 = 1.0;

/// The largest |δ| an anchor is rotated by: 1024 rad, where the
/// reduction's residual error is still covered by the step bound's
/// inflation. A link that moved further re-anchors.
pub(crate) const DELTA_MAX: f64 = 1024.0;

/// The largest per-wave error bound an anchor may carry: 2⁻²⁶. Past it the
/// link is evaluated exactly and re-anchored. At σ = 4 dB it keeps an
/// enclosure under 10⁻⁶ dB wide.
pub(crate) const ERROR_LIMIT: f64 = 1.0 / (1u64 << 26) as f64;

/// 2⁻⁵², an ulp of 1: ulp(y) ≤ 2⁻⁵²·|y| for every normal y.
const ULP_OF_ONE: f64 = 1.0 / (1u64 << 52) as f64;

/// u = 2⁻⁵³, the unit roundoff.
const U: f64 = 1.0 / (1u64 << 53) as f64;

/// The relative inflation of a step's error bound: 2⁻²⁰.
const INFLATE: f64 = 1.0 + 1.0 / (1u64 << 20) as f64;

/// The relative inflation of an enclosure's per-wave radius: 2⁻⁴⁰, for the
/// rounding of its own three operations.
const INFLATE_RADIUS: f64 = 1.0 + 1.0 / (1u64 << 40) as f64;

/// 2/π, the double nearest it.
const FRAC_2_PI: f64 = std::f64::consts::FRAC_2_PI;

/// π/2 = C₁ + C₂ + (below 2⁻⁸⁷): C₁ the first 33 bits of π/2, C₂ the
/// double nearest π/2 − C₁.
const PIO2_HI: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
const PIO2_LO: f64 = f64::from_bits(0x3dd0_b461_1a62_6331);

/// Taylor coefficients of cos r in z = r², (−1)ᵏ/(2k)! for k = 1..=7
/// (degree 14 in r), each the nearest double.
const COS_TAIL: [f64; 7] = [
    -0.5,
    1.0 / 24.0,
    -1.0 / 720.0,
    1.0 / 40_320.0,
    -1.0 / 3_628_800.0,
    1.0 / 479_001_600.0,
    -1.0 / 87_178_291_200.0,
];

/// Taylor coefficients of sin r / r in z = r², (−1)ᵏ/(2k+1)! for k =
/// 1..=6 (degree 13 in r), each the nearest double.
const SIN_TAIL: [f64; 6] = [
    -1.0 / 6.0,
    1.0 / 120.0,
    -1.0 / 5_040.0,
    1.0 / 362_880.0,
    -1.0 / 39_916_800.0,
    1.0 / 6_227_020_800.0,
];

/// ρ⁷·(1/15! + ρ/16!) at ρ = 0.7855, rounded up: the reduction leaves ρ
/// at most π/4 plus the rounding of n = round(δ̂·2/π), below 0.7855, so
/// times z⁴ ≥ ρ⁸·(1 − 4u) it bounds the polynomials' truncation,
/// ρ¹⁵/15! + ρ¹⁶/16!.
const TRUNCATION: f64 = 1.481e-13;

/// u·(1 + 2·√2·(1 + 2⁻²⁶)), rounded up: the cosine's final rounding and
/// the rotation's at ρ = 0.
const STEP_CONSTANT: f64 = 3.83 * U;

/// u·(4 + √2·(1 + 2⁻²⁶)), rounded up: the sine's evaluation, the reduced
/// argument's rounding and the rotation's, per unit of ρ.
const STEP_PER_RHO: f64 = 5.42 * U;

/// 2u: δ̂'s rounding, once per argument, per unit of t.
const STEP_PER_T: f64 = 2.0 * U;

/// 2⁻⁴⁷ + 2⁻⁴⁹·0.7855, rounded up: the polynomials' evaluation, per unit
/// of z.
const STEP_PER_Z: f64 = 77.0 * U;

/// An enclosure's per-wave allowance for glibc's error, [`COS_ERROR_ULP`]
/// ulps of at most 2⁻⁵², inflated by [`INFLATE_RADIUS`].
const GLIBC_RADIUS: f64 = COS_ERROR_ULP * ULP_OF_ONE * INFLATE_RADIUS;

/// Arguments at or beyond 2²⁰ rad are never anchored: the vector kernel's
/// sine holds below it.
const MAX_ARGUMENT: f64 = 1_048_576.0;

/// One link's shadowing waves at its last evaluated probe: per wave the
/// argument, a cosine and a sine of it, and a bound on their error (see the
/// module documentation). An anchor belongs to the channel that set it
/// ([`crate::RadioChannel::anchor_shadowing`]); [`FieldAnchor::default`]
/// is no anchor.
#[derive(Debug, Clone)]
pub struct FieldAnchor {
    theta: [f64; WAVES],
    cos: [f64; WAVES],
    sin: [f64; WAVES],
    error: [f64; WAVES],
    valid: bool,
}

impl Default for FieldAnchor {
    fn default() -> Self {
        FieldAnchor {
            theta: [0.0; WAVES],
            cos: [0.0; WAVES],
            sin: [0.0; WAVES],
            error: [0.0; WAVES],
            valid: false,
        }
    }
}

/// The waves of a field, as [`FieldAnchor`] needs them.
pub(crate) struct Waves<'a> {
    pub kx: &'a [f64; WAVES],
    pub ky: &'a [f64; WAVES],
    pub phase: &'a [f64; WAVES],
}

impl Waves<'_> {
    /// θᵢ at `p`, rounded as the exact path rounds it.
    #[inline]
    fn theta(&self, i: usize, p: Point) -> f64 {
        self.kx[i] * p.x + self.ky[i] * p.y + self.phase[i]
    }
}

/// Per-wave bounds of an exact evaluation's cosines.
pub(crate) struct WaveBounds {
    pub low: [f64; WAVES],
    pub high: [f64; WAVES],
}

impl FieldAnchor {
    /// Sets the anchor at `p` from an exact evaluation's cosines (glibc's)
    /// and sines, each sine within `sine_ulp[i]` ulps. Leaves no anchor
    /// where an argument lies at or beyond 2²⁰ rad.
    pub(crate) fn set(
        &mut self,
        waves: &Waves,
        p: Point,
        cosines: &[f64; WAVES],
        sines: &[f64; WAVES],
        sine_ulp: impl Fn(usize) -> f64,
    ) {
        self.valid = true;
        for i in 0..WAVES {
            let theta = waves.theta(i, p);
            self.valid &= theta.abs() < MAX_ARGUMENT;
            self.theta[i] = theta;
            self.cos[i] = cosines[i];
            self.sin[i] = sines[i];
            // |g − cos θ| ≤ 0.518·ulp(cos θ) ≤ 0.518·2⁻⁵²·|cos θ|, and |cos θ|
            // exceeds |g| by at most that: the inflation covers it.
            let bound =
                ULP_OF_ONE * (COS_ERROR_ULP * cosines[i].abs() + sine_ulp(i) * sines[i].abs());
            self.error[i] = bound * INFLATE;
        }
    }

    /// Whether the anchor holds a state to rotate.
    pub(crate) fn is_set(&self) -> bool {
        self.valid
    }

    /// Rotates the anchor to `p` and bounds each wave's glibc cosine there;
    /// returns the exact path's ordered sum over the waves' lower bounds
    /// and over their upper bounds. Leaves no anchor and returns `None`
    /// where a δ passes [`DELTA_MAX`] or an error bound passes
    /// [`ERROR_LIMIT`]. `vector` runs the rotation four waves at a time
    /// with AVX2 and FMA; the plain double arithmetic rounds more often,
    /// and the error bounds cover it.
    pub(crate) fn advance(
        &mut self,
        waves: &Waves,
        p: Point,
        vector: Option<VectorCosine>,
    ) -> Option<(f64, f64)> {
        self.advance_waves(waves, p, vector).map(|bounds| bounds.ordered_sums())
    }

    /// [`FieldAnchor::advance`] before the sums: each wave's bounds.
    pub(crate) fn advance_waves(
        &mut self,
        waves: &Waves,
        p: Point,
        vector: Option<VectorCosine>,
    ) -> Option<WaveBounds> {
        let mut bounds = WaveBounds { low: [0.0; WAVES], high: [0.0; WAVES] };
        let within = match vector {
            Some(kernel) => self.advance_vector(kernel, waves, p, &mut bounds),
            None => self.advance_scalar(waves, p, &mut bounds),
        };
        if !within {
            self.valid = false;
            return None;
        }
        Some(bounds)
    }

    /// Per wave: the argument, the cosine, the sine and the error bound.
    #[cfg(test)]
    pub(crate) fn waves(&self) -> [&[f64; WAVES]; 4] {
        [&self.theta, &self.cos, &self.sin, &self.error]
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    fn advance_vector(
        &mut self,
        _: VectorCosine,
        waves: &Waves,
        p: Point,
        out: &mut WaveBounds,
    ) -> bool {
        #[allow(unsafe_code)]
        // SAFETY: `avx2::advance` needs the `avx2` and `fma` target
        // features, and a `VectorCosine` exists only because
        // `VectorCosine::detect` saw `is_x86_feature_detected!` report both
        // on this CPU.
        unsafe {
            avx2::advance(self, waves, p.x, p.y, out)
        }
    }

    #[cfg(not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")))]
    fn advance_vector(&mut self, _: VectorCosine, _: &Waves, _: Point, _: &mut WaveBounds) -> bool {
        unreachable!("VectorCosine::detect returns None on this target")
    }

    /// The rotation in plain double arithmetic: whether every |δ| is within
    /// [`DELTA_MAX`] and every error bound within [`ERROR_LIMIT`].
    fn advance_scalar(&mut self, waves: &Waves, p: Point, out: &mut WaveBounds) -> bool {
        let mut within = true;
        for i in 0..WAVES {
            let theta = waves.theta(i, p);
            let delta = theta - self.theta[i];
            let n = (delta * FRAC_2_PI).round();
            let r = (delta - n * PIO2_HI) - n * PIO2_LO;
            let z = r * r;
            let cos_r = 1.0 + z * horner(z, &COS_TAIL);
            let sin_r = r * (1.0 + z * horner(z, &SIN_TAIL));
            // The quadrant of n (the `as` saturates, and |n| ≤ 1024·2/π + 1
            // wherever the result is kept).
            let (cos_d, sin_d) = match (n as i64) & 3 {
                0 => (cos_r, sin_r),
                1 => (-sin_r, cos_r),
                2 => (-cos_r, -sin_r),
                _ => (sin_r, -cos_r),
            };
            let (c, s, e) = (self.cos[i], self.sin[i], self.error[i]);
            let cos = c * cos_d - s * sin_d;
            let sin = s * cos_d + c * sin_d;
            let (t, rho) = (delta.abs(), r.abs());
            let error = step_error(t, rho, z, e);
            self.theta[i] = theta;
            self.cos[i] = cos;
            self.sin[i] = sin;
            self.error[i] = error;
            let radius = error * INFLATE_RADIUS + GLIBC_RADIUS;
            out.low[i] = cos - radius;
            out.high[i] = cos + radius;
            // `x <= limit` also refuses a NaN.
            within &= t <= DELTA_MAX && error <= ERROR_LIMIT;
        }
        within
    }
}

impl WaveBounds {
    /// The ordered sums over the lower and the upper bounds: the fold
    /// `Iterator::sum` makes (from −0, in wave order), as two interleaved
    /// chains.
    #[inline]
    pub(crate) fn ordered_sums(&self) -> (f64, f64) {
        let (mut low, mut high) = (-0.0, -0.0);
        for i in 0..WAVES {
            low += self.low[i];
            high += self.high[i];
        }
        (low, high)
    }
}

/// Σ cₖ·zᵏ over `coefficients`, by Horner's rule in plain double.
#[inline]
fn horner(z: f64, coefficients: &[f64]) -> f64 {
    let (&last, rest) = coefficients.split_last().expect("a non-empty polynomial");
    rest.iter().rev().fold(last, |acc, &c| acc * z + c)
}

/// The error bound of a wave rotated by δ̂ (|δ̂| = t, reduced to r̂ with
/// |r̂| = ρ and z = fl(r̂²)) from an anchor with error bound e: see the
/// module documentation.
#[inline]
fn step_error(t: f64, rho: f64, z: f64, e: f64) -> f64 {
    let z2 = z * z;
    let step = STEP_CONSTANT + STEP_PER_RHO * rho + STEP_PER_T * t + STEP_PER_Z * z;
    (e + step + TRUNCATION * (z2 * z2)) * INFLATE
}

#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
mod avx2 {
    use std::arch::x86_64::*;

    use super::{
        FieldAnchor, WaveBounds, Waves, COS_TAIL, DELTA_MAX, ERROR_LIMIT, FRAC_2_PI, GLIBC_RADIUS,
        INFLATE, INFLATE_RADIUS, PIO2_HI, PIO2_LO, SIN_TAIL, STEP_CONSTANT, STEP_PER_RHO,
        STEP_PER_T, STEP_PER_Z, TRUNCATION,
    };

    /// 1.5·2⁵²: adding it to an integer-valued n < 2⁵¹ leaves n mod 2⁵¹ in
    /// the low significand bits.
    const SHIFTER: f64 = 6_755_399_441_055_744.0;

    /// [`super::FieldAnchor::advance_scalar`], four waves at a time: the
    /// same steps, with fused multiply-adds in the polynomials, the
    /// rotation and the bound's own arithmetic.
    ///
    /// # Safety
    ///
    /// Outside code compiled for `avx2` and `fma`, calling this needs
    /// `unsafe`: the caller must know the CPU supports both features.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn advance(
        anchor: &mut FieldAnchor,
        waves: &Waves,
        px: f64,
        py: f64,
        out: &mut WaveBounds,
    ) -> bool {
        let (px, py) = (splat(px), splat(py));
        let abs = _mm256_castsi256_pd(_mm256_set1_epi64x(i64::MAX));
        let one = splat(1.0);
        let sign = splat(-0.0);
        let mut within = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        for w in (0..super::WAVES).step_by(4) {
            // The exact path's argument: two products, then two sums.
            let theta = _mm256_add_pd(
                _mm256_add_pd(
                    _mm256_mul_pd(load(&waves.kx[w..]), px),
                    _mm256_mul_pd(load(&waves.ky[w..]), py),
                ),
                load(&waves.phase[w..]),
            );
            let delta = _mm256_sub_pd(theta, load(&anchor.theta[w..]));
            let t = _mm256_and_pd(delta, abs);
            let n = _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
                _mm256_mul_pd(delta, splat(FRAC_2_PI)),
            );
            let r = _mm256_sub_pd(
                _mm256_fnmadd_pd(n, splat(PIO2_HI), delta),
                _mm256_mul_pd(n, splat(PIO2_LO)),
            );
            let rho = _mm256_and_pd(r, abs);
            let z = _mm256_mul_pd(r, r);
            let cos_r = _mm256_fmadd_pd(z, horner(z, &COS_TAIL), one);
            let sin_r = _mm256_mul_pd(r, _mm256_fmadd_pd(z, horner(z, &SIN_TAIL), one));
            // Quadrant n mod 4: odd lanes swap, cos δ negates in quadrants
            // 1 and 2, sin δ in 2 and 3.
            let quadrant = _mm256_castpd_si256(_mm256_add_pd(n, splat(SHIFTER)));
            let odd = _mm256_castsi256_pd(_mm256_slli_epi64::<63>(quadrant));
            let negate_cos = _mm256_and_pd(
                _mm256_castsi256_pd(_mm256_slli_epi64::<62>(_mm256_add_epi64(
                    quadrant,
                    _mm256_set1_epi64x(1),
                ))),
                sign,
            );
            let negate_sin =
                _mm256_and_pd(_mm256_castsi256_pd(_mm256_slli_epi64::<62>(quadrant)), sign);
            let cos_d = _mm256_xor_pd(_mm256_blendv_pd(cos_r, sin_r, odd), negate_cos);
            let sin_d = _mm256_xor_pd(_mm256_blendv_pd(sin_r, cos_r, odd), negate_sin);
            let (c, s, e) =
                (load(&anchor.cos[w..]), load(&anchor.sin[w..]), load(&anchor.error[w..]));
            let cos = _mm256_fmsub_pd(c, cos_d, _mm256_mul_pd(s, sin_d));
            let sin = _mm256_fmadd_pd(s, cos_d, _mm256_mul_pd(c, sin_d));
            // The step's error bound, as `step_error` forms it.
            let step = _mm256_fmadd_pd(
                z,
                splat(STEP_PER_Z),
                _mm256_fmadd_pd(
                    t,
                    splat(STEP_PER_T),
                    _mm256_fmadd_pd(rho, splat(STEP_PER_RHO), splat(STEP_CONSTANT)),
                ),
            );
            let z2 = _mm256_mul_pd(z, z);
            let error = _mm256_mul_pd(
                _mm256_fmadd_pd(_mm256_mul_pd(z2, z2), splat(TRUNCATION), _mm256_add_pd(e, step)),
                splat(INFLATE),
            );
            let radius = _mm256_fmadd_pd(error, splat(INFLATE_RADIUS), splat(GLIBC_RADIUS));
            store(theta, &mut anchor.theta[w..]);
            store(cos, &mut anchor.cos[w..]);
            store(sin, &mut anchor.sin[w..]);
            store(error, &mut anchor.error[w..]);
            store(_mm256_sub_pd(cos, radius), &mut out.low[w..]);
            store(_mm256_add_pd(cos, radius), &mut out.high[w..]);
            // `x <= limit` is false for a NaN too.
            within = _mm256_and_pd(
                within,
                _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_LE_OQ>(t, splat(DELTA_MAX)),
                    _mm256_cmp_pd::<_CMP_LE_OQ>(error, splat(ERROR_LIMIT)),
                ),
            );
        }
        _mm256_movemask_pd(within) == 0b1111
    }

    #[target_feature(enable = "avx2,fma")]
    fn load(v: &[f64]) -> __m256d {
        _mm256_setr_pd(v[0], v[1], v[2], v[3])
    }

    #[target_feature(enable = "avx2,fma")]
    fn store(v: __m256d, out: &mut [f64]) {
        let (lo, hi) = (_mm256_castpd256_pd128(v), _mm256_extractf128_pd::<1>(v));
        out[0] = _mm_cvtsd_f64(lo);
        out[1] = _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
        out[2] = _mm_cvtsd_f64(hi);
        out[3] = _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
    }

    #[target_feature(enable = "avx2,fma")]
    fn splat(v: f64) -> __m256d {
        _mm256_set1_pd(v)
    }

    /// Σ cₖ·zᵏ over `coefficients`, by Horner's rule with fused steps.
    #[target_feature(enable = "avx2,fma")]
    fn horner(z: __m256d, coefficients: &[f64]) -> __m256d {
        let (&last, rest) = coefficients.split_last().expect("a non-empty polynomial");
        rest.iter().rev().fold(splat(last), |acc, &c| _mm256_fmadd_pd(acc, z, splat(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_polynomials_are_taylor_series() {
        // cos δ and sin δ at a few points, against `f64`'s: truncation at
        // t ≤ 1 is below 10⁻¹⁰.
        for delta in [-1.0f64, -0.3, 0.0, 1e-9, 0.25, 0.9] {
            let z = delta * delta;
            let cos_d = 1.0 + z * horner(z, &COS_TAIL);
            let sin_d = delta * (1.0 + z * horner(z, &SIN_TAIL));
            assert!((cos_d - delta.cos()).abs() < 1e-12, "{delta}");
            assert!((sin_d - delta.sin()).abs() < 1e-12, "{delta}");
        }
        assert_eq!(PIO2_HI.to_bits() & 0xf_ffff, 0, "C₁ has 33 significant bits");
        // The step bound's constants against the terms they stand for.
        let rho_max = 0.7855f64;
        assert!(std::f64::consts::FRAC_PI_4 * (1.0 + 4.0 * U) < rho_max);
        let factorial = |n: u32| (1..=n).map(f64::from).product::<f64>();
        let truncation = rho_max.powi(7) * (1.0 / factorial(15) + rho_max / factorial(16));
        assert!(truncation * (1.0 + 1e-9) <= TRUNCATION, "{truncation:e}");
        let root2 = std::f64::consts::SQRT_2 * (1.0 + ERROR_LIMIT);
        assert!(U * (1.0 + 2.0 * root2) <= STEP_CONSTANT);
        assert!(U * (4.0 + root2) <= STEP_PER_RHO);
        assert!(64.0 * U + 16.0 * U * rho_max <= STEP_PER_Z);
        // (cosh ρ − 1)/ρ² and (sinh ρ − ρ)/ρ³ rise with ρ: their values at
        // 0.7855 bound the tails' sizes.
        assert!((rho_max.cosh() - 1.0) / rho_max.powi(2) <= 0.53);
        assert!((rho_max.sinh() - rho_max) / rho_max.powi(3) <= 0.18);
        // fl(π/2) − C₁ is exact and within 2⁻⁵³ of π/2 − C₁.
        let residual = std::f64::consts::FRAC_PI_2 - PIO2_HI;
        assert!((residual - PIO2_LO).abs() <= U, "{residual:e}");
    }
}
