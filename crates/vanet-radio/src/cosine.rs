//! glibc's cosine, four lanes at a time, for the shadowing field's waves.
//!
//! [`crate::channel`]'s shadowing field sums the cosines of its plane waves
//! at every uncached link, and every result feeds an RNG-drawing verdict, so
//! a cheaper cosine must return exactly the bits `f64::cos` (glibc's `cos`)
//! returns. The kernel here evaluates four arguments at once with AVX2 and
//! FMA and keeps a lane only where glibc provably returns the same double;
//! every other lane calls `f64::cos`.
//!
//! **The equality argument.** glibc's double `cos` is not correctly rounded,
//! but its error is bounded at 0.518 ulp (the error comments of
//! `sysdeps/ieee754/dbl-64/s_sin.c`). If the exact cosine y lies more than
//! 0.018 ulp from a rounding midpoint, every double other than the nearest
//! one is more than 0.518 ulp away, so glibc must return round(y). The
//! kernel computes ŷ = H + L, a double-double within [`KERNEL_ERROR_ULP`] of
//! y, rounds it to s = fl(H + L), and keeps s only if ŷ lies at least
//! [`BAND_ULP`] from a midpoint: then y is at least `BAND_ULP −
//! KERNEL_ERROR_ULP` > 0.018 ulp from it, on the same side as ŷ, and glibc
//! returns s.
//!
//! **The kernel.** `x = kx·p.x + ky·p.y + phase` is formed with the same
//! separate multiplies and adds as the scalar expression. x is reduced by
//! π/2 with a three-part Cody–Waite split in double-double: n = round(x·2/π),
//! `x − n·C1` is exact in one FMA for |x| < 2²⁰ (both terms are multiples of
//! 2⁻⁵³ and the difference is below 1), and `n·C2`, `n·C3` go into the low
//! part. Then sin and cos of r = rh + rl (|r| ≤ π/4 + 10⁻⁹) are evaluated
//! for every lane from Taylor polynomials in z = r²: the terms of degree six
//! and up in plain double Horner, the leading three in double-double. The
//! lane's quadrant n mod 4 picks ±cos(r) or ±sin(r).
//!
//! **Where glibc is asked.** A lane falls back to `f64::cos` when |x| ≥ 2²⁰
//! or x is not finite (the exact first reduction step needs |x| < 2²⁰), when
//! |rh| < 10⁻⁹ (the remainder's relative accuracy and the reduction's
//! fast two-sum are argued above that size; it covers ±0 and subnormal
//! arguments), when s is a power of two (the ulp below it is half the one
//! above, which the midpoint test does not model; it covers cos x = ±1,
//! ±½, ±¼), and when ŷ lies within [`BAND_ULP`] of a midpoint, about 6% of
//! uniformly spread arguments.

#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
use std::arch::is_x86_feature_detected;

use vanet_geo::Point;

/// The kernel's error bound: |ŷ − cos x| ≤ 0.002 ulp of the result on every
/// lane it keeps. The largest terms of the bound are the sine polynomial's
/// truncation (its first omitted term, b₉·z⁹·|r| with z ≤ (π/4)², is at
/// most 1.07·10⁻¹⁹·|r|, or 0.0011 ulp of sin r ≥ 0.90·|r|) and the
/// rounding of the plain-double Horner tails (at most 2 ulp of the tail's
/// value, at most 0.0009 ulp of the result); truncating the cosine after z⁹
/// costs 0.00004 ulp, and the reduction and the double-double steps are
/// exact or accurate to about 2⁻¹⁰⁰ relative.
const KERNEL_ERROR_ULP: f64 = 0.002;

/// How far from a rounding midpoint, in ulps of the result, the kernel's
/// ŷ must lie for the lane to be kept: glibc's excess over half an ulp
/// (0.518 − 0.5 = 0.018), plus [`KERNEL_ERROR_ULP`] (0.002), plus a margin
/// of 0.010 ulp. A smaller band still proves equality down to 0.020; the
/// margin absorbs an error bound that is argued, not machine-checked.
const BAND_ULP: f64 = 0.03;
const _: () = assert!(BAND_ULP - KERNEL_ERROR_ULP - (0.518 - 0.5) >= 0.0099);

/// The error of a sine [`VectorCosine::wave_sincos`] takes from the kernel,
/// in ulps of the result: the double-double's [`KERNEL_ERROR_ULP`] (the
/// sine of x is the cosine's other polynomial, ±sin r or ±cos r, so the
/// same bound holds) plus the half ulp of rounding it to a double.
pub(crate) const SINE_ERROR_ULP: f64 = 0.5 + KERNEL_ERROR_ULP;

/// Proof that this CPU runs the vector kernel: [`VectorCosine::detect`]
/// returns one only on an x86-64 Linux-glibc host whose CPU reports `avx2`
/// and `fma`, and no other code constructs it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VectorCosine(());

impl VectorCosine {
    /// The kernel, if this host can run it; `None` everywhere else, where
    /// callers keep the scalar `f64::cos` expression.
    pub(crate) fn detect() -> Option<Self> {
        #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return Some(VectorCosine(()));
        }
        None
    }

    /// Writes `(kx[i] * p.x + ky[i] * p.y + phase[i]).cos()` into `out[i]`
    /// for every wave i, bit for bit as that scalar expression, and returns
    /// the mask of the waves whose cosine came from `f64::cos` (bit i for
    /// wave i). `N` is a multiple of four, at most 64.
    pub(crate) fn wave_cosines<const N: usize>(
        self,
        kx: &[f64; N],
        ky: &[f64; N],
        phase: &[f64; N],
        p: Point,
        out: &mut [f64; N],
    ) -> u64 {
        const { assert!(N.is_multiple_of(4) && N <= 64, "waves come in whole vectors, at most 64") };
        let (kept, _) = self.kept_lanes(kx, ky, phase, p, out, None);
        let mut fallback = !kept & (u64::MAX >> (64 - N));
        let mask = fallback;
        while fallback != 0 {
            let i = fallback.trailing_zeros() as usize;
            out[i] = (kx[i] * p.x + ky[i] * p.y + phase[i]).cos();
            fallback &= fallback - 1;
        }
        mask
    }

    /// [`VectorCosine::wave_cosines`], and each wave's sine in `sines`:
    /// the kernel's double-double rounded, within [`SINE_ERROR_ULP`] of
    /// sin x, except on the lanes of the returned mask (bit i for wave
    /// i), whose arguments lie outside the kernel's domain or within 10⁻⁹
    /// of a multiple of π/2, where it is `f64::sin`.
    pub(crate) fn wave_sincos<const N: usize>(
        self,
        kx: &[f64; N],
        ky: &[f64; N],
        phase: &[f64; N],
        p: Point,
        cosines: &mut [f64; N],
        sines: &mut [f64; N],
    ) -> u64 {
        const { assert!(N.is_multiple_of(4) && N <= 64, "waves come in whole vectors, at most 64") };
        let (kept, sine_ok) = self.kept_lanes(kx, ky, phase, p, cosines, Some(sines));
        let all = u64::MAX >> (64 - N);
        let mut fallback = !kept & all;
        while fallback != 0 {
            let i = fallback.trailing_zeros() as usize;
            cosines[i] = (kx[i] * p.x + ky[i] * p.y + phase[i]).cos();
            fallback &= fallback - 1;
        }
        let mask = !sine_ok & all;
        let mut fallback = mask;
        while fallback != 0 {
            let i = fallback.trailing_zeros() as usize;
            sines[i] = (kx[i] * p.x + ky[i] * p.y + phase[i]).sin();
            fallback &= fallback - 1;
        }
        mask
    }

    /// The vector half of both entry points: writes the kept lanes'
    /// cosines into `out`, and every lane's kernel sine into `sines` where
    /// given; returns the masks of the kept cosine lanes and of the lanes
    /// whose sine is within [`SINE_ERROR_ULP`].
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    fn kept_lanes<const N: usize>(
        self,
        kx: &[f64; N],
        ky: &[f64; N],
        phase: &[f64; N],
        p: Point,
        out: &mut [f64; N],
        sines: Option<&mut [f64; N]>,
    ) -> (u64, u64) {
        #[allow(unsafe_code)]
        // SAFETY: `avx2::wave_cosines` needs the `avx2` and `fma` target
        // features, and `self` exists only because `VectorCosine::detect`
        // saw `is_x86_feature_detected!` report both on this CPU.
        unsafe {
            avx2::wave_cosines(kx, ky, phase, p.x, p.y, out, sines)
        }
    }

    #[cfg(not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")))]
    fn kept_lanes<const N: usize>(
        self,
        _: &[f64; N],
        _: &[f64; N],
        _: &[f64; N],
        _: Point,
        _: &mut [f64; N],
        _: Option<&mut [f64; N]>,
    ) -> (u64, u64) {
        unreachable!("VectorCosine::detect returns None on this target")
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
mod avx2 {
    use std::arch::x86_64::*;

    use super::BAND_ULP;

    /// Arguments at or beyond 2²⁰ rad go to glibc.
    const MAX_ARGUMENT: f64 = 1_048_576.0;
    /// Remainders below this go to glibc.
    const MIN_REMAINDER: f64 = 1e-9;
    /// The double nearest 2/π.
    const FRAC_2_PI: f64 = f64::from_bits(0x3fe4_5f30_6dc9_c883);
    /// π/2 = C1 + C2 + C3 + 5.6·10⁻⁵⁰: C1 is the double nearest π/2, C2 the
    /// double nearest π/2 − C1, C3 the double nearest π/2 − C1 − C2.
    const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5444_2d18);
    const PIO2_2: f64 = f64::from_bits(0x3c91_a626_3314_5c07);
    const PIO2_3: f64 = f64::from_bits(0xb91f_1976_b7ed_8fbc);
    /// 1.5·2⁵²: adding it to an integer-valued n < 2⁵¹ leaves n mod 2⁵¹ in
    /// the low significand bits.
    const SHIFTER: f64 = 6_755_399_441_055_744.0;
    /// Taylor coefficients (−1)ᵏ/(2k)! of cos for k = 3..=9, and
    /// (−1)ᵏ/(2k+1)! of sin for k = 3..=8, each the nearest double.
    const COS_TAIL: [f64; 7] = [
        -1.0 / 720.0,
        1.0 / 40_320.0,
        -1.0 / 3_628_800.0,
        1.0 / 479_001_600.0,
        -1.0 / 87_178_291_200.0,
        1.0 / 20_922_789_888_000.0,
        -1.0 / 6_402_373_705_728_000.0,
    ];
    const SIN_TAIL: [f64; 6] = [
        -1.0 / 5_040.0,
        1.0 / 362_880.0,
        -1.0 / 39_916_800.0,
        1.0 / 6_227_020_800.0,
        -1.0 / 1_307_674_368_000.0,
        1.0 / 355_687_428_096_000.0,
    ];
    /// 1/24, −1/6 and 1/120 as double-doubles (high, low).
    const COS_2: (f64, f64) = (1.0 / 24.0, f64::from_bits(0x3c45_5555_5555_5555));
    const SIN_1: (f64, f64) = (-1.0 / 6.0, f64::from_bits(0xbc65_5555_5555_5555));
    const SIN_2: (f64, f64) = (1.0 / 120.0, f64::from_bits(0x3c01_1111_1111_1111));
    /// A kept lane's residual |ŷ − s| is at most (½ − band) ulp of s; an
    /// ulp of s is its power-of-two part times 2⁻⁵².
    const KEEP_WITHIN: f64 = (0.5 - BAND_ULP) / 4_503_599_627_370_496.0;
    const ABS: i64 = 0x7fff_ffff_ffff_ffff;
    const EXPONENT: i64 = 0x7ff0_0000_0000_0000;
    const MANTISSA: i64 = 0x000f_ffff_ffff_ffff;

    /// The vector half of [`super::VectorCosine::wave_cosines`] and
    /// [`super::VectorCosine::wave_sincos`]: writes the kept lanes'
    /// cosines into `out`, every lane's kernel sine into `sines` where
    /// given, and returns the mask of the kept cosines and the mask of the
    /// sines within [`super::SINE_ERROR_ULP`].
    ///
    /// # Safety
    ///
    /// Outside code compiled for `avx2` and `fma`, calling this needs
    /// `unsafe`: the caller must know the CPU supports both features.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn wave_cosines<const N: usize>(
        kx: &[f64; N],
        ky: &[f64; N],
        phase: &[f64; N],
        px: f64,
        py: f64,
        out: &mut [f64; N],
        mut sines: Option<&mut [f64; N]>,
    ) -> (u64, u64) {
        let (px, py) = (_mm256_set1_pd(px), _mm256_set1_pd(py));
        let (mut kept, mut sine_ok) = (0u64, 0u64);
        let waves = kx.chunks_exact(4).zip(ky.chunks_exact(4)).zip(phase.chunks_exact(4));
        for (c, (((kx, ky), phase), out)) in waves.zip(out.chunks_exact_mut(4)).enumerate() {
            // The scalar expression's rounding: two products, then two sums.
            let x = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(load(kx), px), _mm256_mul_pd(load(ky), py)),
                load(phase),
            );
            let lanes = sincos4(x);
            store(lanes.cosine, out);
            kept |= (lanes.kept as u64) << (4 * c);
            if let Some(sines) = sines.as_deref_mut() {
                store(lanes.sine, &mut sines[4 * c..4 * c + 4]);
                sine_ok |= (lanes.sine_ok as u64) << (4 * c);
            }
        }
        (kept, sine_ok)
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

    #[target_feature(enable = "avx2,fma")]
    fn bits(v: i64) -> __m256d {
        _mm256_castsi256_pd(_mm256_set1_epi64x(v))
    }

    /// `a + b·c` as a double-double `(high, low)` whose low part also
    /// collects `extra`, for |a| ≥ |b·c|. `b·c` is split exactly with one
    /// FMA and the sum with Dekker's fast two-sum.
    #[target_feature(enable = "avx2,fma")]
    fn mul_add_dd(a: __m256d, b: __m256d, c: __m256d, extra: __m256d) -> (__m256d, __m256d) {
        let product = _mm256_mul_pd(b, c);
        let product_error = _mm256_fmsub_pd(b, c, product);
        let high = _mm256_add_pd(a, product);
        let sum_error = _mm256_add_pd(_mm256_sub_pd(a, high), product);
        (high, _mm256_add_pd(sum_error, _mm256_add_pd(product_error, extra)))
    }

    /// Σ cₖ·zᵏ over `coefficients`, by Horner's rule in plain double.
    #[target_feature(enable = "avx2,fma")]
    fn horner(z: __m256d, coefficients: &[f64]) -> __m256d {
        let (&last, rest) = coefficients.split_last().expect("a non-empty polynomial");
        rest.iter().rev().fold(splat(last), |acc, &c| _mm256_fmadd_pd(acc, z, splat(c)))
    }

    /// The cross terms `zh·xl + zl·xh` of a double-double product.
    #[target_feature(enable = "avx2,fma")]
    fn cross(zh: __m256d, zl: __m256d, xh: __m256d, xl: __m256d) -> __m256d {
        _mm256_fmadd_pd(zh, xl, _mm256_mul_pd(zl, xh))
    }

    /// Four lanes of [`sincos4`].
    struct SinCos4 {
        /// The rounded cosines.
        cosine: __m256d,
        /// The lanes whose cosine is glibc's (see the module documentation).
        kept: i32,
        /// The rounded sines.
        sine: __m256d,
        /// The lanes whose sine is within [`super::SINE_ERROR_ULP`]: inside
        /// the domain, with a remainder of at least 10⁻⁹.
        sine_ok: i32,
    }

    /// Cosines and sines of four arguments.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn sincos4(x: __m256d) -> SinCos4 {
        let in_domain =
            _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_and_pd(x, bits(ABS)), splat(MAX_ARGUMENT));
        let n = _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_pd(x, splat(FRAC_2_PI)),
        );
        // r = x − n·π/2 = rh + rl; the first step is exact.
        let r1 = _mm256_fnmadd_pd(n, splat(PIO2_1), x);
        let p2 = _mm256_mul_pd(n, splat(PIO2_2));
        let p2_error = _mm256_fmsub_pd(n, splat(PIO2_2), p2);
        let rh = _mm256_sub_pd(r1, p2);
        let rh_error = _mm256_sub_pd(_mm256_sub_pd(r1, rh), p2);
        let rl = _mm256_fnmadd_pd(n, splat(PIO2_3), _mm256_sub_pd(rh_error, p2_error));
        // z = r² = zh + zl.
        let zh = _mm256_mul_pd(rh, rh);
        let zl = _mm256_fmadd_pd(_mm256_add_pd(rh, rh), rl, _mm256_fmsub_pd(rh, rh, zh));

        // cos r = 1 + z(−1/2 + z(1/24 + z·tail(z))).
        let tail = horner(zh, &COS_TAIL);
        let (qh, ql) =
            mul_add_dd(splat(COS_2.0), zh, tail, _mm256_fmadd_pd(zl, tail, splat(COS_2.1)));
        let (hh, hl) = mul_add_dd(splat(-0.5), zh, qh, cross(zh, zl, qh, ql));
        let (cos_h, cos_l) = mul_add_dd(splat(1.0), zh, hh, cross(zh, zl, hh, hl));

        // sin r = r + r·z(−1/6 + z(1/120 + z·tail(z))).
        let tail = horner(zh, &SIN_TAIL);
        let (qh, ql) =
            mul_add_dd(splat(SIN_2.0), zh, tail, _mm256_fmadd_pd(zl, tail, splat(SIN_2.1)));
        let (hh, hl) = mul_add_dd(
            splat(SIN_1.0),
            zh,
            qh,
            _mm256_add_pd(cross(zh, zl, qh, ql), splat(SIN_1.1)),
        );
        let wh = _mm256_mul_pd(zh, hh);
        let wl = _mm256_add_pd(_mm256_fmsub_pd(zh, hh, wh), cross(zh, zl, hh, hl));
        let (sin_h, sin_l) = mul_add_dd(rh, rh, wh, _mm256_add_pd(cross(rh, rl, wh, wl), rl));

        // Quadrant n mod 4: odd lanes take sin r, and lanes 1 and 2 negate.
        let quadrant = _mm256_castpd_si256(_mm256_add_pd(n, splat(SHIFTER)));
        let odd = _mm256_castsi256_pd(_mm256_slli_epi64::<63>(quadrant));
        let negate = _mm256_and_pd(
            _mm256_castsi256_pd(_mm256_slli_epi64::<62>(_mm256_add_epi64(
                quadrant,
                _mm256_set1_epi64x(1),
            ))),
            bits(i64::MIN),
        );
        let high = _mm256_xor_pd(_mm256_blendv_pd(cos_h, sin_h, odd), negate);
        let low = _mm256_xor_pd(_mm256_blendv_pd(cos_l, sin_l, odd), negate);
        // sin x: odd lanes take cos r, and lanes 2 and 3 negate.
        let negate_sine =
            _mm256_and_pd(_mm256_castsi256_pd(_mm256_slli_epi64::<62>(quadrant)), bits(i64::MIN));
        let sine = _mm256_add_pd(
            _mm256_xor_pd(_mm256_blendv_pd(sin_h, cos_h, odd), negate_sine),
            _mm256_xor_pd(_mm256_blendv_pd(sin_l, cos_l, odd), negate_sine),
        );

        // s = fl(ŷ) and its exact residual ŷ − s.
        let s = _mm256_add_pd(high, low);
        let residual = _mm256_add_pd(_mm256_sub_pd(high, s), low);
        let within = _mm256_mul_pd(_mm256_and_pd(s, bits(EXPONENT)), splat(KEEP_WITHIN));
        let off_midpoint = _mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_and_pd(residual, bits(ABS)), within);
        let power_of_two = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
            _mm256_and_si256(_mm256_castpd_si256(s), _mm256_set1_epi64x(MANTISSA)),
            _mm256_setzero_si256(),
        ));
        let remainder_ok =
            _mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_and_pd(rh, bits(ABS)), splat(MIN_REMAINDER));
        let sine_ok = _mm256_and_pd(in_domain, remainder_ok);
        let keep = _mm256_andnot_pd(power_of_two, _mm256_and_pd(sine_ok, off_midpoint));
        SinCos4 {
            cosine: s,
            kept: _mm256_movemask_pd(keep),
            sine,
            sine_ok: _mm256_movemask_pd(sine_ok),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sim_core::StreamRng;

    /// Random arguments per range: enough for a debug run to take a few
    /// seconds, and 25 million per range in an optimised build.
    const RANDOM_PER_RANGE: usize = if cfg!(debug_assertions) { 1_000_000 } else { 25_000_000 };

    /// Runs the kernel on 64 arbitrary arguments. With kx = x, ky = 0,
    /// phase = −0 and p = (1, −0), the wave argument `x·1 + 0·(−0) + (−0)`
    /// is x itself, bit for bit, for every x including ±0, ±∞ and NaN.
    fn kernel_cos(kernel: VectorCosine, xs: &[f64; 64], out: &mut [f64; 64]) -> u64 {
        kernel.wave_cosines(xs, &[0.0; 64], &[-0.0; 64], Point::new(1.0, -0.0), out)
    }

    /// Compares the kernel with `f64::cos` bit for bit on every argument,
    /// panicking with the first mismatches; returns how many lanes fell
    /// back to `f64::cos`.
    fn assert_matches_glibc(kernel: VectorCosine, args: &[f64], context: &str) -> usize {
        let mut fallbacks = 0;
        let mut mismatches = Vec::new();
        let mut mismatch_count = 0usize;
        for chunk in args.chunks(64) {
            let mut xs = [0.0; 64];
            xs[..chunk.len()].copy_from_slice(chunk);
            let mut out = [0.0; 64];
            let fallback = kernel_cos(kernel, &xs, &mut out);
            fallbacks += (fallback & (u64::MAX >> (64 - chunk.len()))).count_ones() as usize;
            for (&x, &got) in chunk.iter().zip(&out) {
                let want = x.cos();
                if got.to_bits() != want.to_bits() && !(got.is_nan() && want.is_nan()) {
                    mismatch_count += 1;
                    if mismatches.len() < 8 {
                        mismatches.push(format!("cos({x:e}) = {want:e}, kernel {got:e}"));
                    }
                }
            }
        }
        assert!(
            mismatch_count == 0,
            "{context}: {mismatch_count} of {} arguments differ from f64::cos: {mismatches:#?}",
            args.len()
        );
        fallbacks
    }

    #[test]
    fn kernel_matches_glibc_on_random_arguments() {
        let Some(kernel) = VectorCosine::detect() else {
            eprintln!("no avx2+fma on this host: the scalar path is the only path");
            return;
        };
        for (range, seed) in [(3.0, 1u64), (2e3, 2), (2e4, 3), (1_048_576.0, 4)] {
            let mut rng = StreamRng::derive(seed, "cosine.random");
            let mut fallbacks = 0;
            let mut args = vec![0.0; 1 << 16];
            for _ in 0..RANDOM_PER_RANGE / args.len() {
                args.iter_mut().for_each(|x| *x = rng.uniform(-range, range));
                fallbacks += assert_matches_glibc(kernel, &args, &format!("±{range:e}"));
            }
            let share = fallbacks as f64 / RANDOM_PER_RANGE as f64;
            eprintln!("±{range:e}: fallback share {share:.4}");
            assert!(share < 0.1, "±{range:e}: fallback share {share}");
        }
    }

    #[test]
    fn kernel_matches_glibc_on_structured_arguments() {
        let Some(kernel) = VectorCosine::detect() else {
            eprintln!("no avx2+fma on this host: the scalar path is the only path");
            return;
        };
        let ulps_around = |x: f64, k: i64| {
            (-k..=k).map(move |d| f64::from_bits(x.to_bits().wrapping_add_signed(d)))
        };
        let mut args = Vec::new();
        // ±k ulps around multiples of π/4 (π/2 among them), small and large.
        for m in (1..=64).chain([255, 1_000, 4_095, 12_345, 65_536, 1_000_000, 1_335_088]) {
            let x = m as f64 * std::f64::consts::FRAC_PI_4;
            for sign in [1.0, -1.0] {
                args.extend(ulps_around(sign * x, 40));
            }
        }
        // Arguments whose cosine is near ±1, ±1/2 and ±1/4, on many periods:
        // results at and next to powers of two.
        for target in [1.0f64, -1.0, 0.5, -0.5, 0.25, -0.25] {
            let base = target.acos();
            for period in 0..200 {
                let x = base + period as f64 * std::f64::consts::TAU;
                args.extend(ulps_around(x, 20));
                args.extend(ulps_around(-x, 20));
            }
        }
        // The doubles nearest kπ/2 for small k, and their neighbours.
        for k in -400i32..=400 {
            args.extend(ulps_around(k as f64 * std::f64::consts::FRAC_PI_2, 3));
        }
        // Zeros, subnormals, tiny normals, the domain edge and beyond, and
        // non-finite input.
        let specials = [
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            1e-300,
            1e-9,
            2e-9,
            1_048_576.0,
            1_048_575.999_999_999_9,
            1_048_576.000_000_000_2,
            3e6,
            1e9,
            1.0e22,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        args.extend(specials.iter().flat_map(|&x| [x, -x]));
        args.extend(specials[..5].iter().flat_map(|&x| ulps_around(x, 4)));
        assert_matches_glibc(kernel, &args, "structured arguments");
    }

    /// A double-double `(high, low)` with |low| ≤ ½ ulp of high.
    pub(crate) type Dd = (f64, f64);

    fn two_sum(a: f64, b: f64) -> Dd {
        let s = a + b;
        let bb = s - a;
        (s, (a - (s - bb)) + (b - bb))
    }

    fn dd_add(a: Dd, b: Dd) -> Dd {
        let (s, e) = two_sum(a.0, b.0);
        two_sum(s, e + a.1 + b.1)
    }

    fn dd_mul(a: Dd, b: Dd) -> Dd {
        let p = a.0 * b.0;
        two_sum(p, a.0.mul_add(b.0, -p) + a.0 * b.1 + a.1 * b.0)
    }

    fn dd_div_f64(a: Dd, d: f64) -> Dd {
        let q = a.0 / d;
        // a.0 − q·d is exact in one FMA.
        two_sum(q, ((-q).mul_add(d, a.0) + a.1) / d)
    }

    /// cos x from a scalar double-double evaluation independent of the
    /// kernel's: a four-part π/2 and all-double-double Horner over Taylor
    /// series twelve terms long, accurate to about 2⁻¹⁰⁰ relative for
    /// 10⁻⁹ ≤ |r| ≤ π/4 + 10⁻⁹.
    pub(crate) struct Reference {
        /// (−1)ᵏ/(2k)! and (−1)ᵏ/(2k+1)! for k = 0..12.
        cos: Vec<Dd>,
        sin: Vec<Dd>,
    }

    impl Reference {
        pub(crate) fn new() -> Self {
            let (mut cos, mut sin) = (vec![(1.0, 0.0)], vec![(1.0, 0.0)]);
            for k in 1..12 {
                let (c, s) = (cos[k - 1], sin[k - 1]);
                cos.push(dd_div_f64((-c.0, -c.1), ((2 * k - 1) * (2 * k)) as f64));
                sin.push(dd_div_f64((-s.0, -s.1), ((2 * k) * (2 * k + 1)) as f64));
            }
            Reference { cos, sin }
        }

        /// cos x, and |r| for the remainder r = x − n·π/2.
        fn cos(&self, x: f64) -> (Dd, f64) {
            let (cos, _, remainder) = self.sincos(x);
            (cos, remainder)
        }

        /// cos x, sin x, and |r| for the remainder r = x − n·π/2.
        pub(crate) fn sincos(&self, x: f64) -> (Dd, Dd, f64) {
            const PIO2: [f64; 4] = [
                f64::from_bits(0x3ff9_21fb_5444_2d18),
                f64::from_bits(0x3c91_a626_3314_5c07),
                f64::from_bits(0xb91f_1976_b7ed_8fbc),
                5.562_271_104_316_826e-50,
            ];
            let n = (x * std::f64::consts::FRAC_2_PI).round();
            let r = PIO2.iter().fold((x, 0.0), |r, &c| {
                let p = n * c;
                dd_add(r, (-p, -n.mul_add(c, -p)))
            });
            let z = dd_mul(r, r);
            let horner =
                |c: &[Dd]| c.iter().rev().fold((0.0, 0.0), |acc, &c| dd_add(dd_mul(acc, z), c));
            let (cos_r, sin_r) = (horner(&self.cos), dd_mul(r, horner(&self.sin)));
            let negate = |(h, l): Dd| (-h, -l);
            let (cos, sin) = match (n as i64).rem_euclid(4) {
                0 => (cos_r, sin_r),
                1 => (negate(sin_r), cos_r),
                2 => (negate(cos_r), negate(sin_r)),
                _ => (sin_r, negate(cos_r)),
            };
            (cos, sin, r.0.abs())
        }
    }

    #[test]
    fn kernel_keeps_exactly_the_lanes_its_error_bound_allows() {
        // The fallback mask is the kernel's own midpoint test. Where the
        // reference puts cos x more than KERNEL_ERROR_ULP beyond the band's
        // edge, the kernel must have decided the same way; a kernel less
        // accurate than its written bound flips lanes here even where the
        // extra error stays too small to change a rounded result.
        let Some(kernel) = VectorCosine::detect() else {
            eprintln!("no avx2+fma on this host: the scalar path is the only path");
            return;
        };
        let reference = Reference::new();
        let tolerance = KERNEL_ERROR_ULP + 1e-4;
        let (mut checked, mut wrong) = (0usize, Vec::new());
        let mut rng = StreamRng::derive(5, "cosine.band");
        for range in [3.0, 2e4] {
            for _ in 0..RANDOM_PER_RANGE / 10 / 64 {
                let xs: [f64; 64] = std::array::from_fn(|_| rng.uniform(-range, range));
                let mut out = [0.0; 64];
                let fallback = kernel_cos(kernel, &xs, &mut out);
                for (i, &x) in xs.iter().enumerate() {
                    let ((yh, yl), remainder) = reference.cos(x);
                    let (s, residual) = two_sum(yh, yl);
                    let ulp = f64::from_bits(s.to_bits() & 0x7ff0_0000_0000_0000)
                        / 4_503_599_627_370_496.0;
                    if remainder < 1e-9 || s.to_bits() & 0x000f_ffff_ffff_ffff == 0 {
                        continue;
                    }
                    let from_midpoint = 0.5 - residual.abs() / ulp;
                    let kept = fallback & (1 << i) == 0;
                    checked += 1;
                    // A kept lane is the correctly rounded cosine.
                    assert!(
                        !kept || out[i] == s,
                        "x = {x:e}: kernel {:e}, reference {s:e}",
                        out[i]
                    );
                    if (kept && from_midpoint < BAND_ULP - tolerance)
                        || (!kept && from_midpoint > BAND_ULP + tolerance)
                    {
                        wrong.push(format!(
                            "x = {x:e}: {from_midpoint:.4} ulp from a midpoint, kept {kept}"
                        ));
                    }
                }
            }
        }
        assert!(checked > RANDOM_PER_RANGE / 10, "only {checked} lanes checked");
        assert!(
            wrong.is_empty(),
            "{} of {checked} lanes decided against the bound: {:#?}",
            wrong.len(),
            &wrong[..wrong.len().min(8)]
        );
    }
}
