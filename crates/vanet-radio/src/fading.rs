//! Per-frame fast fading.
//!
//! Shadowing is not sampled per frame: [`crate::RadioChannel`] reads it
//! from a deterministic, spatially correlated field, a pure function of the
//! (tx, rx) positions (see [`crate::channel`]). What stays random per frame
//! is multipath fast fading, an extra gain in dB (negative values are
//! fades) drawn independently for every frame.
//!
//! [`FadingKind`] is the configuration. A channel resolves it once, at
//! construction, into the constants its per-frame draw needs, so sampling a
//! frame costs only the draw itself.

use serde::{Deserialize, Serialize};
use sim_core::rng::{exponential_of, standard_normal_of};
use sim_core::StreamRng;

use crate::bounds::{rayleigh_gain_bounds, rician_gain_bounds};

/// Selects the per-frame fast-fading model of a channel configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum FadingKind {
    /// No fast fading (deterministic channel apart from shadowing).
    None,
    /// Rayleigh fading — rich scattering, no line-of-sight component: the
    /// power gain is exponentially distributed with unit mean.
    #[default]
    Rayleigh,
    /// Rician fading — a line-of-sight component of `k_db` dB over the
    /// scattered power. The larger `K`, the shallower the fades; a
    /// street-canyon link with the AP in view is typically K ≈ 4–8 dB,
    /// which is what keeps mid-coverage losses in the paper's testbed at the
    /// 20–30 % level rather than the 50 %+ a pure Rayleigh channel would
    /// produce.
    Rician {
        /// The K factor in dB (ratio of line-of-sight to scattered power).
        k_db: f64,
    },
}

impl FadingKind {
    /// Resolves the model's constants once, for every frame a channel will
    /// sample.
    pub(crate) fn resolve(self) -> ResolvedFading {
        match self {
            FadingKind::None => ResolvedFading::None,
            FadingKind::Rayleigh => ResolvedFading::Rayleigh,
            FadingKind::Rician { k_db } => {
                // Complex gain = LOS component + scattered component,
                // normalised so that the mean power is 1:
                // E[|h|^2] = K/(K+1) + 2σ² = K/(K+1) + 1/(K+1) = 1.
                let k = 10f64.powf(k_db / 10.0);
                ResolvedFading::Rician {
                    los: (k / (k + 1.0)).sqrt(),
                    sigma: (1.0 / (2.0 * (k + 1.0))).sqrt(),
                }
            }
        }
    }
}

/// A [`FadingKind`] with its constants resolved: Rician `K` becomes the
/// line-of-sight amplitude √(K/(K+1)) and the per-component scatter
/// σ = √(1/(2(K+1))).
#[derive(Debug, Clone, Copy)]
pub(crate) enum ResolvedFading {
    None,
    Rayleigh,
    Rician { los: f64, sigma: f64 },
}

/// The smallest `u` the RNG's transforms take a logarithm of: they draw
/// `u = 1 − U` with `U` a multiple of 2⁻⁵³ below 1, so `u ≥ 2⁻⁵³`.
const SMALLEST_U: f64 = 1.0 / (1u64 << 53) as f64;

/// What [`ResolvedFading::ceiling_db`] adds to the gain of the extreme
/// draws. The chain from the draws to the gain (`ln`, `sqrt`, `cos`, the
/// products, the sum of squares and `log10`) rounds a few times, each
/// within an ulp, which moves the gain by about 10⁻¹⁴ dB; the margin is
/// 10⁸ times that.
const CEILING_MARGIN_DB: f64 = 1e-6;

impl ResolvedFading {
    /// Draws the words one frame's fading consumes, [`ResolvedFading::uniforms`]
    /// of them in order; the rest of the array stays 0.
    #[inline]
    pub(crate) fn draw(self, rng: &mut StreamRng) -> [u64; 4] {
        let mut words = [0; 4];
        for word in &mut words[..self.uniforms()] {
            *word = rng.word();
        }
        words
    }

    /// One frame's fading gain in dB from its words: Rayleigh takes one
    /// exponential variate, Rician two standard normals (real part first,
    /// two words each); no fading takes nothing.
    #[inline]
    pub(crate) fn gain_db(self, words: &[u64; 4]) -> f64 {
        match self {
            ResolvedFading::None => 0.0,
            ResolvedFading::Rayleigh => rayleigh_db(exponential_of(words[0], 1.0)),
            ResolvedFading::Rician { los, sigma } => {
                let re = standard_normal_of(words[0], words[1]);
                let im = standard_normal_of(words[2], words[3]);
                rician_db(los, sigma, re, im)
            }
        }
    }

    /// Bounds of [`ResolvedFading::gain_db`] from table lookups alone (see
    /// `crate::bounds`): `lo ≤ gain_db(words) ≤ hi`, or `None` where a power
    /// falls outside the tables. No finite K reaches that: a Rician power
    /// stays below 74 and an exponential below 37.
    #[inline]
    pub(crate) fn gain_bounds_db(self, words: &[u64; 4]) -> Option<(f64, f64)> {
        match self {
            ResolvedFading::None => Some((0.0, 0.0)),
            ResolvedFading::Rayleigh => rayleigh_gain_bounds(words[0]),
            ResolvedFading::Rician { los, sigma } => rician_gain_bounds(los, sigma, words),
        }
    }

    /// Samples one frame's fading gain in dB: its words drawn, then
    /// evaluated.
    #[cfg(test)]
    pub(crate) fn sample_db(self, rng: &mut StreamRng) -> f64 {
        self.gain_db(&self.draw(rng))
    }

    /// The uniforms one frame's fading consumes ([`ResolvedFading::draw`]):
    /// two per standard normal, one per exponential.
    pub(crate) fn uniforms(self) -> usize {
        match self {
            ResolvedFading::None => 0,
            ResolvedFading::Rayleigh => 1,
            ResolvedFading::Rician { .. } => 4,
        }
    }

    /// An upper bound of every gain (dB) [`ResolvedFading::gain_db`] can
    /// return, within [`CEILING_MARGIN_DB`] of the largest.
    ///
    /// Both transforms take the logarithm of a `u ≥ 2⁻⁵³`
    /// ([`SMALLEST_U`]). An exponential is therefore at most
    /// `−ln 2⁻⁵³ = 53 ln 2 ≈ 36.74` (15.65 dB for Rayleigh), and a
    /// Box–Muller normal at most `√(−2 ln 2⁻⁵³) ≈ 8.57` in magnitude, its
    /// cosine being at most 1. The Rician power `(los + σ·n₁)² + (σ·n₂)²`
    /// grows with `|n₂|` and, since `los > 0`, is largest at `n₁ = +8.57`:
    /// 13.10 dB at K = 6 dB. No fading is exactly 0 dB.
    pub(crate) fn ceiling_db(self) -> f64 {
        match self {
            ResolvedFading::None => 0.0,
            ResolvedFading::Rayleigh => rayleigh_db(-SMALLEST_U.ln()) + CEILING_MARGIN_DB,
            ResolvedFading::Rician { los, sigma } => {
                let largest = (-2.0 * SMALLEST_U.ln()).sqrt();
                rician_db(los, sigma, largest, largest) + CEILING_MARGIN_DB
            }
        }
    }
}

/// The Rayleigh gain (dB) of an exponential power draw.
fn rayleigh_db(power: f64) -> f64 {
    10.0 * power.max(1e-6).log10()
}

/// The Rician gain (dB) of two standard normal draws, real part first.
fn rician_db(los: f64, sigma: f64, normal_re: f64, normal_im: f64) -> f64 {
    let re = los + sigma * normal_re;
    let im = sigma * normal_im;
    10.0 * (re * re + im * im).max(1e-9).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    const RAYLEIGH: ResolvedFading = ResolvedFading::Rayleigh;

    fn rician(k_db: f64) -> ResolvedFading {
        FadingKind::Rician { k_db }.resolve()
    }

    fn mean_power(fading: ResolvedFading, n: usize, rng: &mut StreamRng) -> f64 {
        (0..n).map(|_| 10f64.powf(fading.sample_db(rng) / 10.0)).sum::<f64>() / n as f64
    }

    #[test]
    fn no_fading_is_zero_and_draws_nothing() {
        let mut rng = StreamRng::derive(1, "nf");
        let mut untouched = rng.clone();
        assert_eq!(FadingKind::None.resolve().sample_db(&mut rng), 0.0);
        assert_eq!(rng.standard_normal().to_bits(), untouched.standard_normal().to_bits());
    }

    #[test]
    fn rayleigh_mean_power_is_about_unity() {
        let mut rng = StreamRng::derive(2, "ray");
        let n = 20_000;
        let mean = mean_power(RAYLEIGH, n, &mut rng);
        assert!((mean - 1.0).abs() < 0.05, "mean power {mean}");
        // Deep fades must exist.
        let deep = (0..n).filter(|_| RAYLEIGH.sample_db(&mut rng) < -10.0).count();
        assert!(deep > 0);
    }

    #[test]
    fn rician_mean_power_is_unity_and_fades_are_shallower_than_rayleigh() {
        let mut rng = StreamRng::derive(12, "rice");
        let rice = rician(6.0);
        let n = 20_000;
        let mean = mean_power(rice, n, &mut rng);
        assert!((mean - 1.0).abs() < 0.05, "mean power {mean}");
        let deep_rice = (0..n).filter(|_| rice.sample_db(&mut rng) < -10.0).count();
        let deep_rayleigh = (0..n).filter(|_| RAYLEIGH.sample_db(&mut rng) < -10.0).count();
        assert!(
            deep_rice * 4 < deep_rayleigh,
            "Rician K=6 dB must fade far less often ({deep_rice} vs {deep_rayleigh})"
        );
    }

    #[test]
    fn higher_k_means_shallower_fades() {
        let mut rng = StreamRng::derive(13, "rice-k");
        let n = 10_000;
        let deep = |k_db: f64, rng: &mut StreamRng| {
            let model = rician(k_db);
            (0..n).filter(|_| model.sample_db(rng) < -6.0).count()
        };
        let low_k = deep(0.0, &mut rng);
        let high_k = deep(10.0, &mut rng);
        assert!(high_k < low_k, "K=10 dB ({high_k}) must fade less than K=0 dB ({low_k})");
    }

    /// The gains of the extreme draws, evaluated as `sample_db` would:
    /// `u = 2⁻⁵³` with the Box–Muller cosine at ±1.
    fn extreme_gains(fading: ResolvedFading) -> Vec<f64> {
        let u = 1.0 / (1u64 << 53) as f64;
        match fading {
            ResolvedFading::None => vec![0.0],
            ResolvedFading::Rayleigh => vec![10.0 * (-u.ln() / 1.0).max(1e-6).log10()],
            ResolvedFading::Rician { los, sigma } => {
                let radius = (-2.0 * u.ln()).sqrt();
                let mut gains = Vec::new();
                for cos_re in [1.0, -1.0] {
                    for cos_im in [1.0, -1.0] {
                        let re = los + sigma * (radius * cos_re);
                        let im = sigma * (radius * cos_im);
                        gains.push(10.0 * (re * re + im * im).max(1e-9).log10());
                    }
                }
                gains
            }
        }
    }

    #[test]
    fn ceilings_bound_the_extreme_draws_within_a_twentieth_of_a_db() {
        let shipped = [
            (FadingKind::None, 0.0),
            (FadingKind::Rayleigh, 15.65),
            (FadingKind::Rician { k_db: 6.0 }, 13.10),
        ];
        for (kind, rounded) in shipped {
            let fading = kind.resolve();
            let ceiling = fading.ceiling_db();
            let extreme = extreme_gains(fading).into_iter().fold(f64::NEG_INFINITY, f64::max);
            assert!(extreme <= ceiling, "{kind:?}: extreme {extreme} above ceiling {ceiling}");
            assert!(ceiling - extreme < 0.05, "{kind:?}: ceiling {ceiling}, extreme {extreme}");
            assert!((ceiling - rounded).abs() < 0.005, "{kind:?}: ceiling {ceiling}");
        }
        for k_db in [-3.0, 0.0, 4.0, 10.0, 25.0] {
            let fading = rician(k_db);
            let ceiling = fading.ceiling_db();
            for extreme in extreme_gains(fading) {
                assert!(extreme <= ceiling, "K = {k_db} dB: {extreme} above {ceiling}");
            }
        }
    }

    #[test]
    fn sampled_gains_stay_below_the_ceiling_and_draw_the_counted_uniforms() {
        for fading in [ResolvedFading::None, RAYLEIGH, rician(6.0), rician(0.0)] {
            let ceiling = fading.ceiling_db();
            let mut rng = StreamRng::derive(15, "ceiling");
            let mut skipped = rng.clone();
            for _ in 0..20_000 {
                let gain = fading.sample_db(&mut rng);
                assert!(gain <= ceiling, "{fading:?}: {gain} above {ceiling}");
                skipped.skip(fading.uniforms());
            }
            assert_eq!(rng.standard_normal().to_bits(), skipped.standard_normal().to_bits());
        }
    }

    #[test]
    fn resolved_rician_draws_exactly_what_per_frame_constants_drew() {
        // The per-frame form the resolution replaced: K and both amplitudes
        // derived again for every frame. Same stream, same bits.
        let per_frame = |k_db: f64, rng: &mut StreamRng| {
            let k = 10f64.powf(k_db / 10.0);
            let los = (k / (k + 1.0)).sqrt();
            let sigma = (1.0 / (2.0 * (k + 1.0))).sqrt();
            let re = los + sigma * rng.standard_normal();
            let im = sigma * rng.standard_normal();
            10.0 * (re * re + im * im).max(1e-9).log10()
        };
        for k_db in [-3.0, 0.0, 4.0, 6.0, 10.0, 25.0] {
            let resolved = rician(k_db);
            let mut a = StreamRng::derive(14, "rice-exact");
            let mut b = StreamRng::derive(14, "rice-exact");
            for _ in 0..2_000 {
                assert_eq!(resolved.sample_db(&mut a).to_bits(), per_frame(k_db, &mut b).to_bits());
            }
        }
    }
}
