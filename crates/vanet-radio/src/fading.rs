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
use sim_core::StreamRng;

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

impl ResolvedFading {
    /// Samples one frame's fading gain in dB. Rayleigh draws one
    /// exponential variate, Rician two standard normals (real part first);
    /// no fading draws nothing.
    pub(crate) fn sample_db(self, rng: &mut StreamRng) -> f64 {
        match self {
            ResolvedFading::None => 0.0,
            ResolvedFading::Rayleigh => 10.0 * rng.exponential(1.0).max(1e-6).log10(),
            ResolvedFading::Rician { los, sigma } => {
                let re = los + sigma * rng.standard_normal();
                let im = sigma * rng.standard_normal();
                10.0 * (re * re + im * im).max(1e-9).log10()
            }
        }
    }
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
