//! The composite radio channel: path loss + shadowing + fading + noise →
//! per-frame reception verdicts.
//!
//! Two channel implementations are provided:
//!
//! * [`RadioChannel`] — the physical model. Combines a [`PathLossModel`],
//!   a spatially correlated shadowing field, per-frame fast fading and a
//!   thermal-noise floor, then maps the resulting SNR through the
//!   [`crate::per`] curves. This is the model used to reproduce the paper's
//!   urban testbed.
//! * [`EmpiricalProfile`] — a distance-binned reception-probability table,
//!   in the spirit of the drive-thru-Internet measurements the paper cites
//!   as reference \[1\]. Useful for calibrating against published loss
//!   percentages and as a fast baseline channel.

use serde::{Deserialize, Serialize};
use sim_core::StreamRng;
use vanet_geo::Point;

use crate::cosine::VectorCosine;
use crate::datarate::DataRate;
use crate::fading::{FadingKind, ResolvedFading};
use crate::obstacles::ObstacleMap;
use crate::pathloss::{LogDistance, PathLossModel};
use crate::per::{is_certain_loss, packet_error_rate};
use sim_core::rng::chance_of;

/// The deterministic part of a link: received power and SNR before any
/// random shadowing or fading is applied.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkBudget {
    /// Distance between transmitter and receiver in metres.
    pub distance_m: f64,
    /// Path loss in dB.
    pub path_loss_db: f64,
    /// Median received power in dBm.
    pub rx_power_dbm: f64,
    /// Median SNR in dB.
    pub snr_db: f64,
}

/// The full deterministic part of a link: the median [`LinkBudget`] plus the
/// (deterministic, spatially correlated) shadowing realisation at this
/// (tx, rx) pair. Positions only change at mobility ticks, so callers that
/// sample many frames between ticks can compute this once per pair and reuse
/// it via [`RadioChannel::sample_from_state`] — only the fast-fading draw and
/// the reception Bernoulli stay per-frame, which keeps RNG consumption and
/// results bit-identical to calling
/// [`ChannelModel::sample_reception`] every time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkState {
    /// The median link budget (path loss, obstacles, noise).
    pub budget: LinkBudget,
    /// The shadowing realisation (dB) at this position pair.
    pub shadowing_db: f64,
}

/// The outcome of sampling one frame transmission over a channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReceptionVerdict {
    /// Whether the frame was received.
    pub received: bool,
    /// The probability of success that was sampled against (after the random
    /// shadowing/fading realisation, before the final Bernoulli draw).
    pub success_probability: f64,
    /// Realised SNR in dB, including shadowing and fading.
    pub snr_db: f64,
}

/// The RNG words one verdict consumes, in the order
/// [`RadioChannel::sample_from_state`] draws them: the fading's (four for
/// Rician, two per Box–Muller normal, real part first; one for Rayleigh;
/// none without fading; unused ones 0), then the reception Bernoulli's.
/// [`RadioChannel::draw`] draws them; [`RadioChannel::decide`] and
/// [`RadioChannel::verdict_from`] evaluate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerdictDraws {
    /// The fading's words.
    pub fading: [u64; 4],
    /// The reception Bernoulli's word.
    pub reception: u64,
}

/// A packet-level wireless channel model.
pub trait ChannelModel: std::fmt::Debug {
    /// The deterministic link budget between two positions.
    fn link_budget(&self, tx: Point, rx: Point) -> LinkBudget;

    /// Samples whether a single frame of `bits` bits sent at `rate` from `tx`
    /// to `rx` is received.
    fn sample_reception(
        &self,
        tx: Point,
        rx: Point,
        bits: u64,
        rate: DataRate,
        rng: &mut StreamRng,
    ) -> ReceptionVerdict;

    /// The distance (m) beyond which the median SNR falls below `snr_db`.
    /// Used by the MAC layer to prune hopeless links and by scenario code to
    /// size coverage areas. The default implementation bisects
    /// [`ChannelModel::link_budget`].
    fn range_for_snr(&self, snr_db: f64) -> f64 {
        let probe = |d: f64| self.link_budget(Point::ORIGIN, Point::new(d, 0.0)).snr_db;
        let mut lo = 1.0;
        let mut hi = 10_000.0;
        if probe(hi) > snr_db {
            return hi;
        }
        if probe(lo) < snr_db {
            return lo;
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if probe(mid) > snr_db {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// Configuration of the physical [`RadioChannel`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RadioConfig {
    /// Transmit power in dBm.
    pub tx_power_dbm: f64,
    /// Combined antenna gains (tx + rx) in dBi.
    pub antenna_gain_db: f64,
    /// Thermal-noise floor (including receiver noise figure) in dBm.
    pub noise_floor_dbm: f64,
    /// Log-distance path loss parameters.
    pub path_loss: LogDistance,
    /// Standard deviation of the log-normal shadowing field in dB
    /// (0 disables shadowing).
    pub shadowing_sigma_db: f64,
    /// Decorrelation distance of the shadowing field in metres.
    pub shadowing_decorrelation_m: f64,
    /// The per-frame fast-fading model.
    pub fading: FadingKind,
    /// Seed of the (deterministic) spatial shadowing field.
    pub shadowing_seed: u64,
    /// Building footprints adding non-line-of-sight blockage loss.
    #[serde(default)]
    pub obstacles: ObstacleMap,
}

impl RadioConfig {
    /// The AP→vehicle channel of the urban testbed: 2.4 GHz, office-window
    /// antenna (12 dB penetration + cabling loss folded into the path loss),
    /// street-canyon path loss, σ = 4 dB shadowing and Rician fast fading.
    /// Calibrated so that the coverage window and loss rates match the
    /// paper's Table 1 (see "Table 1" in `docs/REPRODUCING.md`).
    pub fn urban_2_4ghz() -> Self {
        RadioConfig {
            tx_power_dbm: 14.0,
            antenna_gain_db: 0.0,
            noise_floor_dbm: -95.0,
            path_loss: LogDistance {
                reference_m: 1.0,
                reference_loss_db: 40.0,
                exponent: 3.4,
                extra_loss_db: 10.0,
            },
            shadowing_sigma_db: 4.0,
            shadowing_decorrelation_m: 25.0,
            fading: FadingKind::Rician { k_db: 6.0 },
            shadowing_seed: 0x5eed,
            obstacles: ObstacleMap::new(),
        }
    }

    /// The vehicle↔vehicle channel of the urban testbed: same street canyon
    /// but no building penetration and antennas at the same height, so the
    /// platoon's short links (tens of metres) are reliable.
    pub fn urban_vehicle_to_vehicle() -> Self {
        RadioConfig {
            tx_power_dbm: 15.0,
            antenna_gain_db: 0.0,
            noise_floor_dbm: -95.0,
            path_loss: LogDistance {
                reference_m: 1.0,
                reference_loss_db: 40.0,
                exponent: 2.9,
                extra_loss_db: 0.0,
            },
            shadowing_sigma_db: 4.0,
            shadowing_decorrelation_m: 15.0,
            fading: FadingKind::Rician { k_db: 6.0 },
            shadowing_seed: 0xcafe,
            obstacles: ObstacleMap::new(),
        }
    }

    /// A highway drive-thru channel (reference \[1\] of the paper): open
    /// surroundings, higher speeds, roadside AP mast. Calibrated so that a
    /// passing car sees a usable cell of a few hundred metres, as the
    /// drive-thru-Internet measurements report.
    pub fn highway_2_4ghz() -> Self {
        RadioConfig {
            tx_power_dbm: 15.0,
            antenna_gain_db: 2.0,
            noise_floor_dbm: -95.0,
            path_loss: LogDistance {
                reference_m: 1.0,
                reference_loss_db: 40.0,
                exponent: 2.8,
                extra_loss_db: 0.0,
            },
            shadowing_sigma_db: 4.0,
            shadowing_decorrelation_m: 50.0,
            fading: FadingKind::Rayleigh,
            shadowing_seed: 0xbeef,
            obstacles: ObstacleMap::new(),
        }
    }

    /// An idealised loss-free channel (useful in unit tests).
    pub fn ideal() -> Self {
        RadioConfig {
            tx_power_dbm: 30.0,
            antenna_gain_db: 0.0,
            noise_floor_dbm: -95.0,
            path_loss: LogDistance {
                reference_m: 1.0,
                reference_loss_db: 30.0,
                exponent: 2.0,
                extra_loss_db: 0.0,
            },
            shadowing_sigma_db: 0.0,
            shadowing_decorrelation_m: 10.0,
            fading: FadingKind::None,
            shadowing_seed: 0,
            obstacles: ObstacleMap::new(),
        }
    }

    /// Overrides the transmit power.
    pub fn with_tx_power_dbm(mut self, dbm: f64) -> Self {
        self.tx_power_dbm = dbm;
        self
    }

    /// Overrides the shadowing seed (used to vary rounds independently).
    pub fn with_shadowing_seed(mut self, seed: u64) -> Self {
        self.shadowing_seed = seed;
        self
    }

    /// Disables fast fading.
    pub fn without_fast_fading(mut self) -> Self {
        self.fading = FadingKind::None;
        self
    }

    /// Overrides the fast-fading model.
    pub fn with_fading(mut self, fading: FadingKind) -> Self {
        self.fading = fading;
        self
    }

    /// Adds building footprints whose penetration loss is applied to links
    /// that cross them.
    pub fn with_obstacles(mut self, obstacles: ObstacleMap) -> Self {
        self.obstacles = obstacles;
        self
    }
}

/// The number of plane waves in the shadowing field.
const WAVES: usize = 24;

/// A deterministic, spatially correlated Gaussian field used for shadowing.
///
/// The field is a sum of [`WAVES`] cosine plane waves with random directions
/// and phases; by the central limit theorem the marginal distribution is
/// close to Gaussian with unit variance, and the correlation length is set by
/// the wavelength of the waves. Because the field is a pure function of
/// position it needs no mutable state: the same (tx, rx) pair always sees the
/// same shadowing value, which is exactly how real shadowing behaves on the
/// timescale of one experiment round.
#[derive(Debug, Clone)]
struct SpatialField {
    kx: [f64; WAVES],
    ky: [f64; WAVES],
    phase: [f64; WAVES],
    amplitude: f64,
    /// The vector cosine kernel, where this host runs it.
    vector: Option<VectorCosine>,
}

impl SpatialField {
    fn new(seed: u64, correlation_m: f64) -> Self {
        let mut rng = StreamRng::derive(seed, "radio.shadowing-field");
        let k_mag = std::f64::consts::TAU / correlation_m.max(1e-3);
        let (mut kx, mut ky, mut phase) = ([0.0; WAVES], [0.0; WAVES], [0.0; WAVES]);
        for i in 0..WAVES {
            let theta = rng.uniform(0.0, std::f64::consts::TAU);
            phase[i] = rng.uniform(0.0, std::f64::consts::TAU);
            // Spread wave numbers around k_mag for a smoother spectrum.
            let k = k_mag * rng.uniform(0.5, 1.5);
            kx[i] = k * theta.cos();
            ky[i] = k * theta.sin();
        }
        // Sum of `WAVES` unit cosines has variance WAVES/2; normalise to 1.
        let amplitude = (2.0 / WAVES as f64).sqrt();
        SpatialField { kx, ky, phase, amplitude, vector: VectorCosine::detect() }
    }

    /// Field value (unit variance, zero mean) at `p`: the same bits whether
    /// the vector kernel or the scalar expression evaluates the waves.
    fn value_at(&self, p: Point) -> f64 {
        let Some(kernel) = self.vector else {
            return self.scalar_value_at(p);
        };
        let mut cosines = [0.0; WAVES];
        kernel.wave_cosines(&self.kx, &self.ky, &self.phase, p, &mut cosines);
        self.amplitude * cosines.into_iter().sum::<f64>()
    }

    /// The largest magnitude [`SpatialField::value_at`] can return:
    /// `amplitude · 24`. Each cosine is at most 1 in magnitude, so every
    /// partial sum of the waves is at most its (exactly representable)
    /// count of terms, which rounding cannot pass; rounding the product by
    /// the amplitude is monotone.
    fn ceiling(&self) -> f64 {
        self.amplitude * WAVES as f64
    }

    /// [`SpatialField::value_at`] with one `f64::cos` per wave: the path of
    /// hosts without the vector kernel, and the tests' oracle.
    fn scalar_value_at(&self, p: Point) -> f64 {
        self.amplitude
            * self
                .kx
                .iter()
                .zip(&self.ky)
                .zip(&self.phase)
                .map(|((kx, ky), phase)| (kx * p.x + ky * p.y + phase).cos())
                .sum::<f64>()
    }
}

/// The physical packet-level channel model.
#[derive(Debug, Clone)]
pub struct RadioChannel {
    config: RadioConfig,
    field: SpatialField,
    /// `config.fading` with its constants resolved at construction.
    fading: ResolvedFading,
    /// [`RadioChannel::shadowing_ceiling_db`], resolved at construction.
    shadowing_ceiling_db: f64,
    /// [`RadioChannel::fading_ceiling_db`], resolved at construction.
    fading_ceiling_db: f64,
}

impl RadioChannel {
    /// Creates a channel from its configuration.
    pub fn new(config: RadioConfig) -> Self {
        let field = SpatialField::new(config.shadowing_seed, config.shadowing_decorrelation_m);
        let fading = config.fading.resolve();
        let sigma = config.shadowing_sigma_db;
        // `shadowing_db` multiplies the field's value by σ, and rounding that
        // product is monotone too.
        let shadowing_ceiling_db = if sigma <= 0.0 { 0.0 } else { sigma * field.ceiling() };
        let fading_ceiling_db = fading.ceiling_db();
        RadioChannel { config, field, fading, shadowing_ceiling_db, fading_ceiling_db }
    }

    /// The configuration this channel was built from.
    pub fn config(&self) -> &RadioConfig {
        &self.config
    }

    /// The largest shadowing (dB) the field can add to any link:
    /// σ · amplitude · 24, 27.71 dB at σ = 4 dB (0 without shadowing). No
    /// [`LinkState::shadowing_db`] exceeds it.
    #[inline]
    pub fn shadowing_ceiling_db(&self) -> f64 {
        self.shadowing_ceiling_db
    }

    /// An upper bound of every fast-fading gain (dB) a frame can draw, within
    /// 10⁻⁶ dB of the largest: the draws at their extremes (the smallest
    /// uniform a transform takes the logarithm of, 2⁻⁵³, and a Box–Muller
    /// cosine of ±1). 13.10 dB for Rician K = 6 dB, 15.65 dB for Rayleigh,
    /// 0 without fading.
    #[inline]
    pub fn fading_ceiling_db(&self) -> f64 {
        self.fading_ceiling_db
    }

    /// The certain-loss rule for a frame of `bits` bits at `rate` over a
    /// link whose SNR before fading (the budget's SNR plus the shadowing,
    /// summed in that order) is at most `snr_db`. Returns the ceiling
    /// `snr_db + fading_ceiling_db()` when it is a certain loss
    /// ([`is_certain_loss`]), `None` otherwise.
    ///
    /// Rounding is monotone, so every SNR [`RadioChannel::sample_from_state`]
    /// can realise over such a link is at most the ceiling. Then the PER is
    /// exactly 1.0, the success probability exactly 0.0, and the frame is
    /// lost whatever the RNG draws: [`RadioChannel::skip_sample`] may stand
    /// in for the sample. Passing `budget.snr_db + shadowing_ceiling_db()`
    /// settles a link before its shadowing is evaluated.
    #[inline]
    pub fn certain_loss_ceiling(&self, snr_db: f64, bits: u64, rate: DataRate) -> Option<f64> {
        let ceiling = snr_db + self.fading_ceiling_db;
        is_certain_loss(ceiling, bits, rate).then_some(ceiling)
    }

    /// Advances `rng` past exactly the draws
    /// [`RadioChannel::sample_from_state`] makes (the fading's uniforms:
    /// 4 for Rician, 1 for Rayleigh, 0 without fading; then the reception
    /// Bernoulli) without evaluating them: the sample of a certain loss,
    /// whose outcome is known.
    #[inline]
    pub fn skip_sample(&self, rng: &mut StreamRng) {
        rng.skip(self.fading.uniforms() + 1);
    }

    /// The shadowing realisation (dB) at the (tx, rx) position pair: the
    /// [`LinkState::shadowing_db`] of [`RadioChannel::link_state`], for
    /// callers that evaluate it only when they need it.
    pub fn shadowing_db(&self, tx: Point, rx: Point) -> f64 {
        if self.config.shadowing_sigma_db <= 0.0 {
            return 0.0;
        }
        // Evaluate the field at the receiver, displaced by a transmitter-
        // dependent offset so that different transmitters see different (but
        // individually coherent) shadowing landscapes.
        let probe = Point::new(rx.x + 0.37 * tx.x - 0.21 * tx.y, rx.y + 0.29 * tx.y + 0.17 * tx.x);
        self.config.shadowing_sigma_db * self.field.value_at(probe)
    }

    /// Computes the deterministic part of the link from `tx` to `rx` —
    /// everything [`ChannelModel::sample_reception`] derives from positions
    /// alone. Cacheable while neither endpoint moves.
    pub fn link_state(&self, tx: Point, rx: Point) -> LinkState {
        LinkState { budget: self.link_budget(tx, rx), shadowing_db: self.shadowing_db(tx, rx) }
    }

    /// Samples one frame over a precomputed [`LinkState`]. Draws exactly the
    /// random variates [`ChannelModel::sample_reception`] would (fast fading,
    /// then the reception Bernoulli), in the same order, so interleaving
    /// cached and uncached sampling on one RNG stream is bit-identical.
    /// [`RadioChannel::skip_sample`] and [`RadioChannel::draw`] make the
    /// same draws; this is [`RadioChannel::verdict_from`] on the latter's.
    pub fn sample_from_state(
        &self,
        state: &LinkState,
        bits: u64,
        rate: DataRate,
        rng: &mut StreamRng,
    ) -> ReceptionVerdict {
        let draws = self.draw(rng);
        self.verdict_from(state.budget.snr_db + state.shadowing_db, bits, rate, &draws)
    }

    /// Draws the words one verdict consumes ([`VerdictDraws`]): exactly the
    /// draws [`RadioChannel::sample_from_state`] makes, in its order.
    #[inline]
    pub fn draw(&self, rng: &mut StreamRng) -> VerdictDraws {
        let fading = self.fading.draw(rng);
        VerdictDraws { fading, reception: rng.word() }
    }

    /// The realised SNR (dB) of a frame over a link whose SNR before fading
    /// (the budget's SNR plus the shadowing, summed in that order) is
    /// `before_fading_db`, with fading words `fading`:
    /// fl(before + fading gain), glibc's `ln`, `cos`, `sqrt` and `log10`
    /// evaluated. [`RadioChannel::verdict_from`] realises the same bits.
    #[inline]
    pub fn realised_snr_db(&self, before_fading_db: f64, fading: &[u64; 4]) -> f64 {
        before_fading_db + self.fading.gain_db(fading)
    }

    /// The exact verdict on drawn words: the realised SNR
    /// ([`RadioChannel::realised_snr_db`]), the PER there, and the
    /// reception Bernoulli against one minus it. The one expression
    /// [`RadioChannel::sample_from_state`] evaluates.
    #[inline]
    pub fn verdict_from(
        &self,
        before_fading_db: f64,
        bits: u64,
        rate: DataRate,
        draws: &VerdictDraws,
    ) -> ReceptionVerdict {
        let snr_db = self.realised_snr_db(before_fading_db, &draws.fading);
        let per = packet_error_rate(snr_db, bits, rate);
        let success_probability = 1.0 - per;
        let received = chance_of(draws.reception, success_probability);
        ReceptionVerdict { received, success_probability, snr_db }
    }

    /// Decides whether a frame is received from bounds on its draws, without
    /// evaluating them: `Some(received)`, always the outcome
    /// [`RadioChannel::verdict_from`] gives on the same arguments, or `None`
    /// where only evaluating them can tell (a reception word near the
    /// success probability, and every modulation but DBPSK).
    ///
    /// The fading gain is bracketed from table lookups on its words (the
    /// Box–Muller radius by the exponent and leading mantissa bits of
    /// `1 − U`, the cosine by a bucket of U, `log10` by the power's
    /// exponent and leading mantissa bits), so the realised SNR is bracketed
    /// too. At least 6 dB receives (the PER is exactly 0); a certain loss at
    /// the upper end is lost; in between, the success probability over the
    /// interval is bracketed from a grid of ln(1 − BER) and compared with
    /// the reception word in log space. Every table entry is widened by a
    /// margin beyond glibc's documented error, so the brackets hold for
    /// glibc's values (see `docs/PERFORMANCE.md`, "the decided path").
    #[inline]
    pub fn decide(
        &self,
        before_fading_db: f64,
        bits: u64,
        rate: DataRate,
        draws: &VerdictDraws,
    ) -> Option<bool> {
        let (lo, hi) = self.fading.gain_bounds_db(&draws.fading)?;
        crate::bounds::decide(
            before_fading_db + lo,
            before_fading_db + hi,
            bits,
            rate,
            draws.reception,
        )
    }
}

impl ChannelModel for RadioChannel {
    fn link_budget(&self, tx: Point, rx: Point) -> LinkBudget {
        let distance_m = tx.distance_to(rx);
        let path_loss_db =
            self.config.path_loss.loss_db(distance_m) + self.config.obstacles.blockage_db(tx, rx);
        let rx_power_dbm = self.config.tx_power_dbm + self.config.antenna_gain_db - path_loss_db;
        LinkBudget {
            distance_m,
            path_loss_db,
            rx_power_dbm,
            snr_db: rx_power_dbm - self.config.noise_floor_dbm,
        }
    }

    fn sample_reception(
        &self,
        tx: Point,
        rx: Point,
        bits: u64,
        rate: DataRate,
        rng: &mut StreamRng,
    ) -> ReceptionVerdict {
        self.sample_from_state(&self.link_state(tx, rx), bits, rate, rng)
    }
}

/// A distance-binned reception-probability profile.
///
/// The profile is a piecewise-linear function `P(reception | distance)`. The
/// default profile reproduces the qualitative drive-thru findings of the
/// paper's reference \[1\]: an entry region with rising reception, a
/// "production" region of good reception around the AP and a symmetric exit
/// region, with overall losses in the 50–60 % range at highway speeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmpiricalProfile {
    /// `(distance_m, reception_probability)` break-points, sorted by distance.
    points: Vec<(f64, f64)>,
    /// Reference noise/SNR figures reported alongside the profile (used only
    /// for [`ChannelModel::link_budget`] introspection).
    reference_snr_at_zero_db: f64,
}

impl EmpiricalProfile {
    /// Builds a profile from `(distance, probability)` break-points.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are given, if distances are not
    /// strictly increasing, or if any probability is outside `[0, 1]`.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(points.len() >= 2, "a profile needs at least two break-points");
        for w in points.windows(2) {
            assert!(w[1].0 > w[0].0, "profile distances must be strictly increasing");
        }
        assert!(
            points.iter().all(|(_, p)| (0.0..=1.0).contains(p)),
            "probabilities must lie in [0, 1]"
        );
        EmpiricalProfile { points, reference_snr_at_zero_db: 30.0 }
    }

    /// The drive-thru-Internet profile of the paper's reference \[1\]:
    /// usable reception out to roughly ±250 m of the AP with a good region
    /// of ±80 m.
    pub fn drive_thru() -> Self {
        EmpiricalProfile::new(vec![
            (0.0, 0.95),
            (80.0, 0.9),
            (150.0, 0.6),
            (220.0, 0.25),
            (300.0, 0.02),
            (400.0, 0.0),
        ])
    }

    /// Reception probability at `distance_m` (linear interpolation, clamped
    /// at the profile ends).
    pub fn probability_at(&self, distance_m: f64) -> f64 {
        let pts = &self.points;
        if distance_m <= pts[0].0 {
            return pts[0].1;
        }
        if distance_m >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        for w in pts.windows(2) {
            let (d0, p0) = w[0];
            let (d1, p1) = w[1];
            if distance_m <= d1 {
                let t = (distance_m - d0) / (d1 - d0);
                return p0 + t * (p1 - p0);
            }
        }
        pts[pts.len() - 1].1
    }
}

impl ChannelModel for EmpiricalProfile {
    fn link_budget(&self, tx: Point, rx: Point) -> LinkBudget {
        let distance_m = tx.distance_to(rx);
        // Synthesise an SNR that decreases smoothly with distance so that
        // range_for_snr and diagnostics remain meaningful.
        let snr_db = self.reference_snr_at_zero_db - 30.0 * (1.0 + distance_m).log10();
        LinkBudget { distance_m, path_loss_db: f64::NAN, rx_power_dbm: f64::NAN, snr_db }
    }

    fn sample_reception(
        &self,
        tx: Point,
        rx: Point,
        _bits: u64,
        _rate: DataRate,
        rng: &mut StreamRng,
    ) -> ReceptionVerdict {
        let p = self.probability_at(tx.distance_to(rx));
        let received = rng.chance(p);
        ReceptionVerdict {
            received,
            success_probability: p,
            snr_db: self.link_budget(tx, rx).snr_db,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert, proptest};

    fn reception_rate(channel: &dyn ChannelModel, distance: f64, trials: usize, seed: u64) -> f64 {
        let mut rng = StreamRng::derive(seed, "rate-test");
        let tx = Point::ORIGIN;
        let rx = Point::new(distance, 0.0);
        let ok = (0..trials)
            .filter(|_| channel.sample_reception(tx, rx, 8_000, DataRate::Mbps1, &mut rng).received)
            .count();
        ok as f64 / trials as f64
    }

    #[test]
    fn urban_channel_is_good_close_and_bad_far() {
        let ch = RadioChannel::new(RadioConfig::urban_2_4ghz());
        let near = reception_rate(&ch, 20.0, 400, 1);
        let far = reception_rate(&ch, 300.0, 400, 2);
        assert!(near > 0.85, "near reception {near}");
        assert!(far < 0.1, "far reception {far}");
    }

    #[test]
    fn v2v_channel_is_reliable_at_platoon_distances() {
        let ch = RadioChannel::new(RadioConfig::urban_vehicle_to_vehicle());
        let rate = reception_rate(&ch, 50.0, 600, 3);
        assert!(rate > 0.9, "platoon-distance reception {rate}");
    }

    #[test]
    fn ideal_channel_never_loses() {
        let ch = RadioChannel::new(RadioConfig::ideal());
        assert_eq!(reception_rate(&ch, 100.0, 200, 4), 1.0);
    }

    #[test]
    fn link_budget_snr_decreases_with_distance() {
        let ch = RadioChannel::new(RadioConfig::urban_2_4ghz());
        let near = ch.link_budget(Point::ORIGIN, Point::new(10.0, 0.0));
        let far = ch.link_budget(Point::ORIGIN, Point::new(200.0, 0.0));
        assert!(near.snr_db > far.snr_db);
        assert!(near.rx_power_dbm > far.rx_power_dbm);
        assert_eq!(near.distance_m, 10.0);
    }

    #[test]
    fn range_for_snr_brackets_the_transition() {
        let ch = RadioChannel::new(RadioConfig::urban_2_4ghz());
        let range = ch.range_for_snr(0.0);
        assert!(range > 20.0 && range < 200.0, "range {range}");
        let b = ch.link_budget(Point::ORIGIN, Point::new(range, 0.0));
        assert!(b.snr_db.abs() < 0.5);
    }

    #[test]
    fn shadowing_field_is_deterministic_and_roughly_unit_variance() {
        let field = SpatialField::new(7, 20.0);
        let a = field.value_at(Point::new(12.0, 34.0));
        let b = field.value_at(Point::new(12.0, 34.0));
        assert_eq!(a, b);
        let n = 4_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for i in 0..n {
            let v = field.value_at(Point::new((i % 63) as f64 * 7.3, (i / 63) as f64 * 11.1));
            sum += v;
            sum_sq += v * v;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.15, "mean {mean}");
        assert!((var - 1.0).abs() < 0.35, "variance {var}");
    }

    #[test]
    fn field_values_match_the_scalar_expression_bit_for_bit() {
        // 10^5 probes per decorrelation length of the shipped channels, over
        // four seeds, at positions up to ±12 km (wave arguments to ~10^4 rad).
        for correlation_m in [15.0, 25.0, 50.0] {
            for seed in [0x5eed, 0xcafe, 0xbeef, 7] {
                let field = SpatialField::new(seed, correlation_m);
                let mut rng = StreamRng::derive(seed, "field-probes");
                for _ in 0..25_000 {
                    let p = Point::new(rng.uniform(-12e3, 12e3), rng.uniform(-12e3, 12e3));
                    let (got, want) = (field.value_at(p), field.scalar_value_at(p));
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{correlation_m} m, seed {seed}, {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_vector_kernel_is_taken_where_the_cpu_supports_it() {
        let field = SpatialField::new(0x5eed, 25.0);
        #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
        assert_eq!(
            field.vector.is_some(),
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma"),
        );
        let Some(kernel) = field.vector else {
            eprintln!("no vector kernel on this host: the scalar path is the only path");
            return;
        };
        // Urban-shaped arguments: link_state's probe points over a square
        // kilometre around the testbed's AP.
        let mut rng = StreamRng::derive(1, "urban-probes");
        let (probes, mut fallbacks) = (20_000, 0);
        for _ in 0..probes {
            let p = Point::new(rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0));
            let mut cosines = [0.0; WAVES];
            fallbacks += kernel
                .wave_cosines(&field.kx, &field.ky, &field.phase, p, &mut cosines)
                .count_ones();
        }
        let share = f64::from(fallbacks) / (probes * WAVES) as f64;
        eprintln!("fallback share on urban-shaped arguments: {share:.4}");
        assert!(share < 0.1, "fallback share {share}");
    }

    #[test]
    fn cached_link_state_sampling_is_bit_identical() {
        let ch = RadioChannel::new(RadioConfig::urban_2_4ghz());
        let tx = Point::ORIGIN;
        let rx = Point::new(73.0, 12.0);
        let state = ch.link_state(tx, rx);
        assert_eq!(state.budget, ch.link_budget(tx, rx));
        // Two identical RNG streams: one sampling from the cached state, one
        // through the full per-call path. Every verdict must match exactly.
        let mut cached_rng = StreamRng::derive(99, "state");
        let mut direct_rng = StreamRng::derive(99, "state");
        for _ in 0..200 {
            let cached = ch.sample_from_state(&state, 8_000, DataRate::Mbps1, &mut cached_rng);
            let direct = ch.sample_reception(tx, rx, 8_000, DataRate::Mbps1, &mut direct_rng);
            assert_eq!(cached, direct);
        }
    }

    /// A link state whose SNR before fading is about `pre_db`, split between
    /// the budget and `shadowing_db`.
    fn state_with(pre_db: f64, shadowing_db: f64) -> LinkState {
        let snr_db = pre_db - shadowing_db;
        let budget = LinkBudget { distance_m: 1.0, path_loss_db: 0.0, rx_power_dbm: 0.0, snr_db };
        LinkState { budget, shadowing_db }
    }

    #[test]
    fn skipping_a_sample_consumes_exactly_its_draws() {
        let kinds = [
            FadingKind::None,
            FadingKind::Rayleigh,
            FadingKind::Rician { k_db: 6.0 },
            FadingKind::Rician { k_db: -3.0 },
        ];
        for kind in kinds {
            let ch = RadioChannel::new(RadioConfig::urban_2_4ghz().with_fading(kind));
            for (i, pre_db) in [-40.0, -12.0, 0.0, 20.0].into_iter().enumerate() {
                let state = state_with(pre_db, 3.5);
                let mut sampled = StreamRng::derive(i as u64, "skip");
                let mut skipped = sampled.clone();
                for _ in 0..500 {
                    ch.sample_from_state(&state, 8_000, DataRate::Mbps1, &mut sampled);
                    ch.skip_sample(&mut skipped);
                }
                assert_eq!(
                    sampled.standard_normal().to_bits(),
                    skipped.standard_normal().to_bits(),
                    "{kind:?} at {pre_db} dB"
                );
            }
        }
    }

    #[test]
    fn the_channel_ceilings_bound_the_field_and_the_fading() {
        for (config, sigma, fading) in [
            (RadioConfig::urban_2_4ghz(), 4.0, 13.10),
            (RadioConfig::urban_vehicle_to_vehicle(), 4.0, 13.10),
            (RadioConfig::highway_2_4ghz(), 4.0, 15.65),
        ] {
            let ch = RadioChannel::new(config);
            assert!((ch.fading_ceiling_db() - fading).abs() < 0.005, "{}", ch.fading_ceiling_db());
            let ceiling = ch.shadowing_ceiling_db();
            // The extreme realisation: every wave's cosine at 1, summed as
            // the field sums them.
            let extreme = sigma * (ch.field.amplitude * [1.0f64; WAVES].into_iter().sum::<f64>());
            assert!(extreme <= ceiling && ceiling - extreme < 0.05, "{ceiling} vs {extreme}");
            assert!((ceiling - 27.71).abs() < 0.005, "ceiling {ceiling}");
            let mut rng = StreamRng::derive(16, "shadowing-probes");
            for _ in 0..20_000 {
                let tx = Point::new(rng.uniform(-2e3, 2e3), rng.uniform(-2e3, 2e3));
                let rx = Point::new(rng.uniform(-2e3, 2e3), rng.uniform(-2e3, 2e3));
                let shadowing = ch.shadowing_db(tx, rx);
                assert!(shadowing.abs() <= ceiling, "{shadowing} at {tx:?} -> {rx:?}");
                assert_eq!(shadowing.to_bits(), ch.link_state(tx, rx).shadowing_db.to_bits());
            }
        }
        let flat = RadioChannel::new(RadioConfig::ideal());
        assert_eq!(flat.shadowing_ceiling_db(), 0.0);
        assert_eq!(flat.fading_ceiling_db(), 0.0);
    }

    #[test]
    fn certain_losses_need_dbpsk_long_frames_and_a_low_ceiling() {
        let ch = RadioChannel::new(RadioConfig::urban_2_4ghz());
        let fading = ch.fading_ceiling_db();
        let at_bound = -10.0 - fading;
        assert_eq!(
            ch.certain_loss_ceiling(at_bound - 1.0, 256, DataRate::Mbps1),
            Some(at_bound - 1.0 + fading)
        );
        assert!(ch.certain_loss_ceiling(at_bound + 0.01, 8_000, DataRate::Mbps1).is_none());
        assert!(ch.certain_loss_ceiling(at_bound - 1.0, 255, DataRate::Mbps1).is_none());
        assert!(ch.certain_loss_ceiling(at_bound - 1.0, 8_000, DataRate::Mbps2).is_none());
        assert!(ch.certain_loss_ceiling(f64::NAN, 8_000, DataRate::Mbps1).is_none());
    }

    #[test]
    fn empirical_profile_interpolates() {
        let p = EmpiricalProfile::drive_thru();
        assert_eq!(p.probability_at(0.0), 0.95);
        assert!((p.probability_at(115.0) - 0.75).abs() < 1e-9);
        assert_eq!(p.probability_at(1_000.0), 0.0);
        let mid = reception_rate(&p, 150.0, 2_000, 5);
        assert!((mid - 0.6).abs() < 0.05, "measured {mid}");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn profile_rejects_unsorted_points() {
        let _ = EmpiricalProfile::new(vec![(10.0, 0.5), (5.0, 0.4)]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn profile_rejects_single_point() {
        let _ = EmpiricalProfile::new(vec![(10.0, 0.5)]);
    }

    proptest! {
        /// Reception probability reported by the verdict always lies in [0,1],
        /// and closer receivers never have a *worse* median link budget.
        #[test]
        fn prop_verdict_probability_valid(d in 1.0f64..500.0, seed in 0u64..100) {
            let ch = RadioChannel::new(RadioConfig::urban_2_4ghz());
            let mut rng = StreamRng::derive(seed, "prop");
            let v = ch.sample_reception(Point::ORIGIN, Point::new(d, 0.0), 8_000, DataRate::Mbps1, &mut rng);
            prop_assert!((0.0..=1.0).contains(&v.success_probability));
            let closer = ch.link_budget(Point::ORIGIN, Point::new(d / 2.0, 0.0));
            let here = ch.link_budget(Point::ORIGIN, Point::new(d, 0.0));
            prop_assert!(closer.snr_db >= here.snr_db);
        }

        /// Every certain loss is lost on the exact path too: over random
        /// link states (SNR before fading −45 to +5 dB) of the urban Rician
        /// and highway Rayleigh channels, at the rule's budget level (the
        /// field's ceiling) and at the link's own shadowing, each sample is
        /// lost with success probability 0.0 and a realised SNR at most the
        /// ceiling, and skipping the samples leaves the stream where they do.
        #[test]
        fn prop_certain_losses_are_lost_on_the_exact_path(
            pre_db in -45.0f64..5.0,
            shadowing_db in -25.0f64..25.0,
            bits in 200u64..12_000,
            highway in 0u8..2,
            seed in 0u64..1_000,
        ) {
            let config =
                if highway == 1 { RadioConfig::highway_2_4ghz() } else { RadioConfig::urban_2_4ghz() };
            let ch = RadioChannel::new(config);
            let state = state_with(pre_db, shadowing_db);
            let budget_level = state.budget.snr_db + ch.shadowing_ceiling_db();
            let link_level = state.budget.snr_db + state.shadowing_db;
            for snr_db in [budget_level, link_level] {
                let Some(ceiling) = ch.certain_loss_ceiling(snr_db, bits, DataRate::Mbps1) else {
                    continue;
                };
                let mut sampled = StreamRng::derive(seed, "certain-loss");
                let mut skipped = sampled.clone();
                for _ in 0..256 {
                    let v = ch.sample_from_state(&state, bits, DataRate::Mbps1, &mut sampled);
                    prop_assert!(!v.received);
                    prop_assert!(v.success_probability == 0.0, "{v:?}");
                    prop_assert!(v.snr_db <= ceiling, "{} above {ceiling}", v.snr_db);
                    ch.skip_sample(&mut skipped);
                }
                prop_assert!(sampled.standard_normal().to_bits() == skipped.standard_normal().to_bits());
            }
        }

        /// The empirical profile respects its break-point envelope.
        #[test]
        fn prop_profile_within_envelope(d in 0.0f64..500.0) {
            let p = EmpiricalProfile::drive_thru();
            let v = p.probability_at(d);
            prop_assert!((0.0..=0.95).contains(&v));
        }
    }
}
