//! The decided path against the exact chain, verdict by verdict.
//!
//! `RadioChannel::decide` settles a verdict from bounds on its draws, and
//! every outcome it returns must be the outcome `RadioChannel::verdict_from`
//! (the expression `sample_from_state` evaluates) gives on the same words.
//! The cases: random links with SNRs before fading from −40 to +40 dB and
//! random words; realised SNRs on dense grids around −10 dB, 6 dB and the
//! PER grid's points; words at the tables' bucket edges (logarithm,
//! Box–Muller cosine), at U = 0 and at 1 − U = 2⁻⁵³, cosines at the
//! quadrants, and Rician powers at the 10⁻⁹ clamp. Frame lengths run from 1
//! to 10⁶ bits and include every length the simulated workloads send;
//! channels are both urban ones (Rician), the highway AP channel
//! (Rayleigh), a loss-free one without fading, and Rician K from −3 to
//! 10 dB. 10⁶ random cases in a debug build, 10⁸ in an optimised one.

use sim_core::rng::unit_of;
use sim_core::StreamRng;
use vanet_radio::{DataRate, FadingKind, RadioChannel, RadioConfig, VerdictDraws};

/// Random cases: 10⁶ in a debug build, 10⁸ in an optimised one.
const RANDOM_CASES: u64 = if cfg!(debug_assertions) { 1_000_000 } else { 100_000_000 };

/// Frame lengths (bits): the lengths the paper_urban, grid_city, highway
/// and multi-AP rounds send (HELLO, REQUEST, DATA and COOP-DATA frames),
/// and a spread from 1 to 10⁶.
const BITS: [u64; 26] = [
    312, 328, 344, 360, 376, 392, 408, 424, 2_688, 2_736, 8_288, 8_336, 1, 8, 100, 255, 256, 257,
    300, 1_000, 4_000, 12_000, 65_535, 100_000, 400_000, 1_000_000,
];

fn channels() -> Vec<(String, RadioChannel)> {
    let mut channels: Vec<(String, RadioChannel)> = [
        ("urban ap-vehicle", RadioConfig::urban_2_4ghz()),
        ("urban vehicle-vehicle", RadioConfig::urban_vehicle_to_vehicle()),
        ("highway ap-vehicle", RadioConfig::highway_2_4ghz()),
        ("ideal", RadioConfig::ideal()),
    ]
    .into_iter()
    .map(|(name, config)| (name.to_string(), RadioChannel::new(config)))
    .collect();
    for k_db in [-3.0, 0.0, 10.0] {
        let config = RadioConfig::urban_2_4ghz().with_fading(FadingKind::Rician { k_db });
        channels.push((format!("rician K = {k_db} dB"), RadioChannel::new(config)));
    }
    channels
}

/// Counts of one batch of cases.
#[derive(Default)]
struct Tally {
    cases: u64,
    decided: u64,
}

impl Tally {
    /// Checks one case: a decided outcome must be the exact chain's.
    fn check(
        &mut self,
        name: &str,
        channel: &RadioChannel,
        before_fading_db: f64,
        bits: u64,
        rate: DataRate,
        draws: &VerdictDraws,
    ) {
        self.cases += 1;
        let Some(decided) = channel.decide([before_fading_db; 2], bits, rate, draws) else {
            return;
        };
        self.decided += 1;
        let exact = channel.verdict_from(before_fading_db, bits, rate, draws);
        assert_eq!(
            decided, exact.received,
            "{name}: {before_fading_db} dB before fading, {bits} bits at {rate:?}, {draws:?}: \
             decided {decided}, exact {exact:?}"
        );
    }

    fn share(&self) -> f64 {
        self.decided as f64 / self.cases.max(1) as f64
    }
}

/// The word whose Box–Muller `1 − U` is the multiple of 2⁻⁵³ nearest `u`,
/// `u` in [2⁻⁵³, 1].
fn word_of_one_minus(u: f64) -> u64 {
    let k = (u * (1u64 << 53) as f64).round() as u64;
    let word = ((1u64 << 53) - k) << 11;
    assert_eq!(1.0 - unit_of(word), k as f64 / (1u64 << 53) as f64);
    word
}

#[test]
fn decided_verdicts_are_the_exact_chains_on_random_cases() {
    let channels = channels();
    let mut rng = StreamRng::derive(2024, "decision-oracle.random");
    let mut tally = Tally::default();
    let mut transition = Tally::default();
    for case in 0..RANDOM_CASES {
        let (name, channel) = &channels[(case % channels.len() as u64) as usize];
        // Most cases uniform over ±40 dB; a third where the Rician and
        // Rayleigh transitions lie, before fading.
        let before = if case % 3 == 0 { rng.uniform(-25.0, 8.0) } else { rng.uniform(-40.0, 40.0) };
        let bits = BITS[(rng.word() % BITS.len() as u64) as usize];
        // One case in 64 at another rate, which only the chain decides.
        let rate = if case % 64 == 7 {
            DataRate::all()[(case / 64 % 8) as usize]
        } else {
            DataRate::Mbps1
        };
        let draws = channel.draw(&mut rng);
        tally.check(name, channel, before, bits, rate, &draws);
        let realised = channel.realised_snr_db(before, &draws.fading);
        if rate == DataRate::Mbps1 && (-10.0..6.0).contains(&realised) {
            transition.check(name, channel, before, bits, rate, &draws);
        }
    }
    eprintln!(
        "{} random cases, {:.2}% decided; realised between −10 and 6 dB: {} cases, {:.2}% decided",
        tally.cases,
        100.0 * tally.share(),
        transition.cases,
        100.0 * transition.share()
    );
    assert!(tally.share() > 0.95, "decided share {}", tally.share());
    assert!(transition.share() > 0.85, "transition decided share {}", transition.share());
}

/// Fading words at the tables' edges and the draws' extremes: U = 0
/// (u = 1), 1 − U = 2⁻⁵³, logarithm bucket edges of `1 − U` and the words
/// either side, and cosine arguments at the quadrants, at the cosine
/// buckets' edges and one word below them.
fn edge_words() -> (Vec<u64>, Vec<u64>) {
    let unit = 1.0 / (1u64 << 53) as f64;
    let mut radius_words = vec![0, 1 << 11, u64::MAX, u64::MAX - (1 << 11)];
    // Bucket edges of 1 − U: 2^e·(1 + m/64), e from −53 to −1.
    for e in -53..0 {
        for m in (0..64).step_by(7) {
            let edge = 2f64.powi(e) * (1.0 + f64::from(m) / 64.0);
            if edge < unit {
                continue;
            }
            for u in [edge - unit, edge, edge + unit] {
                if (unit..=1.0).contains(&u) {
                    radius_words.push(word_of_one_minus(u));
                }
            }
        }
    }
    let mut cosine_words = Vec::new();
    for j in 0..1024u64 {
        let edge = j << 54;
        cosine_words.extend([edge, edge.wrapping_sub(1 << 11), edge | ((1 << 11) - 1)]);
    }
    for quadrant in 0..4u64 {
        let at = quadrant << 62;
        cosine_words.extend([at, at + (1 << 11), at.wrapping_sub(1 << 11)]);
    }
    (radius_words, cosine_words)
}

/// Every how many cosine edge words one radius edge word is paired with.
const EDGE_STRIDE: usize = if cfg!(debug_assertions) { 50 } else { 5 };

#[test]
fn decided_verdicts_are_the_exact_chains_at_the_table_edges() {
    let channels = channels();
    let (radius_words, cosine_words) = edge_words();
    let mut rng = StreamRng::derive(2025, "decision-oracle.edges");
    let mut tally = Tally::default();
    for (name, channel) in &channels {
        for (i, &first) in radius_words.iter().enumerate() {
            for (j, &second) in
                cosine_words.iter().enumerate().skip(i % EDGE_STRIDE).step_by(EDGE_STRIDE)
            {
                // The second normal takes edge words too, paired otherwise.
                let third = radius_words[(i * 7 + j) % radius_words.len()];
                let fourth = cosine_words[(i * 3 + j * 11) % cosine_words.len()];
                let fading = [first, second, third, fourth];
                let before = rng.uniform(-30.0, 30.0);
                let bits = BITS[(i + j) % BITS.len()];
                let reception = rng.word();
                let draws = VerdictDraws { fading, reception };
                tally.check(name, channel, before, bits, DataRate::Mbps1, &draws);
            }
        }
    }
    eprintln!("{} edge cases, {:.2}% decided", tally.cases, 100.0 * tally.share());
    assert!(tally.cases > 400_000, "{} edge cases", tally.cases);
}

#[test]
fn decided_verdicts_are_the_exact_chains_around_the_thresholds() {
    // Realised SNRs on dense grids around −10 dB and 6 dB, and on the PER
    // grid's points and between them: the SNR before fading is set so that
    // the exact chain realises the target to within an offset.
    let channels = channels();
    let mut rng = StreamRng::derive(2026, "decision-oracle.thresholds");
    let mut tally = Tally::default();
    let mut targets: Vec<f64> = Vec::new();
    for threshold in [-10.0f64, 6.0] {
        for k in -200..=200 {
            targets.push(threshold + f64::from(k) * 1e-4);
        }
        for k in -40..=40 {
            targets.push(threshold + f64::from(k) * 1e-12);
        }
        let bits = threshold.to_bits();
        targets.extend([f64::from_bits(bits - 1), threshold, f64::from_bits(bits + 1)]);
    }
    for i in 0..=2048 {
        let point = -10.0 + f64::from(i) / 128.0;
        targets.extend([point, point + 1.0 / 256.0, point - 1e-13, point + 1e-13]);
    }
    for (name, channel) in &channels {
        for (t, &target) in targets.iter().enumerate() {
            for _ in 0..4 {
                let draws = channel.draw(&mut rng);
                let gain = channel.realised_snr_db(0.0, &draws.fading);
                let before = target - gain;
                let bits = BITS[(t + (rng.word() % 8) as usize) % BITS.len()];
                tally.check(name, channel, before, bits, DataRate::Mbps1, &draws);
                // The same words with a reception word near the exact
                // success probability, either side.
                let exact = channel.verdict_from(before, bits, DataRate::Mbps1, &draws);
                let p = exact.success_probability;
                if (0.0..1.0).contains(&p) {
                    let near = (p * (1u64 << 53) as f64) as u64;
                    for k in [near.saturating_sub(1 << 20), near.saturating_sub(1), near, near + 1]
                    {
                        let reception = k.min((1 << 53) - 1) << 11;
                        let draws = VerdictDraws { reception, ..draws };
                        tally.check(name, channel, before, bits, DataRate::Mbps1, &draws);
                    }
                }
            }
        }
    }
    eprintln!("{} threshold cases, {:.2}% decided", tally.cases, 100.0 * tally.share());
}

#[test]
fn decided_verdicts_are_the_exact_chains_at_the_power_clamp() {
    // Rician powers below 10⁻⁹, where the chain clamps: the real part
    // los + σ·n₁ at 0 (n₁ = −los/σ, the cosine at −1 and the radius
    // searched word by word) and the imaginary part at the cosine of π/2.
    let config = RadioConfig::urban_2_4ghz();
    let FadingKind::Rician { k_db } = config.fading else { panic!("urban fading is Rician") };
    let channel = RadioChannel::new(config);
    let k = 10f64.powf(k_db / 10.0);
    let (los, sigma) = ((k / (k + 1.0)).sqrt(), (1.0 / (2.0 * (k + 1.0))).sqrt());
    let radius = los / sigma;
    let u = (-radius * radius / 2.0).exp();
    let half_turn = 1u64 << 63;
    let quarter_turn = 1u64 << 62;
    let mut clamped = 0;
    let mut rng = StreamRng::derive(2027, "decision-oracle.clamp");
    let mut tally = Tally::default();
    for step in -2_000i32..=2_000 {
        let first = word_of_one_minus(u * (1.0 + f64::from(step) * 1e-6));
        let fading = [first, half_turn, rng.word(), quarter_turn];
        let gain = channel.realised_snr_db(0.0, &fading);
        clamped += u32::from(gain == 10.0 * 1e-9f64.log10());
        for before in [-40.0, 0.0, 40.0, 80.0, 86.0, 88.0, 90.0, 92.0, 96.0, 100.0] {
            for &bits in &BITS {
                let draws = VerdictDraws { fading, reception: rng.word() };
                tally.check("urban ap-vehicle", &channel, before, bits, DataRate::Mbps1, &draws);
            }
        }
    }
    assert!(clamped > 10, "{clamped} words reach the clamp");
    eprintln!("{} clamp cases, {:.2}% decided", tally.cases, 100.0 * tally.share());
}
