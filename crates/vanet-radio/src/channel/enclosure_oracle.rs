//! The bounded shadowing field against the exact field, probe by probe.
//!
//! [`RadioChannel::shadowing_bounds`] rotates a link's anchor to its next
//! probe point and brackets the exact shadowing there without evaluating
//! it. Every bracket must hold the exact [`RadioChannel::shadowing_at`] bit
//! for bit and be narrower than [`WIDTH_CEILING_DB`]. Two finer checks
//! follow each rotation wave by wave: glibc's cosine of the wave's argument
//! lies within the wave's bounds, and the anchor's (cos, sin) lies within
//! its carried error bound of the exact pair, taken from a double-double
//! reference accurate to about 2⁻¹⁰⁰. Every fresh anchor is checked the
//! same way.
//!
//! The probes walk at random over the three shipped channels (urban
//! AP↔vehicle, urban vehicle↔vehicle, highway AP↔vehicle), each once on
//! the vector kernels where this host has them and once on the plain
//! double path. Walks start anywhere within ±12 km (wave arguments up to
//! about 10⁴ rad, as on the 10 km generated highway). A step is exactly
//! 0, or 10⁻⁹ to 1 m, or 1 to 30 m; one in 64 jumps 1.7 to 4 km, past
//! the rotation's 1024 rad for most walks, which re-anchors. 4·10⁴ steps
//! per walk in a debug build, 2·10⁵ in an optimised one.

use sim_core::StreamRng;

use super::*;
use crate::cosine::tests::Reference;

/// Steps per channel and path: 4·10⁴ in a debug build, 2·10⁵ optimised.
const STEPS: usize = if cfg!(debug_assertions) { 40_000 } else { 200_000 };

/// The widest enclosure the rotation may return (dB): 48 per-wave radii of
/// at most the error limit 2⁻²⁶ plus glibc's 0.518 ulp, times σ·A =
/// 4·√(2/24) = 1.15 dB, is 8.3·10⁻⁷ dB.
const WIDTH_CEILING_DB: f64 = 1e-6;

/// Walk steps that re-anchor: 1.7 to 4 km.
const JUMP_M: (f64, f64) = (1_700.0, 4_000.0);

/// The probe's next position.
fn step(rng: &mut StreamRng, p: Point) -> Point {
    let length = match rng.word() % 64 {
        0 => rng.uniform(JUMP_M.0, JUMP_M.1),
        1..=4 => 0.0,
        5..=40 => 10f64.powf(rng.uniform(-9.0, 0.0)),
        _ => rng.uniform(1.0, 30.0),
    };
    let heading = rng.uniform(0.0, std::f64::consts::TAU);
    Point::new(p.x + length * heading.cos(), p.y + length * heading.sin())
}

/// Counts of one walk.
#[derive(Default)]
struct Tally {
    steps: u64,
    reanchored: u64,
    widths: Vec<f64>,
}

/// Checks an anchor's per-wave (cos, sin) against the reference: within
/// the carried error bound, Euclidean.
fn assert_anchor_holds(reference: &Reference, anchor: &FieldAnchor, context: &str) {
    let [theta, cos, sin, error] = anchor.waves();
    for i in 0..WAVES {
        let (c, s, _) = reference.sincos(theta[i]);
        let dc = (cos[i] - c.0) - c.1;
        let ds = (sin[i] - s.0) - s.1;
        let distance = dc.hypot(ds);
        let allowed = error[i] * (1.0 + 1.0 / (1u64 << 40) as f64) + 1e-30;
        assert!(
            distance <= allowed,
            "{context}: wave {i} at θ = {:e}: (cos, sin) off by {distance:e}, bound {:e}",
            theta[i],
            error[i]
        );
    }
}

/// One walk of `STEPS` probes over `channel`.
fn walk(channel: &RadioChannel, name: &str, seed: u64, reference: &Reference) -> Tally {
    let mut rng = StreamRng::derive(seed, "enclosure-oracle");
    let mut tally = Tally::default();
    let range = 12_000.0;
    let mut p = Point::new(rng.uniform(-range, range), rng.uniform(-range, range));
    let mut anchor = FieldAnchor::default();
    let exact = channel.anchor_shadowing(p, &mut anchor);
    assert_eq!(exact.to_bits(), channel.shadowing_at(p).to_bits());
    for _ in 0..STEPS {
        p = step(&mut rng, p);
        if p.x.abs() > range || p.y.abs() > range {
            p = Point::new(rng.uniform(-range, range), rng.uniform(-range, range));
        }
        tally.steps += 1;
        let context = format!("{name}, probe {p:?}");
        let mut twin = anchor.clone();
        let Some((lo, hi)) = channel.shadowing_bounds(p, &mut anchor) else {
            tally.reanchored += 1;
            let exact = channel.anchor_shadowing(p, &mut anchor);
            assert_eq!(exact.to_bits(), channel.shadowing_at(p).to_bits(), "{context}");
            assert_anchor_holds(reference, &anchor, &format!("{context}, fresh anchor"));
            continue;
        };
        let exact = channel.shadowing_at(p);
        assert!(lo <= exact && exact <= hi, "{context}: {exact:e} outside [{lo:e}, {hi:e}]");
        assert!(hi - lo <= WIDTH_CEILING_DB, "{context}: [{lo:e}, {hi:e}] too wide");
        tally.widths.push(hi - lo);
        // The same rotation wave by wave.
        let field = &channel.field;
        let bounds = twin.advance_waves(&field.waves(), p, field.vector).expect("as above");
        let sigma = channel.config.shadowing_sigma_db;
        assert_eq!((sigma * (field.amplitude * bounds.ordered_sums().0)).to_bits(), lo.to_bits());
        for i in 0..WAVES {
            let glibc = (field.kx[i] * p.x + field.ky[i] * p.y + field.phase[i]).cos();
            assert!(
                bounds.low[i] <= glibc && glibc <= bounds.high[i],
                "{context}: wave {i}: glibc's {glibc:e} outside [{:e}, {:e}]",
                bounds.low[i],
                bounds.high[i]
            );
        }
        assert_anchor_holds(reference, &anchor, &context);
    }
    tally
}

#[test]
fn enclosures_hold_the_exact_field_on_random_walks() {
    let reference = Reference::new();
    let configs = [
        ("urban ap-vehicle", RadioConfig::urban_2_4ghz()),
        ("urban vehicle-vehicle", RadioConfig::urban_vehicle_to_vehicle()),
        ("highway ap-vehicle", RadioConfig::highway_2_4ghz()),
    ];
    for (seed, (name, config)) in configs.into_iter().enumerate() {
        let vector = RadioChannel::new(config);
        let mut plain = vector.clone();
        plain.field.vector = None;
        for (path, channel) in [("vector", &vector), ("plain", &plain)] {
            if path == "vector" && channel.field.vector.is_none() {
                eprintln!("{name}: no avx2+fma on this host: the plain path is the only path");
                continue;
            }
            let name = format!("{name} ({path})");
            let mut tally = walk(channel, &name, seed as u64, &reference);
            tally.widths.sort_by(f64::total_cmp);
            let quantile = |q: f64| tally.widths[((tally.widths.len() - 1) as f64 * q) as usize];
            eprintln!(
                "{name}: {} steps, {} re-anchored; enclosure width median {:.2e} dB, \
                 99th percentile {:.2e} dB, largest {:.2e} dB",
                tally.steps,
                tally.reanchored,
                quantile(0.5),
                quantile(0.99),
                quantile(1.0)
            );
            assert!(tally.reanchored > 0 && tally.reanchored < tally.steps / 16, "{name}");
        }
    }
}
