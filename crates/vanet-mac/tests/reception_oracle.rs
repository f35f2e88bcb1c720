//! Statistical oracle for the radio layer, taken through the medium.
//!
//! At fixed geometries whose SNR before fading (link budget plus shadowing)
//! runs from −30 to +5 dB, on both urban channels and the highway AP
//! channel, the share of 10⁵ untraced `Medium::transmit` verdicts that
//! receive must match the model's E[1 − PER] within a 4σ binomial
//! interval. The expectation is computed by quadrature over the fading
//! distribution, derived here from the configuration, independently of the
//! sampler: Gauss–Hermite over the Rician gain, and a trapezoid rule over
//! the logarithm of the Rayleigh power. Untraced verdicts take whichever
//! path the medium gives them (decided from bounds on their draws, or the
//! exact chain), so the oracle covers both. Geometries the certain-loss
//! rule settles must receive nothing.

use sim_core::{SimTime, StreamRng};
use vanet_geo::Point;
use vanet_mac::{Destination, Frame, Medium, MediumConfig, NodeId, RadioClass};
use vanet_radio::{packet_error_rate, DataRate, FadingKind, RadioChannel, RadioConfig};

/// Verdicts per geometry.
const VERDICTS: u32 = 100_000;

/// Points of the Gauss–Hermite rule per dimension. PER falls from 0.98 to
/// 0.07 over 2 dB of realised SNR, under a unit of either normal, so the
/// rule needs hundreds of points: at 64 it is off by up to 2·10⁻³.
const RULE_POINTS: usize = 400;

/// A finer rule the expectation must agree with to a fiftieth of the
/// binomial interval the oracle allows (they differ by at most 10⁻⁵, at
/// +5 dB, where the losses come from the deepest fades alone).
const CHECK_POINTS: usize = 600;

/// Target SNRs before fading (dB); each geometry is the receiver position
/// whose SNR lies nearest one.
const TARGETS_DB: [f64; 12] =
    [-30.0, -25.0, -20.0, -15.0, -10.0, -6.0, -4.0, -2.0, -1.0, 0.0, 2.0, 5.0];

/// Nodes and weights of the `n`-point Gauss–Hermite rule,
/// ∫ e^(−x²) f(x) dx ≈ Σ wᵢ f(xᵢ), by Golub–Welsch: the nodes are the
/// eigenvalues of the symmetric tridiagonal Jacobi matrix of the Hermite
/// polynomials (zero diagonal, off-diagonal √(k/2)), and each weight is
/// √π times the squared first component of its eigenvector. The
/// eigenproblem is solved by implicit QL iterations that track only the
/// eigenvectors' first row.
fn gauss_hermite(n: usize) -> Vec<(f64, f64)> {
    let mut d = vec![0.0f64; n];
    let mut e: Vec<f64> =
        (1..=n).map(|k| if k < n { (k as f64 / 2.0).sqrt() } else { 0.0 }).collect();
    let mut first = vec![0.0f64; n];
    first[0] = 1.0;
    for l in 0..n {
        let mut iterations = 0;
        loop {
            let mut m = l;
            while m + 1 < n && e[m].abs() > f64::EPSILON * (d[m].abs() + d[m + 1].abs()) {
                m += 1;
            }
            if m == l {
                break;
            }
            iterations += 1;
            assert!(iterations < 60, "QL did not converge");
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
            let mut deflated = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    deflated = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                let f = first[i + 1];
                first[i + 1] = s * first[i] + c * f;
                first[i] = c * first[i] - s * f;
            }
            if !deflated {
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        }
    }
    let root_pi = std::f64::consts::PI.sqrt();
    let mut rule: Vec<(f64, f64)> =
        d.into_iter().zip(first).map(|(x, v)| (x, root_pi * v * v)).collect();
    rule.sort_by(|a, b| a.0.total_cmp(&b.0));
    rule
}

/// E[1 − PER] of a `bits`-bit DBPSK frame over a link with `pre_db` of SNR
/// before fading and Rician fading of factor `k_db`: the complex gain is
/// `√(K/(K+1)) + σ·(Z₁ + i·Z₂)` with σ = √(1/(2(K+1))) and Z₁, Z₂ standard
/// normal, integrated by the product of a Gauss–Hermite `rule` with itself.
fn expected_reception(rule: &[(f64, f64)], pre_db: f64, k_db: f64, bits: u64) -> f64 {
    let k = 10f64.powf(k_db / 10.0);
    let (los, sigma) = ((k / (k + 1.0)).sqrt(), (1.0 / (2.0 * (k + 1.0))).sqrt());
    let root2 = std::f64::consts::SQRT_2;
    let mut sum = 0.0;
    for &(x1, w1) in rule {
        for &(x2, w2) in rule {
            let re = los + sigma * root2 * x1;
            let im = sigma * root2 * x2;
            let gain_db = 10.0 * (re * re + im * im).max(1e-9).log10();
            sum += w1 * w2 * (1.0 - packet_error_rate(pre_db + gain_db, bits, DataRate::Mbps1));
        }
    }
    sum / std::f64::consts::PI
}

#[test]
fn the_quadrature_integrates_the_normal_moments() {
    for n in [64, RULE_POINTS, CHECK_POINTS] {
        let rule = gauss_hermite(n);
        let root_pi = std::f64::consts::PI.sqrt();
        let moment = |p: i32| {
            rule.iter().map(|&(x, w)| w * (std::f64::consts::SQRT_2 * x).powi(p)).sum::<f64>()
                / root_pi
        };
        assert!((moment(0) - 1.0).abs() < 1e-12, "n = {n}: mass {}", moment(0));
        assert!((moment(2) - 1.0).abs() < 1e-12, "n = {n}: variance {}", moment(2));
        assert!((moment(4) - 3.0).abs() < 1e-11, "n = {n}: fourth moment {}", moment(4));
    }
}

/// One channel's geometries: the transmitter at `tx`, the receiver on the
/// x axis, at the position (of a 1 m grid out to 5 km) whose SNR before
/// fading lies nearest each target.
fn geometries(channel: &RadioChannel, tx: Point) -> Vec<(Point, f64)> {
    let pre_db = |rx: Point| {
        let link = channel.link_state(tx, rx);
        link.budget.snr_db + link.shadowing_db
    };
    let grid: Vec<(Point, f64)> =
        (1..=5_000).map(|d| Point::new(f64::from(d), 0.0)).map(|rx| (rx, pre_db(rx))).collect();
    TARGETS_DB
        .iter()
        .map(|&target| {
            *grid
                .iter()
                .min_by(|a, b| (a.1 - target).abs().total_cmp(&(b.1 - target).abs()))
                .expect("non-empty grid")
        })
        .collect()
}

/// Steps per unit of ln(power) of the Rayleigh trapezoid rule.
const RAYLEIGH_STEPS: f64 = 200.0;

/// E[1 − PER] of a `bits`-bit DBPSK frame over a link with `pre_db` of SNR
/// before fading and Rayleigh fading: the power gain X is exponential with
/// unit mean and the gain in dB is 10·log10(max(X, 10⁻⁶)). With X = eᵘ,
/// E = ∫ exp(u − eᵘ)·(1 − PER) du over the real line, a smooth, doubly
/// exponentially decaying integrand on which the trapezoid rule converges
/// fast; `steps` points per unit of u over [−40, 4] (beyond them the
/// weight is below 10⁻¹⁷). A Gauss–Laguerre rule in X itself resolves the
/// PER's 2 dB step poorly where it falls at small X.
fn expected_rayleigh_reception(pre_db: f64, bits: u64, steps: f64) -> f64 {
    let (low, high) = (-40.0f64, 4.0f64);
    let n = ((high - low) * steps) as usize;
    let h = (high - low) / n as f64;
    (0..=n)
        .map(|i| {
            let u = low + i as f64 * h;
            let weight = if i == 0 || i == n { 0.5 } else { 1.0 };
            let gain_db = 10.0 * u.exp().max(1e-6).log10();
            let success = 1.0 - packet_error_rate(pre_db + gain_db, bits, DataRate::Mbps1);
            weight * (u - u.exp()).exp() * success
        })
        .sum::<f64>()
        * h
}

#[test]
fn the_rayleigh_rule_integrates_the_exponential_moments() {
    let moment = |p: i32| {
        let (low, high) = (-40.0f64, 4.0f64);
        let n = ((high - low) * RAYLEIGH_STEPS) as usize;
        let h = (high - low) / n as f64;
        (0..=n)
            .map(|i| {
                let u = low + i as f64 * h;
                let weight = if i == 0 || i == n { 0.5 } else { 1.0 };
                weight * (u - u.exp()).exp() * u.exp().powi(p)
            })
            .sum::<f64>()
            * h
    };
    assert!((moment(0) - 1.0).abs() < 1e-12, "mass {}", moment(0));
    assert!((moment(1) - 1.0).abs() < 1e-12, "mean {}", moment(1));
    assert!((moment(2) - 2.0).abs() < 1e-11, "second moment {}", moment(2));
}

/// One channel's oracle: at each geometry, 10⁵ untraced verdicts through
/// a medium of that channel against `expected(pre_db, bits)`, which must
/// agree with `refined(pre_db, bits)` to a fiftieth of the interval. At
/// least `certain_geometries` of them must be certain losses (Rayleigh's
/// higher fading ceiling, 15.65 dB, settles only the −30 dB one).
fn check_channel(
    name: &str,
    config: RadioConfig,
    tx_class: RadioClass,
    certain_geometries: usize,
    expected: impl Fn(f64, u64) -> f64,
    refined: impl Fn(f64, u64) -> f64,
) {
    let channel = RadioChannel::new(config.clone());
    let tx = Point::new(0.0, 18.0);
    let (mut certain, mut transition) = (0, 0);
    for (g, (rx, pre_db)) in geometries(&channel, tx).into_iter().enumerate() {
        let mut medium = Medium::new(
            MediumConfig::urban_testbed()
                .with_ap_vehicle(config.clone())
                .with_vehicle_vehicle(config.clone()),
        );
        let (tx_id, rx_id) = (NodeId::new(0), NodeId::new(1));
        medium.register_node(tx_id, tx_class);
        medium.register_node(rx_id, RadioClass::Vehicle);
        medium.update_position(tx_id, tx);
        medium.update_position(rx_id, rx);
        let frame = Frame::new(tx_id, Destination::Unicast(rx_id), 1_000, ());
        let bits = frame.total_bits();
        let mut rng = StreamRng::derive(g as u64, "reception-oracle");
        let mut now = SimTime::ZERO;
        let mut received = 0u32;
        for _ in 0..VERDICTS {
            let result = medium.transmit(now, &frame, DataRate::Mbps1, &mut rng);
            received += u32::from(result.deliveries[0].outcome.is_received());
            now = result.ends_at;
        }
        let p = expected(pre_db, bits);
        let share = f64::from(received) / f64::from(VERDICTS);
        let tolerance = 4.0 * (p * (1.0 - p) / f64::from(VERDICTS)).sqrt();
        let finer = refined(pre_db, bits);
        assert!(
            (p - finer).abs() <= tolerance / 50.0,
            "{name} at {pre_db:.2} dB: quadrature {p} vs {finer}"
        );
        assert!(
            (share - p).abs() <= tolerance,
            "{name} at {pre_db:.2} dB ({rx:?}): received {share}, expected {p} ± {tolerance}"
        );
        let budget_db = channel.link_state(tx, rx).budget.snr_db;
        let settled = channel
            .certain_loss_ceiling(budget_db + channel.shadowing_ceiling_db(), bits, DataRate::Mbps1)
            .or_else(|| channel.certain_loss_ceiling(pre_db, bits, DataRate::Mbps1));
        if settled.is_some() {
            certain += 1;
            assert_eq!(received, 0, "{name} at {pre_db:.2} dB is a certain loss");
        }
        transition += usize::from((0.05..0.95).contains(&p));
        eprintln!("{name}: {pre_db:7.2} dB  received {share:.5}  expected {p:.5} ± {tolerance:.5}");
    }
    assert!(certain >= certain_geometries, "{name}: {certain} certain-loss geometries");
    assert!(transition >= 3, "{name}: {transition} geometries in the transition");
}

#[test]
fn reception_matches_the_rician_per_curve_at_fixed_geometries() {
    let urban = MediumConfig::urban_testbed();
    let channels = [
        ("ap-vehicle", urban.ap_vehicle.clone(), RadioClass::AccessPoint),
        ("vehicle-vehicle", urban.vehicle_vehicle.clone(), RadioClass::Vehicle),
    ];
    let (rule, check) = (gauss_hermite(RULE_POINTS), gauss_hermite(CHECK_POINTS));
    for (name, config, tx_class) in channels {
        let FadingKind::Rician { k_db } = config.fading else {
            panic!("{name}: the urban channels fade Rician");
        };
        check_channel(
            name,
            config,
            tx_class,
            2,
            |pre_db, bits| expected_reception(&rule, pre_db, k_db, bits),
            |pre_db, bits| expected_reception(&check, pre_db, k_db, bits),
        );
    }
}

#[test]
fn reception_matches_the_rayleigh_per_curve_at_fixed_geometries() {
    let config = MediumConfig::highway().ap_vehicle;
    assert_eq!(config.fading, FadingKind::Rayleigh, "the highway AP channel fades Rayleigh");
    check_channel(
        "highway ap-vehicle",
        config,
        RadioClass::AccessPoint,
        1,
        |pre_db, bits| expected_rayleigh_reception(pre_db, bits, RAYLEIGH_STEPS),
        |pre_db, bits| expected_rayleigh_reception(pre_db, bits, 2.0 * RAYLEIGH_STEPS),
    );
}
