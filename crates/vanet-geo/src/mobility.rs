//! Vehicular mobility models.
//!
//! The paper's evaluation depends on *where each car is* while the AP is
//! transmitting: the three reception "regions" of Figures 3–5 arise from the
//! platoon entering, crossing and leaving the AP's coverage area with
//! driver-dependent spacing ("the driver in car 2 was the least experienced,
//! \[so\] car 3 became very close to car 2 at corner C"). The models here
//! capture exactly those effects:
//!
//! * [`PathMobility`] — one vehicle following a [`Polyline`] at a nominal
//!   speed, with optional corner slow-down.
//! * [`PlatoonMobility`] — a convoy of vehicles on the same path, each with a
//!   [`DriverProfile`] controlling its nominal headway, speed jitter and how
//!   much it bunches up behind the leader at corners.

use std::cell::Cell;

use serde::{Deserialize, Serialize};
use sim_core::{SimTime, StreamRng};

use crate::point::Point;
use crate::polyline::Polyline;

/// Something that has a position at every instant of simulated time.
///
/// Implementations must be deterministic functions of time (any randomness is
/// sampled up-front when the model is constructed), so that every layer of
/// the simulator sees a consistent trajectory.
pub trait MobilityModel: std::fmt::Debug {
    /// Position of the node at simulated time `t`.
    fn position_at(&self, t: SimTime) -> Point;

    /// Instantaneous speed (m/s) at time `t`. Defaults to numerical
    /// differentiation over a 100 ms window.
    fn speed_at(&self, t: SimTime) -> f64 {
        let dt = 0.05;
        let before = self.position_at(SimTime::from_secs_f64((t.as_secs_f64() - dt).max(0.0)));
        let after = self.position_at(SimTime::from_secs_f64(t.as_secs_f64() + dt));
        before.distance_to(after) / (2.0 * dt)
    }
}

/// Behavioural parameters of one driver in a platoon.
///
/// The defaults correspond to a typical commuter; the paper's "least
/// experienced driver" of car 2 is modelled with a larger corner slow-down
/// and larger headway variability (see
/// [`DriverProfile::inexperienced`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriverProfile {
    /// Target headway (gap, in metres) to the vehicle in front.
    pub headway_m: f64,
    /// Standard deviation of the per-round headway realisation (metres).
    pub headway_jitter_m: f64,
    /// Fraction of nominal speed kept while negotiating a corner
    /// (1.0 = no slow-down, 0.5 = half speed at the apex).
    pub corner_speed_factor: f64,
    /// Standard deviation of the multiplicative speed noise (fraction of the
    /// nominal speed, e.g. 0.05 = ±5 %).
    pub speed_jitter_frac: f64,
}

impl Default for DriverProfile {
    fn default() -> Self {
        DriverProfile {
            headway_m: 25.0,
            headway_jitter_m: 4.0,
            corner_speed_factor: 0.7,
            speed_jitter_frac: 0.05,
        }
    }
}

impl DriverProfile {
    /// An experienced driver: keeps a steady headway and barely slows at
    /// corners.
    pub fn experienced() -> Self {
        DriverProfile {
            headway_m: 25.0,
            headway_jitter_m: 2.0,
            corner_speed_factor: 0.8,
            speed_jitter_frac: 0.03,
        }
    }

    /// An inexperienced driver (the paper's car-2 driver): brakes hard at
    /// corners so the car behind closes up, and keeps an erratic headway.
    pub fn inexperienced() -> Self {
        DriverProfile {
            headway_m: 30.0,
            headway_jitter_m: 8.0,
            corner_speed_factor: 0.45,
            speed_jitter_frac: 0.08,
        }
    }
}

/// A single vehicle following a polyline path at a nominal speed.
///
/// The trajectory is `distance(t) = offset + speed * t` mapped through the
/// path's arc-length parametrisation; corner slow-down is applied as a local
/// reduction in effective speed near corners, implemented by pre-computing a
/// piecewise-constant speed profile along the path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PathMobility {
    path: Polyline,
    nominal_speed: f64,
    start_offset_m: f64,
    start_time: SimTime,
    corner_speed_factor: f64,
    corner_influence_m: f64,
    /// Corner arc-length positions, precomputed from `path` so the
    /// integration's inner loop never allocates.
    corners: Vec<f64>,
    /// Integration memo: `(full 0.1 s steps integrated, distance after
    /// them)`. The distance after `k` full steps is a pure prefix of the
    /// reference computation — the same float operations in the same order
    /// whatever the query time — so a (typically monotone) caller pays each
    /// step once instead of re-integrating from zero on every query, with
    /// bit-identical results. Interior-mutable because
    /// [`MobilityModel::position_at`] takes `&self`; reset whenever a
    /// builder changes the speed profile.
    #[serde(skip)]
    progress: Cell<(u64, f64)>,
}

impl PathMobility {
    /// Creates a vehicle that starts at the beginning of `path` at time zero
    /// and travels at `speed_ms` metres per second.
    ///
    /// # Panics
    ///
    /// Panics if `speed_ms` is not strictly positive.
    pub fn new(path: Polyline, speed_ms: f64) -> Self {
        assert!(speed_ms > 0.0, "speed must be positive");
        let corners = path.corner_distances();
        PathMobility {
            path,
            nominal_speed: speed_ms,
            start_offset_m: 0.0,
            start_time: SimTime::ZERO,
            corner_speed_factor: 1.0,
            corner_influence_m: 15.0,
            corners,
            progress: Cell::new((0, 0.0)),
        }
    }

    /// Starts the vehicle `offset_m` metres along the path (negative values
    /// place it before the start — useful for platoon followers).
    pub fn with_start_offset(mut self, offset_m: f64) -> Self {
        self.start_offset_m = offset_m;
        self.progress = Cell::new((0, self.start_offset_m));
        self
    }

    /// Delays the start of movement until `t`.
    pub fn with_start_time(mut self, t: SimTime) -> Self {
        self.start_time = t;
        self
    }

    /// Enables corner slow-down: within `influence_m` metres of a corner the
    /// vehicle travels at `factor` times its nominal speed.
    pub fn with_corner_slowdown(mut self, factor: f64, influence_m: f64) -> Self {
        self.corner_speed_factor = factor.clamp(0.05, 1.0);
        self.corner_influence_m = influence_m.max(0.0);
        self.progress = Cell::new((0, self.start_offset_m));
        self
    }

    /// The underlying path.
    pub fn path(&self) -> &Polyline {
        &self.path
    }

    /// Travelled distance along the path at time `t`, taking corner
    /// slow-down into account.
    ///
    /// Integrates distance in small steps so that the speed reduction near
    /// corners produces the characteristic bunching of the platoon. A 100 ms
    /// step at ~6 m/s is a 0.6 m resolution — plenty for street geometry.
    /// The reference computation is `remaining = elapsed; while remaining >
    /// 0 { dt = remaining.min(0.1); dist += speed(dist) * dt; remaining -=
    /// dt }`: every step but the last advances by exactly 0.1 s, so the
    /// distance after `k` full steps does not depend on the query time and
    /// the memoized prefix in `self.progress` continues where the previous
    /// query stopped — bit-identical to integrating from scratch.
    /// `countdown` gives the step count and the trailing `dt` in closed form.
    pub fn distance_at(&self, t: SimTime) -> f64 {
        let elapsed = t.saturating_since(self.start_time).as_secs_f64();
        if self.corner_speed_factor >= 0.999 || self.corner_influence_m <= 0.0 {
            return self.start_offset_m + self.nominal_speed * elapsed;
        }
        let (full_steps, remaining) = countdown(elapsed);
        let (stored_steps, stored_dist) = self.progress.get();
        // A query before the memoized point (e.g. a `speed_at` probe)
        // replays from the start and keeps the longer stored prefix.
        let (done, mut dist) = if stored_steps <= full_steps {
            (stored_steps, stored_dist)
        } else {
            (0, self.start_offset_m)
        };
        for _ in done..full_steps {
            dist += self.effective_speed_at_distance(dist) * STEP_S;
        }
        if full_steps >= stored_steps {
            self.progress.set((full_steps, dist));
        }
        if remaining > 0.0 {
            dist += self.effective_speed_at_distance(dist) * remaining;
        }
        dist
    }

    fn effective_speed_at_distance(&self, dist: f64) -> f64 {
        let total = self.path.length();
        let d = if self.path.is_closed() { dist.rem_euclid(total) } else { dist.clamp(0.0, total) };
        let near_corner = self.corners.iter().any(|c| {
            circular_distance(d, *c, total, self.path.is_closed()) < self.corner_influence_m
        });
        if near_corner {
            self.nominal_speed * self.corner_speed_factor
        } else {
            self.nominal_speed
        }
    }
}

/// The integration step of [`PathMobility::distance_at`], in seconds.
const STEP_S: f64 = 0.1;

/// The `(n, r)` the reference countdown `r = elapsed; n = 0; while r > 0.1
/// { r -= 0.1; n += 1 }` ends with, bit for bit, in O(log elapsed) instead
/// of O(elapsed / 0.1 s).
///
/// Inside a binade [2^e, 2^(e+1)) every double is a multiple of the ulp
/// 2^(e−52), and 0.1 is C·2⁻⁵⁶ with C = `0x19_9999_9999_999A`. A subtraction
/// whose exact result stays in the binade is rounded to a multiple of that
/// ulp, so it removes exactly round(C / 2^(e+4)) ulps whatever the
/// significand, and a run of such steps is one multiply-subtract on the
/// integer significand. C is twice an odd number, so C / 2^(e+4) is an odd
/// half only for e = −2: in [0.25, 0.5) the rounding is a tie that depends
/// on the significand's parity. That binade, everything below it, and each
/// step that leaves a binade take the plain floating-point step.
///
/// `elapsed` comes from a [`SimTime`], so it is below 2^35 s, where a step
/// still removes more than 2^14 ulps.
fn countdown(elapsed: f64) -> (u64, f64) {
    const C: u64 = 0x0019_9999_9999_999A;
    const HIDDEN: u64 = 1 << 52;
    let mut r = elapsed;
    let mut n: u64 = 0;
    while r > STEP_S {
        let bits = r.to_bits();
        // r > 0.1, so r is a positive normal double.
        let e = ((bits >> 52) & 0x7ff) as i32 - 1023;
        if e >= -1 {
            let shift = (e + 4) as u32;
            // C / 2^shift is never an integer here: a step stays in the
            // binade while the ulps above 2^e exceed its integer part.
            let floor = C >> shift;
            let per_step = (C + (1 << (shift - 1))) >> shift;
            let above = bits & (HIDDEN - 1);
            if above > floor {
                let steps = (above - floor - 1) / per_step + 1;
                n += steps;
                r = f64::from_bits((bits & !(HIDDEN - 1)) | (above - steps * per_step));
            }
        }
        // The step out of this binade (or any step below 0.5).
        r -= STEP_S;
        n += 1;
    }
    (n, r)
}

/// Distance between two arc-length positions, respecting wrap-around on loops.
fn circular_distance(a: f64, b: f64, total: f64, closed: bool) -> f64 {
    let d = (a - b).abs();
    if closed {
        d.min(total - d)
    } else {
        d
    }
}

impl MobilityModel for PathMobility {
    fn position_at(&self, t: SimTime) -> Point {
        self.path.point_at(self.distance_at(t))
    }
}

/// A platoon (convoy) of vehicles on a common path.
///
/// The leader follows the path at the platoon's nominal speed; each follower
/// trails the vehicle in front by its driver's realised headway. Per-round
/// randomness (headway realisation, speed jitter) is sampled from a
/// [`StreamRng`] at construction, so a `PlatoonMobility` value represents one
/// concrete "round" of the experiment.
#[derive(Debug, Clone)]
pub struct PlatoonMobility {
    members: Vec<PathMobility>,
}

impl PlatoonMobility {
    /// Builds a platoon of `drivers.len()` vehicles on `path`.
    ///
    /// * `nominal_speed_ms` — the leader's cruise speed.
    /// * `drivers[0]` describes the leader (its headway is ignored).
    /// * `rng` — per-round randomness source.
    ///
    /// # Panics
    ///
    /// Panics if `drivers` is empty or the speed is not positive.
    pub fn new(
        path: Polyline,
        nominal_speed_ms: f64,
        drivers: &[DriverProfile],
        rng: &mut StreamRng,
    ) -> Self {
        assert!(!drivers.is_empty(), "a platoon needs at least one vehicle");
        assert!(nominal_speed_ms > 0.0, "speed must be positive");
        let mut members = Vec::with_capacity(drivers.len());
        let mut cumulative_gap = 0.0;
        for (i, driver) in drivers.iter().enumerate() {
            if i > 0 {
                let gap = (driver.headway_m + rng.normal(0.0, driver.headway_jitter_m)).max(5.0);
                cumulative_gap += gap;
            }
            let speed_factor = (1.0 + rng.normal(0.0, driver.speed_jitter_frac)).clamp(0.7, 1.3);
            let vehicle = PathMobility::new(path.clone(), nominal_speed_ms * speed_factor)
                .with_start_offset(-cumulative_gap)
                .with_corner_slowdown(driver.corner_speed_factor, 15.0);
            members.push(vehicle);
        }
        PlatoonMobility { members }
    }

    /// Number of vehicles in the platoon.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the platoon has no vehicles (never true for constructed values).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The mobility model of vehicle `idx` (0 = leader).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn member(&self, idx: usize) -> &PathMobility {
        &self.members[idx]
    }

    /// Iterates over the members, leader first.
    pub fn iter(&self) -> impl Iterator<Item = &PathMobility> {
        self.members.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert, proptest};

    fn line() -> Polyline {
        Polyline::open(vec![Point::new(0.0, 0.0), Point::new(1_000.0, 0.0)])
    }

    #[test]
    fn path_mobility_travels_at_nominal_speed() {
        let car = PathMobility::new(line(), 20.0);
        assert_eq!(car.position_at(SimTime::ZERO), Point::new(0.0, 0.0));
        let p = car.position_at(SimTime::from_secs(10));
        assert!((p.x - 200.0).abs() < 1e-9);
        assert!((car.speed_at(SimTime::from_secs(10)) - 20.0).abs() < 0.5);
    }

    #[test]
    fn start_offset_and_start_time() {
        let car = PathMobility::new(line(), 10.0)
            .with_start_offset(-50.0)
            .with_start_time(SimTime::from_secs(5));
        // Before the start time the car sits at its offset (clamped to path start).
        assert_eq!(car.distance_at(SimTime::ZERO), -50.0);
        assert_eq!(car.position_at(SimTime::ZERO), Point::new(0.0, 0.0));
        // 10 s after its start it has covered 100 m from -50 m.
        assert!((car.distance_at(SimTime::from_secs(15)) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn corner_slowdown_reduces_progress() {
        let square = Polyline::closed(vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 100.0),
            Point::new(0.0, 100.0),
        ]);
        let fast = PathMobility::new(square.clone(), 10.0);
        let slow = PathMobility::new(square, 10.0).with_corner_slowdown(0.5, 20.0);
        let t = SimTime::from_secs(30);
        assert!(slow.distance_at(t) < fast.distance_at(t));
    }

    #[test]
    fn platoon_members_keep_order() {
        let mut rng = StreamRng::derive(1, "platoon");
        let drivers = [
            DriverProfile::experienced(),
            DriverProfile::default(),
            DriverProfile::inexperienced(),
        ];
        let platoon = PlatoonMobility::new(line(), 10.0, &drivers, &mut rng);
        assert_eq!(platoon.len(), 3);
        assert!(!platoon.is_empty());
        let t = SimTime::from_secs(20);
        let pos: Vec<Point> = platoon.iter().map(|m| m.position_at(t)).collect();
        // Leader is ahead of car 2, which is ahead of car 3 (x decreasing).
        assert!(pos[0].x > pos[1].x);
        assert!(pos[1].x > pos[2].x);
        assert!(pos[0].distance_to(pos[1]) > 0.0);
        assert!(pos[1].distance_to(pos[2]) > 0.0);
        assert_eq!(platoon.iter().count(), 3);
    }

    #[test]
    fn platoon_is_reproducible_per_seed() {
        let drivers = [DriverProfile::default(), DriverProfile::default()];
        let mut rng_a = StreamRng::derive(77, "round");
        let mut rng_b = StreamRng::derive(77, "round");
        let a = PlatoonMobility::new(line(), 8.0, &drivers, &mut rng_a);
        let b = PlatoonMobility::new(line(), 8.0, &drivers, &mut rng_b);
        let t = SimTime::from_secs(12);
        let positions =
            |p: &PlatoonMobility| p.iter().map(|m| m.position_at(t)).collect::<Vec<Point>>();
        assert_eq!(positions(&a), positions(&b));
    }

    #[test]
    #[should_panic(expected = "at least one vehicle")]
    fn empty_platoon_rejected() {
        let mut rng = StreamRng::derive(0, "x");
        let _ = PlatoonMobility::new(line(), 10.0, &[], &mut rng);
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn zero_speed_rejected() {
        let _ = PathMobility::new(line(), 0.0);
    }

    #[test]
    fn memoized_distance_is_bit_identical_to_fresh_integration() {
        let square = Polyline::closed(vec![
            Point::new(0.0, 0.0),
            Point::new(120.0, 0.0),
            Point::new(120.0, 80.0),
            Point::new(0.0, 80.0),
        ]);
        let warm = PathMobility::new(square.clone(), 7.0)
            .with_start_offset(-12.5)
            .with_corner_slowdown(0.45, 15.0);
        // Monotone queries (the hot path), then probes jumping backwards.
        let times: Vec<f64> =
            (0..400).map(|i| i as f64 * 0.1).chain([3.05, 0.31, 17.7, 39.99]).collect();
        for t in times {
            let t = SimTime::from_secs_f64(t);
            // A fresh instance integrates from scratch; the warm one uses
            // its memo. Results must match to the last bit.
            let fresh = PathMobility::new(square.clone(), 7.0)
                .with_start_offset(-12.5)
                .with_corner_slowdown(0.45, 15.0);
            assert_eq!(warm.distance_at(t), fresh.distance_at(t), "at {t:?}");
            assert_eq!(warm.position_at(t), fresh.position_at(t), "at {t:?}");
        }
    }

    /// The countdown `countdown` replaces, kept as its reference.
    fn loop_countdown(elapsed: f64) -> (u64, f64) {
        let mut remaining = elapsed;
        let mut full_steps: u64 = 0;
        while remaining > STEP_S {
            remaining -= STEP_S;
            full_steps += 1;
        }
        (full_steps, remaining)
    }

    fn assert_countdown_exact(elapsed: f64) {
        let (n, r) = countdown(elapsed);
        let (want_n, want_r) = loop_countdown(elapsed);
        assert!(
            n == want_n && r.to_bits() == want_r.to_bits(),
            "countdown({elapsed:e} = {:#x}) = ({n}, {r:e}), the loop gives ({want_n}, {want_r:e})",
            elapsed.to_bits()
        );
    }

    #[test]
    fn countdown_matches_the_loop_bit_for_bit() {
        // The 100 ms grid of mobility ticks, out to 2,000 s.
        for k in 0..=20_000u64 {
            assert_countdown_exact(SimTime::from_nanos(k * 100_000_000).as_secs_f64());
        }
        // An odd-nanosecond grid, out to 2,100 s.
        for k in 0..=6_000u64 {
            assert_countdown_exact(SimTime::from_nanos(k * 350_000_001).as_secs_f64());
        }
        // Random doubles in [0, 3,000) s.
        let mut rng = StreamRng::derive(0x0C0D, "countdown");
        for _ in 0..4_000 {
            assert_countdown_exact(rng.uniform(0.0, 3_000.0));
        }
        // ±3 ulps around every power of two from 2^-6 to 2^12: the binade
        // edges, the tie binade [0.25, 0.5) and the first binade the closed
        // form takes.
        for e in -6..=12 {
            let bits = 2f64.powi(e).to_bits();
            for ulps in 0..=6 {
                assert_countdown_exact(f64::from_bits(bits + ulps - 3));
            }
        }
    }

    proptest! {
        /// Distance travelled is monotone non-decreasing in time.
        #[test]
        fn prop_distance_monotone(speed in 1.0f64..40.0, t1 in 0.0f64..100.0, dt in 0.0f64..100.0) {
            let car = PathMobility::new(line(), speed).with_corner_slowdown(0.5, 10.0);
            let d1 = car.distance_at(SimTime::from_secs_f64(t1));
            let d2 = car.distance_at(SimTime::from_secs_f64(t1 + dt));
            prop_assert!(d2 + 1e-9 >= d1);
        }

        /// Followers never overtake the leader on an open straight road.
        #[test]
        fn prop_platoon_order_preserved(seed in 0u64..200, t in 0.0f64..60.0) {
            let mut rng = StreamRng::derive(seed, "order");
            let drivers = [DriverProfile::experienced(), DriverProfile::default(), DriverProfile::inexperienced()];
            // Same nominal speed and no corners: order must be preserved by construction offsets.
            let platoon = PlatoonMobility::new(line(), 10.0, &drivers, &mut rng);
            let time = SimTime::from_secs_f64(t);
            let d0 = platoon.member(0).distance_at(time);
            let d1 = platoon.member(1).distance_at(time);
            let d2 = platoon.member(2).distance_at(time);
            // Allow a small overlap because speed jitter can make a follower
            // marginally faster; over 60 s the initial gap (>=5 m) plus the
            // clamped jitter keeps them from crossing by more than the clamp allows.
            prop_assert!(d0 > d1 - 200.0);
            prop_assert!(d1 > d2 - 200.0);
        }
    }
}
