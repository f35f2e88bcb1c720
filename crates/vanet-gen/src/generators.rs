//! The generator catalogue: named, schema-checked world builders.
//!
//! Each [`Generator`] couples a world [`ParamSchema`] with a pure build
//! function `(resolved params, gen seed) → Blueprint`. All sampling happens
//! inside the build function from streams derived off the gen seed, so the
//! same `(generator, params, seed)` triple always freezes the same world —
//! the property `carq-cli gen` and the campaign layer rely on to regenerate
//! any scenario from its identity alone.
//!
//! A world schema speaks the same [`Param`] vocabulary, values, checks and
//! canonical codec as a scenario's runtime schema; it declares the
//! parameters that build a world (street-grid dimensions, AP placement,
//! merge geometry) where a runtime schema declares the knobs of a
//! configured experiment.

use std::fmt;

use rand::Rng;
use sim_core::{SimTime, StreamRng};
use vanet_geo::{kmh_to_ms, Point, Polyline};
use vanet_mac::MediumConfig;
use vanet_radio::{Building, ObstacleMap};
use vanet_scenarios::registry::normalize;
use vanet_scenarios::{Param, ParamError, ParamSchema, ParamSpec, ParamValue, SweepPoint};

use crate::blueprint::{Blueprint, CarPlan};

/// Why a generation request failed. A world parameter's kind and range
/// failures are its schema's [`ParamError`]s; the other variants are what
/// no schema can report.
#[derive(Debug, Clone, PartialEq)]
pub enum GenError {
    /// The named generator is not in the catalogue.
    UnknownGenerator(String),
    /// The key names no parameter of the generator's schema.
    Unknown {
        /// The generator whose schema lacks the parameter.
        generator: &'static str,
        /// The offending key.
        key: String,
    },
    /// The same parameter was assigned twice.
    Duplicate {
        /// The generator whose schema rejected the assignment.
        generator: &'static str,
        /// The duplicated key.
        key: &'static str,
    },
    /// The world schema rejected a value (wrong kind, out of range).
    Param(ParamError),
    /// A `VANETGEN1` scenario file failed to parse; `line` is 1-based.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::UnknownGenerator(name) => {
                write!(f, "unknown generator `{name}` (see `carq-cli gen list`)")
            }
            GenError::Unknown { generator, key } => {
                write!(f, "generator `{generator}` has no parameter `{key}`")
            }
            GenError::Duplicate { generator, key } => {
                write!(f, "generator `{generator}`: parameter `{key}` assigned twice")
            }
            GenError::Param(e) => e.fmt(f),
            GenError::Parse { line, message } => {
                write!(f, "scenario file line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for GenError {}

impl From<ParamError> for GenError {
    fn from(e: ParamError) -> Self {
        GenError::Param(e)
    }
}

/// A named scenario generator.
#[derive(Clone)]
pub struct Generator {
    /// The catalogue name (`grid-city`, `highway-flow`, `platoon-merge`).
    pub name: &'static str,
    /// One-line description for `carq-cli gen list`.
    pub description: &'static str,
    schema: ParamSchema,
    build: fn(&SweepPoint, u64) -> Blueprint,
}

impl fmt::Debug for Generator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Generator").field("name", &self.name).finish()
    }
}

impl Generator {
    /// The generator's world schema.
    pub fn schema(&self) -> &ParamSchema {
        &self.schema
    }

    /// The spec of the world parameter named `key`.
    ///
    /// # Errors
    ///
    /// [`GenError::Unknown`] when the key names no parameter of this
    /// generator.
    pub fn spec(&self, key: &str) -> Result<&ParamSpec, GenError> {
        Param::from_key(key)
            .and_then(|param| self.schema.spec(param))
            .ok_or_else(|| GenError::Unknown { generator: self.name, key: key.to_string() })
    }

    /// Resolves named assignments (partial, in any order) into the world's
    /// full parameter vector: every declared parameter in declaration order,
    /// checked, defaults filling the rest.
    ///
    /// # Errors
    ///
    /// Unknown and duplicated keys, and the schema's kind and range errors.
    pub fn resolve(&self, assignments: &[(String, ParamValue)]) -> Result<SweepPoint, GenError> {
        let mut point: Vec<(Param, ParamValue)> = Vec::with_capacity(assignments.len());
        for (key, value) in assignments {
            let param = self.spec(key)?.param;
            if point.iter().any(|(p, _)| *p == param) {
                return Err(GenError::Duplicate { generator: self.name, key: param.key() });
            }
            point.push((param, *value));
        }
        Ok(self.schema.resolve(&SweepPoint::new(point))?)
    }

    /// Freezes the world for `params` (resolved against this generator's
    /// schema) at `seed`. The result is a pure function of the inputs
    /// ([`Blueprint`]-level determinism is pinned by tests and the
    /// emit-twice CI check).
    pub fn blueprint(&self, params: &SweepPoint, seed: u64) -> Blueprint {
        let blueprint = (self.build)(params, seed);
        blueprint.validate();
        blueprint
    }
}

/// A generator's builder.
type Build = fn() -> Generator;

/// The catalogue: each generator's name and its builder, in presentation
/// order, so a lookup builds only the generator it names.
const CATALOGUE: [(&str, Build); 3] =
    [("grid-city", grid_city), ("highway-flow", highway_flow), ("platoon-merge", platoon_merge)];

/// Every generator in the catalogue, in presentation order.
pub fn all() -> Vec<Generator> {
    CATALOGUE.iter().map(|(_, build)| build()).collect()
}

/// Finds a generator by name, forgiving about separators and case like
/// the scenario registry (`grid-city`, `grid_city` and `GridCity` all
/// resolve).
pub fn find(name: &str) -> Option<Generator> {
    let wanted = normalize(name);
    CATALOGUE.iter().find(|(known, _)| normalize(known) == wanted).map(|(_, build)| build())
}

/// [`find`], or [`GenError::UnknownGenerator`].
///
/// # Errors
///
/// [`GenError::UnknownGenerator`] when no generator has the name.
pub fn lookup(name: &str) -> Result<Generator, GenError> {
    find(name).ok_or_else(|| GenError::UnknownGenerator(name.to_string()))
}

/// A resolved world's value of `param`, which resolution always assigns.
fn value(params: &SweepPoint, param: Param) -> ParamValue {
    params.get(param).unwrap_or_else(|| panic!("world parameter `{param}` is not resolved"))
}

/// A resolved world's numeric parameter.
fn num(params: &SweepPoint, param: Param) -> f64 {
    value(params, param).as_f64().unwrap_or_else(|| panic!("`{param}` is not numeric"))
}

/// A resolved world's integer parameter.
fn count(params: &SweepPoint, param: Param) -> u64 {
    value(params, param).as_u64().unwrap_or_else(|| panic!("`{param}` is not an integer"))
}

/// Shared load/traffic parameters every generator exposes.
fn load_specs(default_rate: f64) -> Vec<ParamSpec> {
    vec![
        ParamSpec::float(
            Param::ApRatePps,
            "AP sending rate per car (packets/s)",
            default_rate,
            0.1,
            50.0,
        ),
        ParamSpec::int(Param::PayloadBytes, "payload per data packet in bytes", 300, 1, 65_535),
        ParamSpec::int(
            Param::Rounds,
            "default round budget of the generated scenario",
            2,
            1,
            1_000,
        ),
    ]
}

// ---------------------------------------------------------------------------
// grid-city: a street grid with random-waypoint walks and placed APs.
// ---------------------------------------------------------------------------

fn grid_city() -> Generator {
    let mut specs = vec![
        ParamSpec::int(Param::BlocksX, "city blocks along x", 2, 1, 6),
        ParamSpec::int(Param::BlocksY, "city blocks along y", 2, 1, 6),
        ParamSpec::float(Param::BlockM, "block edge length in metres", 80.0, 40.0, 400.0),
        ParamSpec::int(Param::NCars, "cars walking the street graph", 2, 1, 8),
        ParamSpec::float(Param::SpeedKmh, "car cruise speed in km/h", 25.0, 5.0, 100.0),
        ParamSpec::float(
            Param::WalkM,
            "random-waypoint walk length per car",
            300.0,
            100.0,
            5_000.0,
        ),
        ParamSpec::choice(
            Param::ApPlacement,
            "where the APs stand on the grid",
            "center",
            &["center", "corner", "perimeter"],
        ),
        ParamSpec::int(Param::NAps, "number of access points", 1, 1, 4),
    ];
    specs.extend(load_specs(5.0));
    Generator {
        name: "grid-city",
        description: "street-grid city: random-waypoint walks past strategically placed APs, \
                      buildings shadowing every cross-block link",
        schema: ParamSchema::new("grid-city", specs),
        build: build_grid_city,
    }
}

/// One random-waypoint walk over the grid's intersections, frozen as an
/// open polyline of at least `walk_m` metres. The walk never immediately
/// backtracks unless it is cornered.
fn grid_walk(
    blocks_x: u64,
    blocks_y: u64,
    block_m: f64,
    walk_m: f64,
    rng: &mut StreamRng,
) -> Polyline {
    let nx = blocks_x as i64;
    let ny = blocks_y as i64;
    let mut at = (rng.gen_range(0..nx + 1), rng.gen_range(0..ny + 1));
    let mut came_from: Option<(i64, i64)> = None;
    let mut vertices = vec![Point::new(at.0 as f64 * block_m, at.1 as f64 * block_m)];
    let mut walked = 0.0;
    while walked < walk_m {
        let candidates: Vec<(i64, i64)> = [(1, 0), (-1, 0), (0, 1), (0, -1)]
            .iter()
            .map(|(dx, dy)| (at.0 + dx, at.1 + dy))
            .filter(|(x, y)| (0..=nx).contains(x) && (0..=ny).contains(y))
            .filter(|next| Some(*next) != came_from)
            .collect();
        let next = candidates[rng.gen_range(0..candidates.len())];
        came_from = Some(at);
        at = next;
        vertices.push(Point::new(at.0 as f64 * block_m, at.1 as f64 * block_m));
        walked += block_m;
    }
    Polyline::open(vertices)
}

fn build_grid_city(params: &SweepPoint, seed: u64) -> Blueprint {
    let blocks_x = count(params, Param::BlocksX);
    let blocks_y = count(params, Param::BlocksY);
    let block_m = num(params, Param::BlockM);
    let n_cars = count(params, Param::NCars) as usize;
    let speed_ms = kmh_to_ms(num(params, Param::SpeedKmh));
    let walk_m = num(params, Param::WalkM);
    let n_aps = count(params, Param::NAps) as usize;
    let width = blocks_x as f64 * block_m;
    let height = blocks_y as f64 * block_m;

    // Every block's interior is a building that shadows cross-block links,
    // the same urban geometry trick as the hand-written testbed; the inset
    // keeps the streets themselves clear.
    let inset = (block_m * 0.08).min(8.0);
    let buildings: Vec<Building> = (0..blocks_x)
        .flat_map(|i| {
            (0..blocks_y).map(move |j| {
                let min = Point::new(i as f64 * block_m + inset, j as f64 * block_m + inset);
                let max =
                    Point::new((i + 1) as f64 * block_m - inset, (j + 1) as f64 * block_m - inset);
                Building::new(min, max, 30.0)
            })
        })
        .collect();
    let obstacles = ObstacleMap::from_buildings(buildings);
    let mut medium = MediumConfig::urban_testbed();
    medium.ap_vehicle.obstacles = obstacles.clone();
    medium.vehicle_vehicle.obstacles = obstacles;

    let ap_positions: Vec<Point> = match value(params, Param::ApPlacement).as_choice() {
        // Spread along the middle horizontal street, snapped to
        // intersections so the APs stand on the street grid.
        Some("center") => {
            let mid_y = blocks_y.div_ceil(2) as f64 * block_m;
            (0..n_aps)
                .map(|i| {
                    let frac = (i + 1) as f64 / (n_aps + 1) as f64;
                    let snapped = (frac * blocks_x as f64).round() * block_m;
                    Point::new(snapped.clamp(0.0, width), mid_y)
                })
                .collect()
        }
        Some("corner") => {
            let corners = [
                Point::new(0.0, 0.0),
                Point::new(width, height),
                Point::new(width, 0.0),
                Point::new(0.0, height),
            ];
            (0..n_aps).map(|i| corners[i % corners.len()]).collect()
        }
        Some("perimeter") => {
            let perimeter = Polyline::closed(vec![
                Point::new(0.0, 0.0),
                Point::new(width, 0.0),
                Point::new(width, height),
                Point::new(0.0, height),
            ]);
            let length = perimeter.length();
            (0..n_aps).map(|i| perimeter.point_at(length * i as f64 / n_aps as f64)).collect()
        }
        other => unreachable!("schema admits no placement {other:?}"),
    };

    let rng = StreamRng::derive(seed, "gen/grid-city");
    let cars = (0..n_cars)
        .map(|i| {
            let mut walk_rng = rng.substream(i as u64 + 1);
            CarPlan {
                path: grid_walk(blocks_x, blocks_y, block_m, walk_m, &mut walk_rng),
                speed_ms,
                start_offset_m: 0.0,
                start_time: SimTime::ZERO,
            }
        })
        .collect();

    Blueprint {
        cars,
        ap_positions,
        medium,
        ap_rate_pps: num(params, Param::ApRatePps),
        payload_bytes: count(params, Param::PayloadBytes).min(65_535) as u32,
        horizon: SimTime::from_secs_f64(walk_m / speed_ms + 10.0),
        rounds_default: count(params, Param::Rounds).min(1_000) as u32,
    }
}

// ---------------------------------------------------------------------------
// highway-flow: a linear highway with (optionally) bidirectional traffic.
// ---------------------------------------------------------------------------

fn highway_flow() -> Generator {
    let mut specs = vec![
        ParamSpec::float(Param::RoadLengthM, "highway segment length", 600.0, 200.0, 10_000.0),
        ParamSpec::int(Param::NCars, "cars per direction", 2, 1, 8),
        ParamSpec::bool(Param::Bidirectional, "run an opposing flow on the second lane", true),
        ParamSpec::float(Param::SpeedKmh, "nominal cruise speed in km/h", 80.0, 20.0, 200.0),
        ParamSpec::float(
            Param::SpeedJitter,
            "per-car speed jitter as a fraction of nominal",
            0.05,
            0.0,
            0.3,
        ),
        ParamSpec::float(Param::HeadwayM, "gap between successive cars", 25.0, 5.0, 100.0),
        ParamSpec::float(
            Param::ApSpacingM,
            "distance between roadside APs",
            400.0,
            100.0,
            10_000.0,
        ),
    ];
    specs.extend(load_specs(5.0));
    Generator {
        name: "highway-flow",
        description: "linear highway: platooned flows (optionally bidirectional, the paper's \
                      opposite-direction cooperation) past roadside APs",
        schema: ParamSchema::new("highway-flow", specs),
        build: build_highway_flow,
    }
}

fn build_highway_flow(params: &SweepPoint, seed: u64) -> Blueprint {
    let length = num(params, Param::RoadLengthM);
    let n_cars = count(params, Param::NCars) as usize;
    let bidirectional = value(params, Param::Bidirectional).as_bool() == Some(true);
    let speed_ms = kmh_to_ms(num(params, Param::SpeedKmh));
    let jitter = num(params, Param::SpeedJitter);
    let headway = num(params, Param::HeadwayM);
    let spacing = num(params, Param::ApSpacingM);

    let forward = Polyline::open(vec![Point::new(0.0, 0.0), Point::new(length, 0.0)]);
    let reverse = Polyline::open(vec![Point::new(length, 4.0), Point::new(0.0, 4.0)]);

    let rng = StreamRng::derive(seed, "gen/highway-flow");
    let mut cars = Vec::new();
    let directions: &[Polyline] = if bidirectional { &[forward, reverse] } else { &[forward] };
    for (d, path) in directions.iter().enumerate() {
        for i in 0..n_cars {
            let mut car_rng = rng.substream((d * n_cars + i) as u64 + 1);
            let factor = 1.0 + jitter * (car_rng.gen_range(-1.0..1.0));
            cars.push(CarPlan {
                path: path.clone(),
                speed_ms: speed_ms * factor,
                start_offset_m: -(i as f64) * headway,
                start_time: SimTime::ZERO,
            });
        }
    }

    // Roadside APs every `spacing` metres, starting half a gap in, standing
    // 10 m off the carriageway.
    let mut ap_positions = Vec::new();
    let mut x = spacing / 2.0;
    while x < length && ap_positions.len() < 16 {
        ap_positions.push(Point::new(x, 10.0));
        x += spacing;
    }
    if ap_positions.is_empty() {
        ap_positions.push(Point::new(length / 2.0, 10.0));
    }

    // The slowest jittered car still has to clear the segment plus its
    // platoon offset before the horizon cuts the pass.
    let slowest = speed_ms * (1.0 - jitter).max(0.1);
    let horizon = (length + n_cars as f64 * headway) / slowest + 15.0;
    Blueprint {
        cars,
        ap_positions,
        medium: MediumConfig::highway(),
        ap_rate_pps: num(params, Param::ApRatePps),
        payload_bytes: count(params, Param::PayloadBytes).min(65_535) as u32,
        horizon: SimTime::from_secs_f64(horizon),
        rounds_default: count(params, Param::Rounds).min(1_000) as u32,
    }
}

// ---------------------------------------------------------------------------
// platoon-merge: two feeder roads joining into a shared tail at an AP.
// ---------------------------------------------------------------------------

fn platoon_merge() -> Generator {
    let mut specs = vec![
        ParamSpec::float(
            Param::FeederM,
            "feeder road length before the merge",
            300.0,
            100.0,
            2_000.0,
        ),
        ParamSpec::float(Param::TailM, "shared road length after the merge", 400.0, 100.0, 3_000.0),
        ParamSpec::int(Param::NMain, "cars on the main feeder", 2, 1, 6),
        ParamSpec::int(Param::NRamp, "cars on the merging ramp", 1, 1, 6),
        ParamSpec::float(Param::SpeedKmh, "cruise speed in km/h", 50.0, 10.0, 150.0),
        ParamSpec::float(Param::HeadwayM, "gap between successive cars", 20.0, 5.0, 100.0),
        ParamSpec::float(
            Param::MergeGapS,
            "how long after the main platoon the ramp flow starts",
            2.0,
            0.0,
            30.0,
        ),
    ];
    specs.extend(load_specs(5.0));
    Generator {
        name: "platoon-merge",
        description: "two platoons merging onto a shared road at an AP: cooperation across \
                      freshly merged neighbours",
        schema: ParamSchema::new("platoon-merge", specs),
        build: build_platoon_merge,
    }
}

fn build_platoon_merge(params: &SweepPoint, _seed: u64) -> Blueprint {
    let feeder = num(params, Param::FeederM);
    let tail = num(params, Param::TailM);
    let n_main = count(params, Param::NMain) as usize;
    let n_ramp = count(params, Param::NRamp) as usize;
    let speed_ms = kmh_to_ms(num(params, Param::SpeedKmh));
    let headway = num(params, Param::HeadwayM);
    let merge_gap = num(params, Param::MergeGapS);

    let main_path =
        Polyline::open(vec![Point::new(-feeder, 0.0), Point::new(0.0, 0.0), Point::new(tail, 0.0)]);
    // The ramp approaches at ~30 degrees and joins the same tail.
    let ramp_path = Polyline::open(vec![
        Point::new(-0.866 * feeder, -0.5 * feeder),
        Point::new(0.0, 0.0),
        Point::new(tail, 0.0),
    ]);

    let mut cars = Vec::new();
    for i in 0..n_main {
        cars.push(CarPlan {
            path: main_path.clone(),
            speed_ms,
            start_offset_m: -(i as f64) * headway,
            start_time: SimTime::ZERO,
        });
    }
    for i in 0..n_ramp {
        cars.push(CarPlan {
            path: ramp_path.clone(),
            speed_ms,
            start_offset_m: -(i as f64) * headway,
            start_time: SimTime::from_secs_f64(merge_gap),
        });
    }

    let horizon =
        (feeder + tail + (n_main.max(n_ramp) as f64) * headway) / speed_ms + merge_gap + 15.0;
    Blueprint {
        cars,
        ap_positions: vec![Point::new(0.0, 12.0)],
        medium: MediumConfig::highway(),
        ap_rate_pps: num(params, Param::ApRatePps),
        payload_bytes: count(params, Param::PayloadBytes).min(65_535) as u32,
        horizon: SimTime::from_secs_f64(horizon),
        rounds_default: count(params, Param::Rounds).min(1_000) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_lists_three_generators_with_schemas() {
        let generators = all();
        let names: Vec<&str> = generators.iter().map(|g| g.name).collect();
        assert_eq!(names, vec!["grid-city", "highway-flow", "platoon-merge"]);
        for (name, build) in CATALOGUE {
            assert_eq!(build().name, name, "the catalogue names what it builds");
        }
        for g in &generators {
            assert!(!g.description.is_empty());
            assert_eq!(g.schema().scenario(), g.name);
            assert!(g.schema().params().len() >= 5, "{} schema too small", g.name);
        }
    }

    #[test]
    fn resolve_names_the_generator_and_its_keys() {
        let g = find("highway-flow").unwrap();
        let resolve = |key: &str, value| g.resolve(&[(key.to_string(), value)]);
        let err = resolve("warp", ParamValue::Int(1)).unwrap_err();
        assert_eq!(err.to_string(), "generator `highway-flow` has no parameter `warp`");
        // A runtime parameter is no world parameter either.
        assert!(matches!(
            resolve("cooperation", ParamValue::Bool(true)),
            Err(GenError::Unknown { .. })
        ));
        let dup = g.resolve(&[
            ("n_cars".to_string(), ParamValue::Int(1)),
            ("n_cars".to_string(), ParamValue::Int(2)),
        ]);
        assert!(matches!(dup, Err(GenError::Duplicate { key: "n_cars", .. })), "{dup:?}");
        let range = resolve("n_cars", ParamValue::Int(99)).unwrap_err();
        assert!(matches!(range, GenError::Param(ParamError::Range { .. })), "{range:?}");
        assert!(range.to_string().contains("highway-flow"), "{range}");
        let kind = resolve("n_cars", ParamValue::Bool(true)).unwrap_err();
        assert!(matches!(kind, GenError::Param(ParamError::Type { .. })), "{kind:?}");
        // Ints widen into float slots; the reverse does not hold.
        let widened = resolve("road_length_m", ParamValue::Int(500)).unwrap();
        assert_eq!(widened.get(Param::RoadLengthM), Some(ParamValue::Float(500.0)));
        assert!(resolve("n_cars", ParamValue::Float(2.0)).is_err());
    }

    #[test]
    fn lookup_ignores_separators_and_case() {
        for alias in ["grid-city", "grid_city", "GRIDCITY"] {
            assert_eq!(find(alias).map(|g| g.name), Some("grid-city"), "{alias}");
        }
        assert!(find("mars-rover").is_none());
    }

    #[test]
    fn blueprints_are_pure_functions_of_params_and_seed() {
        for g in all() {
            let params = g.schema().resolve(&SweepPoint::empty()).unwrap();
            let a = g.blueprint(&params, 42);
            let b = g.blueprint(&params, 42);
            assert_eq!(a.cars.len(), b.cars.len(), "{}", g.name);
            for (ca, cb) in a.cars.iter().zip(&b.cars) {
                assert_eq!(ca.path.vertices(), cb.path.vertices(), "{}", g.name);
                assert_eq!(ca.speed_ms, cb.speed_ms, "{}", g.name);
                assert_eq!(ca.start_offset_m, cb.start_offset_m, "{}", g.name);
                assert_eq!(ca.start_time, cb.start_time, "{}", g.name);
            }
            assert_eq!(a.ap_positions, b.ap_positions, "{}", g.name);
            assert_eq!(a.horizon, b.horizon, "{}", g.name);
        }
    }

    #[test]
    fn grid_city_seed_varies_the_walks() {
        let g = find("grid-city").unwrap();
        let params = g.schema().resolve(&SweepPoint::empty()).unwrap();
        let a = g.blueprint(&params, 1);
        let b = g.blueprint(&params, 2);
        assert_ne!(
            a.cars[0].path.vertices(),
            b.cars[0].path.vertices(),
            "different seeds must walk different streets"
        );
        // Walks stay on the street grid and reach the requested length.
        let block = num(&params, Param::BlockM);
        for v in a.cars[0].path.vertices() {
            assert!((v.x / block).fract().abs() < 1e-9, "off-grid vertex {v:?}");
            assert!((v.y / block).fract().abs() < 1e-9, "off-grid vertex {v:?}");
        }
        assert!(a.cars[0].path.length() >= num(&params, Param::WalkM));
    }

    #[test]
    fn highway_flow_respects_direction_and_ap_spacing() {
        let g = find("highway-flow").unwrap();
        let one_way = g
            .resolve(&[
                ("bidirectional".to_string(), ParamValue::Bool(false)),
                ("road_length_m".to_string(), ParamValue::Float(1_000.0)),
                ("ap_spacing_m".to_string(), ParamValue::Float(250.0)),
            ])
            .unwrap();
        let bp = g.blueprint(&one_way, 7);
        assert_eq!(bp.cars.len(), 2, "one direction only");
        assert_eq!(bp.ap_positions.len(), 4, "1000 m at 250 m spacing");
        let two_way = g.resolve(&[("bidirectional".to_string(), ParamValue::Bool(true))]).unwrap();
        let bp = g.blueprint(&two_way, 7);
        assert_eq!(bp.cars.len(), 4, "both directions");
        // The reverse flow drives the opposite way.
        let first = bp.cars[0].path.vertices();
        let last = bp.cars[3].path.vertices();
        assert!(first[0].x < first[1].x && last[0].x > last[1].x);
    }

    #[test]
    fn platoon_merge_staggers_the_ramp_flow() {
        let g = find("platoon-merge").unwrap();
        let params = g.schema().resolve(&SweepPoint::empty()).unwrap();
        let bp = g.blueprint(&params, 3);
        assert_eq!(bp.cars.len(), 3, "2 main + 1 ramp by default");
        assert_eq!(bp.cars[0].start_time, SimTime::ZERO);
        assert!(bp.cars[2].start_time > SimTime::ZERO, "ramp starts later");
        // Both flows end on the same tail.
        let main_end = *bp.cars[0].path.vertices().last().unwrap();
        let ramp_end = *bp.cars[2].path.vertices().last().unwrap();
        assert_eq!(main_end, ramp_end);
    }
}
