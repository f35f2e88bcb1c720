//! The three workloads and the inputs each builds from its seed.

use vanet_gen::GenValue;
use vanet_geo::{kmh_to_ms, urban_testbed_block, urban_testbed_loop, PathMobility, Point};
use vanet_mac::MediumConfig;
use vanet_radio::{Building, ObstacleMap};
use vanet_scenarios::{Param, ParamValue, Scenario, SweepPoint, UrbanScenario};
use vanet_sweep::{presets, SweepPlan, SweepSpec};

/// The seed the recorded reference reports were produced with.
pub const DEFAULT_SEED: u64 = 0x2008_1cdc;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's urban testbed: 3 cars, 1 AP, `coop-arq`.
    PaperUrban,
    /// A 4x4-block `grid-city` world with 8 cars and 4 APs.
    GridCity,
    /// The `strategy-compare` preset served from warm journals.
    WarmJournal,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 3] = [Kind::PaperUrban, Kind::GridCity, Kind::WarmJournal];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperUrban => "paper_urban",
            Kind::GridCity => "grid_city",
            Kind::WarmJournal => "warm_journal",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the timed legs simulate rounds (warm_journal only serves
    /// them).
    pub fn simulates(self) -> bool {
        self != Kind::WarmJournal
    }

    /// Rounds per point of the workload's spec: a simulation pass for the
    /// simulating workloads, the journal depth for warm_journal.
    pub fn rounds(self) -> u32 {
        match self {
            Kind::PaperUrban => 32,
            Kind::GridCity => 8,
            Kind::WarmJournal => 8,
        }
    }

    /// Whether the simulation leg renders Table 1 and the reception series.
    pub fn renders(self) -> bool {
        self == Kind::PaperUrban
    }
}

/// The configured inputs of one workload at one seed.
pub struct World {
    /// Which workload.
    pub kind: Kind,
    /// The seed everything derives from.
    pub seed: u64,
    /// The scenario the legs run.
    pub scenario: Box<dyn Scenario>,
    /// The points and rounds the legs run; the journals hold these rounds.
    pub spec: SweepSpec,
}

impl World {
    /// Configures (or instantiates) the workload's scenario at `seed`.
    pub fn build(kind: Kind, seed: u64) -> World {
        let one_point = || {
            SweepSpec::new(seed).point(SweepPoint::new(vec![(
                Param::Rounds,
                ParamValue::Int(u64::from(kind.rounds())),
            )]))
        };
        let (scenario, spec): (Box<dyn Scenario>, SweepSpec) = match kind {
            Kind::PaperUrban => (Box::new(UrbanScenario::paper_testbed()), one_point()),
            Kind::GridCity => (Box::new(grid_city()), one_point()),
            Kind::WarmJournal => presets::find("strategy-compare")
                .expect("strategy-compare is a built-in preset")
                .build(seed, kind.rounds()),
        };
        World { kind, seed, scenario, spec }
    }

    /// Expands, validates and seeds the spec: one configured run per point.
    pub fn plan(&self) -> SweepPlan {
        vanet_sweep::plan(self.scenario.as_ref(), &self.spec, false)
            .expect("workload specs are valid")
    }

    /// The geometry the in-round replays run on (`n_cars` applies to the
    /// urban workloads; the grid world fixes its own).
    pub fn geometry(&self, n_cars: usize) -> Geometry {
        match self.kind {
            Kind::GridCity => {
                let world = grid_city();
                let bp = world.blueprint();
                Geometry {
                    medium: bp.medium.clone(),
                    aps: bp.ap_positions.clone(),
                    cars: bp
                        .cars
                        .iter()
                        .map(|plan| {
                            PathMobility::new(plan.path.clone(), plan.speed_ms)
                                .with_start_offset(plan.start_offset_m)
                                .with_start_time(plan.start_time)
                        })
                        .collect(),
                }
            }
            Kind::PaperUrban | Kind::WarmJournal => urban_geometry(n_cars),
        }
    }
}

/// The `grid-city` world of the `grid_city` workload. Its generation seed
/// is fixed, so every run measures the same streets, buildings, AP sites
/// and walks; `--seed` varies the rounds (shadowing, mobility timing and
/// every draw), which keeps the work per round comparable across seeds.
pub fn grid_city() -> vanet_gen::GeneratedScenario {
    let assignments: Vec<(String, GenValue)> = [
        ("blocks_x", GenValue::Int(4)),
        ("blocks_y", GenValue::Int(4)),
        ("n_cars", GenValue::Int(8)),
        ("n_aps", GenValue::Int(4)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    vanet_gen::instantiate("grid-city", &assignments, DEFAULT_SEED)
        .expect("grid-city parameters are valid")
}

/// Where the nodes of a replay stand and how the cars move.
pub struct Geometry {
    /// The medium configuration (channels, obstacles, timing).
    pub medium: MediumConfig,
    /// Access point positions; APs take ids `0..aps.len()`.
    pub aps: Vec<Point>,
    /// Car trajectories; cars take the ids after the APs.
    pub cars: Vec<PathMobility>,
}

/// The urban testbed's geometry with `n_cars` cars: the office-window AP,
/// the city block shadowing the loop, and a platoon 20 m apart at 20 km/h.
fn urban_geometry(n_cars: usize) -> Geometry {
    let layout = urban_testbed_loop();
    let (block_min, block_max) = urban_testbed_block();
    let obstacles = ObstacleMap::from_buildings(vec![Building::new(block_min, block_max, 30.0)]);
    let mut medium = MediumConfig::urban_testbed();
    medium.ap_vehicle.obstacles = obstacles.clone();
    medium.vehicle_vehicle.obstacles = obstacles;
    let speed = kmh_to_ms(20.0);
    let cars = (0..n_cars)
        .map(|i| PathMobility::new(layout.path.clone(), speed).with_start_offset(-20.0 * i as f64))
        .collect();
    Geometry { medium, aps: layout.access_points.clone(), cars }
}
