//! # vanet-geo — geometry, roads and vehicular mobility
//!
//! The paper's testbed is three cars driving an urban loop past a fixed
//! access point (Figure 2 of the paper). This crate supplies the geometric
//! substrate needed to re-create that experiment in simulation:
//!
//! * [`Point`] / vector arithmetic in a flat 2-D metre coordinate system
//!   (street-scale experiments do not need geodesy).
//! * [`Polyline`] paths with arc-length parametrisation, used both for the
//!   closed urban loop and for straight highway segments.
//! * [`mobility`] — mobility models: [`mobility::PathMobility`] (a vehicle
//!   following a path at a nominal speed with driver-dependent speed jitter
//!   and corner slow-down) and [`mobility::PlatoonMobility`] (a convoy of
//!   vehicles with target headways, as in the paper's three-car platoon).
//! * [`roads`] — helpers to build the paper's urban loop and highway
//!   geometries.
//!
//! All stochastic behaviour draws from [`sim_core::StreamRng`] streams so
//! that experiments are reproducible.
//!
//! ## Example
//!
//! ```rust
//! use sim_core::SimTime;
//! use vanet_geo::{MobilityModel, PathMobility, Point, Polyline};
//!
//! let path = Polyline::open(vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)]);
//! let car = PathMobility::new(path, 10.0); // 10 m/s
//! let p = car.position_at(SimTime::from_secs(5));
//! assert!((p.x - 50.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod mobility;
pub mod point;
pub mod polyline;
pub mod roads;

pub use mobility::{DriverProfile, MobilityModel, PathMobility, PlatoonMobility};
pub use point::Point;
pub use polyline::Polyline;
pub use roads::{
    highway_segment, rectangular_loop, urban_testbed_block, urban_testbed_loop, RoadLayout,
};

/// Converts a speed given in km/h (the unit the paper uses: "about 20 Km/h")
/// to the metres-per-second unit used throughout the crate.
///
/// ```
/// assert!((vanet_geo::kmh_to_ms(36.0) - 10.0).abs() < 1e-12);
/// ```
pub fn kmh_to_ms(kmh: f64) -> f64 {
    kmh / 3.6
}
