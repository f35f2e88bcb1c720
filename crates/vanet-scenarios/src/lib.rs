//! # vanet-scenarios — end-to-end experiments of the C-ARQ reproduction
//!
//! This crate assembles the full simulation stack — event engine, mobility,
//! radio channel, MAC medium, AP traffic source and the Cooperative-ARQ
//! protocol — into runnable experiments behind **one first-class API**:
//!
//! * [`Scenario`] — a named experiment family with a typed [`ParamSchema`]
//!   (documented parameters, defaults, ranges) and a `configure` step that
//!   validates a [`SweepPoint`] into a runnable [`ScenarioRun`];
//! * [`ScenarioRun`] — a configured experiment whose `run_round(round,
//!   seed)` is a **pure** function (all randomness derives from the seed),
//!   which is what lets rounds execute in any order and on any number of
//!   threads, plus an `aggregate` folding the per-round
//!   [`vanet_stats::RoundReport`]s into a [`vanet_stats::PointSummary`];
//! * [`ScenarioRegistry`] — scenarios discoverable by name, the hook the
//!   CLI's `scenario list / describe / run` subcommands and the sweep
//!   presets hang off.
//!
//! The built-in scenarios:
//!
//! * [`urban`] — the paper's testbed (Figure 2): three cars looping past an
//!   office-window AP at ~20 km/h for 30 rounds, 5 × 1000-byte packets per
//!   second per car at 1 Mbps. Regenerates Table 1 and Figures 3–8.
//! * [`highway`] — the drive-thru-Internet context experiment (reference \[1\]
//!   of the paper): loss rates of a car passing a roadside AP at highway
//!   speeds and different sending rates.
//! * [`multi_ap`] — the future-work extension quantified: how many AP passes
//!   a platoon needs to complete a file download with and without C-ARQ.
//!
//! ## Example
//!
//! ```rust,no_run
//! use vanet_scenarios::{run_rounds, ScenarioRegistry, SweepPoint};
//! use vanet_scenarios::{Param, ParamValue};
//!
//! let registry = ScenarioRegistry::builtin();
//! let urban = registry.get("urban").expect("built-in scenario");
//! println!("{}", urban.schema().render()); // typed, documented parameters
//!
//! // Configure a quick 3-round look (the paper uses 30 rounds).
//! let point = SweepPoint::new(vec![(Param::Rounds, ParamValue::Int(3))]);
//! let run = urban.configure(&point).expect("schema-valid point");
//! let reports = run_rounds(run.as_ref(), 0x2008_1cdc, 4); // 4 worker threads
//! let summary = run.aggregate(&reports);
//! println!("loss after cooperation: {:.1}%", summary.get("loss_after_pct_mean").unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod highway;
pub mod model;
pub mod multi_ap;
pub mod params;
pub mod registry;
pub mod scenario;
pub mod schema;
pub mod urban;

pub use highway::{HighwayConfig, HighwayRun, HighwayScenario};
pub use model::{ModelConfig, VanetModel};
pub use multi_ap::{MultiApConfig, MultiApOutcome, MultiApRun, MultiApScenario};
pub use params::{grid_points, Axis, Param, ParamValue, SweepPoint};
pub use registry::ScenarioRegistry;
pub use scenario::{
    round_seed, run_point, run_rounds, served_prefix, urban_summary, walk_rounds, worker_threads,
    LossSamples, Scenario, ScenarioRun,
};
pub use schema::{ParamError, ParamKind, ParamSchema, ParamSpec};
pub use urban::{UrbanConfig, UrbanRun, UrbanScenario};
