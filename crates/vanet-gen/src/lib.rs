//! # vanet-gen — procedural scenario generation for the C-ARQ platform
//!
//! The built-in scenarios reproduce the paper's three hand-written
//! experiments. This crate mass-produces *new* ones: composable,
//! deterministic world generators whose output is a first-class
//! [`Scenario`](vanet_scenarios::Scenario) — sweepable, traceable,
//! verifiable and cacheable exactly like the built-ins.
//!
//! ## The identity contract
//!
//! A generated scenario is fully determined by its **identity**: the triple
//! `(generator name, canonical generator parameters, gen seed)` rendered by
//! [`GenIdentity::canonical`]. Everything else is derived:
//!
//! * the world (street graph, car paths, AP positions, channel config) is
//!   frozen by [`Generator::blueprint`] — every sample drawn from streams
//!   derived off the gen seed, so regeneration is bit-exact;
//! * the scenario *name* is `gen/{generator}/{id16}` where `id16` hashes
//!   the canonical identity — the name feeds the runtime
//!   [`ParamSchema`](vanet_scenarios::ParamSchema) fingerprint, so the
//!   existing content-addressed round cache distinguishes every generated
//!   world with **zero cache-layer changes**;
//! * the `VANETGEN1` file ([`encode`]/[`decode`]) stores only the identity
//!   and regenerates on load.
//!
//! ## The pieces
//!
//! * [`generators`] — the catalogue: `grid-city` (street grids, building
//!   shadowing, random-waypoint walks, AP placement strategies),
//!   `highway-flow` (bidirectional platooned flows past roadside APs — the
//!   paper's opposite-direction cooperation at scale) and `platoon-merge`
//!   (two flows joining at an AP);
//! * [`Generator::schema`] — each generator's typed, documented,
//!   range-checked world schema: a `vanet-scenarios`
//!   [`ParamSchema`](vanet_scenarios::ParamSchema) over the same
//!   [`Param`](vanet_scenarios::Param) vocabulary, values
//!   ([`GenValue`] is [`ParamValue`](vanet_scenarios::ParamValue)) and
//!   lossless canonical codec as the runtime sweep parameters;
//! * [`GenGrid`] — campaign expansion: value axes × seed replicas →
//!   thousands of distinct identities, each seeded from the campaign
//!   master seed and its own canonical parameters (stable under grid
//!   growth);
//! * [`instantiate`] — `(generator, assignments, seed)` →
//!   [`GeneratedScenario`].
//!
//! ## Example
//!
//! ```rust,no_run
//! use vanet_gen::{instantiate, GenValue};
//! use vanet_scenarios::{run_point, Scenario, SweepPoint};
//!
//! let scenario = instantiate(
//!     "highway-flow",
//!     &[("n_cars".to_string(), GenValue::Int(3))],
//!     0x2008_1cdc,
//! )
//! .expect("schema-valid request");
//! println!("{}", scenario.name()); // gen/highway-flow/<16-hex identity>
//! let (_, summary) = run_point(&scenario, &SweepPoint::empty(), 1, 1).unwrap();
//! println!("loss after coop: {:.1}%", summary.get("loss_after_pct_mean").unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod blueprint;
pub mod file;
pub mod generators;
pub mod grid;
pub mod scenario;

pub use blueprint::{Blueprint, CarPlan};
pub use file::{decode, encode, GEN_MAGIC};
pub use generators::{GenError, Generator};
pub use grid::{scenario_seed, GenGrid};
pub use scenario::{instantiate, GenIdentity, GeneratedRun, GeneratedScenario};
/// A world parameter's value: the one [`ParamValue`](vanet_scenarios::ParamValue)
/// type, under the name generator callers have used.
pub use vanet_scenarios::ParamValue as GenValue;
