//! # vanet-sweep — parallel, deterministic experiment sweeps
//!
//! The paper evaluates one configuration of each scenario; its open
//! questions (cooperator selection §6, batched REQUESTs §3.3, multi-AP
//! downloads) all demand *sweeps* over platoon size, speed, sending rate and
//! protocol strategy. This crate is the platform for those sweeps, built on
//! the unified [`Scenario`] API of `vanet-scenarios`:
//!
//! * [`SweepSpec`] — a declarative parameter grid (cartesian axes plus
//!   explicit extra points) expanded in a stable, thread-independent order;
//! * [`walk_points`] — the point executor every engine runs on: points run
//!   on a work-sharing pool, leftover thread budget parallelises the rounds
//!   *within* each point, and each point's rounds go through
//!   `vanet-scenarios`' one round walker ([`vanet_scenarios::walk_rounds`])
//!   against an optional journal of any codec, keyed by
//!   [`SweepPlan::cache_key`]. A [`PointWork`] says what a round yields,
//!   when a point settles and what it folds into; [`would_simulate`] asks,
//!   without running anything, whether a point's walk would simulate;
//! * [`SweepEngine`] — the sweep's instance of it, folding each point with
//!   `aggregate`. Every point is validated against the scenario's typed
//!   [`ParamSchema`] before anything runs; unknown parameters are an error
//!   unless [`SweepEngine::with_allow_unknown`] opts out;
//! * [`SweepResult`] — per-point metric rows that flow into `vanet-stats`
//!   ([`vanet_stats::RecordTable`], in the [`point_table`] layout the
//!   analysis tables share) and export as CSV or JSON, plus the
//!   `rounds_simulated` / `rounds_cached` provenance counters;
//! * [`presets`] — the named sweep catalogue `carq-cli sweep list` shows;
//! * an optional, persistent **round cache**
//!   ([`SweepEngine::with_cache`], backed by [`vanet_cache::SweepCache`]):
//!   cached rounds are served, only the missing ones simulate, and fresh
//!   reports are written back wave by wave — so re-running an identical
//!   spec simulates nothing, a widened grid or raised `--rounds` simulates
//!   only the new work, and a killed sweep resumes instead of restarting.
//!
//! ## Determinism and seed derivation
//!
//! A sweep is reproducible byte for byte at **any** thread count, with both
//! levels of parallelism enabled and with or without a cache. The scheme:
//!
//! 1. The spec carries one `master_seed`.
//! 2. Every point resolves to its **canonical configuration**
//!    (`ParamSchema::canonical_config`): all schema parameters with
//!    defaults applied, rendered losslessly, round-neutral parameters
//!    (round budgets, file sizes) excluded.
//! 3. The point's seed is
//!    `point_seed = StreamRng::derive(master_seed, "sweep.point/" + canonical)`
//!    (first draw) — a pure function of `(master_seed, configuration)`,
//!    independent of the point's grid position and of which worker executes
//!    it ([`engine::point_seed`]). Editing the spec never changes the seeds
//!    of the points that survive the edit — which is what makes the round
//!    cache hit across re-runs.
//! 4. Round `r` of a point gets
//!    `round_seed = StreamRng::derive(point_seed, "scenario.round").substream(r)`
//!    (first draw) — completing the pure
//!    `(master seed, canonical config, round)` chain
//!    ([`vanet_scenarios::round_seed`]).
//! 5. The scenario seeds *all* of a round's randomness from that round seed
//!    via its own named sub-streams (mobility, shadowing, model events), as
//!    the [`ScenarioRun::run_round`] purity contract requires.
//!
//! Results are collected into each point's slot (not in completion order),
//! rounds fold in round order, and float formatting is fixed-precision, so
//! the exported CSV/JSON of a sweep is a pure function of
//! `(scenario, spec)`.
//!
//! ## Example
//!
//! A cheap sweep of the multi-AP download (its file-size axis is
//! round-neutral, so all three points share their per-visit physics):
//!
//! ```rust
//! use vanet_sweep::{Param, ParamValue, SweepEngine, SweepSpec};
//! use vanet_scenarios::{MultiApConfig, MultiApScenario};
//!
//! let spec = SweepSpec::new(42).axis(
//!     Param::FileBlocks,
//!     vec![ParamValue::Int(20), ParamValue::Int(40), ParamValue::Int(60)],
//! );
//! let scenario = MultiApScenario::new(MultiApConfig::default_download());
//! let result = SweepEngine::new(2).run(&scenario, &spec).expect("schema-valid sweep");
//! assert_eq!(result.len(), 3);
//! // Equal per-round physics ⇒ equal content-derived seeds.
//! assert_eq!(result.seeds[0], result.seeds[1]);
//! assert!(result.to_csv().starts_with("scenario,point,seed,file_blocks,"));
//! ```
//!
//! For a cached (resumable) sweep, attach a store first:
//!
//! ```rust,no_run
//! use std::sync::Arc;
//! use vanet_sweep::{Param, ParamValue, SweepCache, SweepEngine, SweepSpec};
//! use vanet_scenarios::UrbanScenario;
//!
//! let cache = Arc::new(SweepCache::open("./sweep-cache").expect("cache dir"));
//! let spec = SweepSpec::new(42)
//!     .axis(Param::SpeedKmh, vec![ParamValue::Float(10.0), ParamValue::Float(20.0)]);
//! let result = SweepEngine::new(0)
//!     .with_cache(cache)
//!     .run(&UrbanScenario::paper_testbed(), &spec)
//!     .expect("schema-valid sweep");
//! eprintln!("{} simulated, {} from cache", result.rounds_simulated, result.rounds_cached);
//! println!("{}", result.to_csv());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod presets;
pub mod spec;

pub use engine::{
    plan, point_seed, point_table, walk_points, would_simulate, PointWork, SweepEngine, SweepError,
    SweepPlan, SweepResult, Walked,
};
pub use spec::{Axis, Param, ParamValue, SweepPoint, SweepSpec};
// The persistent round store behind `SweepEngine::with_cache`, re-exported
// so downstream code can drive cached sweeps from this crate alone.
pub use vanet_cache::{CacheKey, CacheStats, SweepCache};
// The scenario-side half of the sweep API, re-exported so downstream code
// can drive sweeps from this crate alone.
pub use vanet_scenarios::{
    round_seed, ParamError, ParamSchema, Scenario, ScenarioRegistry, ScenarioRun,
};
pub use vanet_stats::PointSummary;
