//! # vanet-fleet — sharded multi-process sweep execution
//!
//! The paper's evaluation is a grid of independent `(scenario,
//! configuration, round)` simulations — embarrassingly parallel far beyond
//! one process. This crate turns the single-process `SweepEngine` of
//! `vanet-sweep` into a fleet:
//!
//! * [`ShardPlan`] — a deterministic partition of `(scenario, work unit)`
//!   pairs into at most N strided [`Shard`]s. Two planners feed it:
//!   [`ShardPlan::for_preset`] (a preset sweep's expanded points and, with
//!   a round chunk, the round ranges inside heavy points) and
//!   [`ShardPlan::for_campaign`] (every generated world of a generator
//!   grid). Each shard [`encode`](Shard::encode)s to a self-describing
//!   `VANETFLEET2` text file a worker on any machine can execute — master
//!   seed, then each [`ScenarioRef`] (a preset at a round budget, or a
//!   generated world's identity) with its points in the lossless canonical
//!   value encoding.
//! * [`execute_shard`] / [`execute_units`] — the worker: every unit walks
//!   through the sweep's point executor (`vanet_sweep::walk_points`)
//!   against the shard's own journal, resuming if the worker was killed;
//!   full-budget units settle like a sweep, round-range units walk just
//!   their range. Either way the journal records are byte-identical to a
//!   monolithic run's, because every seed is content-addressed. The
//!   warm-re-run pre-filter ([`ShardPlan::split_covered`], over
//!   [`split_covered_units`]) asks the executor's coverage probe whether a
//!   unit's walk would simulate anything.
//! * the merge half lives in `vanet-cache` ([`merge_into`], re-exported
//!   here): union any set of shard
//!   journals — local worker output or journals shipped from other
//!   machines — into one store, validate every record on ingest, and let a
//!   warm engine pass produce the export (or, for a campaign, the
//!   [`campaign_table`]) with **zero** `run_round` calls.
//!
//! `carq-cli fleet shard|worker|run|merge` and `carq-cli campaign
//! plan|run` drive this end to end; `fleet run --workers N` spawns N local
//! worker processes and merges their journals automatically. Shards that
//! also computed analysis digests (`vanet-analysis`) merge those with
//! [`merge_analysis`].
//!
//! ## Example
//!
//! Plan a preset across three workers and round-trip a shard through the
//! on-disk format (execution and merging are exercised in the tests and
//! the CLI — they run real simulations):
//!
//! ```rust
//! use vanet_fleet::{ScenarioRef, Shard, ShardPlan};
//!
//! let plan = ShardPlan::for_preset("urban-platoon", 0xBEEF, 2, 3, None).unwrap();
//! assert_eq!(plan.shards.len(), 3);
//! assert_eq!(plan.total_units(), 24, "the 24-point grid is covered exactly");
//!
//! // Each shard is a self-describing work unit any machine can execute.
//! let encoded = plan.shards[1].encode();
//! assert!(encoded.starts_with("VANETFLEET2\n"));
//! let decoded = Shard::decode(&encoded).unwrap();
//! assert_eq!(decoded, plan.shards[1]);
//! let (scenario, units) = &decoded.groups[0];
//! assert_eq!(scenario, &ScenarioRef::Preset { name: "urban-platoon".into(), rounds: 2 });
//! assert_eq!(units.len(), 8);
//! assert_eq!(scenario.build().unwrap().name(), "urban");
//!
//! // A plan never holds more shards than units.
//! let wide = ShardPlan::for_preset("urban-platoon", 0xBEEF, 2, usize::MAX, None).unwrap();
//! assert_eq!(wide.shards.len(), 24);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod campaign;
pub mod heartbeat;
pub mod plan;
pub mod supervisor;
pub mod worker;

pub use analysis::merge_analysis;
pub use heartbeat::{read_progress, HeartbeatGuard, HEARTBEAT_INTERVAL};
pub use supervisor::{
    supervise, SupervisionReport, SupervisorConfig, WorkerOutcome, WorkerReport, WorkerTask,
};

pub use campaign::{campaign_table, CampaignResult};
pub use plan::{
    plan_units, stride_units, FleetError, ScenarioRef, Shard, ShardPlan, WorkUnit, SHARD_MAGIC,
};
pub use worker::{execute_shard, execute_units, split_covered_units, ShardOutcome};
// The merge half of the fleet story, re-exported so downstream code can
// shard, execute and merge from this crate alone.
pub use vanet_cache::{merge_into, MergeReport, SweepCache};
