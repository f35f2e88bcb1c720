//! # carq-repro — Cooperative ARQ for Delay-Tolerant Vehicular Networks
//!
//! Umbrella crate of the reproduction of *"A Cooperative ARQ for
//! Delay-Tolerant Vehicular Networks"* (Morillo-Pozo, Trullols, Barceló,
//! García-Vidal — ICDCS Workshops 2008). It re-exports every layer of the
//! stack so that examples, integration tests and downstream users can depend
//! on a single crate:
//!
//! * [`sim`] — deterministic discrete-event engine.
//! * [`geo`] — geometry, roads and vehicular mobility.
//! * [`radio`] — path loss, shadowing, fading and packet-error models.
//! * [`mac`] — broadcast 802.11-like medium with carrier sensing and
//!   collisions.
//! * [`dtn`] — AP traffic sources, reception maps (whose union,
//!   `ReceptionMap::union_with`, is the joint reception of a platoon),
//!   cooperation buffers and the epidemic baseline.
//! * [`protocol`] — the Cooperative ARQ protocol itself (the paper's
//!   contribution).
//! * [`stats`] — Table-1 and figure-series generation, summaries,
//!   percentiles and CSV/JSON record export.
//! * [`scenarios`] — the urban testbed, highway drive-thru and multi-AP
//!   download experiments behind the unified `Scenario` API: typed
//!   parameter schemas, per-round purity, a name-indexed registry.
//! * [`sweep`] — the parallel, deterministic experiment-sweep engine
//!   (parameter grids over any scenario, intra-point parallel rounds,
//!   thread-count-independent results) that the `carq-cli` binary drives
//!   from the command line.
//! * [`cache`] — the persistent, crash-tolerant round-report store that
//!   makes sweeps resumable: re-runs simulate only what the cache does not
//!   already hold; shard journals merge into one store, and compaction
//!   reclaims superseded records.
//! * [`fleet`] — sharded multi-process sweep execution: deterministic
//!   shard plans, self-describing shard files, worker execution against
//!   per-shard journals, and merge-then-export orchestration
//!   (`carq-cli fleet run --workers N`).
//! * [`gen`] — procedural scenario generation: composable deterministic
//!   world generators (`grid-city`, `highway-flow`, `platoon-merge`) whose
//!   output is a first-class [`scenarios`] scenario, identified purely by
//!   `(generator, canonical params, gen seed)`; grid expansion feeds the
//!   mass campaigns of `carq-cli campaign run` (see `docs/GENERATION.md`).
//! * [`trace`] — zero-cost structured event tracing and the invariant
//!   checker behind `carq-cli verify`: typed trace records, pluggable
//!   sinks that monomorphize away when disabled, a compact binary trace
//!   codec with JSONL export, and the protocol-invariant verification
//!   pass (see `docs/OBSERVABILITY.md`).
//! * [`analysis`] — trace-driven analysis behind `carq-cli analyze`:
//!   recovery-latency distributions matched from the record stream, medium
//!   occupancy and airtime shares, per-node timelines, trace diffing, and
//!   the digest journal that makes re-analysis free (warm runs simulate
//!   zero rounds).
//! * [`faults`] — deterministic, seeded fault injection (`VANETFLT1`
//!   plans: kills, stalls, torn appends, bit rot, transient I/O, slow
//!   disk) behind `carq-cli chaos` and the self-healing fleet supervisor
//!   (see `docs/RESILIENCE.md`); zero-cost when disarmed.
//!
//! `docs/ARCHITECTURE.md` maps how these crates fit together;
//! `docs/REPRODUCING.md` maps each paper figure and table to the command
//! that regenerates it.
//!
//! ## Quickstart
//!
//! ```rust,no_run
//! use carq_repro::scenarios::{run_rounds, Param, ParamValue, ScenarioRegistry, SweepPoint};
//!
//! let registry = ScenarioRegistry::builtin();
//! let urban = registry.get("urban").expect("built-in scenario");
//! let point = SweepPoint::new(vec![(Param::Rounds, ParamValue::Int(5))]);
//! let run = urban.configure(&point).expect("schema-valid point");
//! let reports = run_rounds(run.as_ref(), 0x2008_1cdc, 4);
//! let table = carq_repro::stats::table1(&carq_repro::stats::into_round_results(reports));
//! println!("{}", carq_repro::stats::render_table1(&table));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use carq as protocol;
pub use sim_core as sim;
pub use vanet_analysis as analysis;
pub use vanet_cache as cache;
pub use vanet_dtn as dtn;
pub use vanet_faults as faults;
pub use vanet_fleet as fleet;
pub use vanet_gen as gen;
pub use vanet_geo as geo;
pub use vanet_mac as mac;
pub use vanet_radio as radio;
pub use vanet_scenarios as scenarios;
pub use vanet_stats as stats;
pub use vanet_sweep as sweep;
pub use vanet_trace as trace;
