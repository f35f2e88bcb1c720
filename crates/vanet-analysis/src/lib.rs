//! # vanet-analysis — trace-driven analysis of recovery behaviour
//!
//! The tracing layer (`vanet-trace`) records *what happened* in a round;
//! this crate turns those record streams into the paper's evaluation
//! quantities:
//!
//! * [`latency`] — **recovery-latency distributions**: request-to-repair
//!   time per lost packet, matched across the
//!   `strategy_decision → arq_request → coop_retransmit → delivery`
//!   signature (the matching rule is spelled out in the module doc and in
//!   `docs/OBSERVABILITY.md`);
//! * [`occupancy`] — **medium occupancy**: busy fraction, total and
//!   per-node airtime, and collision windows, from `tx_start` intervals;
//! * [`timeline`] — **per-node event timelines**: one node's diary of a
//!   round, rendered line by line;
//! * [`mod@diff`] — **trace diffing**: the first diverging record between
//!   two runs plus per-record-kind count deltas;
//! * [`digest`] — the per-round [`RoundDigest`] the tables are built from,
//!   with a stable binary codec;
//! * [`store`] — the [`AnalysisStore`] digest journal (`CARQANA1`), the
//!   [`DigestCodec`] instance of `vanet_cache::Journal`: analysing an
//!   already-analysed plan re-simulates nothing;
//! * [`engine`] — the [`AnalysisEngine`]: the sweep's own point executor
//!   ([`vanet_sweep::walk_points`]) over the *same* validated,
//!   content-addressed [`vanet_sweep::plan`] a sweep would, keeping each
//!   point's digests instead of folding them — so analyses share the
//!   sweep's seeds, cache keys and round walk, and reproduce its rounds bit
//!   for bit at any thread count.
//!
//! Every analysis is a plain function over one round's record slice, as
//! `run_round_traced` returns it and as a `CARQTRM1` trace file's frame
//! holds it. Everything here is **observation only**: analyses consume
//! records, never influence a simulation, and every output is a pure
//! function of the record stream — itself a pure function of
//! `(scenario, round, seed)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod diff;
pub mod digest;
pub mod engine;
pub mod latency;
pub mod occupancy;
pub mod store;
pub mod timeline;

pub use diff::{diff, DiffReport, Divergence};
pub use digest::RoundDigest;
pub use engine::{AnalysisEngine, AnalysisResult};
pub use latency::{recovery_latency, LatencyReport};
pub use occupancy::{medium_occupancy, OccupancyReport};
pub use store::{AnalysisStore, DigestCodec};
pub use timeline::{node_timeline, render_timeline, TimelineEntry};
