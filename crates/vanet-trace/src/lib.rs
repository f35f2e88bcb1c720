//! # vanet-trace — zero-cost structured event tracing and invariant checks
//!
//! PR 5 bought its speedup with aggressive memoization (per-link
//! [`LinkState`](../vanet_radio/struct.LinkState.html) caching, position
//! epochs, scratch buffers). The only guard on all that caching used to be
//! byte-identical golden exports: a stale cache key produces *wrong
//! numbers*, not *why*. This crate is the why-layer:
//!
//! * [`TraceSink`] — the seam threaded through the simulation stack. Every
//!   emission site is guarded by the sink's associated `const ENABLED`, so
//!   with the default [`NoTrace`] sink the whole tracing path monomorphizes
//!   to nothing: no branch, no allocation, no record construction. The
//!   bench gate asserts this (allocation counts and rounds per CPU second
//!   are gated against the committed baseline).
//! * [`TraceRecord`] — plain-`Copy` structured records: event dispatch,
//!   transmission start (with airtime), per-receiver delivery verdicts with
//!   the cached-vs-sampled link-budget split, sampled cache audits, CSMA
//!   deferrals, ARQ retransmission decisions and cooperation-buffer
//!   activity.
//! * [`codec`] — the `CARQTRM1` trace file, one `(round, seed)`-stamped
//!   frame per round around a compact length-prefixed binary payload, plus
//!   a JSONL export for external tooling. A round's records reach every
//!   consumer as one slice: `run_round_traced` returns it, and `verify`,
//!   `vanet-analysis` and the trace file all take it.
//! * [`mod@verify`] — the post-run invariant pass behind `carq-cli verify`:
//!   monotone timestamps, no overlapping transmissions per node, packet
//!   conservation, retransmission bounds and cache consistency.
//!
//! Tracing must never change results: no emission site may insert, remove
//! or reorder an RNG draw, and a traced round's [`RoundReport`] must equal
//! the untraced one bit for bit (the trace-determinism test suite and
//! `carq-cli verify` both enforce this).
//!
//! [`RoundReport`]: ../vanet_stats/struct.RoundReport.html
//!
//! ## Example
//!
//! ```rust
//! use sim_core::SimTime;
//! use vanet_trace::{verify, TraceRecord, TraceSink, VecSink};
//!
//! let mut sink = VecSink::new();
//! let t0 = SimTime::ZERO;
//! let t1 = SimTime::from_millis(8);
//! sink.record(TraceRecord::TxStart { at: t0, until: t1, node: 0, bits: 8_000 });
//! sink.record(TraceRecord::Delivery {
//!     at: t0, tx: 0, rx: 1, received: true, cached: true, snr_db: 12.5,
//! });
//! let report = verify::verify(sink.records());
//! assert!(report.violations.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod record;
pub mod sink;
pub mod verify;

pub use codec::{decode_frames, encode_frames, to_jsonl, TraceCodecError, TraceFrame};
pub use record::TraceRecord;
pub use sink::{NoTrace, TraceSink, VecSink};
pub use verify::{verify, InvariantReport, Violation};
