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
//! Everything here is **observation only**: analyses consume records, never
//! influence a simulation, and every output is a pure function of the
//! record stream — itself a pure function of `(scenario, round, seed)`.
//!
//! ## Bounded sinks
//!
//! A [`vanet_trace::RingSink`] keeps only the newest records; analysing its
//! contents as if they were the whole round would silently bias every
//! metric (the dropped records are exactly the *oldest* — the requests the
//! latency matcher needs). The checked entry points
//! [`latency_of_ring`] and [`occupancy_of_ring`] refuse truncated rings
//! with [`TruncatedTrace`] instead of guessing.

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
pub use latency::{recovery_latency, LatencyAnalyzer, LatencyReport};
pub use occupancy::{medium_occupancy, OccupancyAnalyzer, OccupancyReport};
pub use store::{AnalysisStore, DigestCodec};
pub use timeline::{node_timeline, render_timeline, TimelineEntry};

use vanet_trace::{RingSink, TraceRecord};

/// A bounded sink lost records, so a whole-round analysis over it would be
/// silently wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruncatedTrace {
    /// Records the ring evicted before they could be observed.
    pub dropped: u64,
}

impl std::fmt::Display for TruncatedTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ring sink dropped {} record(s); analysis over a truncated trace would be biased \
             (raise the ring capacity or use an unbounded sink)",
            self.dropped
        )
    }
}

impl std::error::Error for TruncatedTrace {}

fn ring_records(ring: &RingSink) -> Result<Vec<TraceRecord>, TruncatedTrace> {
    if ring.dropped() > 0 {
        return Err(TruncatedTrace { dropped: ring.dropped() });
    }
    Ok(ring.records().copied().collect())
}

/// Recovery-latency extraction over a ring sink's contents, refusing
/// truncated rings (see [`TruncatedTrace`]).
///
/// # Errors
///
/// [`TruncatedTrace`] when the ring evicted records.
pub fn latency_of_ring(ring: &RingSink) -> Result<LatencyReport, TruncatedTrace> {
    Ok(recovery_latency(&ring_records(ring)?))
}

/// Medium-occupancy extraction over a ring sink's contents, refusing
/// truncated rings (see [`TruncatedTrace`]).
///
/// # Errors
///
/// [`TruncatedTrace`] when the ring evicted records.
pub fn occupancy_of_ring(ring: &RingSink) -> Result<OccupancyReport, TruncatedTrace> {
    Ok(medium_occupancy(&ring_records(ring)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimTime;
    use vanet_trace::TraceSink as _;

    fn tx(us: u64, node: u32) -> TraceRecord {
        TraceRecord::TxStart {
            at: SimTime::from_micros(us),
            until: SimTime::from_micros(us + 4),
            node,
            bits: 800,
        }
    }

    #[test]
    fn intact_rings_analyse_like_plain_streams() {
        let mut ring = RingSink::new(8);
        for i in 0..4 {
            ring.record(tx(i * 10, i as u32));
        }
        let occupancy = occupancy_of_ring(&ring).unwrap();
        assert_eq!(occupancy.tx_count, 4);
        assert_eq!(occupancy.airtime_ns, 16_000);
        let latency = latency_of_ring(&ring).unwrap();
        assert_eq!(latency.opened, 0);
    }

    #[test]
    fn truncated_rings_are_refused() {
        let mut ring = RingSink::new(2);
        for i in 0..5 {
            ring.record(tx(i * 10, 0));
        }
        let err = latency_of_ring(&ring).unwrap_err();
        assert_eq!(err, TruncatedTrace { dropped: 3 });
        assert!(err.to_string().contains("dropped 3 record(s)"), "{err}");
        assert_eq!(occupancy_of_ring(&ring), Err(TruncatedTrace { dropped: 3 }));
    }
}
