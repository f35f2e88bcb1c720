//! Per-node event timelines: one node's view of a round, in order.
//!
//! The timeline selects every record a node participates in — its
//! transmissions, the deliveries it sent or received, its CSMA deferrals,
//! recovery decisions, REQUESTs, cooperative retransmissions, the AP
//! retransmissions addressed to it and its buffer activity — and renders
//! each as one human-readable line. Record order is preserved (emission
//! order is chronological), so the output reads as the node's diary of the
//! round.

use sim_core::SimTime;
use vanet_trace::TraceRecord;

/// One timeline entry: when, and what happened, from the node's viewpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// The simulation instant.
    pub at: SimTime,
    /// The record kind (`tx_start`, `delivery`, ...).
    pub kind: &'static str,
    /// The rendered one-line description.
    pub description: String,
}

/// Whether `record` involves `node`.
fn involves(record: &TraceRecord, node: u32) -> bool {
    match *record {
        TraceRecord::EventDispatched { .. } => false,
        TraceRecord::TxStart { node: n, .. }
        | TraceRecord::CsmaDeferred { node: n, .. }
        | TraceRecord::ArqRequest { node: n, .. }
        | TraceRecord::CoopRetransmit { node: n, .. }
        | TraceRecord::StrategyDecision { node: n, .. }
        | TraceRecord::BufferStore { node: n, .. } => n == node,
        TraceRecord::Delivery { tx, rx, .. } | TraceRecord::CacheAudit { tx, rx, .. } => {
            tx == node || rx == node
        }
        TraceRecord::ApRetransmitQueued { ap, destination, .. } => {
            ap == node || destination == node
        }
    }
}

/// Renders one record from `node`'s viewpoint.
fn describe(record: &TraceRecord, node: u32) -> String {
    match *record {
        TraceRecord::TxStart { until, bits, .. } => {
            format!("transmits {bits} bit(s), airtime until {}", fmt_time(until))
        }
        TraceRecord::Delivery { tx, rx, received, snr_db, .. } => {
            let verdict = if received { "received" } else { "LOST" };
            if tx == node {
                format!("frame to node {rx}: {verdict} (snr {snr_db:.1} dB)")
            } else {
                format!("frame from node {tx}: {verdict} (snr {snr_db:.1} dB)")
            }
        }
        TraceRecord::CacheAudit { tx, rx, ok, .. } => {
            let verdict = if ok { "consistent" } else { "INCONSISTENT" };
            format!("link-cache audit {tx}->{rx}: {verdict}")
        }
        TraceRecord::CsmaDeferred { until, .. } => {
            format!("medium busy, deferred until {}", fmt_time(until))
        }
        TraceRecord::ArqRequest { seqs, cooperators, .. } => {
            format!("sends REQUEST for {seqs} packet(s) ({cooperators} cooperator(s))")
        }
        TraceRecord::CoopRetransmit { seqs, .. } => {
            format!("cooperatively retransmits {seqs} packet(s)")
        }
        TraceRecord::ApRetransmitQueued { ap, destination, seq, .. } => {
            if ap == node {
                format!("queues retransmission of seq {seq} for node {destination}")
            } else {
                format!("AP {ap} queues retransmission of seq {seq} for this node")
            }
        }
        TraceRecord::StrategyDecision { strategy, missing, .. } => {
            format!("recovery decision: {missing} packet(s) missing (strategy tag {strategy})")
        }
        TraceRecord::BufferStore { stored, evicted, .. } => {
            format!("cooperation buffer: +{stored} stored, {evicted} evicted")
        }
        TraceRecord::EventDispatched { .. } => String::new(),
    }
}

fn fmt_time(t: SimTime) -> String {
    format!("{:.3} ms", t.as_nanos() as f64 / 1_000_000.0)
}

/// Extracts `node`'s timeline from a record stream.
pub fn node_timeline(records: &[TraceRecord], node: u32) -> Vec<TimelineEntry> {
    records
        .iter()
        .filter(|r| involves(r, node))
        .map(|r| TimelineEntry { at: r.at(), kind: r.kind(), description: describe(r, node) })
        .collect()
}

/// Renders a timeline as text: one `TIME  KIND  DESCRIPTION` line per
/// entry.
pub fn render_timeline(entries: &[TimelineEntry]) -> String {
    let mut out = String::new();
    for entry in entries {
        out.push_str(&format!(
            "{:>12}  {:<20}  {}\n",
            fmt_time(entry.at),
            entry.kind,
            entry.description
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn timeline_selects_only_the_nodes_records_in_order() {
        let records = [
            TraceRecord::EventDispatched { at: t(0), queue_depth: 1 },
            TraceRecord::TxStart { at: t(0), until: t(10), node: 0, bits: 800 },
            TraceRecord::Delivery {
                at: t(0),
                tx: 0,
                rx: 1,
                received: true,
                cached: false,
                snr_db: 9.0,
            },
            TraceRecord::Delivery {
                at: t(0),
                tx: 0,
                rx: 2,
                received: false,
                cached: true,
                snr_db: 1.0,
            },
            TraceRecord::StrategyDecision { at: t(20), node: 2, strategy: 1, missing: 1 },
            TraceRecord::ArqRequest { at: t(25), node: 2, seqs: 1, cooperators: 1 },
            TraceRecord::CoopRetransmit { at: t(40), node: 1, seqs: 1 },
            TraceRecord::Delivery {
                at: t(40),
                tx: 1,
                rx: 2,
                received: true,
                cached: false,
                snr_db: 7.0,
            },
        ];
        let timeline = node_timeline(&records, 2);
        assert_eq!(
            timeline.iter().map(|e| e.kind).collect::<Vec<_>>(),
            vec!["delivery", "strategy_decision", "arq_request", "delivery"],
        );
        assert!(timeline[0].description.contains("LOST"), "{}", timeline[0].description);
        assert!(timeline[1].description.contains("1 packet(s) missing"));
        assert!(timeline[3].description.contains("from node 1"));
        // Chronological because record order is chronological.
        assert!(timeline.windows(2).all(|w| w[0].at <= w[1].at));

        // Node 1 sees its own slice.
        let other = node_timeline(&records, 1);
        assert_eq!(
            other.iter().map(|e| e.kind).collect::<Vec<_>>(),
            vec!["delivery", "coop_retransmit", "delivery"],
        );
        assert!(other[0].description.contains("from node 0"));
        assert!(other[2].description.contains("to node 2"));

        // An uninvolved node has an empty diary.
        assert!(node_timeline(&records, 9).is_empty());
    }

    #[test]
    fn rendering_is_line_per_entry() {
        let records = [
            TraceRecord::CsmaDeferred { at: t(5), node: 3, until: t(9) },
            TraceRecord::BufferStore { at: t(7), node: 3, stored: 2, evicted: 1 },
            TraceRecord::ApRetransmitQueued { at: t(8), ap: 0, destination: 3, seq: 4 },
            TraceRecord::CacheAudit { at: t(9), tx: 0, rx: 3, ok: true },
        ];
        let text = render_timeline(&node_timeline(&records, 3));
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("deferred until"), "{text}");
        assert!(text.contains("+2 stored, 1 evicted"), "{text}");
        assert!(text.contains("for this node"), "{text}");
        assert!(text.contains("audit 0->3: consistent"), "{text}");
        assert!(render_timeline(&[]).is_empty());
    }
}
