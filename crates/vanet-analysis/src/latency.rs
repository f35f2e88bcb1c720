//! Recovery-latency extraction: request-to-repair time per lost packet.
//!
//! ## The matching rule
//!
//! The paper's recovery loop leaves a fixed four-record signature in a
//! trace, and the matcher walks it exactly (the rule is documented for
//! external consumers in `docs/OBSERVABILITY.md`):
//!
//! 1. `strategy_decision` — a car finds packets missing and commits to a
//!    recovery strategy. Only nodes with a prior decision are eligible to
//!    open recovery windows; a REQUEST without one would be a protocol
//!    violation (the `decision_before_request` invariant) and is ignored
//!    here rather than matched.
//! 2. `arq_request { at, node, seqs }` — the car transmits its REQUEST.
//!    This *opens* `seqs` outstanding recovery slots for `node`, each
//!    stamped with the request's transmission time (records are emitted at
//!    actual airtime start, after CSMA clears, so the stamp is on-air time,
//!    not intent time).
//! 3. `coop_retransmit { at, node: c, seqs: k }` — a cooperator answers
//!    with COOP-DATA (`k = 1`) or a coded batch (`k = 2`).
//! 4. `delivery { at, tx: c, rx, received: true }` sharing the
//!    retransmission's transmission instant (`at` equals the
//!    `coop_retransmit`'s `at` — both are stamped with the airtime start) —
//!    the repair *lands* at `rx`. Each such delivery closes up to `k` of
//!    `rx`'s outstanding slots, oldest first (FIFO: the protocol
//!    retransmits in sequence order, so the oldest request is repaired
//!    first). Each closed slot yields one latency sample,
//!    `delivery.at − request.at`.
//!
//! Slots still open when the stream ends count as `unmatched` — requests
//! whose repair never arrived (all cooperators missed it, or the round
//! ended first). They are reported, never silently dropped: a distribution
//! over 40 of 100 requests means something very different from one over
//! 100 of 100.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use vanet_stats::Distribution;
use vanet_trace::TraceRecord;

/// Nanoseconds per millisecond, for the latency views.
const NS_PER_MS: f64 = 1_000_000.0;

/// The recovery latencies of one record stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyReport {
    /// One sample per repaired packet (request-to-repair, nanoseconds), in
    /// repair order.
    pub samples_ns: Vec<u64>,
    /// Recovery slots opened by REQUESTs (matched + unmatched).
    pub opened: u32,
    /// Slots never repaired before the stream ended.
    pub unmatched: u32,
}

impl LatencyReport {
    /// Repaired-packet count (the sample count).
    pub fn matched(&self) -> usize {
        self.samples_ns.len()
    }

    /// The samples as a millisecond [`Distribution`].
    pub fn distribution_ms(&self) -> Distribution {
        Distribution::from_samples(self.samples_ns.iter().map(|&ns| ns as f64 / NS_PER_MS))
    }
}

/// Matches a record stream's requests to their repairs by the rule in the
/// module doc, folding the stream in emission order.
pub fn recovery_latency(records: &[TraceRecord]) -> LatencyReport {
    // Nodes that committed a recovery decision (rule 1).
    let mut decided = BTreeSet::new();
    // Per requesting node: FIFO of open recovery slots, each the request's
    // transmission time in nanoseconds (rule 2).
    let mut outstanding: BTreeMap<u32, VecDeque<u64>> = BTreeMap::new();
    // Per cooperator: its most recent retransmission `(at_ns, seqs)` (rule
    // 3). One entry suffices: a node transmits one frame at a time (the
    // tx-overlap invariant), and the deliveries that settle it share its
    // `at`.
    let mut pending_coop: BTreeMap<u32, (u64, u32)> = BTreeMap::new();
    let mut samples_ns = Vec::new();
    let mut opened = 0u64;
    for record in records {
        match *record {
            TraceRecord::StrategyDecision { node, .. } => {
                decided.insert(node);
            }
            TraceRecord::ArqRequest { at, node, seqs, .. } if decided.contains(&node) => {
                let slots = outstanding.entry(node).or_default();
                for _ in 0..seqs {
                    slots.push_back(at.as_nanos());
                }
                opened += u64::from(seqs);
            }
            TraceRecord::CoopRetransmit { at, node, seqs } => {
                pending_coop.insert(node, (at.as_nanos(), seqs));
            }
            TraceRecord::Delivery { at, tx, rx, received: true, .. } => {
                let Some(&(coop_at, seqs)) = pending_coop.get(&tx) else { continue };
                if coop_at != at.as_nanos() {
                    continue; // a later, non-cooperative transmission by `tx`
                }
                if let Some(slots) = outstanding.get_mut(&rx) {
                    for _ in 0..seqs {
                        let Some(requested_ns) = slots.pop_front() else { break };
                        samples_ns.push(at.as_nanos().saturating_sub(requested_ns));
                    }
                }
            }
            _ => {}
        }
    }
    let unmatched = outstanding.values().map(|slots| slots.len() as u64).sum::<u64>() as u32;
    LatencyReport { samples_ns, opened: opened as u32, unmatched }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimTime;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn decision(us: u64, node: u32) -> TraceRecord {
        TraceRecord::StrategyDecision { at: t(us), node, strategy: 0, missing: 2 }
    }

    fn request(us: u64, node: u32, seqs: u32) -> TraceRecord {
        TraceRecord::ArqRequest { at: t(us), node, seqs, cooperators: 1 }
    }

    fn coop(us: u64, node: u32, seqs: u32) -> TraceRecord {
        TraceRecord::CoopRetransmit { at: t(us), node, seqs }
    }

    fn delivery(us: u64, tx: u32, rx: u32, received: bool) -> TraceRecord {
        TraceRecord::Delivery { at: t(us), tx, rx, received, cached: false, snr_db: 8.0 }
    }

    #[test]
    fn matches_request_to_repair_fifo() {
        // Node 1 requests 2 packets at t=100us; cooperator 2 answers one at
        // t=300us and one at t=450us.
        let records = [
            decision(90, 1),
            request(100, 1, 2),
            coop(300, 2, 1),
            delivery(300, 2, 1, true),
            coop(450, 2, 1),
            delivery(450, 2, 1, true),
        ];
        let report = recovery_latency(&records);
        assert_eq!(report.samples_ns, vec![200_000, 350_000]);
        assert_eq!(report.opened, 2);
        assert_eq!(report.unmatched, 0);
        assert_eq!(report.matched(), 2);
        let dist = report.distribution_ms();
        assert_eq!(dist.samples(), &[0.2, 0.35]);
    }

    #[test]
    fn coded_batch_closes_two_slots_per_delivery() {
        // A network-coded retransmission (seqs=2) repairs both outstanding
        // packets with one landing.
        let records = [decision(0, 1), request(10, 1, 2), coop(50, 3, 2), delivery(50, 3, 1, true)];
        let report = recovery_latency(&records);
        assert_eq!(report.samples_ns, vec![40_000, 40_000]);
        assert_eq!(report.unmatched, 0);
    }

    #[test]
    fn lost_repairs_and_foreign_receivers_stay_unmatched() {
        let records = [
            decision(0, 1),
            request(10, 1, 2),
            coop(50, 3, 1),
            // The repair misses node 1 and lands at uninvolved node 4.
            delivery(50, 3, 1, false),
            delivery(50, 3, 4, true),
        ];
        let report = recovery_latency(&records);
        assert!(report.samples_ns.is_empty());
        assert_eq!(report.opened, 2);
        assert_eq!(report.unmatched, 2);
        assert!(report.distribution_ms().is_empty());
    }

    #[test]
    fn undecided_requests_and_unrelated_deliveries_are_ignored() {
        let records = [
            // No strategy_decision for node 5: its request opens nothing.
            request(10, 5, 3),
            // An ordinary AP transmission by node 0 is not a repair even
            // though node 5 receives it.
            delivery(20, 0, 5, true),
        ];
        let report = recovery_latency(&records);
        assert_eq!(report.opened, 0);
        assert_eq!(report.unmatched, 0);
        assert!(report.samples_ns.is_empty());
    }

    #[test]
    fn a_cooperators_later_plain_transmission_does_not_match() {
        let records = [
            decision(0, 1),
            request(10, 1, 1),
            coop(50, 3, 1),
            delivery(50, 3, 1, false), // the actual repair misses
            // Node 3 transmits again later (not a coop_retransmit): its
            // delivery must not close the slot.
            delivery(90, 3, 1, true),
        ];
        let report = recovery_latency(&records);
        assert!(report.samples_ns.is_empty());
        assert_eq!(report.unmatched, 1);
    }
}
