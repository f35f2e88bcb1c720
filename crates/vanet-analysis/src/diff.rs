//! Record-stream diffing: where do two runs first diverge, and how do
//! their record populations differ?
//!
//! The determinism story of this repo rests on byte-identical traces per
//! `(scenario, round, seed)`; when that contract breaks — a strategy
//! change, a settle-check edit, a cache bug — the interesting question is
//! not *that* two streams differ but *where first* and *in what*. The diff
//! reports the first diverging record (everything before it is identical,
//! so the first divergence is the root cause's earliest observable) plus
//! per-record-kind count deltas for the coarse shape of the difference.

use vanet_trace::TraceRecord;

/// All record kinds, in tag order (the codec's and JSONL's vocabulary).
const KINDS: [&str; 10] = [
    "event_dispatched",
    "tx_start",
    "delivery",
    "cache_audit",
    "csma_deferred",
    "arq_request",
    "coop_retransmit",
    "ap_retransmit_queued",
    "strategy_decision",
    "buffer_store",
];

/// The first position where two record streams disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// The 0-based record index.
    pub index: usize,
    /// Stream A's record there (`None`: A ended first).
    pub a: Option<TraceRecord>,
    /// Stream B's record there (`None`: B ended first).
    pub b: Option<TraceRecord>,
}

/// The comparison of two record streams.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Record count of stream A.
    pub a_records: usize,
    /// Record count of stream B.
    pub b_records: usize,
    /// The first disagreement, `None` when the streams are identical.
    pub first_divergence: Option<Divergence>,
    /// Per record kind `(kind, count_a, count_b)`, in tag order, only for
    /// kinds present in at least one stream.
    pub kind_counts: Vec<(&'static str, usize, usize)>,
}

fn kind_histogram(records: &[TraceRecord]) -> [usize; 10] {
    let mut counts = [0usize; 10];
    for record in records {
        let slot = KINDS
            .iter()
            .position(|&kind| kind == record.kind())
            .expect("every record kind is catalogued");
        counts[slot] += 1;
    }
    counts
}

/// Compares two record streams.
pub fn diff(a: &[TraceRecord], b: &[TraceRecord]) -> DiffReport {
    let first_divergence = a
        .iter()
        .zip(b.iter())
        .position(|(ra, rb)| ra != rb)
        .or_else(|| (a.len() != b.len()).then(|| a.len().min(b.len())))
        .map(|index| Divergence { index, a: a.get(index).copied(), b: b.get(index).copied() });
    let (ha, hb) = (kind_histogram(a), kind_histogram(b));
    let kind_counts = KINDS
        .iter()
        .enumerate()
        .filter(|&(i, _)| ha[i] > 0 || hb[i] > 0)
        .map(|(i, &kind)| (kind, ha[i], hb[i]))
        .collect();
    DiffReport { a_records: a.len(), b_records: b.len(), first_divergence, kind_counts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimTime;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::EventDispatched { at: t(0), queue_depth: 1 },
            TraceRecord::TxStart { at: t(0), until: t(10), node: 0, bits: 800 },
            TraceRecord::Delivery {
                at: t(0),
                tx: 0,
                rx: 1,
                received: true,
                cached: false,
                snr_db: 4.0,
            },
        ]
    }

    #[test]
    fn identical_streams_report_no_divergence() {
        let records = sample();
        let report = diff(&records, &records.clone());
        assert_eq!(report.first_divergence, None);
        assert_eq!(report.a_records, 3);
        assert_eq!(report.b_records, 3);
        // All present kinds are tabulated even when equal.
        assert_eq!(
            report.kind_counts,
            vec![("event_dispatched", 1, 1), ("tx_start", 1, 1), ("delivery", 1, 1)],
        );
    }

    #[test]
    fn first_differing_record_is_located() {
        let a = sample();
        let mut b = sample();
        b[1] = TraceRecord::TxStart { at: t(0), until: t(12), node: 0, bits: 900 };
        let report = diff(&a, &b);
        // Same kinds on both sides: counts agree even though records differ.
        assert!(report.kind_counts.iter().all(|&(_, a, b)| a == b), "{:?}", report.kind_counts);
        let divergence = report.first_divergence.unwrap();
        assert_eq!(divergence.index, 1);
        assert_eq!(divergence.a, Some(a[1]));
        assert_eq!(divergence.b, Some(b[1]));
    }

    #[test]
    fn length_mismatch_diverges_at_the_shorter_end() {
        let a = sample();
        let b = &a[..2];
        let report = diff(&a, b);
        assert_eq!(
            report.kind_counts,
            vec![("event_dispatched", 1, 1), ("tx_start", 1, 1), ("delivery", 1, 0)],
        );
        let divergence = report.first_divergence.unwrap();
        assert_eq!(divergence.index, 2);
        assert_eq!(divergence.a, Some(a[2]));
        assert_eq!(divergence.b, None);
    }

    #[test]
    fn empty_streams_are_identical() {
        assert_eq!(diff(&[], &[]).first_divergence, None);
        let report = diff(&sample(), &[]);
        assert_eq!(report.first_divergence.unwrap().index, 0);
        assert_eq!(report.kind_counts.len(), 3);
    }
}
