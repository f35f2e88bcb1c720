//! Medium-occupancy and airtime-utilization analysis from `tx_start`
//! intervals.
//!
//! Every `tx_start` record carries the frame's airtime interval
//! `[at, until)`. From those intervals alone this module derives:
//!
//! * **busy time** — the length of their union: how long at least one node
//!   held the medium;
//! * **airtime** — the plain sum of interval lengths (> busy time exactly
//!   when transmissions overlapped);
//! * **collision windows** — maximal regions where ≥ 2 transmissions
//!   overlap, counted via a boundary sweep. A frame starting the instant
//!   another ends is *not* an overlap (intervals are half-open);
//! * **per-node airtime** — each node's share of the total airtime, the
//!   fairness view.
//!
//! The analysis span is `[0, max(until))` — the round starts at simulation
//! time zero and the medium is defined to be idle after the last frame — so
//! the busy fraction is a pure function of the record stream.

use std::collections::BTreeMap;

use vanet_trace::TraceRecord;

/// Nanoseconds per millisecond, for the airtime views.
const NS_PER_MS: f64 = 1_000_000.0;

/// The occupancy profile of one record stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OccupancyReport {
    /// The analysis span `[0, max(until))` in nanoseconds.
    pub span_ns: u64,
    /// Union length of all airtime intervals.
    pub busy_ns: u64,
    /// Sum of all airtime intervals (≥ `busy_ns`; the excess is overlap).
    pub airtime_ns: u64,
    /// Number of transmissions.
    pub tx_count: u32,
    /// Maximal windows with ≥ 2 concurrent transmissions.
    pub collision_windows: u32,
    /// Per-node airtime sums, sorted by node id.
    pub per_node_airtime_ns: Vec<(u32, u64)>,
}

impl OccupancyReport {
    /// Fraction of the span at least one node was transmitting; zero for an
    /// empty stream.
    pub fn busy_fraction(&self) -> f64 {
        if self.span_ns == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / self.span_ns as f64
    }

    /// Total airtime in milliseconds.
    pub fn airtime_ms(&self) -> f64 {
        self.airtime_ns as f64 / NS_PER_MS
    }

    /// The node holding the largest airtime share, with that share of the
    /// total airtime; `None` for an empty stream. Ties resolve to the
    /// lowest node id (the map is sorted), keeping the answer deterministic.
    pub fn top_talker(&self) -> Option<(u32, f64)> {
        if self.airtime_ns == 0 {
            return None;
        }
        let (node, airtime) = self
            .per_node_airtime_ns
            .iter()
            .max_by_key(|&&(node, ns)| (ns, std::cmp::Reverse(node)))?;
        Some((*node, *airtime as f64 / self.airtime_ns as f64))
    }
}

/// Folds a record stream's `tx_start` intervals into its occupancy
/// profile.
pub fn medium_occupancy(records: &[TraceRecord]) -> OccupancyReport {
    // `(start, end)` airtime intervals and per-node airtime sums.
    let mut intervals: Vec<(u64, u64)> = Vec::new();
    let mut per_node: BTreeMap<u32, u64> = BTreeMap::new();
    for record in records {
        if let TraceRecord::TxStart { at, until, node, .. } = *record {
            let (start, end) = (at.as_nanos(), until.as_nanos());
            intervals.push((start, end));
            *per_node.entry(node).or_insert(0) += end.saturating_sub(start);
        }
    }
    let tx_count = intervals.len() as u32;
    let span_ns = intervals.iter().map(|&(_, end)| end).max().unwrap_or(0);
    let airtime_ns: u64 = intervals.iter().map(|&(s, e)| e.saturating_sub(s)).sum();

    // Union length: merge intervals sorted by start.
    intervals.sort_unstable();
    let mut busy_ns = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in &intervals {
        match current {
            Some((cs, ce)) if start <= ce => current = Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                busy_ns += ce - cs;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((cs, ce)) = current {
        busy_ns += ce - cs;
    }

    // Collision windows: boundary sweep over (time, delta) events. Ends sort
    // before starts at the same instant, so half-open intervals that merely
    // touch never register depth 2.
    let mut bounds: Vec<(u64, i32)> = Vec::with_capacity(intervals.len() * 2);
    for &(start, end) in &intervals {
        bounds.push((start, 1));
        bounds.push((end, -1));
    }
    bounds.sort_unstable_by_key(|&(time, delta)| (time, delta));
    let mut depth = 0i32;
    let mut collision_windows = 0u32;
    let mut in_collision = false;
    for (_, delta) in bounds {
        depth += delta;
        if depth >= 2 && !in_collision {
            collision_windows += 1;
            in_collision = true;
        } else if depth < 2 {
            in_collision = false;
        }
    }

    OccupancyReport {
        span_ns,
        busy_ns,
        airtime_ns,
        tx_count,
        collision_windows,
        per_node_airtime_ns: per_node.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimTime;

    fn tx(at_us: u64, until_us: u64, node: u32) -> TraceRecord {
        TraceRecord::TxStart {
            at: SimTime::from_micros(at_us),
            until: SimTime::from_micros(until_us),
            node,
            bits: 800,
        }
    }

    #[test]
    fn busy_airtime_and_span_from_disjoint_intervals() {
        let report = medium_occupancy(&[tx(0, 10, 0), tx(20, 30, 1)]);
        assert_eq!(report.span_ns, 30_000);
        assert_eq!(report.busy_ns, 20_000);
        assert_eq!(report.airtime_ns, 20_000);
        assert_eq!(report.tx_count, 2);
        assert_eq!(report.collision_windows, 0);
        assert!((report.busy_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.per_node_airtime_ns, vec![(0, 10_000), (1, 10_000)]);
        // Ties go to the lowest node id.
        assert_eq!(report.top_talker(), Some((0, 0.5)));
    }

    #[test]
    fn overlaps_count_as_collision_windows() {
        // Two overlapping pairs separated by idle time: two windows.
        let report =
            medium_occupancy(&[tx(0, 10, 0), tx(5, 15, 1), tx(100, 110, 0), tx(105, 108, 2)]);
        assert_eq!(report.collision_windows, 2);
        assert_eq!(report.busy_ns, 25_000);
        assert_eq!(report.airtime_ns, 33_000);
        // Node 0 transmitted 20us of the 33us total.
        let (node, share) = report.top_talker().unwrap();
        assert_eq!(node, 0);
        assert!((share - 20.0 / 33.0).abs() < 1e-12);
    }

    #[test]
    fn touching_intervals_are_not_collisions() {
        // Back-to-back frames share a boundary instant; half-open intervals
        // make that depth 1, not 2 — and one merged busy region.
        let report = medium_occupancy(&[tx(0, 10, 0), tx(10, 20, 1)]);
        assert_eq!(report.collision_windows, 0);
        assert_eq!(report.busy_ns, 20_000);
    }

    #[test]
    fn three_deep_overlap_is_one_window() {
        let report = medium_occupancy(&[tx(0, 30, 0), tx(5, 25, 1), tx(10, 20, 2)]);
        assert_eq!(report.collision_windows, 1);
        assert_eq!(report.busy_ns, 30_000);
        assert_eq!(report.airtime_ns, 60_000);
    }

    #[test]
    fn empty_stream_degenerates_cleanly() {
        let report = medium_occupancy(&[]);
        assert_eq!(report, OccupancyReport::default());
        assert_eq!(report.busy_fraction(), 0.0);
        assert_eq!(report.top_talker(), None);
        assert_eq!(report.airtime_ms(), 0.0);
    }
}
