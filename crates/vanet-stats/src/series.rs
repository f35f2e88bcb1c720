//! Per-packet reception-probability series (Figures 3–8 of the paper).
//!
//! The figures plot, against the packet number of the flow addressed to one
//! car, the probability (over the 30 rounds) that the packet was received
//! by each car (Figures 3–5), and the probability after cooperation compared
//! with the joint reception over all cars (Figures 6–8).
//!
//! Packet numbers are aligned across rounds relative to the first packet of
//! the flow that *any* car received in that round, which is how the testbed's
//! post-processing lines up rounds of slightly different length.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};
use vanet_dtn::{ReceptionMap, SeqNo};
use vanet_mac::NodeId;

use crate::observation::{FlowObservation, RoundResult};

/// One point of a reception-probability series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Packet number (aligned across rounds; 0 = first packet of the joint
    /// reception window).
    pub packet_index: u32,
    /// Probability of reception over the rounds in which this index exists.
    pub probability: f64,
    /// Number of rounds contributing to this point.
    pub samples: u32,
}

/// Which packet window a series is computed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Window {
    /// From the first to the last packet received by *any* car — used for the
    /// promiscuous-reception figures (3–5), where the point is precisely to
    /// compare the cars' coverage windows.
    Joint,
    /// From the first to the last packet the destination received directly —
    /// the window the protocol tries to repair (Table 1 and Figures 6–8).
    Destination,
}

/// The first and last packet any observer received: the bounds of the
/// joint map, without building it.
fn joint_window(flow: &FlowObservation) -> Option<(SeqNo, SeqNo)> {
    let first = flow.received_by.values().filter_map(ReceptionMap::first).min()?;
    let last = flow.received_by.values().filter_map(ReceptionMap::last).max()?;
    Some((first, last))
}

/// Internal helper: accumulates hit counts per aligned packet index. A
/// packet of the window is a hit when the map `held` picks for its flow
/// holds it; a flow for which `held` picks nothing contributes no samples.
/// Every index of the window gains a sample; the held packets within it,
/// one walk over an ascending slice, gain a hit each.
fn accumulate<'r>(
    rounds: &'r [RoundResult],
    flow_dst: NodeId,
    window: Window,
    held: impl Fn(&'r FlowObservation) -> Option<Cow<'r, ReceptionMap>>,
) -> Vec<SeriesPoint> {
    let mut hits: Vec<(u32, u32)> = Vec::new(); // (hit count, sample count) per index
    for round in rounds {
        let Some(flow) = round.flow_for(flow_dst) else { continue };
        let bounds = match window {
            Window::Joint => joint_window(flow),
            Window::Destination => flow.window(),
        };
        let Some((origin, last)) = bounds else { continue };
        let Some(held) = held(flow) else { continue };
        let span = (last.value() - origin.value()) as usize + 1;
        if hits.len() < span {
            hits.resize(span, (0, 0));
        }
        for (_, samples) in &mut hits[..span] {
            *samples += 1;
        }
        for seq in held.within(origin, last) {
            hits[(seq.value() - origin.value()) as usize].0 += 1;
        }
    }
    hits.into_iter()
        .enumerate()
        .filter(|(_, (_, samples))| *samples > 0)
        .map(|(i, (h, samples))| SeriesPoint {
            packet_index: i as u32,
            probability: f64::from(h) / f64::from(samples),
            samples,
        })
        .collect()
}

/// Figures 3–5: probability that `observer` received each packet of the flow
/// addressed to `flow_dst` (promiscuous reception). Aligned on the joint
/// reception window so the three observers' coverage regions line up.
pub fn reception_series(
    rounds: &[RoundResult],
    flow_dst: NodeId,
    observer: NodeId,
) -> Vec<SeriesPoint> {
    accumulate(rounds, flow_dst, Window::Joint, |flow| {
        flow.received_by.get(&observer).map(Cow::Borrowed)
    })
}

/// Figures 6–8 ("Rx after coop." curve): probability that `flow_dst` holds
/// each packet after the Cooperative-ARQ phase. Computed over the
/// destination's own reception window — the packets the protocol tries to
/// repair ("from the first to the last received from the AP", §3.3).
pub fn recovery_series(rounds: &[RoundResult], flow_dst: NodeId) -> Vec<SeriesPoint> {
    accumulate(rounds, flow_dst, Window::Destination, |flow| Some(Cow::Borrowed(&flow.after_coop)))
}

/// Figures 6–8 ("Joint Rx" curve): probability that at least one car received
/// each packet of the flow addressed to `flow_dst`, over the destination's
/// reception window (so it is directly comparable with
/// [`recovery_series`] — near-coincidence of the two curves is the paper's
/// optimality claim).
pub fn joint_series(rounds: &[RoundResult], flow_dst: NodeId) -> Vec<SeriesPoint> {
    accumulate(rounds, flow_dst, Window::Destination, |flow| Some(Cow::Owned(flow.joint())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Two observers: car 1 (destination) receives the first half, car 2 the
    /// second half; cooperation recovers everything car 2 had.
    fn sample_round() -> RoundResult {
        let dst = NodeId::new(1);
        let car2 = NodeId::new(2);
        let direct: ReceptionMap = (0..5u32).map(SeqNo::new).collect();
        let overheard: ReceptionMap = (5..10u32).map(SeqNo::new).collect();
        let after: ReceptionMap = (0..10u32).map(SeqNo::new).collect();
        let mut received_by = BTreeMap::new();
        received_by.insert(dst, direct);
        received_by.insert(car2, overheard);
        RoundResult::new(vec![FlowObservation {
            destination: dst,
            sent: (0..12).map(SeqNo::new).collect(),
            received_by,
            after_coop: after,
        }])
    }

    #[test]
    fn reception_series_tracks_each_observer() {
        let rounds = vec![sample_round(), sample_round()];
        let own = reception_series(&rounds, NodeId::new(1), NodeId::new(1));
        let peer = reception_series(&rounds, NodeId::new(1), NodeId::new(2));
        assert_eq!(own.len(), 10);
        assert_eq!(own[0].probability, 1.0);
        assert_eq!(own[0].samples, 2);
        assert_eq!(own[7].probability, 0.0);
        assert_eq!(peer[0].probability, 0.0);
        assert_eq!(peer[7].probability, 1.0);
    }

    #[test]
    fn recovery_matches_joint_when_protocol_is_optimal() {
        let rounds = vec![sample_round()];
        let after = recovery_series(&rounds, NodeId::new(1));
        let joint = joint_series(&rounds, NodeId::new(1));
        // Both series cover the destination's own window (seqs 0..=4).
        assert_eq!(after.len(), 5);
        assert_eq!(after.len(), joint.len());
        for (a, j) in after.iter().zip(&joint) {
            assert_eq!(a.packet_index, j.packet_index);
            assert_eq!(a.probability, j.probability);
            assert_eq!(j.probability, 1.0);
        }
    }

    #[test]
    fn unknown_flow_or_observer_yields_empty_or_zero_series() {
        let rounds = vec![sample_round()];
        assert!(reception_series(&rounds, NodeId::new(9), NodeId::new(1)).is_empty());
        let unknown_observer = reception_series(&rounds, NodeId::new(1), NodeId::new(9));
        assert!(unknown_observer.is_empty(), "observer with no captures contributes nothing");
        assert!(recovery_series(&[], NodeId::new(1)).is_empty());
    }

    #[test]
    fn probabilities_average_over_rounds() {
        // Round A: car 1 receives seq 0; round B: it does not (car 2 does, so
        // the joint window still starts at 0).
        let make = |car1_has_zero: bool| {
            let dst = NodeId::new(1);
            let mut received_by = BTreeMap::new();
            let direct: ReceptionMap = if car1_has_zero {
                [0u32, 1].into_iter().map(SeqNo::new).collect()
            } else {
                [1u32].into_iter().map(SeqNo::new).collect()
            };
            received_by.insert(dst, direct.clone());
            received_by.insert(NodeId::new(2), [0u32, 1].into_iter().map(SeqNo::new).collect());
            RoundResult::new(vec![FlowObservation {
                destination: dst,
                sent: vec![SeqNo::new(0), SeqNo::new(1)],
                received_by,
                after_coop: direct,
            }])
        };
        let rounds = vec![make(true), make(false)];
        let series = reception_series(&rounds, NodeId::new(1), NodeId::new(1));
        assert_eq!(series[0].probability, 0.5);
        assert_eq!(series[0].samples, 2);
        assert_eq!(series[1].probability, 1.0);
    }
}
