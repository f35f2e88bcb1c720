//! Table 1 of the paper: average packets transmitted, lost before and lost
//! after cooperation, per car over all rounds.

use serde::{Deserialize, Serialize};
use vanet_mac::NodeId;

use crate::observation::RoundResult;
use crate::summary::Summary;

/// One row of Table 1: the per-car averages over every round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// The car this row describes.
    pub car: NodeId,
    /// Packets transmitted by the AP to this car within its reception window.
    pub tx_by_ap: Summary,
    /// Packets lost before cooperation.
    pub lost_before: Summary,
    /// Packets lost after cooperation.
    pub lost_after: Summary,
    /// Mean loss percentage before cooperation (mean of per-round ratios).
    pub loss_pct_before: f64,
    /// Mean loss percentage after cooperation.
    pub loss_pct_after: f64,
}

impl Table1Row {
    /// Relative improvement of the loss count thanks to cooperation, in
    /// `[0, 1]` (e.g. 0.5 = losses halved, the headline result for car 1).
    pub fn loss_reduction(&self) -> f64 {
        if self.lost_before.mean <= 0.0 {
            return 0.0;
        }
        1.0 - self.lost_after.mean / self.lost_before.mean
    }
}

/// Computes Table 1 from a set of rounds. Cars appear in the order of the
/// first round; rounds in which a car received nothing (empty window) are
/// skipped for that car, mirroring how the testbed would discard a capture
/// with no samples.
pub fn table1(rounds: &[RoundResult]) -> Vec<Table1Row> {
    let Some(first) = rounds.first() else { return Vec::new() };
    first
        .cars()
        .into_iter()
        .map(|car| {
            let mut tx = Vec::new();
            let mut before = Vec::new();
            let mut after = Vec::new();
            let mut pct_before = Vec::new();
            let mut pct_after = Vec::new();
            for round in rounds {
                let Some(flow) = round.flow_for(car) else { continue };
                let counts = flow.counts();
                let window_tx = counts.tx_in_window;
                if window_tx == 0 {
                    continue;
                }
                tx.push(window_tx as f64);
                before.push(counts.lost_before_coop as f64);
                after.push(counts.lost_after_coop as f64);
                pct_before.push(counts.lost_before_coop as f64 / window_tx as f64 * 100.0);
                pct_after.push(counts.lost_after_coop as f64 / window_tx as f64 * 100.0);
            }
            Table1Row {
                car,
                tx_by_ap: Summary::of(&tx),
                lost_before: Summary::of(&before),
                lost_after: Summary::of(&after),
                loss_pct_before: crate::summary::mean(&pct_before),
                loss_pct_after: crate::summary::mean(&pct_after),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::FlowObservation;
    use std::collections::BTreeMap;
    use vanet_dtn::{ReceptionMap, SeqNo};

    /// A flow where the AP sent 0..=9, the car received everything except
    /// `lost_direct`, and cooperation recovered `recovered`.
    fn flow(car: u32, lost_direct: &[u32], recovered: &[u32]) -> FlowObservation {
        let dst = NodeId::new(car);
        let direct: ReceptionMap =
            (0..10u32).filter(|s| !lost_direct.contains(s)).map(SeqNo::new).collect();
        let mut after = direct.clone();
        after.extend(recovered.iter().copied().map(SeqNo::new));
        let mut received_by = BTreeMap::new();
        received_by.insert(dst, direct);
        FlowObservation {
            destination: dst,
            sent: (0..10).map(SeqNo::new).collect(),
            received_by,
            after_coop: after,
        }
    }

    #[test]
    fn table_aggregates_over_rounds() {
        // Losses are interior packets so the window stays 0..=9.
        let round1 = RoundResult::new(vec![flow(1, &[4, 5], &[4])]);
        let round2 = RoundResult::new(vec![flow(1, &[3, 4, 5, 6], &[3, 4, 5, 6])]);
        let rows = table1(&[round1, round2]);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.car, NodeId::new(1));
        assert_eq!(row.tx_by_ap.mean, 10.0);
        assert_eq!(row.lost_before.mean, 3.0);
        assert_eq!(row.lost_after.mean, 0.5);
        assert!((row.loss_pct_before - 30.0).abs() < 1e-9);
        assert!((row.loss_pct_after - 5.0).abs() < 1e-9);
        assert!((row.loss_reduction() - (1.0 - 0.5 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn rounds_with_no_reception_are_skipped() {
        let empty = FlowObservation {
            destination: NodeId::new(1),
            sent: (0..10).map(SeqNo::new).collect(),
            received_by: BTreeMap::new(),
            after_coop: ReceptionMap::new(),
        };
        let rows =
            table1(&[RoundResult::new(vec![flow(1, &[2], &[])]), RoundResult::new(vec![empty])]);
        assert_eq!(rows[0].tx_by_ap.count, 1, "the empty round is not averaged in");
    }

    #[test]
    fn empty_input_produces_empty_table() {
        assert!(table1(&[]).is_empty());
    }

    #[test]
    fn loss_reduction_handles_zero_losses() {
        let rows = table1(&[RoundResult::new(vec![flow(2, &[], &[])])]);
        assert_eq!(rows[0].loss_reduction(), 0.0);
    }
}
