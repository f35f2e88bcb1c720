//! Requester-side recovery planning for the Cooperative-ARQ phase.
//!
//! Once a node decides it has left AP coverage it "checks which packets it
//! has failed to receive correctly from the AP and starts to request them
//! \[...\] in an attempt to recover all packets from the first to the last
//! received from the AP. \[...\] When the final of the list of missing packets
//! is reached, the vehicular node will start again from the beginning of the
//! actualized (shorter) list" (§3.3). [`RecoveryPlanner`] implements that
//! loop, plus the batched-REQUEST variant and a termination rule for the case
//! where the platoon simply does not hold the remaining packets.

use serde::{Deserialize, Serialize};
use vanet_dtn::SeqNo;

use crate::config::RequestStrategy;

/// The missing-list cycling state machine of one recovering node.
///
/// # Examples
///
/// ```
/// use carq::{RecoveryPlanner, RequestStrategy};
/// use vanet_dtn::SeqNo;
///
/// let missing = vec![SeqNo::new(4), SeqNo::new(7)];
/// let mut planner = RecoveryPlanner::new(RequestStrategy::PerPacket, 2, missing);
/// assert_eq!(planner.next_request(), Some(vec![SeqNo::new(4)]));
/// planner.mark_recovered(SeqNo::new(4));
/// assert_eq!(planner.next_request(), Some(vec![SeqNo::new(7)]));
/// planner.mark_recovered(SeqNo::new(7));
/// assert!(planner.is_complete());
/// assert_eq!(planner.next_request(), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryPlanner {
    strategy: RequestStrategy,
    stop_after_fruitless_cycles: u32,
    pending: Vec<SeqNo>,
    cursor: usize,
    recovered_since_cycle_start: bool,
    fruitless_cycles: u32,
    gave_up: bool,
    requests_issued: u64,
}

impl RecoveryPlanner {
    /// Creates a planner for the given missing list (duplicates are removed,
    /// the list is kept in ascending order as the prototype requests packets
    /// from first to last).
    pub fn new(
        strategy: RequestStrategy,
        stop_after_fruitless_cycles: u32,
        mut missing: Vec<SeqNo>,
    ) -> Self {
        missing.sort_unstable();
        missing.dedup();
        RecoveryPlanner {
            strategy,
            stop_after_fruitless_cycles,
            pending: missing,
            cursor: 0,
            recovered_since_cycle_start: false,
            fruitless_cycles: 0,
            gave_up: false,
            requests_issued: 0,
        }
    }

    /// The sequence numbers still missing.
    pub fn remaining(&self) -> &[SeqNo] {
        &self.pending
    }

    /// Whether every originally missing packet has been recovered.
    pub fn is_complete(&self) -> bool {
        self.pending.is_empty()
    }

    /// Whether recovery stopped: either complete, or the planner gave up
    /// after the configured number of fruitless cycles.
    pub fn is_finished(&self) -> bool {
        self.is_complete() || self.gave_up
    }

    /// Whether the planner stopped without recovering everything.
    pub fn gave_up(&self) -> bool {
        self.gave_up
    }

    /// Records that `seq` has been recovered (via a cooperator, or directly
    /// from a newly reached AP). Returns `true` if it was still pending.
    pub fn mark_recovered(&mut self, seq: SeqNo) -> bool {
        let Some(idx) = self.pending.iter().position(|s| *s == seq) else {
            return false;
        };
        self.pending.remove(idx);
        if idx < self.cursor {
            self.cursor -= 1;
        }
        self.recovered_since_cycle_start = true;
        true
    }

    /// The sequence numbers to put in the next REQUEST frame, or `None` when
    /// the planner has finished (everything recovered or gave up).
    ///
    /// With [`RequestStrategy::PerPacket`] each call returns one sequence
    /// number, cycling over the (shrinking) missing list. With
    /// [`RequestStrategy::Batched`] each call returns the whole missing list
    /// and counts as one cycle.
    pub fn next_request(&mut self) -> Option<Vec<SeqNo>> {
        if self.is_finished() {
            return None;
        }
        match self.strategy {
            RequestStrategy::PerPacket => {
                if self.cursor >= self.pending.len() && !self.close_cycle() {
                    return None;
                }
                let seq = self.pending[self.cursor];
                self.cursor += 1;
                self.requests_issued += 1;
                Some(vec![seq])
            }
            RequestStrategy::Batched => {
                if self.requests_issued > 0 && !self.close_cycle() {
                    return None;
                }
                self.requests_issued += 1;
                Some(self.pending.clone())
            }
        }
    }

    /// Ends the current cycle; returns `false` if the planner gives up.
    fn close_cycle(&mut self) -> bool {
        if self.recovered_since_cycle_start {
            self.fruitless_cycles = 0;
        } else {
            self.fruitless_cycles += 1;
        }
        self.recovered_since_cycle_start = false;
        self.cursor = 0;
        if self.fruitless_cycles >= self.stop_after_fruitless_cycles {
            self.gave_up = true;
            false
        } else {
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert, proptest};

    fn seqs(values: &[u32]) -> Vec<SeqNo> {
        values.iter().copied().map(SeqNo::new).collect()
    }

    #[test]
    fn empty_missing_list_is_immediately_complete() {
        let mut planner = RecoveryPlanner::new(RequestStrategy::PerPacket, 2, vec![]);
        assert!(planner.is_complete());
        assert!(planner.is_finished());
        assert_eq!(planner.next_request(), None);
        assert!(!planner.gave_up());
    }

    #[test]
    fn per_packet_cycles_in_ascending_order() {
        let mut planner = RecoveryPlanner::new(RequestStrategy::PerPacket, 5, seqs(&[9, 3, 5, 3]));
        assert_eq!(planner.remaining(), seqs(&[3, 5, 9]).as_slice());
        assert_eq!(planner.next_request(), Some(seqs(&[3])));
        assert_eq!(planner.next_request(), Some(seqs(&[5])));
        assert_eq!(planner.next_request(), Some(seqs(&[9])));
        // Nothing recovered: the list is restarted from the beginning.
        assert_eq!(planner.next_request(), Some(seqs(&[3])));
    }

    #[test]
    fn recovered_packets_leave_the_cycle() {
        let mut planner = RecoveryPlanner::new(RequestStrategy::PerPacket, 2, seqs(&[1, 2, 3]));
        assert_eq!(planner.next_request(), Some(seqs(&[1])));
        assert!(planner.mark_recovered(SeqNo::new(1)));
        assert!(!planner.mark_recovered(SeqNo::new(1)), "already recovered");
        assert_eq!(planner.next_request(), Some(seqs(&[2])));
        assert!(planner.mark_recovered(SeqNo::new(2)));
        assert!(planner.mark_recovered(SeqNo::new(3)), "recovered out of band");
        assert!(planner.is_complete());
        assert_eq!(planner.next_request(), None);
    }

    #[test]
    fn gives_up_after_fruitless_cycles() {
        let mut planner = RecoveryPlanner::new(RequestStrategy::PerPacket, 2, seqs(&[1, 2]));
        // Cycle 1: request 1, 2 — no recoveries.
        assert!(planner.next_request().is_some());
        assert!(planner.next_request().is_some());
        // Cycle 2: request 1, 2 — still nothing.
        assert!(planner.next_request().is_some());
        assert!(planner.next_request().is_some());
        // Two fruitless cycles completed → give up.
        assert_eq!(planner.next_request(), None);
        assert!(planner.gave_up());
        assert!(planner.is_finished());
        assert!(!planner.is_complete());
        assert_eq!(planner.remaining().len(), 2);
    }

    #[test]
    fn recoveries_reset_the_fruitless_counter() {
        let mut planner = RecoveryPlanner::new(RequestStrategy::PerPacket, 1, seqs(&[1, 2, 3]));
        assert_eq!(planner.next_request(), Some(seqs(&[1])));
        planner.mark_recovered(SeqNo::new(1));
        assert_eq!(planner.next_request(), Some(seqs(&[2])));
        assert_eq!(planner.next_request(), Some(seqs(&[3])));
        // A recovery happened during this cycle, so a new cycle starts.
        assert_eq!(planner.next_request(), Some(seqs(&[2])));
        assert_eq!(planner.next_request(), Some(seqs(&[3])));
        // This cycle had no recoveries and the limit is 1 → stop.
        assert_eq!(planner.next_request(), None);
        assert!(planner.gave_up());
    }

    #[test]
    fn batched_requests_whole_list_each_cycle() {
        let mut planner = RecoveryPlanner::new(RequestStrategy::Batched, 2, seqs(&[4, 8, 15]));
        assert_eq!(planner.next_request(), Some(seqs(&[4, 8, 15])));
        planner.mark_recovered(SeqNo::new(4));
        planner.mark_recovered(SeqNo::new(8));
        assert_eq!(planner.next_request(), Some(seqs(&[15])));
        // No recovery after that batch, twice → give up.
        assert_eq!(planner.next_request(), Some(seqs(&[15])));
        assert_eq!(planner.next_request(), None);
        assert!(planner.gave_up());
    }

    proptest! {
        /// The planner always terminates: the number of requests it can issue
        /// is bounded by (cycles allowed before giving up + recoveries) × list
        /// length, so draining it never loops forever.
        #[test]
        fn prop_planner_terminates(missing in proptest::collection::btree_set(0u32..200, 0..50),
                                   recover_every in 1usize..5,
                                   limit in 1u32..4) {
            let missing: Vec<SeqNo> = missing.into_iter().map(SeqNo::new).collect();
            let mut planner = RecoveryPlanner::new(RequestStrategy::PerPacket, limit, missing.clone());
            let mut steps = 0usize;
            let hard_cap = (missing.len() + 1) * (limit as usize + missing.len() + 2) * (recover_every + 1);
            while let Some(req) = planner.next_request() {
                steps += 1;
                prop_assert!(steps <= hard_cap, "planner did not terminate");
                // Recover every N-th requested packet to exercise both paths.
                if steps.is_multiple_of(recover_every) {
                    planner.mark_recovered(req[0]);
                }
            }
            prop_assert!(planner.is_finished());
        }

        /// remaining() plus the packets marked recovered always equals the
        /// initial size.
        #[test]
        fn prop_conservation(missing in proptest::collection::btree_set(0u32..100, 0..40)) {
            let initial: Vec<SeqNo> = missing.iter().copied().map(SeqNo::new).collect();
            let mut planner = RecoveryPlanner::new(RequestStrategy::PerPacket, 2, initial.clone());
            // Recover every other packet.
            let mut recovered = 0;
            for (i, s) in initial.iter().enumerate() {
                if i % 2 == 0 && planner.mark_recovered(*s) {
                    recovered += 1;
                }
            }
            prop_assert!(planner.remaining().len() + recovered == initial.len());
        }
    }
}
