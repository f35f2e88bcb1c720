//! Raw per-round experiment records.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use vanet_dtn::{ReceptionMap, SeqNo};
use vanet_mac::NodeId;

/// Everything the evaluation needs to know about one flow (the packets
/// addressed to one car) in one experiment round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowObservation {
    /// The car this flow is addressed to.
    pub destination: NodeId,
    /// Sequence numbers the AP transmitted for this flow during the round,
    /// in transmission order.
    pub sent: Vec<SeqNo>,
    /// What each observer (the destination itself and every other car)
    /// physically received of this flow — the promiscuous captures of the
    /// testbed laptops.
    pub received_by: BTreeMap<NodeId, ReceptionMap>,
    /// What the destination holds after the Cooperative-ARQ phase.
    pub after_coop: ReceptionMap,
}

impl FlowObservation {
    /// The destination's own direct receptions (empty map if it received
    /// nothing).
    pub fn direct(&self) -> &ReceptionMap {
        static NOTHING: ReceptionMap = ReceptionMap::new();
        self.received_by.get(&self.destination).unwrap_or(&NOTHING)
    }

    /// The packet window the paper evaluates: from the first to the last
    /// packet the destination received directly from the AP.
    pub fn window(&self) -> Option<(SeqNo, SeqNo)> {
        let direct = self.direct();
        Some((direct.first()?, direct.last()?))
    }

    /// All five window counts of this flow, in one pass: the window is
    /// marked into three bitsets (the direct map, the after-cooperation map
    /// and the union of every observer's map), each sent packet is two bit
    /// reads, and `recoverable` and `recovered` are popcounts. A flow with
    /// no window counts all zeros.
    ///
    /// `sent` may repeat or go back (re-sends, several APs each numbering
    /// from 0); every in-window entry counts, repeats included. The bitsets
    /// are sized by the window's span, which a decoded report controls, so
    /// a span of more than 64 sequence numbers per element of the flow
    /// (`sent` plus every map's length) takes a sparse path whose work and
    /// allocation grow with the elements instead.
    pub fn counts(&self) -> FlowCounts {
        let Some((first, last)) = self.window() else { return FlowCounts::default() };
        let span = u64::from(last.value() - first.value()) + 1;
        let elements = self.sent.len()
            + self.after_coop.received_count()
            + self.received_by.values().map(ReceptionMap::received_count).sum::<usize>();
        if span <= MAX_SPAN_PER_ELEMENT * elements as u64 {
            self.dense_counts(first, last)
        } else {
            self.sparse_counts(first, last)
        }
    }

    /// [`FlowObservation::counts`] over window bitsets: three of
    /// `last - first + 1` bits each, in one allocation.
    fn dense_counts(&self, first: SeqNo, last: SeqNo) -> FlowCounts {
        let words = (last.value() - first.value()) as usize / 64 + 1;
        let mut bits = vec![0u64; 3 * words];
        let (direct, rest) = bits.split_at_mut(words);
        let (after, joint) = rest.split_at_mut(words);
        let index = |seq: SeqNo| (seq.value() - first.value()) as usize;
        let mark = |set: &mut [u64], map: &ReceptionMap| {
            for seq in map.within(first, last) {
                set[index(*seq) / 64] |= 1 << (index(*seq) % 64);
            }
        };
        mark(direct, self.direct());
        mark(after, &self.after_coop);
        for map in self.received_by.values() {
            mark(joint, map);
        }
        let missing = |set: &[u64], i: usize| usize::from(set[i / 64] >> (i % 64) & 1 == 0);
        let mut counts = FlowCounts::default();
        for seq in self.sent.iter().filter(|s| (first..=last).contains(*s)) {
            counts.tx_in_window += 1;
            counts.lost_before_coop += missing(direct, index(*seq));
            counts.lost_after_coop += missing(after, index(*seq));
        }
        counts.recoverable = joint.iter().map(|w| w.count_ones() as usize).sum();
        counts.recovered =
            joint.iter().zip(after.iter()).map(|(j, a)| (j & a).count_ones() as usize).sum();
        counts
    }

    /// [`FlowObservation::counts`] with no span-sized buffer: a binary
    /// search per in-window sent packet, and the joint map's window slice
    /// for `recoverable` and `recovered`.
    fn sparse_counts(&self, first: SeqNo, last: SeqNo) -> FlowCounts {
        let direct = self.direct();
        let mut counts = FlowCounts::default();
        for seq in self.sent.iter().filter(|s| (first..=last).contains(*s)) {
            counts.tx_in_window += 1;
            counts.lost_before_coop += usize::from(!direct.contains(*seq));
            counts.lost_after_coop += usize::from(!self.after_coop.contains(*seq));
        }
        let joint = self.joint();
        let recoverable = joint.within(first, last);
        counts.recoverable = recoverable.len();
        counts.recovered = recoverable.iter().filter(|s| self.after_coop.contains(**s)).count();
        counts
    }

    /// The joint ("virtual car") reception across all observers.
    pub fn joint(&self) -> ReceptionMap {
        let mut joint = ReceptionMap::new();
        for map in self.received_by.values() {
            joint.union_with(map);
        }
        joint
    }
}

/// The widest window [`FlowObservation::counts`] covers with bitsets, in
/// sequence numbers per element of the flow (`sent` plus every map's
/// length); a wider one takes the sparse path. Each AP numbers a car's
/// packets consecutively from 0, so an honest window never spans more than
/// the packets sent; only a hostile report gets past this bound, and it then
/// costs work in its elements, not its span.
const MAX_SPAN_PER_ELEMENT: u64 = 64;

/// The window counts of one flow, from [`FlowObservation::counts`]: Table
/// 1's columns and the recovery efficiency behind the paper's "almost
/// optimal" claim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowCounts {
    /// Entries of `sent` within the window, repeats included — the paper's
    /// "Tx by the AP" column.
    pub tx_in_window: usize,
    /// In-window entries of `sent` the destination did not receive directly.
    pub lost_before_coop: usize,
    /// In-window entries of `sent` the destination does not hold after
    /// cooperation.
    pub lost_after_coop: usize,
    /// Distinct sequence numbers within the window that some observer
    /// received.
    pub recoverable: usize,
    /// Of the recoverable sequence numbers, those the destination holds
    /// after cooperation.
    pub recovered: usize,
}

impl FlowCounts {
    /// `recovered / recoverable`, or 1.0 when nothing was recoverable.
    pub fn recovery_efficiency(&self) -> f64 {
        if self.recoverable == 0 {
            return 1.0;
        }
        self.recovered as f64 / self.recoverable as f64
    }
}

/// The result of one experiment round: one [`FlowObservation`] per car.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RoundResult {
    /// Per-flow observations, one per car in platoon order.
    pub flows: Vec<FlowObservation>,
}

impl RoundResult {
    /// Creates a round result from its flows.
    pub fn new(flows: Vec<FlowObservation>) -> Self {
        RoundResult { flows }
    }

    /// The observation for the flow addressed to `car`, if present.
    pub fn flow_for(&self, car: NodeId) -> Option<&FlowObservation> {
        self.flows.iter().find(|f| f.destination == car)
    }

    /// The cars observed in this round, in platoon order.
    pub fn cars(&self) -> Vec<NodeId> {
        self.flows.iter().map(|f| f.destination).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert_eq, proptest};
    use std::time::{Duration, Instant};

    /// The per-packet definitions [`FlowObservation::counts`] replaced, kept
    /// as its oracle: one scan of the flow per count, one binary search per
    /// packet, and the joint map walked over every number of the window.
    mod oracle {
        use super::*;

        pub fn tx_by_ap_in_window(obs: &FlowObservation) -> usize {
            let Some((first, last)) = obs.window() else { return 0 };
            obs.sent.iter().filter(|s| **s >= first && **s <= last).count()
        }

        pub fn lost_before_coop(obs: &FlowObservation) -> usize {
            let Some((first, last)) = obs.window() else { return 0 };
            let direct = obs.direct();
            obs.sent.iter().filter(|s| **s >= first && **s <= last && !direct.contains(**s)).count()
        }

        pub fn lost_after_coop(obs: &FlowObservation) -> usize {
            let Some((first, last)) = obs.window() else { return 0 };
            obs.sent
                .iter()
                .filter(|s| **s >= first && **s <= last && !obs.after_coop.contains(**s))
                .count()
        }

        /// `(recoverable, recovered, recovery efficiency)`.
        pub fn recovery(obs: &FlowObservation) -> (usize, usize, f64) {
            let Some((first, last)) = obs.window() else { return (0, 0, 1.0) };
            let joint = obs.joint();
            let recoverable: Vec<SeqNo> =
                first.range_to_inclusive(last).filter(|s| joint.contains(*s)).collect();
            if recoverable.is_empty() {
                return (0, 0, 1.0);
            }
            let achieved = recoverable.iter().filter(|s| obs.after_coop.contains(**s)).count();
            (recoverable.len(), achieved, achieved as f64 / recoverable.len() as f64)
        }

        pub fn counts(obs: &FlowObservation) -> FlowCounts {
            let (recoverable, recovered, _) = recovery(obs);
            FlowCounts {
                tx_in_window: tx_by_ap_in_window(obs),
                lost_before_coop: lost_before_coop(obs),
                lost_after_coop: lost_after_coop(obs),
                recoverable,
                recovered,
            }
        }
    }

    /// Builds a random flow for the oracle property.
    ///
    /// * `scale` picks how many sequence numbers the flow draws from: 2
    ///   (one-packet windows), 64, 2,000, or 2,000,000 (spans past the
    ///   bitset guard, so `counts` takes the sparse path);
    /// * `place` puts those numbers at 0, at `base`, or against `u32::MAX`;
    /// * `order` sends ascending, shuffled with repeats, or as two ascending
    ///   runs back to back (how a multi-AP world concatenates its APs);
    /// * `direct` 0 leaves the destination's map out and 1 leaves it empty.
    ///
    /// Each draw `(offset, who, flags, key)` is one sequence number: `who`
    /// picks the observer that received it (none from `observers` up),
    /// `flags` whether the AP sent it, sent it again, and whether the
    /// destination holds it after cooperation — independently of who
    /// received it, so `after_coop` need not be a subset of the joint map.
    fn random_flow(
        (scale, place, order, direct): (u32, u32, u32, u32),
        observers: u32,
        base: u32,
        draws: &[(u32, u32, u32, u32)],
    ) -> FlowObservation {
        let universe = [2u32, 64, 2_000, 2_000_000][scale as usize];
        let origin = match place {
            0 => 0,
            1 => base.min(u32::MAX - (universe - 1)),
            _ => u32::MAX - (universe - 1),
        };
        let destination = NodeId::new(1);
        let mut received_by: BTreeMap<NodeId, ReceptionMap> =
            (1..=observers).map(|id| (NodeId::new(id), ReceptionMap::new())).collect();
        let mut sent = Vec::new();
        let mut after_coop = ReceptionMap::new();
        for &(offset, who, flags, key) in draws {
            let seq = SeqNo::new(origin + offset % universe);
            if who < observers {
                received_by.get_mut(&NodeId::new(who + 1)).unwrap().mark_received(seq);
            }
            if flags & 3 != 0 {
                sent.push((key, seq));
            }
            if flags & 4 != 0 {
                sent.push((key / 2, seq));
            }
            if flags & 8 != 0 || (who == 0 && flags & 4 == 0) {
                after_coop.mark_received(seq);
            }
        }
        match order {
            0 => sent.sort_unstable_by_key(|&(_, seq)| seq),
            1 => sent.sort_unstable(),
            _ => {
                let half = sent.len() / 2;
                sent[..half].sort_unstable_by_key(|&(_, seq)| seq);
                sent[half..].sort_unstable_by_key(|&(_, seq)| seq);
            }
        }
        match direct {
            0 => drop(received_by.remove(&destination)),
            1 => received_by.get_mut(&destination).unwrap().clear(),
            _ => {}
        }
        FlowObservation {
            destination,
            sent: sent.into_iter().map(|(_, seq)| seq).collect(),
            received_by,
            after_coop,
        }
    }

    proptest! {
        /// `counts`, both of its paths forced, and the four per-packet
        /// methods agree with the per-packet definitions on random flows;
        /// the recovery efficiency to the bit.
        #[test]
        fn prop_counts_equal_the_per_packet_definitions(
            shape in (0u32..4, 0u32..3, 0u32..3, 0u32..8),
            observers in 1u32..7,
            base in 0u32..u32::MAX,
            draws in proptest::collection::vec(
                (0u32..u32::MAX, 0u32..8, 0u32..16, 0u32..u32::MAX),
                0..120,
            ),
        ) {
            let obs = random_flow(shape, observers, base, &draws);
            let expected = oracle::counts(&obs);
            prop_assert_eq!(obs.counts(), expected);
            if let Some((first, last)) = obs.window() {
                prop_assert_eq!(obs.dense_counts(first, last), expected);
                prop_assert_eq!(obs.sparse_counts(first, last), expected);
            }
            prop_assert_eq!(obs.counts().tx_in_window, oracle::tx_by_ap_in_window(&obs));
            prop_assert_eq!(obs.counts().lost_before_coop, oracle::lost_before_coop(&obs));
            prop_assert_eq!(obs.counts().lost_after_coop, oracle::lost_after_coop(&obs));
            prop_assert_eq!(
                obs.counts().recovery_efficiency().to_bits(),
                oracle::recovery(&obs).2.to_bits()
            );
        }
    }

    #[test]
    fn a_hostile_window_is_counted_exactly_by_the_sparse_path() {
        // The direct map {0, u32::MAX - 1} spans 2^32 - 1 sequence numbers,
        // which the per-packet definition walked one by one (seconds) and
        // bitsets would cover with 1.5 GiB. The flow holds 10 elements, so
        // `counts` must take the sparse path and finish in microseconds.
        let top = u32::MAX;
        let dst = NodeId::new(1);
        let seqs = |values: &[u32]| values.iter().copied().map(SeqNo::new).collect();
        let mut received_by = BTreeMap::new();
        received_by.insert(dst, seqs(&[0, top - 1]));
        received_by.insert(NodeId::new(2), seqs(&[top]));
        let obs = FlowObservation {
            destination: dst,
            sent: [0, 1, top - 1, top].into_iter().map(SeqNo::new).collect(),
            received_by,
            after_coop: seqs(&[0, 1, top]),
        };
        assert!(u64::from(top - 1) + 1 > MAX_SPAN_PER_ELEMENT * 10, "past the bitset guard");
        let started = Instant::now();
        let counts = obs.counts();
        assert!(started.elapsed() < Duration::from_secs(1), "took {:?}", started.elapsed());
        assert_eq!(
            counts,
            FlowCounts {
                tx_in_window: 3,
                lost_before_coop: 1,
                lost_after_coop: 1,
                recoverable: 2,
                recovered: 1,
            }
        );
        assert_eq!(counts.recovery_efficiency(), 0.5);
    }

    /// Builds an observation where the AP sent seqs 0..10, the destination
    /// (car 1) received {2,3,4,7}, car 2 overheard {5,6,7}, and cooperation
    /// recovered 5 and 6.
    fn sample() -> FlowObservation {
        let dst = NodeId::new(1);
        let mut received_by = BTreeMap::new();
        received_by.insert(dst, [2u32, 3, 4, 7].into_iter().map(SeqNo::new).collect());
        received_by.insert(NodeId::new(2), [5u32, 6, 7].into_iter().map(SeqNo::new).collect());
        let after_coop: ReceptionMap = [2u32, 3, 4, 5, 6, 7].into_iter().map(SeqNo::new).collect();
        FlowObservation {
            destination: dst,
            sent: (0..10).map(SeqNo::new).collect(),
            received_by,
            after_coop,
        }
    }

    #[test]
    fn window_and_tx_counts() {
        let mut obs = sample();
        assert_eq!(obs.window(), Some((SeqNo::new(2), SeqNo::new(7))));
        assert_eq!(obs.counts().tx_in_window, 6);
        assert_eq!(obs.counts().lost_before_coop, 2); // 5 and 6
        assert_eq!(obs.counts().lost_after_coop, 0);
        assert_eq!(obs.direct().received_count(), 4);
        let plain = FlowCounts {
            tx_in_window: 6,
            lost_before_coop: 2,
            lost_after_coop: 0,
            recoverable: 6,
            recovered: 6,
        };
        assert_eq!(obs.counts(), plain);
        // Re-sends of 5 (lost directly) and 7, a second AP's run from 0, and
        // one past the window: every in-window entry counts, repeats included.
        obs.sent.extend([5u32, 7, 0, 1, 2, 3, 9].into_iter().map(SeqNo::new));
        assert_eq!(obs.counts(), FlowCounts { tx_in_window: 10, lost_before_coop: 3, ..plain });
    }

    #[test]
    fn joint_reception_is_union_of_observers() {
        let obs = sample();
        let joint = obs.joint();
        for s in [2u32, 3, 4, 5, 6, 7] {
            assert!(joint.contains(SeqNo::new(s)));
        }
        assert!(!joint.contains(SeqNo::new(8)));
        assert_eq!(joint.received_count(), 6);
    }

    #[test]
    fn recovery_efficiency_is_one_when_everything_recoverable_is_recovered() {
        let obs = sample();
        assert_eq!(obs.counts().recovery_efficiency(), 1.0);
        // Remove a recovered packet: efficiency drops below 1.
        let mut partial = obs.clone();
        partial.after_coop = [2u32, 3, 4, 5, 7].into_iter().map(SeqNo::new).collect();
        assert!(partial.counts().recovery_efficiency() < 1.0);
        assert!(partial.counts().recovery_efficiency() > 0.7);
    }

    #[test]
    fn empty_reception_yields_zero_counts() {
        let obs = FlowObservation {
            destination: NodeId::new(1),
            sent: (0..10).map(SeqNo::new).collect(),
            received_by: BTreeMap::new(),
            after_coop: ReceptionMap::new(),
        };
        assert_eq!(obs.window(), None);
        assert_eq!(obs.counts().tx_in_window, 0);
        assert_eq!(obs.counts().lost_before_coop, 0);
        assert_eq!(obs.counts().lost_after_coop, 0);
        assert_eq!(obs.counts().recovery_efficiency(), 1.0);
    }

    #[test]
    fn round_result_lookups() {
        let round = RoundResult::new(vec![sample()]);
        assert_eq!(round.cars(), vec![NodeId::new(1)]);
        assert!(round.flow_for(NodeId::new(1)).is_some());
        assert!(round.flow_for(NodeId::new(9)).is_none());
    }
}
