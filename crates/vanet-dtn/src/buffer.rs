//! Reception maps and cooperation buffers.
//!
//! Two bookkeeping structures drive the Cooperative-ARQ phase:
//!
//! * every car keeps, for its *own* flow, a [`ReceptionMap`]: which sequence
//!   numbers it has received from the AP and which are missing "from the
//!   first to the last received" (the paper's recovery target);
//! * every car keeps a [`CoopBuffer`] with the packets it has overheard that
//!   are addressed to the cars that listed it as a cooperator.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use vanet_mac::NodeId;

use crate::packet::{DataPacket, SeqNo};

/// Tracks which sequence numbers of one flow have been received.
///
/// # Examples
///
/// ```
/// use vanet_dtn::{ReceptionMap, SeqNo};
///
/// let mut map = ReceptionMap::new();
/// map.mark_received(SeqNo::new(3));
/// map.mark_received(SeqNo::new(6));
/// assert_eq!(map.missing(), vec![SeqNo::new(4), SeqNo::new(5)]);
/// assert_eq!(map.received_count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReceptionMap {
    /// Strictly ascending: each received sequence number once, lowest
    /// first. Packets mostly arrive in order, so marking one is usually a
    /// push, and a whole map is one allocation.
    received: Vec<SeqNo>,
}

impl ReceptionMap {
    /// Creates an empty map.
    pub const fn new() -> Self {
        ReceptionMap { received: Vec::new() }
    }

    /// Marks `seq` as received. Returns `true` if it was not already present.
    pub fn mark_received(&mut self, seq: SeqNo) -> bool {
        match self.received.last() {
            Some(last) if *last >= seq => match self.received.binary_search(&seq) {
                Ok(_) => false,
                Err(at) => {
                    self.received.insert(at, seq);
                    true
                }
            },
            _ => {
                self.received.push(seq);
                true
            }
        }
    }

    /// Whether `seq` has been received.
    pub fn contains(&self, seq: SeqNo) -> bool {
        self.received.binary_search(&seq).is_ok()
    }

    /// Number of distinct sequence numbers received.
    pub fn received_count(&self) -> usize {
        self.received.len()
    }

    /// Whether nothing has been received yet.
    pub fn is_empty(&self) -> bool {
        self.received.is_empty()
    }

    /// The lowest sequence number received, if any.
    pub fn first(&self) -> Option<SeqNo> {
        self.received.first().copied()
    }

    /// The highest sequence number received, if any.
    pub fn last(&self) -> Option<SeqNo> {
        self.received.last().copied()
    }

    /// The sequence numbers missing between the first and the last received —
    /// the recovery target of the Cooperative-ARQ phase ("recover all packets
    /// from the first to the last received from the AP").
    pub fn missing(&self) -> Vec<SeqNo> {
        let mut missing = Vec::with_capacity(self.missing_count());
        for pair in self.received.windows(2) {
            missing.extend((pair[0].value() + 1..pair[1].value()).map(SeqNo::new));
        }
        missing
    }

    /// Number of missing sequence numbers between first and last received.
    pub fn missing_count(&self) -> usize {
        self.span_len() - self.received.len()
    }

    /// The span (first..=last) length, i.e. how many packets the AP sent to
    /// this flow while the node could observe them. Zero when nothing was
    /// received.
    pub fn span_len(&self) -> usize {
        match (self.first(), self.last()) {
            (Some(first), Some(last)) => (last.value() - first.value() + 1) as usize,
            _ => 0,
        }
    }

    /// Iterates over the received sequence numbers in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = SeqNo> + '_ {
        self.received.iter().copied()
    }

    /// The received sequence numbers in `first..=last`, ascending: a
    /// sub-slice found by two binary searches. Empty when nothing received
    /// falls in the range, or when `first > last`.
    pub fn within(&self, first: SeqNo, last: SeqNo) -> &[SeqNo] {
        let tail = &self.received[self.received.partition_point(|s| *s < first)..];
        &tail[..tail.partition_point(|s| *s <= last)]
    }

    /// Adds every sequence number `other` holds: one pass over the two
    /// ascending runs, or an append when `other` starts past this map's end.
    pub fn union_with(&mut self, other: &ReceptionMap) {
        let (ours, theirs) = (&self.received, &other.received);
        match (ours.last(), theirs.first()) {
            (Some(last), Some(first)) if last >= first => {
                let mut merged = Vec::with_capacity(ours.len() + theirs.len());
                let (mut a, mut b) = (ours.as_slice(), theirs.as_slice());
                while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
                    merged.push(x.min(y));
                    if x <= y {
                        a = &a[1..];
                    }
                    if y <= x {
                        b = &b[1..];
                    }
                }
                merged.extend_from_slice(a);
                merged.extend_from_slice(b);
                self.received = merged;
            }
            _ => self.received.extend_from_slice(theirs),
        }
    }

    /// Removes everything (e.g. when a new AP session starts).
    pub fn clear(&mut self) {
        self.received.clear();
    }

    /// Re-establishes the ascending, duplicate-free order after raw pushes
    /// past the first `kept` entries, which are already in order. Sorts
    /// only when the pushes broke it.
    fn restore_order(&mut self, kept: usize) {
        let pushed = &self.received[kept.saturating_sub(1)..];
        if !pushed.windows(2).all(|pair| pair[0] < pair[1]) {
            self.received.sort_unstable();
            self.received.dedup();
        }
    }
}

impl FromIterator<SeqNo> for ReceptionMap {
    fn from_iter<I: IntoIterator<Item = SeqNo>>(iter: I) -> Self {
        let mut map = ReceptionMap { received: iter.into_iter().collect() };
        map.restore_order(0);
        map
    }
}

impl Extend<SeqNo> for ReceptionMap {
    fn extend<I: IntoIterator<Item = SeqNo>>(&mut self, iter: I) {
        let kept = self.received.len();
        self.received.extend(iter);
        self.restore_order(kept);
    }
}

/// What one [`CoopBuffer::store_with_eviction`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOutcome {
    /// Whether the packet was newly inserted (not already buffered).
    pub stored: bool,
    /// The sequence number evicted to make room, if the peer's flow was at
    /// capacity.
    pub evicted: Option<SeqNo>,
}

/// The packets a node buffers on behalf of other cars (its "cooperatees").
///
/// Capacity is bounded per peer; when full, the oldest buffered packet for
/// that peer is evicted first (the protocol requests packets in ascending
/// order, so older packets are the most likely to have been recovered
/// already).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoopBuffer {
    capacity_per_peer: usize,
    buffered: BTreeMap<NodeId, BTreeMap<SeqNo, DataPacket>>,
}

impl CoopBuffer {
    /// Creates a buffer that keeps at most `capacity_per_peer` packets per
    /// peer flow.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub fn new(capacity_per_peer: usize) -> Self {
        assert!(capacity_per_peer > 0, "capacity must be positive");
        CoopBuffer { capacity_per_peer, buffered: BTreeMap::new() }
    }

    /// Stores a packet overheard for `packet.destination`. Returns `true` if
    /// the packet was newly inserted (not already buffered).
    pub fn store(&mut self, packet: DataPacket) -> bool {
        self.store_with_eviction(packet).stored
    }

    /// [`CoopBuffer::store`] reporting what happened, so callers can count
    /// buffer drops: whether the packet was newly inserted and which
    /// sequence number (if any) was evicted to make room.
    pub fn store_with_eviction(&mut self, packet: DataPacket) -> StoreOutcome {
        let per_peer = self.buffered.entry(packet.destination).or_default();
        if per_peer.contains_key(&packet.seq) {
            return StoreOutcome { stored: false, evicted: None };
        }
        let mut evicted = None;
        if per_peer.len() >= self.capacity_per_peer {
            // Evict the oldest (lowest) sequence number.
            let oldest = *per_peer.keys().next().expect("non-empty by len check");
            per_peer.remove(&oldest);
            evicted = Some(oldest);
        }
        per_peer.insert(packet.seq, packet);
        StoreOutcome { stored: true, evicted }
    }

    /// Looks up a buffered packet for `peer` with sequence number `seq`.
    pub fn get(&self, peer: NodeId, seq: SeqNo) -> Option<&DataPacket> {
        self.buffered.get(&peer).and_then(|m| m.get(&seq))
    }

    /// Whether a packet for `peer`/`seq` is buffered.
    pub fn holds(&self, peer: NodeId, seq: SeqNo) -> bool {
        self.get(peer, seq).is_some()
    }

    /// Total number of buffered packets across all peers.
    pub fn len(&self) -> usize {
        self.buffered.values().map(BTreeMap::len).sum()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all buffered packets.
    pub fn clear(&mut self) {
        self.buffered.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert, prop_assert_eq, proptest};
    use sim_core::SimTime;
    use std::collections::BTreeSet;

    fn pkt(dst: u32, seq: u32) -> DataPacket {
        DataPacket::new(NodeId::new(dst), SeqNo::new(seq), 1_000, SimTime::ZERO)
    }

    /// The sequence numbers below 200 (every one these tests store) that
    /// `buf` holds for `peer`, ascending.
    fn held(buf: &CoopBuffer, peer: u32) -> Vec<u32> {
        (0..200).filter(|&s| buf.holds(NodeId::new(peer), SeqNo::new(s))).collect()
    }

    #[test]
    fn reception_map_tracks_missing_between_first_and_last() {
        let mut map = ReceptionMap::new();
        assert!(map.is_empty());
        assert_eq!(map.missing(), Vec::<SeqNo>::new());
        assert_eq!(map.span_len(), 0);
        for s in [2u32, 3, 6, 9] {
            assert!(map.mark_received(SeqNo::new(s)));
        }
        assert!(!map.mark_received(SeqNo::new(3)), "duplicate reception");
        assert_eq!(map.first(), Some(SeqNo::new(2)));
        assert_eq!(map.last(), Some(SeqNo::new(9)));
        assert_eq!(map.span_len(), 8);
        assert_eq!(map.received_count(), 4);
        assert_eq!(map.missing_count(), 4);
        let missing: Vec<u32> = map.missing().into_iter().map(SeqNo::value).collect();
        assert_eq!(missing, vec![4, 5, 7, 8]);
        assert!(map.contains(SeqNo::new(6)));
        assert!(!map.contains(SeqNo::new(7)));
        map.clear();
        assert!(map.is_empty());
    }

    #[test]
    fn within_is_the_inclusive_sub_slice() {
        let map: ReceptionMap = [2u32, 3, 6, 9].into_iter().map(SeqNo::new).collect();
        let within = |first: u32, last: u32| -> Vec<u32> {
            map.within(SeqNo::new(first), SeqNo::new(last)).iter().map(|s| s.value()).collect()
        };
        assert_eq!(within(2, 9), vec![2, 3, 6, 9], "both bounds are inclusive");
        assert_eq!(within(0, u32::MAX), vec![2, 3, 6, 9]);
        assert_eq!(within(3, 6), vec![3, 6]);
        assert_eq!(within(4, 8), vec![6]);
        assert_eq!(within(6, 6), vec![6], "first == last on a held number");
        assert_eq!(within(7, 7), Vec::<u32>::new(), "first == last on a gap");
        assert_eq!(within(0, 1), Vec::<u32>::new(), "a window before the map");
        assert_eq!(within(10, u32::MAX), Vec::<u32>::new(), "a window past the map");
        assert_eq!(within(9, 2), Vec::<u32>::new(), "an inverted window");
        assert!(ReceptionMap::new().within(SeqNo::new(0), SeqNo::new(5)).is_empty());
    }

    #[test]
    fn reception_map_collects_from_iterator() {
        let map: ReceptionMap = (0..5u32).map(SeqNo::new).collect();
        assert_eq!(map.received_count(), 5);
        assert_eq!(map.missing_count(), 0);
        let mut extended = map.clone();
        extended.extend([SeqNo::new(7)]);
        assert_eq!(extended.missing(), vec![SeqNo::new(5), SeqNo::new(6)]);
        assert_eq!(map.iter().count(), 5);
    }

    /// Checks every observable of `map` against the `BTreeSet` reference.
    fn assert_matches_reference(map: &ReceptionMap, reference: &BTreeSet<SeqNo>, step: usize) {
        let seqs: Vec<SeqNo> = reference.iter().copied().collect();
        assert_eq!(map.iter().collect::<Vec<_>>(), seqs, "iter after step {step}");
        assert_eq!(map.first(), reference.first().copied(), "first after step {step}");
        assert_eq!(map.last(), reference.last().copied(), "last after step {step}");
        assert_eq!(map.received_count(), reference.len(), "count after step {step}");
        assert_eq!(map.is_empty(), reference.is_empty(), "is_empty after step {step}");
        let (span, missing): (usize, Vec<SeqNo>) = match (seqs.first(), seqs.last()) {
            (Some(first), Some(last)) => (
                (last.value() - first.value() + 1) as usize,
                first.range_to_inclusive(*last).filter(|s| !reference.contains(s)).collect(),
            ),
            _ => (0, Vec::new()),
        };
        assert_eq!(map.span_len(), span, "span_len after step {step}");
        assert_eq!(map.missing_count(), missing.len(), "missing_count after step {step}");
        assert_eq!(map.missing(), missing, "missing after step {step}");
        let top = seqs.last().map_or(0, |s| s.value() + 2);
        for s in 0..=top {
            let seq = SeqNo::new(s);
            assert_eq!(
                map.contains(seq),
                reference.contains(&seq),
                "contains({s}) after step {step}"
            );
        }
        for (lo, hi) in [(0, top), (top / 3, top / 2), (top / 2, top / 2), (top, 0)] {
            let expected: Vec<SeqNo> = if lo <= hi {
                reference.range(SeqNo::new(lo)..=SeqNo::new(hi)).copied().collect()
            } else {
                Vec::new()
            };
            assert_eq!(
                map.within(SeqNo::new(lo), SeqNo::new(hi)),
                expected.as_slice(),
                "within({lo}, {hi}) after step {step}"
            );
        }
        // Equal to the same set built in either order, and to no other.
        assert_eq!(*map, seqs.iter().copied().collect::<ReceptionMap>(), "step {step}");
        assert_eq!(*map, seqs.iter().rev().copied().collect::<ReceptionMap>(), "step {step}");
        let mut grown = map.clone();
        grown.mark_received(SeqNo::new(top + 1));
        assert_ne!(*map, grown, "step {step}");
    }

    proptest! {
        /// Model-based: random in-order appends, out-of-order inserts,
        /// duplicates, `extend`, unsorted `from_iter`, `union_with` and
        /// `clear`, applied to a `ReceptionMap` and to a `BTreeSet<SeqNo>`
        /// reference, agree on every observable after every operation.
        #[test]
        fn prop_reception_map_matches_a_btreeset(
            ops in proptest::collection::vec((0u32..10, 0u32..400, 0u32..400), 1..120),
        ) {
            let mut map = ReceptionMap::new();
            let mut reference = BTreeSet::new();
            for (step, &(op, a, b)) in ops.iter().enumerate() {
                let next = map.last().map_or(a % 8, |s| s.value() + 1 + a % 3);
                match op {
                    0..=2 => {
                        let seq = SeqNo::new(next);
                        prop_assert_eq!(map.mark_received(seq), reference.insert(seq));
                    }
                    3 => {
                        let seq = SeqNo::new(a % 300);
                        prop_assert_eq!(map.mark_received(seq), reference.insert(seq));
                    }
                    4 => {
                        if let Some(held) = reference.iter().nth(b as usize % reference.len().max(1)) {
                            prop_assert!(!map.mark_received(*held), "duplicate accepted");
                        }
                    }
                    5 => {
                        // An ascending run, past the end or from anywhere.
                        let start = if a % 2 == 0 { next } else { a % 300 };
                        let run: Vec<SeqNo> = (start..start + b % 20).map(SeqNo::new).collect();
                        map.extend(run.iter().copied());
                        reference.extend(run);
                    }
                    6 => {
                        let unsorted = [a % 300, b % 300, a % 300, (a + b) % 300, next];
                        map.extend(unsorted.map(SeqNo::new));
                        reference.extend(unsorted.map(SeqNo::new));
                    }
                    7 => {
                        let unsorted = [b % 300, a % 300, b % 300, (a * 7) % 300];
                        map = unsorted.into_iter().map(SeqNo::new).collect();
                        reference = unsorted.into_iter().map(SeqNo::new).collect();
                    }
                    8 => {
                        // Every other number from this map's last, or from anywhere.
                        let start = if a % 2 == 0 { map.last().map_or(0, SeqNo::value) } else { b % 300 };
                        let other: ReceptionMap =
                            (0..b % 30).map(|i| SeqNo::new(start + 2 * i)).collect();
                        map.union_with(&other);
                        reference.extend(other.iter());
                    }
                    _ => {
                        if a % 4 == 0 {
                            map.clear();
                            reference.clear();
                        } else {
                            prop_assert!(map.mark_received(SeqNo::new(next)));
                            reference.insert(SeqNo::new(next));
                        }
                    }
                }
                assert_matches_reference(&map, &reference, step);
            }
        }
    }

    #[test]
    fn coop_buffer_stores_and_looks_up() {
        let mut buf = CoopBuffer::new(10);
        assert!(buf.is_empty());
        assert!(buf.store(pkt(1, 5)));
        assert!(!buf.store(pkt(1, 5)), "duplicate store");
        assert!(buf.store(pkt(2, 5)));
        assert_eq!(buf.len(), 2);
        assert!(buf.holds(NodeId::new(1), SeqNo::new(5)));
        assert!(!buf.holds(NodeId::new(1), SeqNo::new(6)));
        assert_eq!(buf.get(NodeId::new(2), SeqNo::new(5)).unwrap().destination, NodeId::new(2));
        assert_eq!(held(&buf, 1), [5]);
        buf.clear();
        assert!(buf.is_empty());
    }

    #[test]
    fn coop_buffer_evicts_oldest_when_full() {
        let mut buf = CoopBuffer::new(3);
        for s in 0..5u32 {
            buf.store(pkt(1, s));
        }
        assert_eq!(held(&buf, 1), [2, 3, 4], "oldest packets evicted first");
    }

    #[test]
    fn store_with_eviction_reports_what_happened() {
        let mut buf = CoopBuffer::new(2);
        assert_eq!(
            buf.store_with_eviction(pkt(1, 3)),
            StoreOutcome { stored: true, evicted: None }
        );
        assert_eq!(
            buf.store_with_eviction(pkt(1, 3)),
            StoreOutcome { stored: false, evicted: None },
            "duplicates are rejected without evicting"
        );
        assert_eq!(
            buf.store_with_eviction(pkt(1, 4)),
            StoreOutcome { stored: true, evicted: None }
        );
        assert_eq!(
            buf.store_with_eviction(pkt(1, 5)),
            StoreOutcome { stored: true, evicted: Some(SeqNo::new(3)) },
            "the oldest packet makes room"
        );
        // Another peer's flow has its own capacity.
        assert_eq!(
            buf.store_with_eviction(pkt(2, 9)),
            StoreOutcome { stored: true, evicted: None }
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = CoopBuffer::new(0);
    }

    proptest! {
        /// received + missing always equals the span between first and last.
        #[test]
        fn prop_reception_map_partition(seqs in proptest::collection::btree_set(0u32..500, 0..100)) {
            let map: ReceptionMap = seqs.iter().copied().map(SeqNo::new).collect();
            prop_assert_eq!(map.received_count() + map.missing_count(), map.span_len());
            for m in map.missing() {
                prop_assert!(!map.contains(m));
            }
        }

        /// The buffer never exceeds its per-peer capacity, only ever holds
        /// packets that were actually stored, and when packets arrive in
        /// ascending order it retains the newest ones.
        #[test]
        fn prop_buffer_capacity_respected(seqs in proptest::collection::vec(0u32..200, 1..80), cap in 1usize..20) {
            let mut buf = CoopBuffer::new(cap);
            for s in &seqs {
                buf.store(pkt(1, *s));
            }
            let kept = held(&buf, 1);
            prop_assert!(kept.len() <= cap);
            for s in kept {
                prop_assert!(seqs.contains(&s));
            }

            // Ascending arrival (the AP's actual pattern): the newest `cap`
            // distinct packets must be retained.
            let mut sorted: Vec<u32> = seqs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let mut ordered = CoopBuffer::new(cap);
            for s in &sorted {
                ordered.store(pkt(1, *s));
            }
            let expect_newest: Vec<u32> = sorted.iter().rev().take(cap).rev().copied().collect();
            prop_assert_eq!(held(&ordered, 1), expect_newest);
        }
    }
}
