//! Pluggable recovery strategies.
//!
//! The paper's Cooperative ARQ is one answer to the question "how does a car
//! recover the packets it missed once it has left AP coverage?". This module
//! turns that answer into a seam: [`RecoveryStrategy`] captures the three
//! places where rival schemes differ from the paper —
//!
//! 1. **decide-on-loss** ([`RecoveryStrategy::plan_recovery`]): what a node
//!    does the moment it decides packets were lost (cycle REQUESTs like the
//!    paper, fire one batched shot, or do nothing at all);
//! 2. **schedule-retransmit** ([`RecoveryStrategy::response_slot_index`]):
//!    which back-off slot a cooperator uses to answer a REQUEST;
//! 3. **overhear/cache** ([`RecoveryStrategy::cooperates`],
//!    [`RecoveryStrategy::codes_responses`]): whether the node buffers
//!    overheard packets for its peers at all, and whether it pairs pending
//!    responses into network-coded frames.
//!
//! Four implementations ship:
//!
//! * [`RecoveryStrategyKind::CoopArq`] — the paper's scheme, bit-for-bit.
//!   Routing the default configuration through this trait reproduces the
//!   pre-refactor golden exports byte for byte (`tests/golden/`, enforced by
//!   the cross-strategy conformance suite).
//! * [`RecoveryStrategyKind::NetCoded`] — network-coded cooperative ARQ in
//!   the spirit of Tutgun & Aktas: a cooperator holding pending responses
//!   for *two different* requesters XORs them into one coded frame; each
//!   requester decodes its component if it holds (or overheard) the other.
//! * [`RecoveryStrategyKind::OneHopListen`] — one-hop listening ARQ after
//!   Goel & Harshan: a single batched request, order-only (compressed)
//!   response slots for minimum latency, and no re-request cycling.
//! * [`RecoveryStrategyKind::NoCoop`] — the plain-ARQ baseline: no beacons,
//!   no buffering for peers, no recovery phase. What the AP retransmits is
//!   all a car ever gets.
//!
//! Strategies are stateless singletons ([`strategy_for`]); per-session state
//! stays in the node's [`RecoveryPlanner`]. Adding a strategy is a ~30-line
//! drop-in — see `docs/STRATEGIES.md` for the recipe.

use serde::{Deserialize, Serialize};
use vanet_dtn::SeqNo;

use crate::config::{CarqConfig, RequestStrategy};
use crate::recovery::RecoveryPlanner;

/// The recovery scheme a node runs. A plain `Copy` enum so it can ride in
/// [`CarqConfig`], sweep parameters and trace records alike.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecoveryStrategyKind {
    /// The paper's Cooperative ARQ (the default).
    #[default]
    CoopArq,
    /// Network-coded cooperative ARQ (Tutgun & Aktas).
    NetCoded,
    /// One-hop listening ARQ (Goel & Harshan).
    OneHopListen,
    /// Plain ARQ without cooperation — the baseline.
    NoCoop,
}

impl RecoveryStrategyKind {
    /// Every kind, in canonical (export/table) order.
    pub const ALL: [RecoveryStrategyKind; 4] = [
        RecoveryStrategyKind::CoopArq,
        RecoveryStrategyKind::NetCoded,
        RecoveryStrategyKind::OneHopListen,
        RecoveryStrategyKind::NoCoop,
    ];

    /// The canonical name (used in sweep parameters, exports and docs).
    pub fn name(self) -> &'static str {
        match self {
            RecoveryStrategyKind::CoopArq => "coop-arq",
            RecoveryStrategyKind::NetCoded => "net-coded",
            RecoveryStrategyKind::OneHopListen => "one-hop-listen",
            RecoveryStrategyKind::NoCoop => "no-coop",
        }
    }

    /// Parses a canonical name back into a kind.
    pub fn from_name(name: &str) -> Option<Self> {
        RecoveryStrategyKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// A stable numeric tag for binary trace records.
    pub fn tag(self) -> u32 {
        match self {
            RecoveryStrategyKind::CoopArq => 0,
            RecoveryStrategyKind::NetCoded => 1,
            RecoveryStrategyKind::OneHopListen => 2,
            RecoveryStrategyKind::NoCoop => 3,
        }
    }
}

impl std::fmt::Display for RecoveryStrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The behavioural seam between the node state machine and a recovery
/// scheme. Implementations are stateless — all per-session state lives in
/// the [`RecoveryPlanner`] this trait hands back — so one `&'static`
/// instance serves every node.
pub trait RecoveryStrategy: Sync {
    /// Which kind this strategy implements.
    fn kind(&self) -> RecoveryStrategyKind;

    /// Whether nodes running this strategy broadcast periodic HELLO beacons
    /// (and therefore recruit cooperators at all).
    fn beacons(&self) -> bool {
        true
    }

    /// Whether nodes running this strategy buffer overheard packets for
    /// their cooperatees and answer their REQUESTs.
    fn cooperates(&self) -> bool {
        true
    }

    /// The decide-on-loss hook: called when a node leaves coverage with
    /// `missing` packets outstanding. Returns the planner that will drive
    /// the recovery session, or `None` to skip recovery entirely.
    fn plan_recovery(&self, config: &CarqConfig, missing: Vec<SeqNo>) -> Option<RecoveryPlanner>;

    /// The schedule-retransmit hook: the back-off slot a cooperator with
    /// response order `order` uses to answer the `idx`-th packet of a
    /// REQUEST from a node with `cooperator_count` cooperators.
    fn response_slot_index(&self, idx: usize, cooperator_count: u32, order: u32) -> u64;

    /// Whether a cooperator pairs two pending responses for *different*
    /// requesters into one network-coded frame when its response slot fires.
    fn codes_responses(&self) -> bool {
        false
    }
}

/// The paper's scheme. Every hook reproduces the pre-trait behaviour
/// exactly; the conformance suite holds this to the recorded goldens.
#[derive(Debug)]
struct CoopArq;

impl RecoveryStrategy for CoopArq {
    fn kind(&self) -> RecoveryStrategyKind {
        RecoveryStrategyKind::CoopArq
    }

    fn plan_recovery(&self, config: &CarqConfig, missing: Vec<SeqNo>) -> Option<RecoveryPlanner> {
        Some(RecoveryPlanner::new(
            config.request_strategy,
            config.effective_fruitless_limit(),
            missing,
        ))
    }

    fn response_slot_index(&self, idx: usize, cooperator_count: u32, order: u32) -> u64 {
        // Interleaved collision-free schedule (§3.3): cooperator `order`
        // answering the `idx`-th requested packet uses slot
        // `idx * cooperator_count + order`.
        idx as u64 * u64::from(cooperator_count) + u64::from(order)
    }
}

/// Network-coded cooperative ARQ: request-side behaviour is the paper's;
/// the responder side pairs pending responses into coded frames.
#[derive(Debug)]
struct NetCodedCoopArq;

impl RecoveryStrategy for NetCodedCoopArq {
    fn kind(&self) -> RecoveryStrategyKind {
        RecoveryStrategyKind::NetCoded
    }

    fn plan_recovery(&self, config: &CarqConfig, missing: Vec<SeqNo>) -> Option<RecoveryPlanner> {
        Some(RecoveryPlanner::new(
            config.request_strategy,
            config.effective_fruitless_limit(),
            missing,
        ))
    }

    fn response_slot_index(&self, idx: usize, cooperator_count: u32, order: u32) -> u64 {
        idx as u64 * u64::from(cooperator_count) + u64::from(order)
    }

    fn codes_responses(&self) -> bool {
        true
    }
}

/// One-hop listening ARQ: one batched shot, compressed order-only slots,
/// no cycling — latency over completeness.
#[derive(Debug)]
struct OneHopListenArq;

impl RecoveryStrategy for OneHopListenArq {
    fn kind(&self) -> RecoveryStrategyKind {
        RecoveryStrategyKind::OneHopListen
    }

    fn plan_recovery(&self, config: &CarqConfig, missing: Vec<SeqNo>) -> Option<RecoveryPlanner> {
        // Always batched, and a single fruitless cycle ends the session.
        let limit = if config.debug_ignore_fruitless_limit { u32::MAX } else { 1 };
        Some(RecoveryPlanner::new(RequestStrategy::Batched, limit, missing))
    }

    fn response_slot_index(&self, _idx: usize, _cooperator_count: u32, order: u32) -> u64 {
        // Compressed schedule: a cooperator answers every requested packet
        // from its own order slot, back to back; the CSMA layer serialises
        // its frames. Lower latency, more contention.
        u64::from(order)
    }
}

/// No cooperation at all: the baseline the paper's Table 1 is measured
/// against.
#[derive(Debug)]
struct NoCoop;

impl RecoveryStrategy for NoCoop {
    fn kind(&self) -> RecoveryStrategyKind {
        RecoveryStrategyKind::NoCoop
    }

    fn beacons(&self) -> bool {
        false
    }

    fn cooperates(&self) -> bool {
        false
    }

    fn plan_recovery(&self, _config: &CarqConfig, _missing: Vec<SeqNo>) -> Option<RecoveryPlanner> {
        None
    }

    fn response_slot_index(&self, _idx: usize, _cooperator_count: u32, _order: u32) -> u64 {
        0 // never reached: a NoCoop node has no cooperatees
    }
}

/// The stateless singleton implementing `kind`.
pub fn strategy_for(kind: RecoveryStrategyKind) -> &'static dyn RecoveryStrategy {
    match kind {
        RecoveryStrategyKind::CoopArq => &CoopArq,
        RecoveryStrategyKind::NetCoded => &NetCodedCoopArq,
        RecoveryStrategyKind::OneHopListen => &OneHopListenArq,
        RecoveryStrategyKind::NoCoop => &NoCoop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_tags_round_trip() {
        for kind in RecoveryStrategyKind::ALL {
            assert_eq!(RecoveryStrategyKind::from_name(kind.name()), Some(kind));
            assert_eq!(strategy_for(kind).kind(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(RecoveryStrategyKind::from_name("carrier-pigeon"), None);
        // Tags are distinct, so a trace record's tag names one strategy.
        let tags: std::collections::BTreeSet<u32> =
            RecoveryStrategyKind::ALL.iter().map(|k| k.tag()).collect();
        assert_eq!(tags.len(), RecoveryStrategyKind::ALL.len());
        assert_eq!(RecoveryStrategyKind::default(), RecoveryStrategyKind::CoopArq);
    }

    #[test]
    fn coop_arq_reproduces_the_paper_slot_formula() {
        let s = strategy_for(RecoveryStrategyKind::CoopArq);
        assert_eq!(s.response_slot_index(0, 2, 1), 1);
        assert_eq!(s.response_slot_index(1, 2, 1), 3);
        assert_eq!(s.response_slot_index(2, 2, 1), 5);
        assert!(s.beacons());
        assert!(s.cooperates());
        assert!(!s.codes_responses());
    }

    #[test]
    fn one_hop_listen_compresses_slots_and_stops_after_one_cycle() {
        let s = strategy_for(RecoveryStrategyKind::OneHopListen);
        assert_eq!(s.response_slot_index(0, 4, 2), 2);
        assert_eq!(s.response_slot_index(3, 4, 2), 2, "order-only: idx is ignored");
        let mut planner = s
            .plan_recovery(&CarqConfig::paper_prototype(), vec![SeqNo::new(1), SeqNo::new(2)])
            .expect("one-hop-listen recovers");
        // One batched shot carrying the whole list, then give up.
        assert_eq!(planner.next_request(), Some(vec![SeqNo::new(1), SeqNo::new(2)]));
        assert_eq!(planner.next_request(), None);
        assert!(planner.gave_up());
    }

    #[test]
    fn no_coop_declines_everything() {
        let s = strategy_for(RecoveryStrategyKind::NoCoop);
        assert!(!s.beacons());
        assert!(!s.cooperates());
        assert!(s.plan_recovery(&CarqConfig::paper_prototype(), vec![SeqNo::new(5)]).is_none());
    }

    #[test]
    fn net_coded_requests_like_the_paper_but_codes_responses() {
        let s = strategy_for(RecoveryStrategyKind::NetCoded);
        assert!(s.codes_responses());
        assert_eq!(s.response_slot_index(1, 2, 1), 3, "request side matches CoopArq");
        let cfg = CarqConfig::paper_prototype();
        let coop = strategy_for(RecoveryStrategyKind::CoopArq);
        let mut a = s.plan_recovery(&cfg, vec![SeqNo::new(3)]).unwrap();
        let mut b = coop.plan_recovery(&cfg, vec![SeqNo::new(3)]).unwrap();
        assert_eq!(a.next_request(), b.next_request());
    }

    #[test]
    fn debug_knob_disables_the_fruitless_limit() {
        let mut cfg = CarqConfig::paper_prototype();
        cfg.debug_ignore_fruitless_limit = true;
        for kind in [RecoveryStrategyKind::CoopArq, RecoveryStrategyKind::OneHopListen] {
            let mut planner = strategy_for(kind)
                .plan_recovery(&cfg, vec![SeqNo::new(1)])
                .expect("plans a session");
            for _ in 0..64 {
                assert!(planner.next_request().is_some(), "{kind}: must never give up");
            }
        }
    }
}
