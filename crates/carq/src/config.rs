//! Protocol configuration.

use serde::{Deserialize, Serialize};
use sim_core::SimDuration;

use crate::strategy::RecoveryStrategyKind;

/// How a node asks its cooperators for missing packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RequestStrategy {
    /// One REQUEST frame per missing packet — the behaviour of the paper's
    /// prototype ("a node x broadcasts a REQUEST packet for each packet that
    /// it has failed to receive").
    PerPacket,
    /// A single REQUEST frame carrying the whole missing list — the
    /// optimisation suggested (but not evaluated) in §3.3 of the paper.
    Batched,
}

/// How a node chooses which of the neighbours it has heard become its
/// cooperators (the paper leaves the optimal selection algorithm as future
/// work, §6; these policies let the `urban-strategies` sweep preset explore
/// the space).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SelectionStrategy {
    /// Every one-hop neighbour heard becomes a cooperator, in the order it
    /// was first heard — the prototype's behaviour.
    AllNeighbours,
    /// Only the first `k` neighbours heard become cooperators.
    FirstHeard {
        /// Maximum number of cooperators.
        k: usize,
    },
    /// The `k` neighbours whose HELLOs arrive with the strongest signal
    /// become cooperators (re-evaluated as beacons arrive).
    StrongestSignal {
        /// Maximum number of cooperators.
        k: usize,
    },
}

impl SelectionStrategy {
    /// The maximum number of cooperators this policy will select, if bounded.
    pub fn limit(&self) -> Option<usize> {
        match self {
            SelectionStrategy::AllNeighbours => None,
            SelectionStrategy::FirstHeard { k } | SelectionStrategy::StrongestSignal { k } => {
                Some(*k)
            }
        }
    }
}

/// Configuration of a [`crate::CarqNode`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CarqConfig {
    /// Interval between HELLO beacons.
    pub hello_interval: SimDuration,
    /// How long without AP packets before the node decides it has left
    /// coverage and enters the Cooperative-ARQ phase (5 s in the prototype).
    pub ap_timeout: SimDuration,
    /// Duration of one cooperative response slot. Cooperator `k` answers a
    /// REQUEST after `k` slots; the slot must exceed one data-frame airtime
    /// (≈ 8.5 ms for 1000-byte frames at 1 Mbps) so that an earlier answer
    /// can be overheard and suppress later ones.
    pub response_slot: SimDuration,
    /// Pacing between successive REQUEST transmissions of the same node.
    pub request_interval: SimDuration,
    /// How the node requests missing packets.
    pub request_strategy: RequestStrategy,
    /// How the node selects its cooperators.
    pub selection: SelectionStrategy,
    /// Per-peer capacity of the cooperation buffer, in packets.
    pub coop_buffer_capacity: usize,
    /// Stop requesting after this many complete passes over the missing list
    /// yield no recovery (the neighbours evidently do not hold the remaining
    /// packets). The paper's prototype keeps requesting until a new AP is
    /// reached; a small bound reproduces the same outcome without the idle
    /// traffic.
    pub stop_after_fruitless_cycles: u32,
    /// Payload size (bytes) of the data packets this node expects; used only
    /// for diagnostics.
    pub expected_payload_bytes: u32,
    /// The recovery scheme the node runs once it decides packets were lost
    /// (the paper's Cooperative ARQ by default; see [`crate::strategy`]).
    #[serde(default)]
    pub strategy: RecoveryStrategyKind,
    /// Mutation knob for the invariant suite: when set, the node skips the
    /// loss-decision notification it would normally emit before its first
    /// REQUEST, so `verify` can prove the decision-before-request invariant
    /// fires. Never set outside tests.
    #[doc(hidden)]
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub debug_skip_decision: bool,
    /// Mutation knob for the invariant suite: when set, recovery sessions
    /// never give up, violating the per-strategy retransmission bounds so
    /// `verify` can prove they fire. Never set outside tests.
    #[doc(hidden)]
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub debug_ignore_fruitless_limit: bool,
}

impl CarqConfig {
    /// The configuration of the paper's prototype: 1 s HELLOs, 5 s AP
    /// timeout, per-packet REQUESTs, every neighbour a cooperator.
    pub fn paper_prototype() -> Self {
        CarqConfig {
            hello_interval: SimDuration::from_secs(1),
            ap_timeout: SimDuration::from_secs(5),
            response_slot: SimDuration::from_millis(12),
            request_interval: SimDuration::from_millis(80),
            request_strategy: RequestStrategy::PerPacket,
            selection: SelectionStrategy::AllNeighbours,
            coop_buffer_capacity: 512,
            stop_after_fruitless_cycles: 2,
            expected_payload_bytes: 1_000,
            strategy: RecoveryStrategyKind::CoopArq,
            debug_skip_decision: false,
            debug_ignore_fruitless_limit: false,
        }
    }

    /// Overrides the recovery strategy.
    pub fn with_strategy(mut self, strategy: RecoveryStrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// The fruitless-cycle bound a planner should honour, with the
    /// mutation knob applied.
    pub fn effective_fruitless_limit(&self) -> u32 {
        if self.debug_ignore_fruitless_limit {
            u32::MAX
        } else {
            self.stop_after_fruitless_cycles
        }
    }

    /// Switches to the batched-REQUEST optimisation.
    pub fn with_batched_requests(mut self) -> Self {
        self.request_strategy = RequestStrategy::Batched;
        self
    }

    /// Overrides the AP timeout.
    pub fn with_ap_timeout(mut self, timeout: SimDuration) -> Self {
        self.ap_timeout = timeout;
        self
    }

    /// Validates internal consistency (positive timers, slot ordering).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.hello_interval.is_zero() {
            return Err("hello_interval must be positive".into());
        }
        if self.ap_timeout.is_zero() {
            return Err("ap_timeout must be positive".into());
        }
        if self.response_slot.is_zero() {
            return Err("response_slot must be positive".into());
        }
        if self.request_interval < self.response_slot {
            return Err("request_interval must be at least one response slot".into());
        }
        if self.coop_buffer_capacity == 0 {
            return Err("coop_buffer_capacity must be positive".into());
        }
        Ok(())
    }
}

impl Default for CarqConfig {
    fn default() -> Self {
        CarqConfig::paper_prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_prototype_matches_published_constants() {
        let cfg = CarqConfig::paper_prototype();
        assert_eq!(cfg.ap_timeout, SimDuration::from_secs(5));
        assert_eq!(cfg.hello_interval, SimDuration::from_secs(1));
        assert_eq!(cfg.request_strategy, RequestStrategy::PerPacket);
        assert_eq!(cfg.selection, SelectionStrategy::AllNeighbours);
        assert_eq!(cfg.strategy, RecoveryStrategyKind::CoopArq);
        assert!(!cfg.debug_skip_decision);
        assert!(!cfg.debug_ignore_fruitless_limit);
        assert!(cfg.validate().is_ok());
        assert_eq!(CarqConfig::default(), cfg);
    }

    #[test]
    fn builders_override_fields() {
        let cfg = CarqConfig::paper_prototype()
            .with_batched_requests()
            .with_ap_timeout(SimDuration::from_secs(3))
            .with_strategy(RecoveryStrategyKind::NetCoded);
        assert_eq!(cfg.strategy, RecoveryStrategyKind::NetCoded);
        assert_eq!(cfg.request_strategy, RequestStrategy::Batched);
        assert_eq!(cfg.ap_timeout, SimDuration::from_secs(3));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut cfg = CarqConfig::paper_prototype();
        cfg.request_interval = SimDuration::from_millis(1);
        assert!(cfg.validate().is_err());

        let mut cfg = CarqConfig::paper_prototype();
        cfg.hello_interval = SimDuration::ZERO;
        assert!(cfg.validate().is_err());

        let mut cfg = CarqConfig::paper_prototype();
        cfg.ap_timeout = SimDuration::ZERO;
        assert!(cfg.validate().is_err());

        let mut cfg = CarqConfig::paper_prototype();
        cfg.response_slot = SimDuration::ZERO;
        assert!(cfg.validate().is_err());

        let mut cfg = CarqConfig::paper_prototype();
        cfg.coop_buffer_capacity = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn selection_limits() {
        assert_eq!(SelectionStrategy::AllNeighbours.limit(), None);
        assert_eq!(SelectionStrategy::FirstHeard { k: 3 }.limit(), Some(3));
        assert_eq!(SelectionStrategy::StrongestSignal { k: 1 }.limit(), Some(1));
    }
}
