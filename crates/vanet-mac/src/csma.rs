//! Slotted CSMA/CA backoff helper.
//!
//! Broadcast frames under DCF wait for the medium to be idle for a DIFS and
//! then count down a random backoff drawn from the contention window. There
//! are no retransmissions (and hence no exponential backoff stages) in the
//! testbed configuration, so a single contention-window size suffices.
//!
//! The helper is deliberately decoupled from the [`crate::Medium`]: a caller
//! asks "given that the medium is busy until `busy_until`, when may I start
//! transmitting?", which is all the simulation model needs in order to
//! serialise its transmissions.

use rand::Rng;
use serde::{Deserialize, Serialize};
use sim_core::{SimTime, StreamRng};

use vanet_radio::FrameTiming;

/// Backoff policy for broadcast frames under DCF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsmaBackoff {
    /// Contention window size in slots (the draw is uniform in `0..cw`).
    pub contention_window: u32,
}

impl Default for CsmaBackoff {
    fn default() -> Self {
        // CWmin of 802.11b DCF.
        CsmaBackoff { contention_window: 32 }
    }
}

impl CsmaBackoff {
    /// Creates a policy with the given contention window.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero.
    pub fn new(contention_window: u32) -> Self {
        assert!(contention_window > 0, "contention window must be positive");
        CsmaBackoff { contention_window }
    }

    /// Computes the earliest transmit opportunity for a frame that becomes
    /// ready at `ready_at`, given that the medium is sensed busy until
    /// `busy_until` (equal to `ready_at` or earlier when idle).
    ///
    /// When the medium is idle the frame still defers one DIFS; when it is
    /// busy the frame defers until the medium is free, waits a DIFS and then
    /// a random number of backoff slots.
    pub fn next_opportunity(
        &self,
        ready_at: SimTime,
        busy_until: SimTime,
        timing: &FrameTiming,
        rng: &mut StreamRng,
    ) -> SimTime {
        if busy_until <= ready_at {
            ready_at + timing.difs
        } else {
            let slots = rng.gen_range(0..self.contention_window);
            busy_until + timing.difs + timing.slot * u64::from(slots)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> FrameTiming {
        FrameTiming::dot11b_long_preamble()
    }

    #[test]
    fn idle_medium_defers_one_difs() {
        let mut rng = StreamRng::derive(1, "csma");
        let policy = CsmaBackoff::default();
        let ready = SimTime::from_millis(10);
        let tx = policy.next_opportunity(ready, SimTime::from_millis(5), &timing(), &mut rng);
        assert_eq!(tx, ready + timing().difs);
    }

    #[test]
    fn busy_medium_adds_backoff_slots() {
        let mut rng = StreamRng::derive(2, "csma");
        let policy = CsmaBackoff::new(16);
        let ready = SimTime::from_millis(10);
        let busy_until = SimTime::from_millis(20);
        for _ in 0..100 {
            let tx = policy.next_opportunity(ready, busy_until, &timing(), &mut rng);
            assert!(tx >= busy_until + timing().difs);
            assert!(tx <= busy_until + timing().difs + timing().slot * 15);
        }
    }

    #[test]
    fn backoff_is_randomised() {
        let mut rng = StreamRng::derive(3, "csma");
        let policy = CsmaBackoff::new(32);
        let busy_until = SimTime::from_millis(20);
        let draws: std::collections::BTreeSet<_> = (0..50)
            .map(|_| policy.next_opportunity(SimTime::ZERO, busy_until, &timing(), &mut rng))
            .collect();
        assert!(draws.len() > 5, "expected varied backoff draws, got {}", draws.len());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        let _ = CsmaBackoff::new(0);
    }
}
