//! # sim-core — deterministic discrete-event simulation engine
//!
//! This crate provides the simulation substrate used by the Cooperative ARQ
//! reproduction (`carq` and the `vanet-*` crates). The paper's evaluation ran
//! on a physical testbed; since no testbed (and no mature Rust network
//! simulator) is available, the whole vehicular network is simulated on top of
//! this engine.
//!
//! The engine is intentionally small and generic:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time with nanosecond resolution.
//! * [`EventQueue`] — a deterministic priority queue of timestamped events.
//!   Events scheduled for the same instant are delivered in FIFO order of
//!   scheduling, which makes runs bit-for-bit reproducible.
//! * [`Simulation`] and the [`Model`] trait — the driver loop. A model owns
//!   all mutable world state and handles plain-data events.
//! * [`rng`] — deterministic, named RNG streams derived from a master seed,
//!   so that independent subsystems (channel fading, mobility jitter,
//!   protocol backoff) draw from independent but reproducible streams.
//!
//! Structured event tracing lives one crate up in `vanet-trace`; the engine
//! only exposes the [`Model::on_dispatch`] observation hook it plugs into.
//!
//! ## Example
//!
//! ```rust
//! use sim_core::{Model, Scheduler, SimDuration, SimTime, Simulation};
//!
//! /// Counts ticks until a limit.
//! struct Ticker { ticks: u32, limit: u32 }
//!
//! #[derive(Debug, Clone, PartialEq, Eq)]
//! struct Tick;
//!
//! impl Model for Ticker {
//!     type Event = Tick;
//!     fn handle(&mut self, now: SimTime, _ev: Tick, sched: &mut Scheduler<Tick>) {
//!         self.ticks += 1;
//!         if self.ticks < self.limit {
//!             sched.schedule_in(SimDuration::from_millis(10), Tick);
//!         }
//!         let _ = now;
//!     }
//! }
//!
//! let mut sim = Simulation::new(Ticker { ticks: 0, limit: 5 });
//! sim.schedule_at(SimTime::ZERO, Tick);
//! sim.run();
//! assert_eq!(sim.model().ticks, 5);
//! assert_eq!(sim.now(), SimTime::ZERO + sim_core::SimDuration::from_millis(40));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod queue;
pub mod rng;
pub mod sim;
pub mod time;

pub use queue::{EventQueue, ScheduledEvent};
pub use rng::{fnv1a64, fnv1a64_chain, fnv1a64_chain4, StreamRng};
pub use sim::{Model, RunOutcome, Scheduler, Simulation};
pub use time::{SimDuration, SimTime};
