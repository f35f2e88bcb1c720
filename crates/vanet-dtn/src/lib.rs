//! # vanet-dtn — delay-tolerant networking substrate
//!
//! The Cooperative ARQ protocol sits on top of a small DTN substrate that
//! this crate provides:
//!
//! * [`packet`] — numbered data packets ([`packet::SeqNo`],
//!   [`packet::DataPacket`]) addressed to individual cars, mirroring the
//!   AP's "numbered packets addressed to each car" traffic of the testbed.
//! * [`buffer`] — per-destination [`buffer::ReceptionMap`]s (which sequence
//!   numbers a node holds, which are missing between the first and last
//!   received) and the capacity-limited [`buffer::CoopBuffer`] in which a
//!   car keeps packets overheard on behalf of its cooperators.
//! * [`ap`] — the access-point traffic source: periodic numbered packets to
//!   each car in the experiment, with pluggable scheduling policies
//!   (fresh-data-only as in the paper, or an AP-side retransmission ARQ used
//!   as an ablation baseline).
//! * [`epidemic`] — a summary-vector anti-entropy exchange in the style of
//!   epidemic routing, used as an overhead baseline against which the
//!   REQUEST-based recovery of C-ARQ is compared.
//!
//! ## Example
//!
//! The bookkeeping at the heart of the protocol: what a car holds, what it
//! is missing, and the best any cooperative scheme could recover (the
//! joint-reception "virtual car": the union of every car's map, which
//! `vanet-stats`' `FlowObservation::joint` builds with
//! [`ReceptionMap::union_with`]):
//!
//! ```rust
//! use vanet_dtn::{ReceptionMap, SeqNo};
//!
//! // Car 1 heard packets 2,3,7 of its own flow; car 2 overheard 5 and 6.
//! let own: ReceptionMap = [2u32, 3, 7].into_iter().map(SeqNo::new).collect();
//! assert_eq!(own.missing(), vec![SeqNo::new(4), SeqNo::new(5), SeqNo::new(6)]);
//!
//! let overheard: ReceptionMap = [5u32, 6].into_iter().map(SeqNo::new).collect();
//! let mut joint = own.clone();
//! joint.union_with(&overheard);
//! // Cooperation can recover 5 and 6, but nobody ever received 4.
//! assert!(joint.contains(SeqNo::new(5)) && joint.contains(SeqNo::new(6)));
//! assert_eq!(joint.missing(), vec![SeqNo::new(4)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ap;
pub mod buffer;
pub mod epidemic;
pub mod packet;

pub use ap::{AccessPointApp, ApConfig, ApSchedulingPolicy, ScheduledPacket};
pub use buffer::{CoopBuffer, ReceptionMap, StoreOutcome};
pub use epidemic::{AntiEntropySession, ExchangePlan, SummaryVector};
pub use packet::{DataPacket, SeqNo};
