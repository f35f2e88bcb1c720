//! The shared wireless medium.
//!
//! [`Medium`] is a passive component owned by the simulation model. It keeps
//! the registry of nodes (access points and vehicles) with their current
//! positions, the channel models for AP↔vehicle and vehicle↔vehicle links,
//! and the set of in-flight transmissions used for carrier sensing and
//! collision decisions.
//!
//! ## Collision model
//!
//! A frame reception at node `r` is destroyed if another transmission whose
//! signal is audible at `r` (median SNR above the carrier-sense threshold)
//! overlaps it in time. Because results are computed when a transmission
//! *starts*, a frame only collides with transmissions that started earlier
//! and are still on the air; a later-starting transmission does not
//! retroactively corrupt it. Under DCF carrier sensing later senders defer,
//! so this asymmetry only matters for hidden terminals. That is a deliberate
//! simplification, acceptable for the street-scale scenarios reproduced
//! here, where carrier sensing is modelled globally (see
//! [`Medium::busy_until`]) and no sender is hidden from another.

use std::cell::RefCell;

use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimTime, StreamRng};
use vanet_geo::Point;
use vanet_radio::{
    DataRate, FieldAnchor, FrameTiming, LinkBudget, LinkState, RadioChannel, RadioConfig,
    VerdictDraws,
};
use vanet_trace::{NoTrace, TraceRecord, TraceSink};

use crate::address::NodeId;
use crate::frame::Frame;

/// The kind of radio a node carries; it selects the channel model used for
/// links involving that node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RadioClass {
    /// A fixed road-side access point (infostation).
    AccessPoint,
    /// A vehicle-mounted radio.
    Vehicle,
}

/// Configuration of the shared medium.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MediumConfig {
    /// Channel between an AP and a vehicle (either direction).
    pub ap_vehicle: RadioConfig,
    /// Channel between two vehicles.
    pub vehicle_vehicle: RadioConfig,
    /// Frame timing parameters (preamble, DIFS, slots).
    pub timing: FrameTiming,
    /// Median SNR (dB) above which a foreign transmission is considered
    /// audible — both for carrier sensing and for collision decisions.
    pub carrier_sense_snr_db: f64,
}

impl MediumConfig {
    /// The urban testbed of the paper: office-window AP, three-car platoon,
    /// 802.11b/g long-preamble timing.
    pub fn urban_testbed() -> Self {
        MediumConfig {
            ap_vehicle: RadioConfig::urban_2_4ghz(),
            vehicle_vehicle: RadioConfig::urban_vehicle_to_vehicle(),
            timing: FrameTiming::dot11b_long_preamble(),
            carrier_sense_snr_db: -3.0,
        }
    }

    /// A highway drive-thru deployment (reference \[1\] of the paper).
    pub fn highway() -> Self {
        MediumConfig {
            ap_vehicle: RadioConfig::highway_2_4ghz(),
            vehicle_vehicle: RadioConfig::urban_vehicle_to_vehicle(),
            timing: FrameTiming::dot11b_long_preamble(),
            carrier_sense_snr_db: -3.0,
        }
    }

    /// A loss-free medium for unit tests.
    pub fn ideal() -> Self {
        MediumConfig {
            ap_vehicle: RadioConfig::ideal(),
            vehicle_vehicle: RadioConfig::ideal(),
            timing: FrameTiming::dot11b_long_preamble(),
            carrier_sense_snr_db: -3.0,
        }
    }

    /// Replaces the AP↔vehicle channel configuration.
    pub fn with_ap_vehicle(mut self, config: RadioConfig) -> Self {
        self.ap_vehicle = config;
        self
    }

    /// Replaces the vehicle↔vehicle channel configuration.
    pub fn with_vehicle_vehicle(mut self, config: RadioConfig) -> Self {
        self.vehicle_vehicle = config;
        self
    }
}

/// Why a frame was or was not delivered to a particular receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeliveryOutcome {
    /// Delivered correctly.
    Received,
    /// Lost to channel errors (path loss / shadowing / fading).
    LostChannel,
    /// Lost because another audible transmission overlapped it.
    LostCollision,
}

impl DeliveryOutcome {
    /// Whether the frame was received.
    pub fn is_received(self) -> bool {
        matches!(self, DeliveryOutcome::Received)
    }
}

/// The verdict for one receiver of one transmission.
///
/// The verdict does **not** carry the frame: one transmission reaches every
/// receiver with the same bits, so the caller keeps a single (shared) copy of
/// the frame and pairs it with these plain-data verdicts — what makes the
/// per-receiver loop of [`Medium::transmit_into`] allocation- and clone-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// The receiving node.
    pub node: NodeId,
    /// When the frame ends (receptions are delivered at frame end).
    pub at: SimTime,
    /// Whether and why the frame was (not) received.
    pub outcome: DeliveryOutcome,
    /// The SNR at this receiver, which [`Medium::snr_db`] evaluates.
    pub snr: DeliverySnr,
}

/// A delivery's SNR as the medium keeps it: what evaluating the realised
/// SNR takes (the link budget's SNR, where the link reads the shadowing
/// field, and the verdict's fading words), or what a certain loss's
/// ceiling takes. Verdicts are decided without their SNR, most without
/// their link's exact shadowing, so only a reader pays for either, through
/// [`Medium::snr_db`]. It holds the same whether the transmission was
/// traced or not, and whatever the pair cache held.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeliverySnr(SnrSource);

#[derive(Debug, Clone, Copy, PartialEq)]
enum SnrSource {
    /// A certain loss on the link budget alone: the highest SNR any
    /// fading draw could have realised with the field's largest shadowing.
    Ceiling(f64),
    /// A certain loss on the link's own shadowing: the budget's SNR and the
    /// field's probe point of the link, whose ceiling is the highest SNR
    /// any fading draw could have realised, and whether the AP↔vehicle
    /// channel (else the vehicle↔vehicle one) carried it.
    LinkCeiling { ap_link: bool, budget_snr_db: f64, probe: Point },
    /// A sampled verdict: the budget's SNR, the probe point and the
    /// fading's words.
    Sampled { ap_link: bool, budget_snr_db: f64, probe: Point, fading: [u64; 4] },
}

/// Timing of one submitted transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transmission {
    /// When the transmission ends.
    pub ends_at: SimTime,
    /// The frame airtime.
    pub airtime: SimDuration,
}

/// Aggregate medium statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MediumStats {
    /// Number of transmissions submitted.
    pub frames_sent: u64,
    /// Number of per-receiver successful deliveries.
    pub deliveries_ok: u64,
    /// Number of per-receiver losses due to channel errors.
    pub deliveries_lost_channel: u64,
    /// Number of per-receiver losses due to collisions.
    pub deliveries_lost_collision: u64,
}

#[derive(Debug, Clone, Copy)]
struct NodeEntry {
    class: RadioClass,
    position: Point,
    /// Registration-order index into the pair cache — dense in the number
    /// of *registered* nodes, so sparse or large raw ids cost nothing
    /// beyond their `slots` entry.
    compact_slot: u32,
    /// The medium's position epoch when this node last moved (or was
    /// registered). Cached links of this node computed before it are stale.
    moved_at: u64,
}

#[derive(Debug, Clone, Copy)]
struct ActiveTx {
    src: NodeId,
    src_pos: Point,
    src_class: RadioClass,
    end: SimTime,
}

/// What the pair cache knows of a link's shadowing.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shadowing {
    /// Nothing yet.
    Unknown,
    /// Bounds `(lo, hi)` from the link's anchor
    /// ([`RadioChannel::shadowing_bounds`]).
    Bounds(f64, f64),
    /// The exact value.
    Exact(f64),
}

/// One slot of the dense per-pair link cache: the deterministic part of a
/// (transmitter, receiver) link, valid until one of its two endpoints
/// moves. The budget is computed when the entry is; the shadowing only when
/// a verdict first needs it, since a link the budget alone settles as a
/// certain loss never does, and most verdicts need only its bounds.
#[derive(Debug, Clone, Copy)]
struct LinkCacheEntry {
    /// Position epoch the entry was computed at. The entry is current while
    /// it is at least both endpoints' `moved_at`; 0 is never current.
    epoch: u64,
    budget: LinkBudget,
    shadowing: Shadowing,
}

impl LinkCacheEntry {
    const INVALID: LinkCacheEntry = LinkCacheEntry {
        epoch: 0,
        budget: LinkBudget { distance_m: 0.0, path_loss_db: 0.0, rx_power_dbm: 0.0, snr_db: 0.0 },
        shadowing: Shadowing::Unknown,
    };
}

/// How the certain-loss rule settles one verdict over a link.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// A certain loss on the link budget alone, with its ceiling.
    BudgetCeiling(f64),
    /// A certain loss on the link's own shadowing.
    LinkCeiling,
    /// No certain loss: bounds of the link's SNR before fading (the
    /// budget's SNR plus the shadowing), equal where it is exact.
    Open([f64; 2]),
}

/// A link as the pair cache served it, with what evaluating the rest of it
/// needs.
#[derive(Debug, Clone, Copy)]
struct CachedLink {
    budget: LinkBudget,
    /// The shadowing as far as the cache holds it.
    shadowing: Shadowing,
    /// Whether the budget came from the cache.
    hit: bool,
    /// The entry's index in the cache; `None` when the cache is off.
    slot: Option<usize>,
    /// The transmitter's and the receiver's current positions and classes.
    tx: Point,
    rx: Point,
    classes: (RadioClass, RadioClass),
}

impl CachedLink {
    /// Whether the link takes the AP↔vehicle channel.
    fn ap_link(&self) -> bool {
        is_ap_link(self.classes.0, self.classes.1)
    }
}

/// The shared broadcast medium.
///
/// Node state lives in a dense slot table indexed by the raw [`NodeId`]
/// value (scenario ids are small consecutive integers), and the
/// deterministic part of every link — path loss, obstacle blockage,
/// shadowing — is memoized per (tx, rx) pair for as long as neither of its
/// endpoints moves (positions only change at mobility ticks, and APs and
/// parked cars never move). Only the per-frame fast-fading and reception
/// draws touch the RNG, in exactly the order the unmemoized path would, so
/// results are bit-identical with the cache on.
#[derive(Debug)]
pub struct Medium {
    config: MediumConfig,
    ap_vehicle: RadioChannel,
    vehicle_vehicle: RadioChannel,
    /// Dense node table indexed by `NodeId::index()`.
    slots: Vec<Option<NodeEntry>>,
    /// Registered ids in ascending order — the deterministic receiver order.
    ids: Vec<NodeId>,
    active: Vec<ActiveTx>,
    stats: MediumStats,
    /// Bumped whenever any registered node actually moves; the mover
    /// records the new value as its `moved_at`, so only the cached links of
    /// that node turn stale and are lazily recomputed.
    position_epoch: u64,
    /// Dense pair cache over *registered* nodes, built lazily at the first
    /// link query after a registration: `n = ids.len()` and the slot of a
    /// (tx, rx) pair is `tx.compact_slot * n + rx.compact_slot`.
    link_cache: Vec<LinkCacheEntry>,
    /// Each pair's shadowing anchor, at the pair cache's slot: kept only by
    /// untraced verdicts, while the pair cache is on and at most
    /// [`Medium::MAX_ANCHORED_NODES`] nodes are registered; built lazily at
    /// the first anchor after a registration, in the table of the last
    /// medium dropped on this thread where there is one ([`SPARE_ANCHORS`]).
    anchors: Vec<FieldAnchor>,
    /// Cache hits seen by traced transmissions — drives the sampled cache
    /// audits. Only ever touched when a tracing sink is enabled.
    audit_counter: u64,
    /// Testing knob (see [`Medium::debug_skip_epoch_bump`]): deliberately
    /// leaves the pair cache stale on position changes.
    skip_epoch_bump: bool,
}

impl Medium {
    /// Creates a medium from its configuration.
    pub fn new(config: MediumConfig) -> Self {
        let ap_vehicle = RadioChannel::new(config.ap_vehicle.clone());
        let vehicle_vehicle = RadioChannel::new(config.vehicle_vehicle.clone());
        Medium {
            config,
            ap_vehicle,
            vehicle_vehicle,
            slots: Vec::new(),
            ids: Vec::new(),
            active: Vec::new(),
            stats: MediumStats::default(),
            position_epoch: 1,
            link_cache: Vec::new(),
            anchors: Vec::new(),
            audit_counter: 0,
            skip_epoch_bump: false,
        }
    }

    /// The largest raw [`NodeId`] value the dense node table accepts. Node
    /// state is stored dense in the raw id (scenario ids are small
    /// consecutive integers), so the bound keeps a stray huge id from
    /// allocating gigabytes; remap ids densely if a scenario ever needs
    /// more.
    pub const MAX_NODE_ID: u32 = 65_535;

    /// Registers a node. Its position defaults to the origin until
    /// [`Medium::update_position`] is called.
    ///
    /// # Panics
    ///
    /// Panics if the node is already registered, or if the raw id exceeds
    /// [`Medium::MAX_NODE_ID`] (node state is dense in the raw id).
    pub fn register_node(&mut self, id: NodeId, class: RadioClass) {
        let idx = id.index();
        assert!(
            idx <= Self::MAX_NODE_ID as usize,
            "node id {id} exceeds Medium::MAX_NODE_ID ({}); use dense ids",
            Self::MAX_NODE_ID
        );
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        assert!(self.slots[idx].is_none(), "node {id} registered twice");
        let compact_slot = u32::try_from(self.ids.len()).expect("node count fits u32");
        self.slots[idx] = Some(NodeEntry {
            class,
            position: Point::ORIGIN,
            compact_slot,
            moved_at: self.position_epoch,
        });
        let pos = self.ids.binary_search(&id).expect_err("slot was empty");
        self.ids.insert(pos, id);
        // The pair cache is rebuilt lazily at the next link query (see
        // `link_budget_cached`), so registering N nodes costs O(N) total
        // instead of re-zeroing an n^2 table per registration.
        self.link_cache.clear();
        self.anchors.clear();
    }

    /// Updates the position of a registered node.
    ///
    /// # Panics
    ///
    /// Panics if the node is not registered.
    pub fn update_position(&mut self, id: NodeId, position: Point) {
        let entry = self
            .slots
            .get_mut(id.index())
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("unknown node {id}"));
        if entry.position != position {
            entry.position = position;
            // Stamping the mover with a fresh epoch lazily invalidates
            // exactly its own cached links. Stationary updates (APs and
            // parked cars re-pushed every tick) keep theirs warm.
            if !self.skip_epoch_bump {
                self.position_epoch += 1;
                entry.moved_at = self.position_epoch;
            }
        }
    }

    /// Fault-injection knob for the invariant test suite: when set, position
    /// changes no longer bump the mover's cache epoch, so the pair cache
    /// serves stale link states — exactly the bug class the sampled cache
    /// audits (and `carq-cli verify`) must catch. Never set outside tests.
    #[doc(hidden)]
    pub fn debug_skip_epoch_bump(&mut self, skip: bool) {
        self.skip_epoch_bump = skip;
    }

    fn entry(&self, id: NodeId) -> Option<NodeEntry> {
        self.slots.get(id.index()).copied().flatten()
    }

    /// Aggregate statistics since construction.
    pub fn stats(&self) -> MediumStats {
        self.stats
    }

    /// The frame timing in use.
    pub fn timing(&self) -> &FrameTiming {
        &self.config.timing
    }

    /// The instant until which the medium is sensed busy at `now`
    /// (`now` itself when idle). Carrier sensing is modelled globally: the
    /// scenarios reproduced here span a single street, well within carrier-
    /// sense range of every node.
    pub fn busy_until(&mut self, now: SimTime) -> SimTime {
        self.prune_active(now);
        self.active.iter().map(|tx| tx.end).max().unwrap_or(now).max(now)
    }

    fn prune_active(&mut self, now: SimTime) {
        self.active.retain(|tx| tx.end > now);
    }

    fn channel_for(&self, a: RadioClass, b: RadioClass) -> &RadioChannel {
        self.channel(is_ap_link(a, b))
    }

    /// The AP↔vehicle channel, or the vehicle↔vehicle one.
    fn channel(&self, ap_link: bool) -> &RadioChannel {
        if ap_link {
            &self.ap_vehicle
        } else {
            &self.vehicle_vehicle
        }
    }

    /// The SNR (dB) of a delivery. For a sampled verdict it is the realised
    /// SNR, evaluated now from the link's exact shadowing and the draws the
    /// verdict made: bit for bit what sampling it realised, and what a
    /// traced delivery record carries. For a certain loss (see
    /// [`Medium::transmit_into`]) it is the ceiling instead, the highest SNR
    /// any fading draw could have realised: at most −10 dB, and at least
    /// the realised SNR, which is not evaluated.
    pub fn snr_db(&self, snr: &DeliverySnr) -> f64 {
        match snr.0 {
            SnrSource::Ceiling(ceiling) => ceiling,
            SnrSource::LinkCeiling { ap_link, budget_snr_db, probe } => {
                let channel = self.channel(ap_link);
                budget_snr_db + channel.shadowing_at(probe) + channel.fading_ceiling_db()
            }
            SnrSource::Sampled { ap_link, budget_snr_db, probe, fading } => {
                let channel = self.channel(ap_link);
                channel.realised_snr_db(budget_snr_db + channel.shadowing_at(probe), &fading)
            }
        }
    }

    /// Largest node count the O(n^2) pair cache is kept for (1024 nodes =
    /// 1M entries, ~50 MB). Beyond it every link is computed directly —
    /// bit-identical, just without the memo — instead of letting the cache
    /// grow quadratically into gigabytes.
    const MAX_CACHED_NODES: usize = 1_024;

    /// Largest node count whose pairs keep shadowing anchors: 64 nodes
    /// give 4,096 anchors of about 0.8 KB each, 3.2 MB. Beyond it every
    /// verdict that needs the shadowing evaluates it exactly, as before.
    const MAX_ANCHORED_NODES: usize = 64;

    /// The memoized link budget of the (src, rx) pair at the nodes' current
    /// positions, with the shadowing if the cache holds it. The hit flag
    /// (the budget was served from the pair cache, not computed) feeds the
    /// traced cached-vs-sampled split; filling in the shadowing later does
    /// not change it.
    fn link_budget_cached(&mut self, src: NodeId, rx: NodeId) -> CachedLink {
        let s = self.slots[src.index()].expect("link endpoints are registered");
        let r = self.slots[rx.index()].expect("link endpoints are registered");
        // The budget is filled in below, from the cache or computed.
        let mut link = CachedLink {
            budget: LinkCacheEntry::INVALID.budget,
            shadowing: Shadowing::Unknown,
            hit: false,
            slot: None,
            tx: s.position,
            rx: r.position,
            classes: (s.class, r.class),
        };
        let n = self.ids.len();
        if n > Self::MAX_CACHED_NODES {
            self.link_cache = Vec::new();
            link.budget = self.link_channel(&link).link_budget(s.position, r.position);
            return link;
        }
        if self.link_cache.len() != n * n {
            // First link query since a registration: (re)build the pair
            // cache at the current node count, lazily and exactly once.
            self.link_cache.clear();
            self.link_cache.resize(n * n, LinkCacheEntry::INVALID);
        }
        let idx = s.compact_slot as usize * n + r.compact_slot as usize;
        link.slot = Some(idx);
        let cached = self.link_cache[idx];
        if cached.epoch >= s.moved_at.max(r.moved_at) {
            return CachedLink {
                budget: cached.budget,
                shadowing: cached.shadowing,
                hit: true,
                ..link
            };
        }
        link.budget = self.link_channel(&link).link_budget(s.position, r.position);
        self.link_cache[idx] = LinkCacheEntry {
            epoch: self.position_epoch,
            budget: link.budget,
            shadowing: Shadowing::Unknown,
        };
        link
    }

    /// The channel a link takes.
    fn link_channel(&self, link: &CachedLink) -> &RadioChannel {
        self.channel(link.ap_link())
    }

    /// The exact shadowing of a link [`Medium::link_budget_cached`] served:
    /// evaluated at the positions its budget was computed at unless already
    /// held, then kept in the cache entry. `anchored` (untraced verdicts
    /// only) also re-anchors the link there.
    fn shadowing_of(&mut self, link: &mut CachedLink, anchored: bool) -> f64 {
        if let Shadowing::Exact(shadowing_db) = link.shadowing {
            return shadowing_db;
        }
        let anchor = if anchored { self.anchor_slot(link) } else { None };
        let channel = if link.ap_link() { &self.ap_vehicle } else { &self.vehicle_vehicle };
        let probe = channel.shadowing_probe(link.tx, link.rx);
        let shadowing_db = match anchor {
            Some(idx) => channel.anchor_shadowing(probe, &mut self.anchors[idx]),
            None => channel.shadowing_at(probe),
        };
        self.hold(link, Shadowing::Exact(shadowing_db));
        shadowing_db
    }

    /// Bounds of the shadowing of a link [`Medium::link_budget_cached`]
    /// served, for an untraced verdict: as held, else from the link's
    /// anchor advanced to its probe, else (no anchor, or one that cannot
    /// reach the probe) exact, re-anchoring.
    fn shadowing_bounds(&mut self, link: &mut CachedLink) -> (f64, f64) {
        match link.shadowing {
            Shadowing::Bounds(lo, hi) => return (lo, hi),
            Shadowing::Exact(shadowing_db) => return (shadowing_db, shadowing_db),
            Shadowing::Unknown => {}
        }
        if let Some(idx) = self.anchor_slot(link) {
            let channel = if link.ap_link() { &self.ap_vehicle } else { &self.vehicle_vehicle };
            let probe = channel.shadowing_probe(link.tx, link.rx);
            if let Some((lo, hi)) = channel.shadowing_bounds(probe, &mut self.anchors[idx]) {
                self.hold(link, Shadowing::Bounds(lo, hi));
                return (lo, hi);
            }
        }
        let shadowing_db = self.shadowing_of(link, true);
        (shadowing_db, shadowing_db)
    }

    /// Keeps what is known of a link's shadowing in the link and its cache
    /// entry.
    fn hold(&mut self, link: &mut CachedLink, shadowing: Shadowing) {
        if let Some(idx) = link.slot {
            self.link_cache[idx].shadowing = shadowing;
        }
        link.shadowing = shadowing;
    }

    /// The anchor table's index of a link: its pair-cache slot, `None`
    /// when the pair cache is off or more than
    /// [`Medium::MAX_ANCHORED_NODES`] nodes are registered. The table is
    /// (re)built here, at the first anchor since a registration.
    fn anchor_slot(&mut self, link: &CachedLink) -> Option<usize> {
        let idx = link.slot?;
        let n = self.ids.len();
        if n > Self::MAX_ANCHORED_NODES {
            return None;
        }
        if self.anchors.len() != n * n {
            if self.anchors.capacity() < n * n {
                self.anchors = SPARE_ANCHORS.take();
            }
            self.anchors.clear();
            self.anchors.resize(n * n, FieldAnchor::default());
        }
        Some(idx)
    }

    /// The certain-loss rule for one verdict over `link` (see
    /// [`Medium::transmit_into`]): first the budget plus the field's largest
    /// shadowing, then the budget plus the link's own shadowing. The second
    /// step takes the shadowing's bounds (exact where the link holds it, as
    /// a traced verdict's does), which settle the rule when it holds at the
    /// upper one or fails at the lower one (rounding is monotone); only a
    /// straddle evaluates it exactly.
    fn rule(&mut self, link: &mut CachedLink, bits: u64, rate: DataRate) -> Rule {
        let channel = self.link_channel(link);
        let budget_snr_db = link.budget.snr_db;
        let settled = channel.certain_loss_ceiling(
            budget_snr_db + channel.shadowing_ceiling_db(),
            bits,
            rate,
        );
        if let Some(ceiling) = settled {
            return Rule::BudgetCeiling(ceiling);
        }
        let (lo, hi) = self.shadowing_bounds(link);
        let before = [budget_snr_db + lo, budget_snr_db + hi];
        let channel = self.link_channel(link);
        if channel.certain_loss_ceiling(before[1], bits, rate).is_some() {
            return Rule::LinkCeiling;
        }
        if channel.certain_loss_ceiling(before[0], bits, rate).is_none() {
            return Rule::Open(before);
        }
        let before_fading_db = budget_snr_db + self.shadowing_of(link, true);
        match self.link_channel(link).certain_loss_ceiling(before_fading_db, bits, rate) {
            Some(_) => Rule::LinkCeiling,
            None => Rule::Open([before_fading_db; 2]),
        }
    }

    /// A verdict that the certain-loss rule left open, its SNR before fading
    /// within `before`: decided from bounds on its draws
    /// ([`RadioChannel::decide`]) where they settle it, else evaluated
    /// exactly on the exact shadowing ([`RadioChannel::verdict_from`]).
    fn open_verdict(
        &mut self,
        link: &mut CachedLink,
        before: [f64; 2],
        bits: u64,
        rate: DataRate,
        draws: &VerdictDraws,
    ) -> bool {
        if let Some(received) = self.link_channel(link).decide(before, bits, rate, draws) {
            return received;
        }
        let before_fading_db = link.budget.snr_db + self.shadowing_of(link, true);
        self.link_channel(link).verdict_from(before_fading_db, bits, rate, draws).received
    }

    /// The link state computed from scratch at the nodes' current positions,
    /// bypassing the pair cache. RNG-free, so the sampled cache audits can
    /// recompute mid-transmission without disturbing any draw.
    fn link_state_direct(&self, src: NodeId, rx: NodeId) -> LinkState {
        let s = self.slots[src.index()].expect("link endpoints are registered");
        let r = self.slots[rx.index()].expect("link endpoints are registered");
        self.channel_for(s.class, r.class).link_state(s.position, r.position)
    }

    /// Submits a transmission starting at `now`, writing the per-receiver
    /// verdicts into `deliveries` (cleared first — pass the same scratch
    /// buffer every time and the hot path never allocates). The caller keeps
    /// the frame and is responsible for scheduling the deliveries as events
    /// at their `at` timestamps.
    ///
    /// A verdict is a *certain loss* when the receiver's channel settles it
    /// before any draw ([`RadioChannel::certain_loss_ceiling`]): first from
    /// the link budget plus the field's largest shadowing, before the
    /// shadowing is evaluated, then from the budget plus the link's own
    /// shadowing. A certain loss skips its draws
    /// ([`RadioChannel::skip_sample`]) instead of evaluating the fading,
    /// and reports the ceiling as its SNR ([`Medium::snr_db`]). The ceiling
    /// depends only on positions and configuration, so deliveries, draws
    /// and statistics are the same whether the pair cache held the
    /// shadowing or not, and whether the transmission is traced or not.
    ///
    /// Untraced, the link's own shadowing is first only bounded: each pair
    /// keeps an anchor of its last field evaluation, which a pair-cache miss
    /// rotates to the pair's new probe point
    /// ([`RadioChannel::shadowing_bounds`]). The rule holds when it holds at
    /// the upper bound and fails when it fails at the lower one; only a
    /// straddle, a pair without an anchor, or one that cannot reach its
    /// probe evaluates the field exactly (and re-anchors).
    ///
    /// Every other verdict draws its words ([`RadioChannel::draw`]) and is
    /// *decided* from bounds on them where they settle it
    /// ([`RadioChannel::decide`], over the bounded SNR before fading),
    /// which is the exact outcome; the rest evaluate the field exactly and
    /// the exact chain on the same words ([`RadioChannel::verdict_from`]).
    /// None evaluates the realised SNR for the delivery: it keeps the
    /// budget's SNR, the probe point and the words, and [`Medium::snr_db`]
    /// evaluates them when a reader asks.
    ///
    /// # Panics
    ///
    /// Panics if the transmitting node is not registered.
    pub fn transmit_into<P>(
        &mut self,
        now: SimTime,
        frame: &Frame<P>,
        rate: DataRate,
        rng: &mut StreamRng,
        deliveries: &mut Vec<Delivery>,
    ) -> Transmission {
        self.transmit_into_traced(now, frame, rate, rng, deliveries, &mut NoTrace)
    }

    /// Every how many *traced* cache hits the pair cache is audited: the
    /// cached link state is recomputed from scratch and compared, emitting a
    /// [`TraceRecord::CacheAudit`]. Small enough that even short verify runs
    /// sample plenty of links; irrelevant (and unpaid) when tracing is off.
    const CACHE_AUDIT_INTERVAL: u64 = 16;

    /// [`Medium::transmit_into`] with a tracing seam: emits a
    /// [`TraceRecord::TxStart`], one [`TraceRecord::Delivery`] per receiver
    /// carrying the cached-vs-sampled link split, and sampled
    /// [`TraceRecord::CacheAudit`]s that recompute a cached link state from
    /// scratch (RNG-free) and compare. A traced verdict reads its link's
    /// exact shadowing first (without anchoring it), then runs the rule,
    /// draws and decision of an untraced one; a traced certain loss makes
    /// the very draws the untraced skip passes over. Its record carries the
    /// realised SNR of the exact shadowing and the fading words
    /// ([`RadioChannel::realised_snr_db`]), as any reader of it does; its
    /// [`Delivery`] carries the ceiling of a certain loss, as untraced.
    ///
    /// With the default [`NoTrace`] sink every emission block is guarded by
    /// the compile-time-`false` `S::ENABLED` and this monomorphizes to
    /// exactly the untraced hot path — same draws, same results, no
    /// allocation. The bench harness gates that claim.
    ///
    /// # Panics
    ///
    /// Panics if the transmitting node is not registered.
    pub fn transmit_into_traced<P, S: TraceSink>(
        &mut self,
        now: SimTime,
        frame: &Frame<P>,
        rate: DataRate,
        rng: &mut StreamRng,
        deliveries: &mut Vec<Delivery>,
        sink: &mut S,
    ) -> Transmission {
        let src = frame.src;
        let src_entry =
            self.entry(src).unwrap_or_else(|| panic!("transmitter {src} not registered"));
        self.prune_active(now);
        let airtime = self.config.timing.airtime(frame.total_bits(), rate);
        let ends_at = now + airtime;
        if S::ENABLED {
            sink.record(TraceRecord::TxStart {
                at: now,
                until: ends_at,
                node: src.as_u32(),
                bits: u32::try_from(frame.total_bits()).unwrap_or(u32::MAX),
            });
        }

        deliveries.clear();
        deliveries.reserve(self.ids.len().saturating_sub(1));
        let bits = frame.total_bits();
        // Index loop (not iterator) so the cache lookups can borrow mutably;
        // `ids` is ascending, preserving the deterministic receiver order.
        for i in 0..self.ids.len() {
            let rx_id = self.ids[i];
            if rx_id == src {
                continue;
            }
            let mut link = self.link_budget_cached(src, rx_id);
            if S::ENABLED && link.hit {
                self.audit_counter += 1;
                if self.audit_counter.is_multiple_of(Self::CACHE_AUDIT_INTERVAL) {
                    let shadowing_db = self.shadowing_of(&mut link, false);
                    let recomputed = self.link_state_direct(src, rx_id);
                    sink.record(TraceRecord::CacheAudit {
                        at: now,
                        tx: src.as_u32(),
                        rx: rx_id.as_u32(),
                        ok: recomputed == LinkState { budget: link.budget, shadowing_db },
                    });
                }
            }
            // A traced verdict reads its link's exact shadowing first,
            // unanchored, so that the rule finds it held.
            let shadowing_db = S::ENABLED.then(|| self.shadowing_of(&mut link, false));
            let ap_link = link.ap_link();
            let budget_snr_db = link.budget.snr_db;
            let probe = self.link_channel(&link).shadowing_probe(link.tx, link.rx);
            let mut traced_draws = None;
            let (received, snr) = match self.rule(&mut link, bits, rate) {
                Rule::BudgetCeiling(ceiling) => (false, SnrSource::Ceiling(ceiling)),
                Rule::LinkCeiling => {
                    (false, SnrSource::LinkCeiling { ap_link, budget_snr_db, probe })
                }
                Rule::Open(before) => {
                    let draws = self.link_channel(&link).draw(rng);
                    traced_draws = S::ENABLED.then_some(draws);
                    let received = self.open_verdict(&mut link, before, bits, rate, &draws);
                    let fading = draws.fading;
                    (received, SnrSource::Sampled { ap_link, budget_snr_db, probe, fading })
                }
            };
            let snr = DeliverySnr(snr);
            if !matches!(snr.0, SnrSource::Sampled { .. }) {
                // A certain loss skips the draws a sampled verdict makes;
                // traced, it makes them, for its record.
                let channel = self.link_channel(&link);
                if S::ENABLED {
                    traced_draws = Some(channel.draw(rng));
                } else {
                    channel.skip_sample(rng);
                }
            }
            let traced_snr_db = shadowing_db.zip(traced_draws).map(|(shadowing_db, draws)| {
                let channel = self.link_channel(&link);
                let before_fading_db = budget_snr_db + shadowing_db;
                let snr_db = channel.realised_snr_db(before_fading_db, &draws.fading);
                debug_assert!({
                    let verdict = channel.verdict_from(before_fading_db, bits, rate, &draws);
                    verdict.received == received
                        && verdict.snr_db.to_bits() == snr_db.to_bits()
                        && (matches!(snr.0, SnrSource::Sampled { .. })
                            || snr_db <= self.snr_db(&snr))
                });
                snr_db
            });
            let mut outcome =
                if received { DeliveryOutcome::Received } else { DeliveryOutcome::LostChannel };
            if outcome == DeliveryOutcome::Received && self.collides_at(rx_id, src, now) {
                outcome = DeliveryOutcome::LostCollision;
            }
            match outcome {
                DeliveryOutcome::Received => self.stats.deliveries_ok += 1,
                DeliveryOutcome::LostChannel => self.stats.deliveries_lost_channel += 1,
                DeliveryOutcome::LostCollision => self.stats.deliveries_lost_collision += 1,
            }
            if let Some(snr_db) = traced_snr_db {
                sink.record(TraceRecord::Delivery {
                    at: now,
                    tx: src.as_u32(),
                    rx: rx_id.as_u32(),
                    received: outcome.is_received(),
                    cached: link.hit,
                    snr_db,
                });
            }
            deliveries.push(Delivery { node: rx_id, at: ends_at, outcome, snr });
        }

        self.active.push(ActiveTx {
            src,
            src_pos: src_entry.position,
            src_class: src_entry.class,
            end: ends_at,
        });
        self.stats.frames_sent += 1;
        Transmission { ends_at, airtime }
    }

    /// Whether an already-active foreign transmission is audible at the
    /// receiver and therefore corrupts the new frame.
    fn collides_at(&mut self, rx_id: NodeId, src: NodeId, now: SimTime) -> bool {
        for i in 0..self.active.len() {
            let tx = self.active[i];
            if tx.src == src || tx.src == rx_id || tx.end <= now {
                continue;
            }
            // The pair cache holds the interferer's budget at its *current*
            // position; an interferer that moved mid-flight (a mobility tick
            // landed during its airtime) is computed directly.
            let snr_db = if self.slots[tx.src.index()].expect("registered").position == tx.src_pos {
                self.link_budget_cached(tx.src, rx_id).budget.snr_db
            } else {
                let rx = self.slots[rx_id.index()].expect("registered");
                self.channel_for(tx.src_class, rx.class).link_budget(tx.src_pos, rx.position).snr_db
            };
            if snr_db >= self.config.carrier_sense_snr_db {
                return true;
            }
        }
        false
    }
}

thread_local! {
    /// The anchor table of the last medium dropped on this thread, handed to
    /// the next one that anchors. A round builds a medium of its own, and a
    /// table allocated and freed per round (112 KB on grid_city's 12 nodes)
    /// moved where glibc placed the round's larger buffers, raising a
    /// process's peak resident memory by about 2.5 MiB. At most one table
    /// per thread, of at most [`Medium::MAX_ANCHORED_NODES`]² anchors.
    static SPARE_ANCHORS: RefCell<Vec<FieldAnchor>> = const { RefCell::new(Vec::new()) };
}

impl Drop for Medium {
    fn drop(&mut self) {
        let anchors = std::mem::take(&mut self.anchors);
        if anchors.capacity() == 0 {
            return;
        }
        // An exiting thread keeps no spare, and a drop never panics.
        let _ = SPARE_ANCHORS.try_with(|spare| {
            if let Ok(mut spare) = spare.try_borrow_mut() {
                if spare.capacity() < anchors.capacity() {
                    *spare = anchors;
                }
            }
        });
    }
}

/// Whether a link between nodes of these classes takes the AP↔vehicle
/// channel.
fn is_ap_link(a: RadioClass, b: RadioClass) -> bool {
    a == RadioClass::AccessPoint || b == RadioClass::AccessPoint
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Destination;
    use rand::RngCore;
    use std::collections::BTreeMap;

    fn ideal_medium_with_nodes(n_vehicles: u32) -> Medium {
        let mut medium = Medium::new(MediumConfig::ideal());
        medium.register_node(NodeId::new(0), RadioClass::AccessPoint);
        medium.update_position(NodeId::new(0), Point::new(0.0, 10.0));
        for i in 1..=n_vehicles {
            medium.register_node(NodeId::new(i), RadioClass::Vehicle);
            medium.update_position(NodeId::new(i), Point::new(i as f64 * 20.0, 0.0));
        }
        medium
    }

    #[test]
    fn ideal_medium_delivers_to_everyone() {
        let mut medium = ideal_medium_with_nodes(3);
        let mut rng = StreamRng::derive(1, "m");
        let frame = Frame::new(NodeId::new(0), Destination::Broadcast, 1_000, "hello");
        let mut deliveries = Vec::new();
        let tx =
            medium.transmit_into(SimTime::ZERO, &frame, DataRate::Mbps1, &mut rng, &mut deliveries);
        assert_eq!(deliveries.len(), 3);
        assert_eq!(deliveries.iter().filter(|d| d.outcome.is_received()).count(), 3);
        assert!(tx.airtime > SimDuration::from_millis(8));
        assert_eq!(medium.stats().frames_sent, 1);
        assert_eq!(medium.stats().deliveries_ok, 3);
    }

    #[test]
    fn far_receiver_loses_frames_on_urban_channel() {
        let mut medium = Medium::new(MediumConfig::urban_testbed());
        medium.register_node(NodeId::new(0), RadioClass::AccessPoint);
        medium.register_node(NodeId::new(1), RadioClass::Vehicle);
        medium.update_position(NodeId::new(0), Point::new(0.0, 18.0));
        medium.update_position(NodeId::new(1), Point::new(500.0, 0.0));
        let mut rng = StreamRng::derive(2, "m");
        let mut lost = 0;
        let mut deliveries = Vec::new();
        for i in 0..100 {
            let frame = Frame::new(NodeId::new(0), Destination::Unicast(NodeId::new(1)), 1_000, i);
            medium.transmit_into(
                SimTime::from_millis(i as u64 * 200),
                &frame,
                DataRate::Mbps1,
                &mut rng,
                &mut deliveries,
            );
            if !deliveries[0].outcome.is_received() {
                lost += 1;
            }
        }
        assert!(lost > 90, "expected heavy losses at 500 m, lost {lost}");
    }

    #[test]
    fn certain_losses_skip_their_draws_and_report_their_ceiling() {
        use vanet_trace::VecSink;
        let (ap, far, out) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        // 3 km out the budget alone settles the AP link; 1 km out the link's
        // own shadowing does.
        let (far_pos, out_pos) = (Point::new(3_000.0, 0.0), Point::new(1_000.0, 0.0));
        let build = || {
            let mut medium = Medium::new(MediumConfig::urban_testbed());
            medium.register_node(ap, RadioClass::AccessPoint);
            medium.register_node(far, RadioClass::Vehicle);
            medium.register_node(out, RadioClass::Vehicle);
            medium.update_position(ap, Point::new(0.0, 18.0));
            medium.update_position(far, far_pos);
            medium.update_position(out, out_pos);
            medium
        };
        let (mut plain, mut traced) = (build(), build());
        let channel = RadioChannel::new(MediumConfig::urban_testbed().ap_vehicle);
        let link = |pos: Point| channel.link_state(Point::new(0.0, 18.0), pos);
        let (far_link, out_link) = (link(far_pos), link(out_pos));
        let bits = Frame::new(ap, Destination::Broadcast, 500, ()).total_bits();
        let far_ceiling =
            far_link.budget.snr_db + channel.shadowing_ceiling_db() + channel.fading_ceiling_db();
        assert!(vanet_radio::is_certain_loss(far_ceiling, bits, DataRate::Mbps1));
        let out_budget_level =
            out_link.budget.snr_db + channel.shadowing_ceiling_db() + channel.fading_ceiling_db();
        assert!(!vanet_radio::is_certain_loss(out_budget_level, bits, DataRate::Mbps1));
        let out_ceiling =
            out_link.budget.snr_db + out_link.shadowing_db + channel.fading_ceiling_db();
        assert!(vanet_radio::is_certain_loss(out_ceiling, bits, DataRate::Mbps1));

        let mut rng = StreamRng::derive(14, "m");
        let mut rng_traced = rng.clone();
        let mut skipped = rng.clone();
        let mut sink = VecSink::new();
        let mut scratch = Vec::new();
        let mut deliveries = Vec::new();
        for i in 0..20u64 {
            let frame = Frame::new(ap, Destination::Broadcast, 500, i);
            let now = SimTime::from_millis(i * 100);
            plain.transmit_into(now, &frame, DataRate::Mbps1, &mut rng, &mut deliveries);
            traced.transmit_into_traced(
                now,
                &frame,
                DataRate::Mbps1,
                &mut rng_traced,
                &mut scratch,
                &mut sink,
            );
            assert_eq!(scratch, deliveries);
            assert_eq!(plain.snr_db(&deliveries[0].snr).to_bits(), far_ceiling.to_bits());
            assert_eq!(plain.snr_db(&deliveries[1].snr).to_bits(), out_ceiling.to_bits());
            assert!(deliveries.iter().all(|d| d.outcome == DeliveryOutcome::LostChannel));
            // Two Rician samples: four uniforms and a Bernoulli each.
            skipped.skip(10);
        }
        let next = skipped.next_u64();
        assert_eq!(rng.next_u64(), next);
        assert_eq!(rng_traced.next_u64(), next);
        assert_eq!(plain.stats(), traced.stats());
        // Traced records carry the realised SNR, at most the ceiling.
        for record in sink.records() {
            if let TraceRecord::Delivery { rx, snr_db, .. } = *record {
                let ceiling = if rx == far.as_u32() { far_ceiling } else { out_ceiling };
                assert!(snr_db < ceiling, "{snr_db} vs {ceiling}");
            }
        }
        // Untraced, the far link's shadowing was never evaluated; the
        // other link's was (no anchor yet), and the cache kept it.
        let n = plain.ids.len();
        let slot = |medium: &Medium, node: NodeId| {
            let (s, r) = (medium.entry(ap).unwrap(), medium.entry(node).unwrap());
            medium.link_cache[s.compact_slot as usize * n + r.compact_slot as usize].shadowing
        };
        assert_eq!(slot(&plain, far), Shadowing::Unknown);
        assert_eq!(slot(&plain, out), Shadowing::Exact(out_link.shadowing_db));
        assert_eq!(slot(&traced, far), Shadowing::Exact(far_link.shadowing_db));
    }

    #[test]
    fn a_dropped_medium_hands_its_anchor_table_to_the_next() {
        let anchored = || {
            let mut medium = Medium::new(MediumConfig::urban_testbed());
            medium.register_node(NodeId::new(0), RadioClass::AccessPoint);
            medium.register_node(NodeId::new(1), RadioClass::Vehicle);
            medium.update_position(NodeId::new(0), Point::new(0.0, 18.0));
            medium.update_position(NodeId::new(1), Point::new(60.0, 0.0));
            let frame = Frame::new(NodeId::new(0), Destination::Broadcast, 500, ());
            let mut rng = StreamRng::derive(15, "m");
            medium.transmit_into(SimTime::ZERO, &frame, DataRate::Mbps1, &mut rng, &mut Vec::new());
            assert_eq!(medium.anchors.len(), 4, "one anchor per ordered pair");
            medium
        };
        let first = anchored();
        let table = first.anchors.as_ptr();
        drop(first);
        assert_eq!(anchored().anchors.as_ptr(), table, "the second medium reuses the table");
    }

    #[test]
    fn overlapping_transmissions_collide() {
        let mut medium = ideal_medium_with_nodes(3);
        let mut rng = StreamRng::derive(3, "m");
        // Vehicle 1 talks first; the AP transmits while that frame is on the air.
        let f1 = Frame::new(NodeId::new(1), Destination::Broadcast, 1_000, "first");
        let mut deliveries = Vec::new();
        let r1 =
            medium.transmit_into(SimTime::ZERO, &f1, DataRate::Mbps1, &mut rng, &mut deliveries);
        assert!(r1.ends_at > SimTime::from_millis(8));
        let f2 = Frame::new(NodeId::new(0), Destination::Broadcast, 1_000, "second");
        let at = SimTime::from_millis(2);
        medium.transmit_into(at, &f2, DataRate::Mbps1, &mut rng, &mut deliveries);
        // Receivers 2 and 3 hear both → collision; node 1 is itself the first
        // transmitter, so its copy of the second frame is also corrupted? No:
        // node 1 is the *source* of the interfering frame, which is excluded
        // (a radio cannot receive while transmitting anyway at these overlaps,
        // but that is a different mechanism). Here nodes 2 and 3 must collide.
        let outcomes: BTreeMap<NodeId, DeliveryOutcome> =
            deliveries.iter().map(|d| (d.node, d.outcome)).collect();
        assert_eq!(outcomes[&NodeId::new(2)], DeliveryOutcome::LostCollision);
        assert_eq!(outcomes[&NodeId::new(3)], DeliveryOutcome::LostCollision);
        assert!(medium.stats().deliveries_lost_collision >= 2);
    }

    #[test]
    fn sequential_transmissions_do_not_collide() {
        let mut medium = ideal_medium_with_nodes(2);
        let mut rng = StreamRng::derive(4, "m");
        let f1 = Frame::new(NodeId::new(1), Destination::Broadcast, 1_000, "first");
        let mut deliveries = Vec::new();
        let r1 =
            medium.transmit_into(SimTime::ZERO, &f1, DataRate::Mbps1, &mut rng, &mut deliveries);
        let f2 = Frame::new(NodeId::new(0), Destination::Broadcast, 1_000, "second");
        let at = r1.ends_at + SimDuration::from_micros(50);
        medium.transmit_into(at, &f2, DataRate::Mbps1, &mut rng, &mut deliveries);
        assert!(deliveries.iter().all(|d| d.outcome.is_received()));
    }

    #[test]
    fn busy_tracking_follows_active_transmissions() {
        let mut medium = ideal_medium_with_nodes(1);
        let mut rng = StreamRng::derive(5, "m");
        // An idle medium is busy until `now` itself.
        assert_eq!(medium.busy_until(SimTime::ZERO), SimTime::ZERO);
        let frame = Frame::new(NodeId::new(0), Destination::Broadcast, 1_000, ());
        let mut deliveries = Vec::new();
        let tx =
            medium.transmit_into(SimTime::ZERO, &frame, DataRate::Mbps1, &mut rng, &mut deliveries);
        assert_eq!(medium.busy_until(SimTime::from_millis(1)), tx.ends_at);
        let after = tx.ends_at + SimDuration::from_micros(1);
        assert_eq!(medium.busy_until(after), after);
    }

    /// The pre-optimization reference semantics of a transmission: clone
    /// the frame per receiver, recompute the full link budget (path loss,
    /// obstacles, shadowing) for every sample and every collision check.
    /// `Medium::transmit_into` must reproduce its delivery sequence exactly.
    mod reference {
        use super::*;

        /// Receiver, frame end, outcome, the delivered frame, the realised
        /// SNR and the certain-loss ceiling, if any.
        pub type RefDelivery<P> = (NodeId, SimTime, DeliveryOutcome, Frame<P>, f64, Option<f64>);

        pub struct RefMedium {
            pub config: MediumConfig,
            pub ap_vehicle: RadioChannel,
            pub vehicle_vehicle: RadioChannel,
            pub nodes: BTreeMap<NodeId, (RadioClass, Point)>,
            pub active: Vec<(NodeId, Point, RadioClass, SimTime)>,
        }

        impl RefMedium {
            pub fn new(config: MediumConfig) -> Self {
                RefMedium {
                    ap_vehicle: RadioChannel::new(config.ap_vehicle.clone()),
                    vehicle_vehicle: RadioChannel::new(config.vehicle_vehicle.clone()),
                    config,
                    nodes: BTreeMap::new(),
                    active: Vec::new(),
                }
            }

            fn channel_for(&self, a: RadioClass, b: RadioClass) -> &RadioChannel {
                if a == RadioClass::AccessPoint || b == RadioClass::AccessPoint {
                    &self.ap_vehicle
                } else {
                    &self.vehicle_vehicle
                }
            }

            /// Each delivery's realised SNR comes with the certain-loss
            /// ceiling of the reference's own link, where the rule applies.
            pub fn transmit<P: Clone>(
                &mut self,
                now: SimTime,
                frame: Frame<P>,
                rate: DataRate,
                rng: &mut StreamRng,
            ) -> Vec<RefDelivery<P>> {
                let (src_class, src_pos) = self.nodes[&frame.src];
                self.active.retain(|(_, _, _, end)| *end > now);
                let airtime = self.config.timing.airtime(frame.total_bits(), rate);
                let ends_at = now + airtime;
                let mut deliveries = Vec::new();
                for (&rx_id, &(rx_class, rx_pos)) in
                    self.nodes.iter().filter(|(id, _)| **id != frame.src)
                {
                    let channel = self.channel_for(src_class, rx_class);
                    let bits = frame.total_bits();
                    let link = channel.link_state(src_pos, rx_pos);
                    let ceiling = channel
                        .certain_loss_ceiling(
                            link.budget.snr_db + channel.shadowing_ceiling_db(),
                            bits,
                            rate,
                        )
                        .or_else(|| {
                            channel.certain_loss_ceiling(
                                link.budget.snr_db + link.shadowing_db,
                                bits,
                                rate,
                            )
                        });
                    let state = channel.link_state(src_pos, rx_pos);
                    let verdict = channel.sample_from_state(&state, bits, rate, rng);
                    let mut outcome = if verdict.received {
                        DeliveryOutcome::Received
                    } else {
                        DeliveryOutcome::LostChannel
                    };
                    if outcome == DeliveryOutcome::Received {
                        let collides = self.active.iter().any(|&(a_src, a_pos, a_class, end)| {
                            if a_src == frame.src || a_src == rx_id || end <= now {
                                return false;
                            }
                            self.channel_for(a_class, rx_class).link_budget(a_pos, rx_pos).snr_db
                                >= self.config.carrier_sense_snr_db
                        });
                        if collides {
                            outcome = DeliveryOutcome::LostCollision;
                        }
                    }
                    deliveries.push((
                        rx_id,
                        ends_at,
                        outcome,
                        frame.clone(),
                        verdict.snr_db,
                        ceiling,
                    ));
                }
                self.active.push((frame.src, src_pos, src_class, ends_at));
                deliveries
            }
        }
    }

    proptest::proptest! {
        /// The shared-payload, cache-memoized `transmit_into` produces delivery
        /// sequences identical to the clone-per-receiver reference
        /// implementation — across random topologies, mobility ticks and
        /// overlapping transmission schedules on one shared RNG stream.
        /// Each tick moves a random subset of the nodes (two APs among
        /// them), so cached links of standing pairs outlive other nodes'
        /// moves, and a stale per-node epoch would diverge here.
        ///
        /// Every outcome matches exactly, and so do the statistics (the
        /// reference's counted from its outcomes) and the stream's state;
        /// every SNR read through [`Medium::snr_db`] is the reference's
        /// realised SNR bit for bit, except a certain loss's, which must be
        /// the ceiling recomputed from the reference's own link and at
        /// least the SNR the reference realised. A traced copy of the
        /// medium must deliver exactly what the untraced one does, leave
        /// the stream and the statistics where it does, and record the
        /// reference's realised SNRs bit for bit. One seed in three runs
        /// the highway medium, whose AP links fade Rayleigh.
        #[test]
        fn prop_transmit_matches_clone_per_receiver_reference(
            seed in 0u64..500,
            n_nodes in 2usize..7,
            steps in proptest::collection::vec(
                (0u64..40, 0u32..7, (0.0f64..400.0, 0u8..4), 0u32..128),
                1..25,
            ),
        ) {
            use vanet_trace::VecSink;
            let config =
                if seed % 3 == 0 { MediumConfig::highway() } else { MediumConfig::urban_testbed() };
            let mut fast = Medium::new(config.clone());
            let mut traced = Medium::new(config.clone());
            let mut reference = reference::RefMedium::new(config);
            for i in 0..n_nodes {
                let class =
                    if i < 2 { RadioClass::AccessPoint } else { RadioClass::Vehicle };
                let id = NodeId::new(i as u32);
                let pos = Point::new(i as f64 * 25.0, 0.0);
                for medium in [&mut fast, &mut traced] {
                    medium.register_node(id, class);
                    medium.update_position(id, pos);
                }
                reference.nodes.insert(id, (class, pos));
            }
            let mut rng_fast = StreamRng::derive(seed, "prop-medium");
            let mut rng_traced = StreamRng::derive(seed, "prop-medium");
            let mut rng_ref = StreamRng::derive(seed, "prop-medium");
            let mut got = Vec::new();
            let mut traced_deliveries = Vec::new();
            let mut reference_stats = MediumStats::default();
            let mut now = SimTime::ZERO;
            for (advance_ms, src_raw, (x, reach), movers) in steps {
                now += SimDuration::from_millis(advance_ms);
                // One tick in four moves its movers up to 3.2 km out, where
                // AP links are certain losses on their budget alone.
                let x = if reach == 0 { 8.0 * x } else { x };
                // A mobility tick: the nodes whose bit is set in `movers`
                // move, the rest stand still.
                for i in (0..n_nodes).filter(|i| movers & (1 << i) != 0) {
                    let pos = Point::new(x + i as f64 * 17.0, (i as f64) * 3.0);
                    fast.update_position(NodeId::new(i as u32), pos);
                    traced.update_position(NodeId::new(i as u32), pos);
                    reference.nodes.get_mut(&NodeId::new(i as u32)).unwrap().1 = pos;
                }
                let src = NodeId::new(src_raw % n_nodes as u32);
                let frame = Frame::new(src, Destination::Broadcast, 500, src_raw);
                fast.transmit_into(now, &frame, DataRate::Mbps1, &mut rng_fast, &mut got);
                let mut sink = VecSink::new();
                traced.transmit_into_traced(
                    now,
                    &frame,
                    DataRate::Mbps1,
                    &mut rng_traced,
                    &mut traced_deliveries,
                    &mut sink,
                );
                let want = reference.transmit(now, frame.clone(), DataRate::Mbps1, &mut rng_ref);
                proptest::prop_assert_eq!(got.len(), want.len());
                proptest::prop_assert_eq!(&traced_deliveries, &got);
                let recorded: Vec<f64> = sink
                    .records()
                    .iter()
                    .filter_map(|r| match *r {
                        TraceRecord::Delivery { snr_db, .. } => Some(snr_db),
                        _ => None,
                    })
                    .collect();
                proptest::prop_assert_eq!(recorded.len(), want.len());
                for ((d, (node, at, outcome, w_frame, snr, ceiling)), traced_snr) in
                    got.iter().zip(&want).zip(&recorded)
                {
                    proptest::prop_assert_eq!(d.node, *node);
                    proptest::prop_assert_eq!(d.at, *at);
                    proptest::prop_assert_eq!(d.outcome, *outcome);
                    match outcome {
                        DeliveryOutcome::Received => reference_stats.deliveries_ok += 1,
                        DeliveryOutcome::LostChannel => reference_stats.deliveries_lost_channel += 1,
                        DeliveryOutcome::LostCollision => {
                            reference_stats.deliveries_lost_collision += 1
                        }
                    }
                    let read = fast.snr_db(&d.snr);
                    proptest::prop_assert_eq!(traced.snr_db(&d.snr).to_bits(), read.to_bits());
                    match ceiling {
                        Some(ceiling) => {
                            proptest::prop_assert_eq!(d.outcome, DeliveryOutcome::LostChannel);
                            proptest::prop_assert_eq!(read.to_bits(), ceiling.to_bits());
                            proptest::prop_assert!(*snr <= *ceiling, "{} above {}", snr, ceiling);
                        }
                        None => proptest::prop_assert_eq!(read.to_bits(), snr.to_bits()),
                    }
                    proptest::prop_assert_eq!(traced_snr.to_bits(), snr.to_bits());
                    // The shared frame the caller keeps is what the
                    // reference delivered to every receiver.
                    proptest::prop_assert_eq!(&frame, w_frame);
                }
                reference_stats.frames_sent += 1;
                proptest::prop_assert_eq!(traced.stats(), fast.stats());
                proptest::prop_assert_eq!(fast.stats(), reference_stats);
            }
            let next = rng_fast.next_u64();
            proptest::prop_assert_eq!(rng_traced.next_u64(), next);
            proptest::prop_assert_eq!(rng_ref.next_u64(), next);
        }
    }

    #[test]
    fn traced_transmission_matches_untraced_and_records_the_split() {
        use vanet_trace::VecSink;
        let build = || {
            let mut medium = Medium::new(MediumConfig::urban_testbed());
            medium.register_node(NodeId::new(0), RadioClass::AccessPoint);
            medium.register_node(NodeId::new(1), RadioClass::Vehicle);
            medium.register_node(NodeId::new(2), RadioClass::Vehicle);
            medium.update_position(NodeId::new(0), Point::new(0.0, 18.0));
            medium.update_position(NodeId::new(1), Point::new(30.0, 0.0));
            medium.update_position(NodeId::new(2), Point::new(55.0, 0.0));
            medium
        };
        let mut plain = build();
        let mut traced = build();
        let mut rng_plain = StreamRng::derive(11, "m");
        let mut rng_traced = StreamRng::derive(11, "m");
        let mut sink = VecSink::new();
        let mut scratch = Vec::new();
        let mut deliveries = Vec::new();
        for i in 0..40u64 {
            let frame = Frame::new(NodeId::new(0), Destination::Broadcast, 500, i);
            let now = SimTime::from_millis(i * 100);
            let want =
                plain.transmit_into(now, &frame, DataRate::Mbps1, &mut rng_plain, &mut deliveries);
            let tx = traced.transmit_into_traced(
                now,
                &frame,
                DataRate::Mbps1,
                &mut rng_traced,
                &mut scratch,
                &mut sink,
            );
            assert_eq!(tx, want, "tracing must not change results");
            assert_eq!(scratch, deliveries);
        }
        let records = sink.records();
        let tx_starts = records.iter().filter(|r| r.kind() == "tx_start").count();
        let deliveries = records.iter().filter(|r| r.kind() == "delivery").count();
        let audits = records.iter().filter(|r| r.kind() == "cache_audit").count();
        assert_eq!(tx_starts, 40);
        assert_eq!(deliveries, 80, "two receivers per frame");
        // Nodes never moved, so after the first frame every link is a cache
        // hit; 78 hits sample at least one audit, and all must pass.
        assert!(audits >= 1, "expected sampled cache audits");
        assert!(records.iter().all(|r| !matches!(r, TraceRecord::CacheAudit { ok: false, .. })));
    }

    #[test]
    fn a_cached_link_stays_cached_until_one_of_its_own_endpoints_moves() {
        use vanet_trace::VecSink;
        let (ap0, ap1, car) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let mut medium = Medium::new(MediumConfig::urban_testbed());
        medium.register_node(ap0, RadioClass::AccessPoint);
        medium.register_node(ap1, RadioClass::AccessPoint);
        medium.register_node(car, RadioClass::Vehicle);
        medium.update_position(ap0, Point::new(0.0, 18.0));
        medium.update_position(ap1, Point::new(120.0, 18.0));
        medium.update_position(car, Point::new(30.0, 0.0));
        let mut rng = StreamRng::derive(13, "m");
        let mut scratch = Vec::new();
        let mut i = 0u64;
        // One AP0 broadcast; the `cached` flag of each receiver's delivery.
        let mut send = |medium: &mut Medium| {
            i += 1;
            let mut sink = VecSink::new();
            let frame = Frame::new(ap0, Destination::Broadcast, 500, i);
            let now = SimTime::from_millis(i * 100);
            medium.transmit_into_traced(
                now,
                &frame,
                DataRate::Mbps1,
                &mut rng,
                &mut scratch,
                &mut sink,
            );
            let cached = |node: NodeId| {
                sink.records().iter().find_map(|r| match *r {
                    TraceRecord::Delivery { rx, cached, .. } if rx == node.as_u32() => Some(cached),
                    _ => None,
                })
            };
            (cached(ap1), cached(car))
        };
        assert_eq!(send(&mut medium), (Some(false), Some(false)), "a cold cache computes");
        assert_eq!(send(&mut medium), (Some(true), Some(true)), "nothing moved");
        medium.update_position(car, Point::new(45.0, 0.0));
        assert_eq!(send(&mut medium), (Some(true), Some(false)), "only the car's link is stale");
        assert_eq!(send(&mut medium), (Some(true), Some(true)));
        medium.update_position(ap1, Point::new(125.0, 18.0));
        assert_eq!(send(&mut medium), (Some(false), Some(true)), "an AP endpoint moved");
        medium.update_position(ap0, Point::new(5.0, 18.0));
        assert_eq!(send(&mut medium), (Some(false), Some(false)), "the transmitter moved");
    }

    #[test]
    fn skipping_the_epoch_bump_is_caught_by_a_cache_audit() {
        use vanet_trace::VecSink;
        let mut medium = Medium::new(MediumConfig::urban_testbed());
        medium.register_node(NodeId::new(0), RadioClass::AccessPoint);
        medium.register_node(NodeId::new(1), RadioClass::Vehicle);
        medium.update_position(NodeId::new(0), Point::new(0.0, 18.0));
        medium.update_position(NodeId::new(1), Point::new(30.0, 0.0));
        let mut rng = StreamRng::derive(12, "m");
        let mut sink = VecSink::new();
        let mut scratch = Vec::new();
        let mut send = |medium: &mut Medium, sink: &mut VecSink, rng: &mut StreamRng, i: u64| {
            let frame = Frame::new(NodeId::new(0), Destination::Unicast(NodeId::new(1)), 500, i);
            medium.transmit_into_traced(
                SimTime::from_millis(i * 100),
                &frame,
                DataRate::Mbps1,
                rng,
                &mut scratch,
                sink,
            );
        };
        // Warm the cache, then inject the bug: the vehicle moves far away
        // but the epoch is not bumped, so the cache keeps serving the
        // 30-metre link state.
        send(&mut medium, &mut sink, &mut rng, 0);
        medium.debug_skip_epoch_bump(true);
        medium.update_position(NodeId::new(1), Point::new(400.0, 0.0));
        for i in 1..=Medium::CACHE_AUDIT_INTERVAL {
            send(&mut medium, &mut sink, &mut rng, i);
        }
        assert!(
            sink.records().iter().any(|r| matches!(r, TraceRecord::CacheAudit { ok: false, .. })),
            "a stale cache must fail a sampled audit"
        );
        // ...and the invariant checker turns the failed audit into a
        // cache_consistency violation — the seeded mutation is caught
        // end-to-end, not just recorded.
        let report = vanet_trace::verify(sink.records());
        assert!(!report.is_ok(), "the mutation must fail verification");
        assert!(
            report.violations.iter().all(|v| v.invariant == "cache_consistency"),
            "only the cache invariant should trip: {:?}",
            report.violations
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut medium = Medium::new(MediumConfig::ideal());
        medium.register_node(NodeId::new(1), RadioClass::Vehicle);
        medium.register_node(NodeId::new(1), RadioClass::Vehicle);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_transmitter_panics() {
        let mut medium = Medium::new(MediumConfig::ideal());
        let mut rng = StreamRng::derive(6, "m");
        let frame = Frame::new(NodeId::new(42), Destination::Broadcast, 10, ());
        medium.transmit_into(SimTime::ZERO, &frame, DataRate::Mbps1, &mut rng, &mut Vec::new());
    }
}
