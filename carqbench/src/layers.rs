//! The layer pass: per-layer counts, costs and shares of one workload.
//!
//! It works in three parts.
//!
//! * **Counts** come from the records the public `run_round_traced` seam
//!   returns for the workload's own rounds, and from the rounds' report
//!   counters.
//! * **In-round layers** (`sim-core`, `vanet-mac`, `vanet-radio`,
//!   `vanet-geo`) cannot be timed from outside while a round runs, so their
//!   public calls are replayed at the workload's own shape: its node count
//!   and positions, its `MediumConfig`, its transmission sequence and its
//!   observed queue depth. Each layer's `est_share` is count x cost per
//!   call / round CPU; the remainder is `vanet-scenarios.residual_share`.
//! * **Journal layers** are timed directly, with a span around every call
//!   into `vanet-cache`, `vanet-analysis`, `vanet-sweep` and `vanet-fleet`.
//!
//! The pass also reports its own overhead: the CPU per round with a span
//! around every call, against the same rounds run bare.

use std::path::Path;

use sim_core::{EventQueue, SimDuration, SimTime, StreamRng};
use vanet_analysis::RoundDigest;
use vanet_cache::SweepCache;
use vanet_geo::{MobilityModel, Point};
use vanet_mac::{Destination, Frame, Medium, NodeId, RadioClass};
use vanet_radio::{DataRate, LinkState, RadioChannel};
use vanet_scenarios::model::VanetEvent;
use vanet_stats::RoundReport;
use vanet_trace::{NoTrace, TraceRecord, TraceSink};

use crate::clock::{measure, Cost, Spans};
use crate::legs::{self, Item, Tally};
use crate::report::Metric;
use crate::stats::{mean, median, percentile};
use crate::world::{grid_city, Geometry, Kind, World};

/// Interval between the model's mobility ticks.
const TICK: SimDuration = SimDuration::from_millis(100);

/// What the traced records of the layer rounds say, summed over rounds.
#[derive(Debug, Default)]
pub struct Counts {
    /// Rounds counted.
    pub rounds: f64,
    /// Trace records.
    pub records: f64,
    /// Dispatched events.
    pub events: f64,
    /// Queue depth at every dispatch.
    pub depths: Vec<f64>,
    /// Transmissions.
    pub tx: f64,
    /// Bits on air over all transmissions.
    pub bits: f64,
    /// Delivery verdicts.
    pub verdicts: f64,
    /// Verdicts whose link state came from the pair cache.
    pub cached: f64,
    /// Verdicts that delivered the frame.
    pub received: f64,
    /// Verdicts on a link with an access point at either end.
    pub ap_verdicts: f64,
    /// Transmissions deferred by carrier sensing.
    pub csma: f64,
    /// Packets stored in cooperation buffers.
    pub buffer_stored: f64,
    /// `PathMobility::position_at` calls the model made (mobility ticks x
    /// cars, plus one per car at start).
    pub position_queries: f64,
}

impl Counts {
    /// Folds one round's records in; node ids below `n_aps` are APs.
    pub fn absorb(&mut self, records: &[TraceRecord], n_aps: u32) {
        let mut cars = std::collections::BTreeSet::new();
        let mut last_dispatch = SimTime::ZERO;
        self.rounds += 1.0;
        self.records += records.len() as f64;
        for record in records {
            match *record {
                TraceRecord::EventDispatched { at, queue_depth } => {
                    self.events += 1.0;
                    self.depths.push(f64::from(queue_depth));
                    last_dispatch = at;
                }
                TraceRecord::TxStart { bits, .. } => {
                    self.tx += 1.0;
                    self.bits += f64::from(bits);
                }
                TraceRecord::Delivery { tx, rx, received, cached, .. } => {
                    self.verdicts += 1.0;
                    self.cached += f64::from(u8::from(cached));
                    self.received += f64::from(u8::from(received));
                    self.ap_verdicts += f64::from(u8::from(tx < n_aps || rx < n_aps));
                    for node in [tx, rx] {
                        if node >= n_aps {
                            cars.insert(node);
                        }
                    }
                }
                TraceRecord::CsmaDeferred { .. } => self.csma += 1.0,
                TraceRecord::BufferStore { stored, .. } => self.buffer_stored += f64::from(stored),
                _ => {}
            }
        }
        let ticks = (last_dispatch.as_nanos() / TICK.as_nanos()) as f64 + 1.0;
        self.position_queries += cars.len() as f64 * (ticks + 1.0);
    }

    fn per_round(&self, total: f64) -> f64 {
        total / self.rounds.max(1.0)
    }

    fn share(part: f64, whole: f64) -> f64 {
        if whole > 0.0 {
            part / whole
        } else {
            0.0
        }
    }
}

/// Replays `EventQueue` pop + push at a standing depth of `depth`; ns per
/// pop + push pair.
pub fn replay_queue(depth: usize, budget_s: f64) -> f64 {
    let mut rng = StreamRng::derive(7, "carqbench.queue");
    let mut queue: EventQueue<VanetEvent> = EventQueue::with_capacity(depth + 1);
    let horizon_ns = 1_000_000_000.0;
    for _ in 0..depth.max(1) {
        queue.push(
            SimTime::from_nanos(rng.uniform(0.0, horizon_ns) as u64),
            VanetEvent::PositionUpdate,
        );
    }
    let deltas: Vec<u64> = (0..4096).map(|_| rng.uniform(1.0, horizon_ns) as u64).collect();
    let mut chunks = Vec::new();
    let mut spent = Cost::default();
    while chunks.is_empty() || (spent.wall_ns as f64) < budget_s * 1e9 {
        let (_, c) = measure(|| {
            for &delta in &deltas {
                let next = queue.pop().expect("the queue holds `depth` events");
                queue.push(SimTime::from_nanos(next.time.as_nanos() + delta), next.event);
            }
        });
        spent.add(c);
        chunks.push(c.cpu_ns as f64 / deltas.len() as f64);
    }
    fast(&chunks)
}

/// The cost per call of a replay's fast chunks: replays run in chunks, and
/// the chunk times' 10th percentile (as for the end-to-end rates) keeps the
/// host's slow stretches out of the comparison between layers.
fn fast(chunk_ns: &[f64]) -> f64 {
    percentile(chunk_ns, legs::RATE_PERCENTILE)
}

/// One transmission of a replayed sequence.
#[derive(Debug, Clone, Copy)]
struct Tx {
    at: SimTime,
    node: u32,
    payload_bytes: u32,
}

/// The medium replay's result.
#[derive(Debug, Default)]
pub struct MediumReplay {
    /// ns per verdict of `Medium::transmit_into` (radio calls included).
    pub ns_per_verdict: f64,
    /// Allocations per transmission.
    pub allocs_per_tx: f64,
    /// Pair-cache hit share the replay saw.
    pub hit_share: f64,
    /// Verdicts per transmission in the replay.
    pub verdicts_per_tx: f64,
}

/// Counts the pair-cache hits of a replay (an enabled trace sink that keeps
/// only two counters).
#[derive(Debug, Default)]
struct HitCounter {
    verdicts: u64,
    hits: u64,
}

impl TraceSink for HitCounter {
    const ENABLED: bool = true;

    fn record(&mut self, record: TraceRecord) {
        if let TraceRecord::Delivery { cached, .. } = record {
            self.verdicts += 1;
            self.hits += u64::from(cached);
        }
    }
}

/// Node ids and classes of a replay: APs first, then cars.
fn nodes(geometry: &Geometry) -> Vec<(NodeId, RadioClass)> {
    let n_aps = geometry.aps.len() as u32;
    (0..n_aps)
        .map(|i| (NodeId::new(i), RadioClass::AccessPoint))
        .chain(
            (0..geometry.cars.len() as u32).map(|i| (NodeId::new(n_aps + i), RadioClass::Vehicle)),
        )
        .collect()
}

/// Car positions at every mobility tick up to `until`.
fn tick_positions(geometry: &Geometry, until: SimTime) -> Vec<Vec<Point>> {
    let ticks = until.as_nanos() / TICK.as_nanos() + 1;
    (0..=ticks)
        .map(|k| {
            let t = SimTime::from_nanos(k * TICK.as_nanos());
            geometry.cars.iter().map(|car| car.position_at(t)).collect()
        })
        .collect()
}

/// A transmission sequence ready to replay.
struct Replay<'a> {
    sequence: &'a [Tx],
    frames: &'a [Frame<()>],
    positions: &'a [Vec<Point>],
    car_ids: &'a [NodeId],
    seed: u64,
}

impl Replay<'_> {
    /// Transmits the whole sequence on `medium`, moving the cars at every
    /// mobility tick.
    fn drive<S: TraceSink>(&self, medium: &mut Medium, sink: &mut S) {
        let mut rng = StreamRng::derive(self.seed, "carqbench.medium");
        let mut deliveries = Vec::new();
        let mut tick = 0usize;
        for (tx, frame) in self.sequence.iter().zip(self.frames) {
            while (tick as u64 + 1) * TICK.as_nanos() <= tx.at.as_nanos()
                && tick + 1 < self.positions.len()
            {
                tick += 1;
                for (&id, &p) in self.car_ids.iter().zip(&self.positions[tick]) {
                    medium.update_position(id, p);
                }
            }
            medium.transmit_into_traced(
                tx.at,
                frame,
                DataRate::Mbps1,
                &mut rng,
                &mut deliveries,
                sink,
            );
        }
    }
}

/// Replays a traced round's transmission sequence through
/// `Medium::transmit_into` on the workload's geometry, moving the cars at
/// every mobility tick as the model does.
fn replay_medium(geometry: &Geometry, sequence: &[Tx], budget_s: f64, seed: u64) -> MediumReplay {
    let Some(last) = sequence.last() else { return MediumReplay::default() };
    let positions = tick_positions(geometry, last.at);
    let nodes = nodes(geometry);
    let n_aps = geometry.aps.len();
    let fresh = || {
        let mut medium = Medium::new(geometry.medium.clone());
        for (i, &(id, class)) in nodes.iter().enumerate() {
            medium.register_node(id, class);
            let at = if i < n_aps { geometry.aps[i] } else { positions[0][i - n_aps] };
            medium.update_position(id, at);
        }
        medium
    };
    let header = Frame::new(NodeId::new(0), Destination::Broadcast, 0, ()).total_bytes();
    let frames: Vec<Frame<()>> = sequence
        .iter()
        .map(|tx| {
            Frame::new(
                NodeId::new(tx.node),
                Destination::Broadcast,
                tx.payload_bytes.saturating_sub(header),
                (),
            )
        })
        .collect();
    let car_ids: Vec<NodeId> = nodes[n_aps..].iter().map(|&(id, _)| id).collect();
    let replay =
        Replay { sequence, frames: &frames, positions: &positions, car_ids: &car_ids, seed };
    // Untimed pass: what the pair cache does on this sequence.
    let mut counter = HitCounter::default();
    replay.drive(&mut fresh(), &mut counter);
    let mut chunks = Vec::new();
    let mut spent = Cost::default();
    while chunks.is_empty() || (spent.wall_ns as f64) < budget_s * 1e9 {
        let mut medium = fresh();
        // `NoTrace` is the sink `Medium::transmit_into` passes: this is
        // exactly the untraced hot path.
        let ((), c) = measure(|| replay.drive(&mut medium, &mut NoTrace));
        spent.add(c);
        chunks.push(c.cpu_ns as f64 / (counter.verdicts as f64).max(1.0));
    }
    MediumReplay {
        ns_per_verdict: fast(&chunks),
        allocs_per_tx: spent.allocs as f64 / (sequence.len() * chunks.len()) as f64,
        hit_share: Counts::share(counter.hits as f64, counter.verdicts as f64),
        verdicts_per_tx: counter.verdicts as f64 / sequence.len() as f64,
    }
}

/// ns per call of `f` over `inputs`, in chunks of one pass over the inputs
/// until `budget_s` is spent.
fn ns_per_call<I>(inputs: &[I], budget_s: f64, mut f: impl FnMut(&I) -> f64) -> f64 {
    let mut chunks = Vec::new();
    let mut spent = Cost::default();
    let mut sink = 0.0;
    while chunks.is_empty() || (spent.wall_ns as f64) < budget_s * 1e9 {
        let (s, c) = measure(|| inputs.iter().map(&mut f).sum::<f64>());
        sink += s;
        spent.add(c);
        chunks.push(c.cpu_ns as f64 / inputs.len() as f64);
    }
    std::hint::black_box(sink);
    fast(&chunks)
}

/// The radio replay: ns per `link_state` (uncached path) and per
/// `sample_from_state` (cached path), mixed between the AP-vehicle and
/// vehicle-vehicle channels by `ap_share`.
fn replay_radio(
    geometry: &Geometry,
    until: SimTime,
    bits: u64,
    ap_share: f64,
    budget_s: f64,
) -> (f64, f64) {
    let positions = tick_positions(geometry, until);
    let ap = RadioChannel::new(geometry.medium.ap_vehicle.clone());
    let vv = RadioChannel::new(geometry.medium.vehicle_vehicle.clone());
    let mut ap_pairs = Vec::new();
    let mut vv_pairs = Vec::new();
    for cars in positions.iter().step_by(10) {
        for (i, &a) in cars.iter().enumerate() {
            ap_pairs.extend(geometry.aps.iter().map(|&p| (p, a)));
            vv_pairs.extend(cars.iter().enumerate().filter(|(j, _)| *j != i).map(|(_, &b)| (a, b)));
        }
    }
    let slice = budget_s / 4.0;
    let link = |channel: &RadioChannel, pairs: &[(Point, Point)]| -> (f64, Vec<LinkState>) {
        let ns = ns_per_call(pairs, slice, |&(a, b)| channel.link_state(a, b).shadowing_db);
        (ns, pairs.iter().map(|&(a, b)| channel.link_state(a, b)).collect())
    };
    let (ap_link, ap_states) = link(&ap, &ap_pairs);
    let (vv_link, vv_states) =
        if vv_pairs.is_empty() { (ap_link, ap_states.clone()) } else { link(&vv, &vv_pairs) };
    let mut rng = StreamRng::derive(11, "carqbench.radio");
    let mut sample = |channel: &RadioChannel, states: &[LinkState]| {
        ns_per_call(states, slice, |s| {
            channel.sample_from_state(s, bits, DataRate::Mbps1, &mut rng).snr_db
        })
    };
    let ap_sample = sample(&ap, &ap_states);
    let vv_sample = sample(&vv, &vv_states);
    let mix = |a: f64, v: f64| ap_share * a + (1.0 - ap_share) * v;
    (mix(ap_link, vv_link), mix(ap_sample, vv_sample))
}

/// ns per `PathMobility::position_at` over the cars' trajectories.
fn replay_geo(geometry: &Geometry, until: SimTime, budget_s: f64) -> f64 {
    let ticks = until.as_nanos() / TICK.as_nanos() + 1;
    let calls: Vec<(usize, SimTime)> = (0..=ticks)
        .flat_map(|k| {
            (0..geometry.cars.len()).map(move |c| (c, SimTime::from_nanos(k * TICK.as_nanos())))
        })
        .collect();
    ns_per_call(&calls, budget_s, |&(c, t)| geometry.cars[c].position_at(t).x)
}

/// Median cost of `reps` runs of `f`.
fn median_cost<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Cost) {
    let mut costs = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (value, cost) = measure(&mut f);
        costs.push(cost);
        last = Some(value);
    }
    costs.sort_by_key(|c| c.cpu_ns);
    (last.expect("at least one repetition"), costs[costs.len() / 2])
}

fn ms(cost: Cost) -> f64 {
    cost.cpu_ns as f64 / 1e6
}

/// Runs the layer pass of `kind` at `seed` within about `seconds`.
pub fn layer_pass(
    kind: Kind,
    seed: u64,
    seconds: f64,
    work_dir: &Path,
    tally: &mut Tally,
    spans: &mut Spans,
    health: &mut Vec<(String, f64)>,
) -> Vec<Metric> {
    let setup = legs::set_up(kind, seed, &work_dir.join("setup"), spans);
    let world = &setup.world;
    if kind.simulates() {
        // The fleet path fills the journals the journal layers read.
        spans.span("layer.fleet", |s| legs::fleet_fill(world, &setup.shard_dirs, s));
    }
    let plan = world.plan();
    let items: Vec<Item> = legs::items(&plan);
    let run = |item: &Item| plan.runs[item.run].as_ref();

    // A warm-up pass yields the reference reports; then every round runs
    // bare and with a span around the call, alternately.
    let mut reports: Vec<RoundReport> = Vec::new();
    let mut hashes = Vec::new();
    for item in &items {
        match legs::guarded_round(run(item), item.round, item.seed) {
            Ok(report) => {
                tally.record(legs::round_problem(&report, None));
                hashes.push(legs::report_hash(&report));
                reports.push(report);
            }
            Err(problem) => tally.record(Some(problem)),
        }
    }
    // Each round's cost is its cheapest of three bare and three spanned
    // runs, alternated, so the host's slow stretches do not land on one
    // side.
    let mut bare = vec![u64::MAX; items.len()];
    let mut spanned = vec![u64::MAX; items.len()];
    spans.span("layer.rounds", |s| {
        for _ in 0..3 {
            for (i, item) in items.iter().enumerate() {
                let ((), c) = measure(|| {
                    std::hint::black_box(run(item).run_round(item.round, item.seed));
                });
                bare[i] = bare[i].min(c.cpu_ns);
                let ((), c) = measure(|| {
                    s.span("vanet-scenarios.run_round", |_| {
                        std::hint::black_box(run(item).run_round(item.round, item.seed));
                    })
                });
                spanned[i] = spanned[i].min(c.cpu_ns);
            }
        }
    });
    health.push((
        "layer.rounds.cpu_wall_ratio".into(),
        spans.total("layer.rounds").0.cpu_wall_ratio(),
    ));
    let bare_ns: u64 = bare.iter().sum();
    let rounds = items.len() as f64;
    let round_cpu_ns = bare_ns as f64 / rounds;

    // Traced rounds: counts, verification and digests.
    let n_aps = world.geometry(0).aps.len() as u32;
    let mut counts = Counts::default();
    let mut traced = vec![u64::MAX; items.len()];
    let mut digests: Vec<RoundDigest> = Vec::new();
    let mut sequence: Vec<Tx> = Vec::new();
    let mut replay_cars = 0usize;
    spans.span("layer.traced", |s| {
        for (i, item) in items.iter().enumerate() {
            let ((report, records), cost) = measure(|| {
                s.span("vanet-scenarios.run_round_traced", |_| {
                    run(item).run_round_traced(item.round, item.seed)
                })
            });
            traced[i] = cost.cpu_ns;
            let invariants = s.span("vanet-trace.verify", |_| vanet_trace::verify(&records));
            let digest = s.span("vanet-analysis.digest", |_| {
                RoundDigest::compute(item.round, item.seed, &records)
            });
            tally.record(if !invariants.is_ok() {
                Some(format!(
                    "layer round {}: {} invariant violation(s)",
                    item.round,
                    invariants.violations.len()
                ))
            } else if hashes.get(i) != Some(&legs::report_hash(&report)) {
                Some(format!(
                    "layer round {}: traced report differs from the untraced one",
                    item.round
                ))
            } else {
                None
            });
            counts.absorb(&records, n_aps);
            digests.push(digest);
            if i == 0 {
                sequence = records
                    .iter()
                    .filter_map(|r| match *r {
                        TraceRecord::TxStart { at, node, bits, .. } => {
                            Some(Tx { at, node, payload_bytes: bits / 8 })
                        }
                        _ => None,
                    })
                    .collect();
                replay_cars = records
                    .iter()
                    .filter_map(|r| match *r {
                        TraceRecord::TxStart { node, .. } if node >= n_aps => {
                            Some(node - n_aps + 1)
                        }
                        TraceRecord::Delivery { rx, .. } if rx >= n_aps => Some(rx - n_aps + 1),
                        _ => None,
                    })
                    .max()
                    .unwrap_or(0) as usize;
            }
        }
    });
    // A second traced pass, timing only: each round keeps its cheaper run,
    // as the bare rounds do.
    for (i, item) in items.iter().enumerate() {
        let (_, cost) = measure(|| run(item).run_round_traced(item.round, item.seed));
        traced[i] = traced[i].min(cost.cpu_ns);
    }
    let (verify_cost, _) = spans.total("vanet-trace.verify");
    let (digest_cost, _) = spans.total("vanet-analysis.digest");

    // In-round replays at the workload's shape.
    let slice = (seconds * 0.08).max(0.05);
    let geometry = world.geometry(replay_cars.max(1));
    let until = sequence.last().map_or(SimTime::ZERO, |tx| tx.at);
    let depth = median(if counts.depths.is_empty() { &[1.0] } else { &counts.depths }) as usize;
    let push_pop_ns = spans.span("replay.sim-core", |_| replay_queue(depth, slice));
    let medium =
        spans.span("replay.vanet-mac", |_| replay_medium(&geometry, &sequence, slice, seed));
    let mean_bits = (counts.bits / counts.tx.max(1.0)) as u64;
    let ap_share = Counts::share(counts.ap_verdicts, counts.verdicts);
    let (link_state_ns, sample_ns) = spans
        .span("replay.vanet-radio", |_| replay_radio(&geometry, until, mean_bits, ap_share, slice));
    let position_at_ns = spans.span("replay.vanet-geo", |_| replay_geo(&geometry, until, slice));

    let hit = Counts::share(counts.cached, counts.verdicts);
    let per_round = |x: f64| counts.per_round(x);
    let radio_ns = per_round(counts.verdicts) * ((1.0 - hit) * link_state_ns + sample_ns);
    let replay_radio_ns_per_verdict = (1.0 - medium.hit_share) * link_state_ns + sample_ns;
    let mac_self_ns_per_verdict = medium.ns_per_verdict - replay_radio_ns_per_verdict;
    let shares = [
        ("sim-core.est_share", per_round(counts.events) * push_pop_ns),
        ("vanet-mac.est_share", per_round(counts.verdicts) * mac_self_ns_per_verdict),
        ("vanet-radio.est_share", radio_ns),
        ("vanet-geo.est_share", per_round(counts.position_queries) * position_at_ns),
    ]
    .map(|(name, ns)| (name, ns / round_cpu_ns));
    let residual = 1.0 - shares.iter().map(|(_, s)| s).sum::<f64>();

    // Report codec and rendering.
    let stats_slice = seconds * 0.04;
    let encode_ns = ns_per_call(&reports, stats_slice, |r| r.to_bytes().len() as f64);
    let encoded: Vec<Vec<u8>> = reports.iter().map(RoundReport::to_bytes).collect();
    let decode_ns = ns_per_call(&encoded, stats_slice, |b| {
        RoundReport::from_bytes(b).map_or(0.0, |r| f64::from(r.round))
    });
    let (_, render_cost) = median_cost(5, || legs::render(reports.clone()));

    // Set-up layers: configure, instantiate, plan.
    let first_point = world.spec.expand().remove(0);
    let (_, configure) =
        median_cost(11, || world.scenario.configure(&first_point).expect("valid point"));
    let (_, instantiate) = median_cost(5, grid_city);
    let (_, sweep_plan) = median_cost(5, || world.plan());
    let (fleet_plan, _) = spans.total("vanet-fleet.plan");
    let (execute, shards) = spans.total("vanet-fleet.execute_shard");

    // Journal layers, a span around every call.
    let journal = journal_layers(&setup, work_dir, spans, tally);

    let carq = |name: &str| per_round(reports.iter().map(|r| r.counter(name).unwrap_or(0.0)).sum());
    let opened: f64 = digests.iter().map(|d| f64::from(d.latency.opened)).sum();
    let matched: f64 = digests.iter().map(|d| d.latency.matched() as f64).sum();
    let journal_rounds = journal.rounds.max(1.0);

    let mut m = vec![
        Metric::new("sim-core.events_per_round", per_round(counts.events), "count"),
        Metric::new("sim-core.queue_depth_p50", depth as f64, "count"),
        Metric::new("sim-core.push_pop_ns", push_pop_ns, "ns")
            .note(format!("EventQueue pop+push replayed at depth {depth}")),
        Metric::new("vanet-mac.tx_per_round", per_round(counts.tx), "count"),
        Metric::new("vanet-mac.verdicts_per_tx", counts.verdicts / counts.tx.max(1.0), "count"),
        Metric::new("vanet-mac.pair_cache_hit_share", hit, "ratio")
            .note(format!("{} of {} verdicts", counts.cached, counts.verdicts)),
        Metric::new("vanet-mac.csma_deferrals_per_tx", counts.csma / counts.tx.max(1.0), "count"),
        Metric::new("vanet-mac.transmit_ns_per_verdict", medium.ns_per_verdict, "ns").note(
            format!(
                "transmit_into replay of {} tx, {:.2} verdicts/tx, hit share {:.3}",
                sequence.len(),
                medium.verdicts_per_tx,
                medium.hit_share
            ),
        ),
        Metric::new("vanet-mac.allocs_per_tx", medium.allocs_per_tx, "count"),
        Metric::new("vanet-radio.link_state_ns", link_state_ns, "ns"),
        Metric::new("vanet-radio.sample_from_state_ns", sample_ns, "ns"),
        Metric::new(
            "vanet-radio.received_share",
            Counts::share(counts.received, counts.verdicts),
            "ratio",
        ),
        Metric::new("vanet-geo.position_at_ns", position_at_ns, "ns"),
        Metric::new(
            "vanet-geo.position_queries_per_round",
            per_round(counts.position_queries),
            "count",
        ),
    ];
    let bases = [
        format!("{:.0} events x {push_pop_ns:.1} ns", per_round(counts.events)),
        format!(
            "{:.0} verdicts x {mac_self_ns_per_verdict:.1} ns (transmit_into minus radio)",
            per_round(counts.verdicts)
        ),
        format!(
            "{:.0} verdicts x ({:.3} x {link_state_ns:.1} + {sample_ns:.1}) ns",
            per_round(counts.verdicts),
            1.0 - hit
        ),
        format!("{:.0} queries x {position_at_ns:.1} ns", per_round(counts.position_queries)),
    ];
    for ((name, share), base) in shares.iter().zip(bases) {
        m.push(
            Metric::new(name, *share, "ratio")
                .note(format!("{base} / {:.0} ns round CPU", round_cpu_ns)),
        );
    }
    m.extend([
        Metric::new("carq.strategy_decisions_per_round", carq("strategy_decisions"), "count"),
        Metric::new("carq.requests_per_round", carq("requests_sent"), "count"),
        Metric::new("carq.coop_retransmits_per_round", carq("coop_data_sent"), "count"),
        Metric::new("carq.buffer_stores_per_round", per_round(counts.buffer_stored), "count"),
        Metric::new(
            "carq.recovered_per_request",
            Counts::share(carq("recovered_via_coop"), carq("requests_sent")),
            "ratio",
        ),
        Metric::new("vanet-scenarios.configure_ms", ms(configure), "ms"),
        Metric::new("vanet-scenarios.residual_share", residual, "ratio").note(
            "1 - sum of the est_shares: node handlers, frame Rcs, bookkeeping, round_result".into(),
        ),
        Metric::new("vanet-gen.instantiate_ms", ms(instantiate), "ms")
            .note("vanet_gen::instantiate of the grid_city world".into()),
        Metric::new("vanet-trace.records_per_round", per_round(counts.records), "count"),
        Metric::new(
            "vanet-trace.traced_overhead",
            traced.iter().sum::<u64>() as f64 / bare_ns as f64,
            "ratio",
        )
        .note(format!("traced / untraced CPU over the same {rounds} rounds")),
        Metric::new(
            "vanet-trace.verify_us_per_round",
            verify_cost.cpu_ns as f64 / 1e3 / rounds,
            "us",
        ),
        Metric::new(
            "vanet-analysis.digest_us_per_round",
            digest_cost.cpu_ns as f64 / 1e3 / rounds,
            "us",
        ),
        Metric::new("vanet-analysis.store_open_ms", ms(journal.store_open), "ms"),
        Metric::new("vanet-analysis.warm_run_ms", ms(journal.analysis_warm), "ms"),
        Metric::new(
            "vanet-analysis.merge_us_per_round",
            journal.analysis_merge.cpu_ns as f64 / 1e3 / journal_rounds,
            "us",
        ),
        Metric::new(
            "vanet-analysis.bytes_per_round",
            journal.analysis_bytes / journal_rounds,
            "bytes",
        ),
        Metric::new(
            "vanet-analysis.latency_matched_share",
            Counts::share(matched, opened),
            "ratio",
        )
        .note(format!("{matched} repaired of {opened} opened recovery slots")),
        Metric::new("vanet-stats.encode_us_per_report", encode_ns / 1e3, "us"),
        Metric::new("vanet-stats.decode_us_per_report", decode_ns / 1e3, "us"),
        Metric::new(
            "vanet-stats.report_bytes",
            mean(&encoded.iter().map(|b| b.len() as f64).collect::<Vec<_>>()),
            "bytes",
        ),
        Metric::new("vanet-stats.render_ms", ms(render_cost), "ms")
            .note(format!("Table 1 and every reception series over {rounds} rounds")),
        Metric::new("vanet-sweep.plan_ms", ms(sweep_plan), "ms"),
        Metric::new("vanet-sweep.warm_run_ms", ms(journal.sweep_warm), "ms"),
        Metric::new("vanet-sweep.export_ms", ms(journal.export), "ms"),
        Metric::new("vanet-cache.open_ms", ms(journal.cache_open), "ms"),
        Metric::new("vanet-cache.get_us", journal.get_ns / 1e3, "us"),
        Metric::new("vanet-cache.allocs_per_get", journal.allocs_per_get, "count"),
        Metric::new(
            "vanet-cache.merge_us_per_round",
            journal.cache_merge.cpu_ns as f64 / 1e3 / journal_rounds,
            "us",
        ),
        Metric::new("vanet-cache.compact_ms", ms(journal.compact), "ms"),
        Metric::new("vanet-cache.bytes_per_round", journal.cache_bytes / journal_rounds, "bytes"),
        Metric::new("vanet-fleet.plan_ms", ms(fleet_plan), "ms"),
        Metric::new("vanet-fleet.execute_shard_s", execute.cpu_s(), "s")
            .note(format!("{shards} cold shard(s) of {journal_rounds} rounds")),
        Metric::new(
            "layer-pass.overhead",
            spanned.iter().sum::<u64>() as f64 / bare_ns as f64 - 1.0,
            "ratio",
        )
        .note("CPU per round with a span around every call, against the bare rounds".into()),
    ]);
    m
}

/// Per-call costs of the journal layers.
#[derive(Debug, Default)]
struct JournalLayers {
    rounds: f64,
    cache_merge: Cost,
    analysis_merge: Cost,
    compact: Cost,
    cache_open: Cost,
    store_open: Cost,
    sweep_warm: Cost,
    analysis_warm: Cost,
    export: Cost,
    get_ns: f64,
    allocs_per_get: f64,
    cache_bytes: f64,
    analysis_bytes: f64,
}

/// Times every journal call of the write and read legs, five times each
/// (medians), and checks the warm reads against the cold exports.
fn journal_layers(
    setup: &legs::Setup,
    work_dir: &Path,
    spans: &mut Spans,
    tally: &mut Tally,
) -> JournalLayers {
    const REPS: usize = 5;
    let world: &World = &setup.world;
    let mut writes = Vec::new();
    let mut reads = Vec::new();
    let mut j = JournalLayers::default();
    let merged = work_dir.join("layer-merged");
    let cold = legs::cold_exports(world);
    for rep in 0..REPS {
        let dest = work_dir.join(format!("layer-merge-{rep}"));
        let (rounds, costs) =
            spans.span("layer.write", |s| legs::write_once(&setup.shard_dirs, &dest, s));
        j.rounds = rounds as f64;
        writes.push(costs);
        if rep + 1 == REPS {
            std::fs::rename(&dest, &merged).expect("keep the last merge");
        } else {
            std::fs::remove_dir_all(&dest).expect("remove a merge directory");
        }
    }
    for _ in 0..REPS {
        let (out, costs) = spans.span("layer.read", |s| legs::read_once(world, &merged, s));
        tally.record(legs::read_problem(&out, &cold.0, &cold.1));
        reads.push(costs);
    }
    let median_of = |costs: Vec<Cost>| {
        let mut costs = costs;
        costs.sort_by_key(|c| c.cpu_ns);
        costs[costs.len() / 2]
    };
    j.cache_merge = median_of(writes.iter().map(|w| w.merge).collect());
    j.analysis_merge = median_of(writes.iter().map(|w| w.analysis_merge).collect());
    j.compact = median_of(writes.iter().map(|w| w.compact).collect());
    j.cache_open = median_of(reads.iter().map(|r| r.cache_open).collect());
    j.store_open = median_of(reads.iter().map(|r| r.store_open).collect());
    j.sweep_warm = median_of(reads.iter().map(|r| r.sweep_warm).collect());
    j.analysis_warm = median_of(reads.iter().map(|r| r.analysis_warm).collect());
    j.export = median_of(reads.iter().map(|r| r.export).collect());

    let cache = SweepCache::open_read_only(&merged).expect("merged journal opens read-only");
    let keys = cache.keys();
    let (gets, cost) = median_cost(REPS, || keys.iter().filter(|k| cache.get(k).is_some()).count());
    j.get_ns = cost.cpu_ns as f64 / gets.max(1) as f64;
    j.allocs_per_get = cost.allocs as f64 / gets.max(1) as f64;
    j.cache_bytes = std::fs::metadata(cache.journal_path()).map_or(0.0, |m| m.len() as f64);
    j.analysis_bytes = legs::journal_bytes(&merged) as f64 - j.cache_bytes;
    j
}
