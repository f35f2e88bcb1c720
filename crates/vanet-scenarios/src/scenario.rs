//! The unified scenario API: one first-class interface every experiment
//! implements, one purity contract every round obeys.
//!
//! * [`Scenario`] — a named, documented experiment family: it declares the
//!   typed [`ParamSchema`] of the parameters it consumes and turns a
//!   validated [`SweepPoint`] into a runnable [`ScenarioRun`].
//! * [`ScenarioRun`] — one fully-configured experiment: a fixed number of
//!   rounds, a **pure** `run_round(round, seed)` (all randomness derives
//!   from `seed`; no interior mutability observable across rounds) and an
//!   `aggregate` that folds the per-round [`RoundReport`]s into the
//!   [`PointSummary`] metric row.
//! * [`walk_rounds`] — the one round walker every executor runs on: it
//!   derives per-round seeds with [`round_seed`], serves what a caller's
//!   lookup holds, produces the rest in parallel waves and hands fresh
//!   products to a caller's store, byte-identically at any thread count.
//!   [`run_rounds`] is the walk with nothing to serve or store.
//!
//! The purity contract is what buys intra-point parallelism: because a
//! round is a function of `(configuration, round, seed)` alone, rounds can
//! execute shuffled, interleaved or on any number of threads without
//! changing a single exported byte.

use std::convert::Infallible;
use std::ops::Range;

use rand::RngCore as _;
use sim_core::StreamRng;
use vanet_stats::{FlowCounts, PointSummary, RoundReport};
use vanet_trace::TraceRecord;

use crate::params::SweepPoint;
use crate::schema::{ParamError, ParamSchema};

/// An experiment family, discoverable by name through the
/// [`ScenarioRegistry`](crate::ScenarioRegistry).
pub trait Scenario: Send + Sync {
    /// Short name used in registries, exports and the CLI (e.g. `urban`).
    fn name(&self) -> &'static str;

    /// One-line description shown by `carq-cli scenario list`.
    fn description(&self) -> &'static str;

    /// The typed schema of the parameters this scenario consumes.
    fn schema(&self) -> &ParamSchema;

    /// Validates `point` against the schema and builds the runnable,
    /// fully-configured experiment.
    fn configure(&self, point: &SweepPoint) -> Result<Box<dyn ScenarioRun>, ParamError>;
}

/// One fully-configured experiment at one parameter point.
pub trait ScenarioRun: Send + Sync {
    /// The number of rounds this run executes (laps, passes or the AP-visit
    /// budget of a download).
    fn rounds(&self) -> u32;

    /// Runs round `round`, seeding **all** randomness from `seed`.
    ///
    /// This must be a pure function of `(self, round, seed)`: calling it
    /// twice with the same arguments returns identical reports, and calls
    /// for different rounds may happen in any order and on any thread.
    fn run_round(&self, round: u32, seed: u64) -> RoundReport;

    /// Folds the per-round reports (in round order) into the point's metric
    /// row. Implementations must ignore trailing reports past their own
    /// completion condition, so that executors may overshoot
    /// [`ScenarioRun::is_settled`] without changing the summary.
    fn aggregate(&self, rounds: &[RoundReport]) -> PointSummary;

    /// Whether the reports collected so far already determine the outcome —
    /// an early-exit hint for open-ended runs (e.g. a download that
    /// finished well before its AP-visit budget). The default never settles.
    fn is_settled(&self, rounds_so_far: &[RoundReport]) -> bool {
        let _ = rounds_so_far;
        false
    }

    /// Runs round `round` with structured tracing enabled, returning the
    /// report together with the emitted [`TraceRecord`]s — the seam behind
    /// `carq-cli verify` and the trace tooling.
    ///
    /// Tracing must be observation-only: the report must equal what
    /// [`ScenarioRun::run_round`] returns for the same `(round, seed)` bit
    /// for bit, and the records must be a pure function of the same inputs.
    /// The default (for runs without an instrumented path) returns the
    /// untraced report and an empty trace.
    fn run_round_traced(&self, round: u32, seed: u64) -> (RoundReport, Vec<TraceRecord>) {
        (self.run_round(round, seed), Vec::new())
    }
}

/// Derives the seed of round `round` from a run's `base_seed`.
///
/// The derivation goes through a dedicated [`StreamRng`] stream
/// (`"scenario.round"`) and its per-round substream, so round seeds are a
/// pure function of `(base_seed, round)` — independent of execution order
/// and thread placement — and uncorrelated across rounds. Inside a sweep the
/// base seed is itself derived from `(master seed, canonical
/// configuration)` (`vanet_sweep::point_seed`), completing the
/// `(master seed, canonical configuration, round)` chain.
pub fn round_seed(base_seed: u64, round: u32) -> u64 {
    StreamRng::derive(base_seed, "scenario.round").substream(u64::from(round)).next_u64()
}

/// Resolves a worker count: `0` means one per available CPU.
pub fn worker_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1),
        threads => threads,
    }
}

/// The one round walker: walks rounds `rounds` of a run whose round seeds
/// derive from `base_seed`, serving what `lookup` holds, making the rest
/// with `produce` and handing every fresh product to `store`. The product
/// is the caller's: a [`RoundReport`], or a digest of a traced round.
///
/// * Hits are served one round at a time until the first miss, with a
///   `settled` check before each, so a settling run served from a journal
///   stops exactly at its settle point.
/// * From the first miss on, rounds go in waves of `threads` (`0` = one per
///   available CPU): a wave's misses are produced in parallel and its hits
///   served, and its fresh products are stored, in round order, when the
///   wave ends — so a walk killed mid-run loses at most one wave. `settled`
///   is asked between waves only, so a settling run may overshoot its
///   settle point by less than a wave; trimming mid-wave would make the
///   produced round set depend on thread timing.
///
/// `settled` sees the products so far (never none), in round order. The
/// fault layer's round hooks belong to the caller's `lookup` and `produce`
/// (`vanet_sweep::walk_points` fires them), since this crate sits below it.
///
/// Returns the products in round order and how many of them were produced
/// fresh, or the first `store` error.
pub fn walk_rounds<P: Send, E>(
    rounds: Range<u32>,
    base_seed: u64,
    threads: usize,
    settled: &dyn Fn(&[P]) -> bool,
    lookup: &dyn Fn(u32, u64) -> Option<P>,
    produce: &(dyn Fn(u32, u64) -> P + Sync),
    store: &mut dyn FnMut(u32, u64, &P) -> Result<(), E>,
) -> Result<(Vec<P>, usize), E> {
    let threads = u32::try_from(worker_threads(threads)).unwrap_or(u32::MAX);
    let (mut products, _) = served_prefix(rounds.clone(), base_seed, settled, lookup);
    let mut fresh = 0;
    let mut next = rounds.start + products.len() as u32;
    while next < rounds.end && !is_settled(settled, &products) {
        let end = next.saturating_add(threads).min(rounds.end);
        let wave: Vec<(u32, u64, Option<P>)> = (next..end)
            .map(|round| {
                let seed = round_seed(base_seed, round);
                (round, seed, lookup(round, seed))
            })
            .collect();
        let missing: Vec<(u32, u64)> = wave
            .iter()
            .filter(|(.., hit)| hit.is_none())
            .map(|&(round, seed, _)| (round, seed))
            .collect();
        let mut made = produce_all(&missing, produce).into_iter();
        products
            .extend(wave.into_iter().map(|(.., hit)| {
                hit.unwrap_or_else(|| made.next().expect("one product per miss"))
            }));
        for &(round, seed) in &missing {
            store(round, seed, &products[(round - rounds.start) as usize])?;
        }
        fresh += missing.len();
        next = end;
    }
    Ok((products, fresh))
}

/// The hits at the front of `rounds`, served one round at a time with a
/// `settled` check before each — [`walk_rounds`]' first phase — and
/// whether the walk would go on to produce a round. The second half is a
/// coverage probe: a walk against the same lookup produces nothing exactly
/// when it is `false`.
pub fn served_prefix<P>(
    rounds: Range<u32>,
    base_seed: u64,
    settled: &dyn Fn(&[P]) -> bool,
    lookup: &dyn Fn(u32, u64) -> Option<P>,
) -> (Vec<P>, bool) {
    let mut served = Vec::with_capacity(rounds.len());
    for round in rounds.clone() {
        if is_settled(settled, &served) {
            break;
        }
        match lookup(round, round_seed(base_seed, round)) {
            Some(hit) => served.push(hit),
            None => break,
        }
    }
    let pending =
        rounds.start + (served.len() as u32) < rounds.end && !is_settled(settled, &served);
    (served, pending)
}

fn is_settled<P>(settled: &dyn Fn(&[P]) -> bool, so_far: &[P]) -> bool {
    !so_far.is_empty() && settled(so_far)
}

/// Produces the `missing` rounds of a wave, in parallel when several miss.
fn produce_all<P: Send>(
    missing: &[(u32, u64)],
    produce: &(dyn Fn(u32, u64) -> P + Sync),
) -> Vec<P> {
    if missing.len() <= 1 {
        return missing.iter().map(|&(round, seed)| produce(round, seed)).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = missing
            .iter()
            .map(|&(round, seed)| scope.spawn(move || produce(round, seed)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("round worker panicked")).collect()
    })
}

/// Runs a configured scenario's rounds — in parallel when `threads > 1` —
/// and returns their reports in round order. `threads == 0` means one
/// worker per available CPU, like `SweepEngine::new` in `vanet-sweep`.
///
/// This is [`walk_rounds`] with nothing to serve or store: rounds execute
/// in waves of `threads`, and between waves the walk asks
/// [`ScenarioRun::is_settled`] whether the remaining rounds still matter.
/// Because every round seeds from [`round_seed`] alone and `aggregate`
/// ignores trailing reports, the resulting [`PointSummary`] — and any CSV
/// or JSON derived from it — is byte-identical at any thread count.
pub fn run_rounds(run: &dyn ScenarioRun, base_seed: u64, threads: usize) -> Vec<RoundReport> {
    let walked = walk_rounds(
        0..run.rounds(),
        base_seed,
        threads,
        &|so_far| run.is_settled(so_far),
        &|_, _| None,
        &|round, seed| run.run_round(round, seed),
        &mut |_, _, _| Ok::<(), Infallible>(()),
    );
    let Ok((reports, _)) = walked;
    reports
}

/// Convenience: configure `scenario` at `point`, run every round with
/// `threads` workers, and aggregate — the one-call path for examples, tests
/// and the CLI's single-point commands.
pub fn run_point(
    scenario: &dyn Scenario,
    point: &SweepPoint,
    seed: u64,
    threads: usize,
) -> Result<(Vec<RoundReport>, PointSummary), ParamError> {
    let run = scenario.configure(point)?;
    let reports = run_rounds(run.as_ref(), seed, threads);
    let summary = run.aggregate(&reports);
    Ok((reports, summary))
}

/// Per-flow loss percentages pooled over rounds — the shared aggregation of
/// the urban and highway scenarios, public so external scenario
/// implementations (notably `vanet-gen`'s generated scenarios) report the
/// same loss metrics as the built-ins.
#[derive(Debug, Default)]
pub struct LossSamples {
    window: Vec<f64>,
    before_pct: Vec<f64>,
    after_pct: Vec<f64>,
}

impl LossSamples {
    /// Folds one round's per-flow losses into the pooled samples. Flows
    /// whose AP window is empty (the car never entered coverage) are
    /// skipped rather than counted as lossless.
    pub fn absorb(&mut self, round: &vanet_stats::RoundResult) {
        for car in round.cars() {
            let Some(flow) = round.flow_for(car) else { continue };
            self.push(&flow.counts());
        }
    }

    /// Folds one flow's counts into the pooled samples (skipped when its
    /// window is empty).
    fn push(&mut self, counts: &FlowCounts) {
        let tx = counts.tx_in_window;
        if tx == 0 {
            return;
        }
        self.window.push(tx as f64);
        self.before_pct.push(counts.lost_before_coop as f64 / tx as f64 * 100.0);
        self.after_pct.push(counts.lost_after_coop as f64 / tx as f64 * 100.0);
    }

    /// The pooled metrics: mean window size, mean loss before/after
    /// cooperation, and the after-cooperation percentile spread.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let after = vanet_stats::Percentiles::of(&self.after_pct);
        vec![
            ("tx_window_mean", vanet_stats::mean(&self.window)),
            ("loss_before_pct_mean", vanet_stats::mean(&self.before_pct)),
            ("loss_after_pct_mean", vanet_stats::mean(&self.after_pct)),
            ("loss_after_pct_p50", after.p50),
            ("loss_after_pct_p90", after.p90),
            ("loss_after_pct_max", after.max),
        ]
    }
}

/// The metric row of the urban-style scenarios (the built-in `urban` and
/// `vanet-gen`'s generated worlds): the [`LossSamples`] metrics, the mean
/// recovery efficiency over every flow, and the `requests_sent` and
/// `coop_data_sent` totals. Each flow is counted once.
pub fn urban_summary(rounds: &[RoundReport]) -> PointSummary {
    let mut losses = LossSamples::default();
    let mut efficiency = Vec::new();
    for report in rounds {
        for car in report.result.cars() {
            let Some(flow) = report.result.flow_for(car) else { continue };
            let counts = flow.counts();
            losses.push(&counts);
            efficiency.push(counts.recovery_efficiency());
        }
    }
    let mut metrics = losses.metrics();
    metrics.push(("recovery_efficiency_mean", vanet_stats::mean(&efficiency)));
    metrics.push(("requests_sent", vanet_stats::counter_total(rounds, "requests_sent")));
    metrics.push(("coop_data_sent", vanet_stats::counter_total(rounds, "coop_data_sent")));
    PointSummary { metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A cheap pure run: metrics are functions of `(round, seed)` only.
    struct FakeRun {
        rounds: u32,
        settle_after: Option<u32>,
        calls: AtomicUsize,
    }

    impl FakeRun {
        fn new(rounds: u32) -> Self {
            FakeRun { rounds, settle_after: None, calls: AtomicUsize::new(0) }
        }
    }

    impl ScenarioRun for FakeRun {
        fn rounds(&self) -> u32 {
            self.rounds
        }

        fn run_round(&self, round: u32, seed: u64) -> RoundReport {
            self.calls.fetch_add(1, Ordering::Relaxed);
            RoundReport::new(round, seed, vanet_stats::RoundResult::default())
                .with_counter("value", (seed % 1_000) as f64)
        }

        fn aggregate(&self, rounds: &[RoundReport]) -> PointSummary {
            let cutoff = self.settle_after.unwrap_or(self.rounds) as usize;
            let total: f64 = rounds.iter().take(cutoff).filter_map(|r| r.counter("value")).sum();
            PointSummary { metrics: vec![("total", total)] }
        }

        fn is_settled(&self, rounds_so_far: &[RoundReport]) -> bool {
            self.settle_after.is_some_and(|n| rounds_so_far.len() >= n as usize)
        }
    }

    #[test]
    fn round_seeds_are_pure_and_distinct() {
        assert_eq!(round_seed(7, 0), round_seed(7, 0));
        let seeds: std::collections::BTreeSet<u64> = (0..64).map(|r| round_seed(7, r)).collect();
        assert_eq!(seeds.len(), 64, "round seeds must not collide in a small run");
        assert_ne!(round_seed(7, 0), round_seed(8, 0), "base seed must matter");
    }

    #[test]
    fn reports_come_back_in_round_order_at_any_thread_count() {
        let run = FakeRun::new(11);
        let serial = run_rounds(&run, 42, 1);
        assert_eq!(serial.len(), 11);
        for (i, report) in serial.iter().enumerate() {
            assert_eq!(report.round, i as u32);
            assert_eq!(report.seed, round_seed(42, i as u32));
        }
        for threads in [2, 4, 8, 16] {
            let parallel = run_rounds(&run, 42, threads);
            assert_eq!(serial, parallel, "thread count {threads} changed the reports");
        }
    }

    #[test]
    fn settled_runs_stop_early_but_aggregate_identically() {
        let serial = FakeRun { settle_after: Some(3), ..FakeRun::new(40) };
        let serial_reports = run_rounds(&serial, 9, 1);
        // Serial execution stops right after the settle point.
        assert_eq!(serial_reports.len(), 3);
        assert_eq!(serial.calls.load(Ordering::Relaxed), 3);

        let wide = FakeRun { settle_after: Some(3), ..FakeRun::new(40) };
        let wide_reports = run_rounds(&wide, 9, 8);
        // A wide wave may overshoot the settle point but never runs the
        // whole budget.
        let wide_calls = wide.calls.load(Ordering::Relaxed);
        assert!((3..=8).contains(&wide_calls), "ran {wide_calls} rounds");
        // ...and the aggregate ignores the overshoot.
        assert_eq!(serial.aggregate(&serial_reports), wide.aggregate(&wide_reports));
    }

    /// PIN: while *simulating*, the walker checks [`ScenarioRun::is_settled`]
    /// only between waves, so a settling run overshoots the settle point up
    /// to the next wave boundary — never further. This is deliberate:
    /// trimming mid-wave would need either speculative cancellation or a
    /// settle probe inside the wave, and both would make the executed round
    /// set depend on thread timing, breaking the byte-identical-at-any-
    /// thread-count contract. (Served hits go round by round and stop
    /// exactly at the settle point — see ROADMAP's settle caveat.) The
    /// aggregate ignores the overshoot, so only wasted work is at stake,
    /// bounded by one wave.
    #[test]
    fn simulating_settle_overshoot_stops_at_the_next_wave_boundary() {
        for (threads, expected) in [(1, 3), (2, 4), (3, 3), (4, 4), (5, 5), (8, 8), (64, 40)] {
            let run = FakeRun { settle_after: Some(3), ..FakeRun::new(40) };
            let reports = run_rounds(&run, 9, threads);
            let calls = run.calls.load(Ordering::Relaxed);
            assert_eq!(calls, expected, "threads {threads}: overshoot moved");
            assert_eq!(reports.len(), expected, "threads {threads}: reports mismatch calls");
            // The bound itself: never a full wave past the settle point.
            assert!(calls < 3 + threads.max(1), "threads {threads} ran {calls} rounds");
        }
    }

    #[test]
    fn wave_width_saturates_instead_of_wrapping() {
        // 2^32 threads truncated to a `u32` would be a zero-width wave
        // that never advances. One round runs inline: no thread starts.
        let threads = usize::try_from(1u64 << 32).unwrap_or(usize::MAX);
        assert_eq!(run_rounds(&FakeRun::new(1), 9, threads).len(), 1);
    }

    /// A settle-capable run: done once three reports are in.
    struct SettlingRun {
        simulated: AtomicUsize,
    }

    impl ScenarioRun for SettlingRun {
        fn rounds(&self) -> u32 {
            40
        }

        fn run_round(&self, round: u32, seed: u64) -> RoundReport {
            self.simulated.fetch_add(1, Ordering::Relaxed);
            RoundReport::new(round, seed, vanet_stats::RoundResult::default())
                .with_counter("value", 1.0)
        }

        fn aggregate(&self, rounds: &[RoundReport]) -> PointSummary {
            let total: f64 = rounds.iter().take(3).filter_map(|r| r.counter("value")).sum();
            PointSummary { metrics: vec![("total", total)] }
        }

        fn is_settled(&self, rounds_so_far: &[RoundReport]) -> bool {
            rounds_so_far.len() >= 3
        }
    }

    /// Walks `run` from seed 7 on `threads`, serving what `lookup` holds
    /// and counting the stores.
    fn walk_settling(
        run: &SettlingRun,
        threads: usize,
        lookup: &dyn Fn(u32, u64) -> Option<RoundReport>,
    ) -> (Vec<RoundReport>, usize, usize) {
        let mut stored = 0usize;
        let (reports, fresh) = walk_rounds(
            0..run.rounds(),
            7,
            threads,
            &|so_far| run.is_settled(so_far),
            lookup,
            &|round, seed| run.run_round(round, seed),
            &mut |_, _, _| {
                stored += 1;
                Ok::<(), Infallible>(())
            },
        )
        .unwrap();
        (reports, fresh, stored)
    }

    #[test]
    fn fully_cached_settling_run_stops_exactly_at_the_settle_point() {
        let run = SettlingRun { simulated: AtomicUsize::new(0) };
        let lookup = |round: u32, seed: u64| {
            Some(
                RoundReport::new(round, seed, vanet_stats::RoundResult::default())
                    .with_counter("value", 1.0),
            )
        };
        let (reports, fresh, stored) = walk_settling(&run, 8, &lookup);
        // A fully cached wave would overshoot to 8 reports; the served
        // prefix honours the settle point exactly.
        assert_eq!(reports.len(), 3, "cached prefix must not overshoot the settle point");
        assert_eq!(fresh, 0);
        assert_eq!(run.simulated.load(Ordering::Relaxed), 0);
        assert_eq!(stored, 0, "cached rounds are never re-stored");
        // The coverage probe agrees: nothing would be produced.
        let settled = |so_far: &[RoundReport]| run.is_settled(so_far);
        assert!(!served_prefix(0..40, 7, &settled, &lookup).1);
    }

    #[test]
    fn partially_cached_settling_run_keeps_the_summary() {
        // Cache covers only round 0: the prefix serves it, then the wave
        // machinery simulates from round 1 and may overshoot by at most one
        // wave — which `aggregate` ignores by contract.
        let run = SettlingRun { simulated: AtomicUsize::new(0) };
        let lookup = |round: u32, seed: u64| {
            (round == 0).then(|| {
                RoundReport::new(round, seed, vanet_stats::RoundResult::default())
                    .with_counter("value", 1.0)
            })
        };
        let (reports, fresh, stored) = walk_settling(&run, 4, &lookup);
        assert!((3..=5).contains(&reports.len()), "got {} reports", reports.len());
        assert_eq!(fresh, reports.len() - 1);
        assert_eq!(stored, fresh, "every fresh round is stored");
        assert_eq!(run.aggregate(&reports).metrics, vec![("total", 3.0)]);
        let settled = |so_far: &[RoundReport]| run.is_settled(so_far);
        assert!(served_prefix(0..40, 7, &settled, &lookup).1, "round 1 would be produced");
    }

    #[test]
    fn run_point_validates_before_running() {
        use crate::params::{Param, ParamValue};
        let scenario = crate::urban::UrbanScenario::paper_testbed();
        let err = run_point(
            &scenario,
            &SweepPoint::new(vec![(Param::FileBlocks, ParamValue::Int(5))]),
            1,
            1,
        )
        .unwrap_err();
        assert!(matches!(err, ParamError::Unknown { .. }));
    }
}
