//! Trace observability, end to end through the umbrella crate: tracing is
//! observation-only (traced and untraced rounds produce bit-identical
//! reports and byte-identical rendered exports at any thread count), trace
//! files are deterministic functions of the seed and round-trip the
//! `CARQTRM1` codec, every built-in scenario's trace passes the invariant checker,
//! and a settle-capable scenario's cached re-run stops exactly at its
//! settle point — with the event counts cross-checked against the trace.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use carq_repro::cache::SweepCache;
use carq_repro::scenarios::{round_seed, run_rounds, ScenarioRegistry, ScenarioRun};
use carq_repro::stats::{into_round_results, render_table1, table1, RoundReport};
use carq_repro::sweep::{Param, ParamValue, SweepEngine, SweepPoint, SweepSpec};
use carq_repro::trace::{decode_frames, encode_frames, to_jsonl, verify, TraceFrame, TraceRecord};
use proptest::prelude::*;

const SEED: u64 = 0x0B5E_7F00D;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "carq-trace-observability-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A quick configuration of each built-in scenario: small enough for the
/// test suite, real enough that every record kind the scenario can emit
/// shows up.
fn quick_run(name: &str) -> Box<dyn ScenarioRun> {
    let registry = ScenarioRegistry::builtin();
    let scenario = registry.get(name).expect("built-in scenario");
    let point = match name {
        "urban" => SweepPoint::new(vec![
            (Param::Rounds, ParamValue::Int(2)),
            (Param::NCars, ParamValue::Int(2)),
        ]),
        "multiap" => SweepPoint::new(vec![
            (Param::FileBlocks, ParamValue::Int(40)),
            (Param::Rounds, ParamValue::Int(12)),
        ]),
        _ => SweepPoint::empty(),
    };
    scenario.configure(&point).expect("schema-valid point")
}

/// The one-frame trace file of `records`, as `trace --rounds R..R+1`
/// writes it.
fn one_frame(round: u32, seed: u64, records: &[TraceRecord]) -> Vec<u8> {
    encode_frames(&[TraceFrame { round, seed, records: records.to_vec() }])
}

/// The records of a one-frame trace file, checking its round and seed.
fn records_of(bytes: &[u8], round: u32, seed: u64) -> Vec<TraceRecord> {
    let frames = decode_frames(bytes).expect("self-written trace decodes");
    let [frame] = &frames[..] else { panic!("{} frames, not one", frames.len()) };
    assert_eq!((frame.round, frame.seed), (round, seed));
    frame.records.clone()
}

fn dispatched(records: &[TraceRecord]) -> usize {
    records.iter().filter(|r| matches!(r, TraceRecord::EventDispatched { .. })).count()
}

#[test]
fn traced_rounds_match_untraced_and_pass_every_invariant() {
    for name in ["urban", "highway", "multiap"] {
        let run = quick_run(name);
        for round in 0..2 {
            let seed = round_seed(SEED, round);
            let (report, records) = run.run_round_traced(round, seed);
            assert!(!records.is_empty(), "{name} round {round} emitted no trace");
            // The purity contract: tracing must not perturb the run.
            assert_eq!(report, run.run_round(round, seed), "{name} round {round} diverged");
            // The invariant pass holds on the real stream.
            let verdict = verify(&records);
            assert!(verdict.is_ok(), "{name} round {round}: {:?}", verdict.violations);
            // The report's event counter is trace-derived truth.
            assert_eq!(
                report.counter("sim_events"),
                Some(dispatched(&records) as f64),
                "{name} round {round}: sim_events disagrees with the trace"
            );
        }
    }
}

#[test]
fn trace_files_are_deterministic_per_seed_and_round_trip_the_codec() {
    let run = quick_run("urban");
    let seed = round_seed(SEED, 0);
    let (_, first) = run.run_round_traced(0, seed);
    let (_, second) = run.run_round_traced(0, seed);
    assert_eq!(first, second, "the same (round, seed) must emit the same records");

    let bytes = one_frame(0, seed, &first);
    assert_eq!(bytes, one_frame(0, seed, &second), "trace files must be byte-deterministic");
    assert_eq!(records_of(&bytes, 0, seed), first);
    assert_eq!(to_jsonl(&first).lines().count(), first.len(), "one JSONL line per record");

    // A different seed changes the trace, and therefore the file even under
    // the same frame header.
    let (_, other) = run.run_round_traced(0, round_seed(SEED ^ 1, 0));
    assert_ne!(one_frame(0, seed, &other), bytes, "the seed must matter");
}

#[test]
fn rendered_exports_are_identical_with_tracing_on_or_off_at_any_thread_count() {
    let run = quick_run("urban");
    let untraced_serial = run_rounds(run.as_ref(), SEED, 1);
    for threads in [2, 8] {
        assert_eq!(untraced_serial, run_rounds(run.as_ref(), SEED, threads));
    }
    let traced: Vec<RoundReport> = (0..untraced_serial.len() as u32)
        .map(|round| run.run_round_traced(round, round_seed(SEED, round)).0)
        .collect();
    assert_eq!(untraced_serial, traced);
    // Rendered exports — being pure functions of the reports — stay
    // byte-identical too.
    assert_eq!(
        render_table1(&table1(&into_round_results(untraced_serial))),
        render_table1(&table1(&into_round_results(traced))),
    );
}

#[test]
fn settled_multi_ap_final_pass_serves_the_exact_prefix_from_cache() {
    // The fleet-final-pass regression: a settle-capable download served
    // entirely from cache must stop exactly at its settle point, and the
    // event counts of the settled prefix must match the trace.
    let registry = ScenarioRegistry::builtin();
    let scenario = registry.get("multiap").expect("built-in scenario");
    let spec = SweepSpec::new(SEED)
        .axis(Param::FileBlocks, vec![ParamValue::Int(40)])
        .axis(Param::Rounds, vec![ParamValue::Int(12)]);

    let dir = temp_dir("settle");
    let cache = Arc::new(SweepCache::open(&dir).expect("cache opens"));
    let cold = SweepEngine::new(4).with_cache(Arc::clone(&cache)).run(scenario, &spec).unwrap();
    assert!(cold.rounds_simulated > 0);
    assert!(cold.rounds_simulated < 12, "a 40-block download must settle before its budget");

    let warm = SweepEngine::new(4).with_cache(Arc::clone(&cache)).run(scenario, &spec).unwrap();
    assert_eq!(warm.rounds_simulated, 0, "the warm pass must simulate nothing");
    assert!(
        warm.rounds_cached <= cold.rounds_simulated,
        "the cached prefix must not overshoot what the cold run settled at \
         ({} cached vs {} simulated)",
        warm.rounds_cached,
        cold.rounds_simulated,
    );
    assert_eq!(cold.to_csv(), warm.to_csv(), "cache service must not change the export");

    // Trace-derived event counts over the settled prefix: each cached
    // round's report still matches what a traced replay counts.
    let run = quick_run("multiap");
    let base = cold.seeds[0];
    for round in 0..warm.rounds_cached as u32 {
        let (report, records) = run.run_round_traced(round, round_seed(base, round));
        assert_eq!(report.counter("sim_events"), Some(dispatched(&records) as f64));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn highway_invariants_hold_across_configurations() {
    // A handful of real passes across the configuration space: each case
    // is a full highway simulation, so the sampling stays deliberate
    // rather than proptest-sized.
    let registry = ScenarioRegistry::builtin();
    let highway = registry.get("highway").expect("built-in scenario");
    for (seed, speed) in [(SEED, 60.0), (SEED ^ 0xF00D, 90.0), (1, 120.0), (u64::MAX, 140.0)] {
        let point = SweepPoint::new(vec![(Param::SpeedKmh, ParamValue::Float(speed))]);
        let run = highway.configure(&point).expect("schema-valid point");
        let (report, records) = run.run_round_traced(0, seed);
        assert_eq!(report, run.run_round(0, seed), "speed {speed} seed {seed:#x} diverged");
        let verdict = verify(&records);
        assert!(verdict.is_ok(), "speed {speed} seed {seed:#x}: {:?}", verdict.violations);
        assert_eq!(report.counter("sim_events"), Some(dispatched(&records) as f64));
    }
}

fn nanos(at: u64) -> carq_repro::sim::SimTime {
    carq_repro::sim::SimTime::from_nanos(at)
}

proptest! {
    // The invariant checker and the codec as properties: any well-formed
    // stream — sorted timestamps, per-node non-overlapping transmissions,
    // deliveries matching their transmission — verifies cleanly and
    // round-trips the trace file codec exactly; any stream with an
    // out-of-order record appended is rejected.
    #[test]
    fn well_formed_streams_verify_and_round_trip_the_codec(
        raw in proptest::collection::vec(0u64..1_000_000, 1..48),
    ) {
        let mut at = 0u64;
        let mut records = Vec::new();
        for r in &raw {
            at += 1 + r % 50;
            let node = (r % 4) as u32;
            match r % 3 {
                0 => records.push(TraceRecord::EventDispatched {
                    at: nanos(at),
                    queue_depth: (r % 7) as u32,
                }),
                1 => {
                    let until = at + 10;
                    records.push(TraceRecord::TxStart {
                        at: nanos(at),
                        until: nanos(until),
                        node,
                        bits: 1_000,
                    });
                    records.push(TraceRecord::Delivery {
                        at: nanos(at),
                        tx: node,
                        rx: node + 1,
                        received: r % 2 == 0,
                        cached: r % 5 == 0,
                        snr_db: (*r as f64) / 1_000.0,
                    });
                    // The global clock moves past the transmission, so the
                    // node is idle again before it can transmit next.
                    at = until;
                }
                _ => records.push(TraceRecord::CsmaDeferred {
                    at: nanos(at),
                    node,
                    until: nanos(at + 5),
                }),
            }
        }
        let verdict = verify(&records);
        prop_assert!(verdict.is_ok(), "violations: {:?}", verdict.violations);
        let bytes = one_frame(raw.len() as u32, raw[0], &records);
        prop_assert_eq!(records_of(&bytes, raw.len() as u32, raw[0]), records.clone());

        // Mutation: an out-of-order record must trip monotone_timestamps.
        records.push(TraceRecord::EventDispatched { at: nanos(0), queue_depth: 0 });
        let verdict = verify(&records);
        prop_assert!(
            verdict.violations.iter().any(|v| v.invariant == "monotone_timestamps"),
            "out-of-order append not caught: {:?}", verdict.violations
        );
    }
}
