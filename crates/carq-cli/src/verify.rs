//! `carq-cli verify` — replay a scenario with tracing enabled and check
//! the recorded event stream against the protocol invariants.
//!
//! Each verified round runs twice: once through
//! [`ScenarioRun::run_round_traced`] to collect the structured
//! [`TraceRecord`] stream, and once through the plain `run_round` to prove
//! the purity contract (tracing is observation-only — both reports must be
//! identical). The trace then goes through [`vanet_trace::verify()`]'s
//! invariant pass (no overlapping transmissions, packet conservation,
//! monotone timestamps, bounded retransmissions, cache-audit consistency),
//! and the per-round counters in the report are cross-checked against the
//! record stream itself — a mutated counter or a silently dropped record
//! shows up as a mismatch. The invariant catalogue is documented in
//! `docs/OBSERVABILITY.md`.

use std::fmt::Write as _;

use vanet_scenarios::{round_seed, ScenarioRun};
use vanet_stats::RoundReport;
use vanet_trace::TraceRecord;

use crate::cli::{Options, DEFAULT_SEED};
use crate::failure::CliFailure;
use crate::gen_cmd::{scenario_flag, ConfiguredScenario};

/// One failed check, tagged with the round it happened in.
struct Finding {
    round: u32,
    invariant: String,
    detail: String,
}

/// Cross-checks a round's counters against its own trace: the counters are
/// folded from the same code paths that emit the records, so any exact
/// count that disagrees means one side lied. The request/coop counts are
/// only bounded from above — the simulation horizon can cut a scheduled
/// transmission after its counter already advanced.
fn cross_check(round: u32, report: &RoundReport, records: &[TraceRecord], out: &mut Vec<Finding>) {
    let count = |pred: fn(&TraceRecord) -> bool| records.iter().filter(|r| pred(r)).count() as u64;
    let counter = |name: &str| report.counter(name).unwrap_or(0.0) as u64;
    let mut exact = |name: &str, traced: u64| {
        if counter(name) != traced {
            out.push(Finding {
                round,
                invariant: format!("counter_{name}"),
                detail: format!(
                    "counter {name} is {} but the trace holds {traced} matching record(s)",
                    counter(name)
                ),
            });
        }
    };
    exact("sim_events", count(|r| matches!(r, TraceRecord::EventDispatched { .. })));
    exact("medium_frames_sent", count(|r| matches!(r, TraceRecord::TxStart { .. })));
    exact("csma_deferrals", count(|r| matches!(r, TraceRecord::CsmaDeferred { .. })));
    let evicted: u64 = records
        .iter()
        .map(|r| match r {
            TraceRecord::BufferStore { evicted, .. } => u64::from(*evicted),
            _ => 0,
        })
        .sum();
    exact("buffer_evictions", evicted);
    exact("strategy_decisions", count(|r| matches!(r, TraceRecord::StrategyDecision { .. })));
    let mut at_most = |name: &str, traced: u64| {
        if traced > counter(name) {
            out.push(Finding {
                round,
                invariant: format!("counter_{name}"),
                detail: format!(
                    "trace holds {traced} matching record(s) but counter {name} is only {}",
                    counter(name)
                ),
            });
        }
    };
    at_most("requests_sent", count(|r| matches!(r, TraceRecord::ArqRequest { .. })));
    at_most("coop_data_sent", count(|r| matches!(r, TraceRecord::CoopRetransmit { .. })));
}

/// Verifies the first `rounds` rounds of `run`, returning the total record
/// count, the per-invariant checked-record coverage summed across rounds
/// (stable invariant-catalogue order), and every finding. Exposed for the
/// CLI tests.
fn verify_rounds(
    run: &dyn ScenarioRun,
    seed: u64,
    rounds: u32,
) -> (usize, Vec<(&'static str, usize)>, Vec<Finding>) {
    let mut findings = Vec::new();
    let mut records_total = 0usize;
    let mut coverage: Vec<(&'static str, usize)> = Vec::new();
    for round in 0..rounds {
        let round_seed = round_seed(seed, round);
        let (report, records) = run.run_round_traced(round, round_seed);
        records_total += records.len();
        if run.run_round(round, round_seed) != report {
            findings.push(Finding {
                round,
                invariant: "trace_purity".into(),
                detail: "traced and untraced reports differ — tracing perturbed the run".into(),
            });
        }
        let verdict = vanet_trace::verify(&records);
        for (name, checked) in verdict.coverage {
            match coverage.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += checked,
                None => coverage.push((name, checked)),
            }
        }
        for violation in verdict.violations {
            findings.push(Finding {
                round,
                invariant: violation.invariant.to_string(),
                detail: violation.detail,
            });
        }
        cross_check(round, &report, &records, &mut findings);
    }
    (records_total, coverage, findings)
}

/// `carq-cli verify --scenario NAME [--rounds N] [--seed S] [--strategy S]`.
///
/// Exit-code contract: invariant violations (and vacuous passes) are
/// failed *checks* — exit 1 — while flag and setup problems stay usage
/// errors (exit 2).
pub fn verify_cmd(opts: &Options) -> Result<(), CliFailure> {
    opts.refuse_unknown(&["scenario", "rounds", "seed", "strategy"], None)?;
    // Registered names and `carq-cli gen emit` scenario files both resolve.
    // The recovery strategy is the one point override verify accepts: the
    // invariant catalogue is strategy-generic, so each rival scheme must
    // hold up under the same checks as the paper's C-ARQ.
    let scenario = ConfiguredScenario::new(opts, scenario_flag(opts, "verify")?, Some("strategy"))?;
    let (name, configuration) = (&scenario.name, &scenario.configuration);
    let rounds = scenario.rounds(opts)?;
    let seed = opts.seed("seed", DEFAULT_SEED)?;
    eprintln!("verify: {name}: {rounds} round(s), {configuration}, seed {seed:#x}");
    let (records_total, coverage, findings) = verify_rounds(scenario.run.as_ref(), seed, rounds);
    for finding in &findings {
        eprintln!(
            "verify: round {}: {} violated: {}",
            finding.round, finding.invariant, finding.detail
        );
    }
    render_verdict(name, rounds, records_total, &coverage, &findings)
}

/// Turns the collected evidence into the command's verdict. A clean run
/// prints how many records each invariant actually checked — and a "clean"
/// run over **zero** records is refused outright: a pass over an empty
/// stream proves nothing.
fn render_verdict(
    name: &str,
    rounds: u32,
    records_total: usize,
    coverage: &[(&'static str, usize)],
    findings: &[Finding],
) -> Result<(), CliFailure> {
    if !findings.is_empty() {
        return Err(CliFailure::check(format!(
            "{name}: {} invariant violation(s) across {rounds} round(s)",
            findings.len()
        )));
    }
    if records_total == 0 {
        return Err(CliFailure::check(format!(
            "{name}: the {rounds} round(s) emitted no trace records — a pass over an empty \
             stream is vacuous (is tracing enabled for this scenario?)"
        )));
    }
    let mut text = String::new();
    for (invariant, checked) in coverage {
        let _ = writeln!(text, "verify:   {invariant:<24} {checked:>8} record(s) checked");
    }
    let _ = writeln!(
        text,
        "verify: {name}: {rounds} round(s), {records_total} trace record(s), \
         all invariants hold"
    );
    crate::output::print(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(items: &[&str]) -> Options {
        let strings: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        Options::parse(&strings).unwrap()
    }

    #[test]
    fn verify_validates_its_flags() {
        let err = verify_cmd(&opts(&[])).unwrap_err();
        assert!(err.message.contains("--scenario"), "{err}");
        assert!(err.message.contains("urban"), "the error lists the known names: {err}");
        assert_eq!(err.exit, crate::failure::EXIT_USAGE, "flag problems are usage errors");
        assert!(verify_cmd(&opts(&["--scenario", "mars"])).is_err());
        assert!(verify_cmd(&opts(&["--bogus", "1"])).is_err());
        assert!(verify_cmd(&opts(&["--scenario", "urban", "--rounds", "0"])).is_err());
        assert!(verify_cmd(&opts(&["--scenario", "urban", "--seed", "nope"])).is_err());
    }

    #[test]
    fn urban_round_passes_every_invariant() {
        assert!(verify_cmd(&opts(&["--scenario", "urban", "--rounds", "1"])).is_ok());
    }

    #[test]
    fn every_strategy_passes_the_invariant_catalogue() {
        for kind in carq::RecoveryStrategyKind::ALL {
            assert!(
                verify_cmd(&opts(&[
                    "--scenario",
                    "urban",
                    "--rounds",
                    "1",
                    "--strategy",
                    kind.name(),
                ]))
                .is_ok(),
                "strategy {kind} violated an invariant"
            );
        }
        // Bad spellings and multi-value lists are rejected.
        assert!(verify_cmd(&opts(&["--scenario", "urban", "--strategy", "psychic-arq"])).is_err());
        let err = verify_cmd(&opts(&["--scenario", "urban", "--strategy", "coop-arq,no-coop"]))
            .unwrap_err();
        assert!(err.message.contains("exactly one"), "{err}");
    }

    /// The decision-before-request invariant is not vacuous: a seeded
    /// mutation (`debug_skip_decision`, mirroring the PR-6
    /// `debug_skip_epoch_bump` pattern) suppresses the decision record and
    /// the checker must flag every downstream request.
    #[test]
    fn decision_invariant_fires_under_the_skip_decision_knob() {
        use vanet_scenarios::urban::{UrbanConfig, UrbanRun};
        let mut cfg = UrbanConfig::paper_testbed().with_rounds(1);
        cfg.carq.debug_skip_decision = true;
        let run = UrbanRun::new(cfg);
        let (report, records) = run.run_round_traced(0, round_seed(99, 0));
        assert!(report.counter("requests_sent").unwrap() > 0.0, "round must actually recover");
        assert_eq!(report.counter("strategy_decisions"), Some(0.0), "knob must suppress counting");
        let verdict = vanet_trace::verify(&records);
        assert!(
            verdict.violations.iter().any(|v| v.invariant == "decision_before_request"),
            "undecided requests must be flagged: {:?}",
            verdict.violations
        );
    }

    /// The per-strategy retransmission bound is not vacuous either: lifting
    /// the fruitless-cycle limit (`debug_ignore_fruitless_limit`) lets a
    /// one-shot strategy keep requesting an unrecoverable packet, and the
    /// checker must flag the overrun.
    #[test]
    fn strategy_bounds_fires_under_the_ignore_fruitless_knob() {
        use vanet_scenarios::urban::{UrbanConfig, UrbanRun};
        let mut cfg = UrbanConfig::paper_testbed().with_rounds(1);
        cfg.carq.strategy = carq::RecoveryStrategyKind::OneHopListen;
        cfg.carq.debug_ignore_fruitless_limit = true;
        let run = UrbanRun::new(cfg);
        let (_, records) = run.run_round_traced(0, round_seed(99, 0));
        let verdict = vanet_trace::verify(&records);
        assert!(
            verdict.violations.iter().any(|v| v.invariant == "strategy_bounds"),
            "an unbounded one-shot strategy must be flagged: {:?}",
            verdict.violations
        );
    }

    #[test]
    fn coverage_sums_across_rounds_in_catalogue_order() {
        let registry = vanet_scenarios::ScenarioRegistry::builtin();
        let point = vanet_scenarios::SweepPoint::empty();
        let run = registry.get("urban").unwrap().configure(&point).unwrap();
        let (records_total, coverage, findings) = verify_rounds(run.as_ref(), 0x2008_1cdc, 2);
        assert!(findings.is_empty(), "urban rounds are invariant-clean");
        assert!(records_total > 0);
        let names: Vec<&str> = coverage.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "monotone_timestamps",
                "tx_overlap",
                "packet_conservation",
                "retransmission_bounds",
                "cache_consistency",
                "decision_before_request",
                "strategy_bounds",
            ],
            "stable catalogue order"
        );
        assert_eq!(coverage[0].1, records_total, "every record is timestamp-checked");
        assert!(coverage.iter().all(|(_, checked)| *checked > 0), "{coverage:?}");
    }

    #[test]
    fn a_clean_verdict_over_zero_records_is_vacuous_and_refused() {
        let err = render_verdict("urban", 3, 0, &[], &[]).unwrap_err();
        assert!(err.message.contains("vacuous"), "{err}");
        assert_eq!(err.exit, crate::failure::EXIT_CHECK_FAILED, "vacuous passes are failed checks");
        // Findings still dominate: a violated run is an error, not vacuous.
        let finding =
            Finding { round: 0, invariant: "tx_overlap".into(), detail: "overlap".into() };
        let err = render_verdict("urban", 1, 10, &[("tx_overlap", 4)], &[finding]).unwrap_err();
        assert!(err.message.contains("1 invariant violation(s)"), "{err}");
        assert_eq!(err.exit, crate::failure::EXIT_CHECK_FAILED);
        // And a real pass with coverage is accepted.
        assert!(render_verdict("urban", 1, 10, &[("tx_overlap", 4)], &[]).is_ok());
    }

    #[test]
    fn generated_scenario_files_verify_too() {
        let path = std::env::temp_dir()
            .join(format!("carq-cli-verify-gen-test-{}.gen", std::process::id()));
        let path_str = path.display().to_string();
        crate::gen_cmd::gen_emit(
            "platoon-merge",
            &opts(&["--feeder_m", "100", "--tail_m", "100", "--out", &path_str]),
        )
        .unwrap();
        assert!(verify_cmd(&opts(&["--scenario", &path_str, "--rounds", "1"])).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn counter_cross_check_catches_a_mutated_report() {
        // A seeded mutation: claim one more simulated event than the trace
        // holds. The cross-check must flag it.
        let report = RoundReport::new(0, 1, vanet_stats::RoundResult::default())
            .with_counter("sim_events", 1.0);
        let mut findings = Vec::new();
        cross_check(0, &report, &[], &mut findings);
        assert!(findings.iter().any(|f| f.invariant == "counter_sim_events"), "not caught");
        // And an undercounted request stream.
        let records = [TraceRecord::ArqRequest {
            at: sim_core::SimTime::from_nanos(5),
            node: 1,
            seqs: 2,
            cooperators: 1,
        }];
        let report = RoundReport::new(0, 1, vanet_stats::RoundResult::default())
            .with_counter("sim_events", 0.0);
        let mut findings = Vec::new();
        cross_check(0, &report, &records, &mut findings);
        assert!(findings.iter().any(|f| f.invariant == "counter_requests_sent"), "not caught");
    }
}
