//! Locks the CLI's exit-code contract so chaos scripts and CI can branch
//! on *why* a command failed:
//!
//! | exit | meaning |
//! |------|---------|
//! | 0    | success |
//! | 1    | a check failed (invariant violation, stream divergence, chaos mismatch) |
//! | 2    | usage or operational error |
//! | 3    | degraded: quarantined shard(s), partial export + gap report |
//!
//! The contract is documented in `docs/RESILIENCE.md`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn carq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_carq-cli")).args(args).output().unwrap()
}

/// Refused invocations whose exit code and standard error
/// `tests/golden/cli_errors.txt` pins byte for byte: every unknown-flag
/// site, every positive-count check given 0, bad seeds and formats, missing
/// sources, out-of-range rounds, an unknown scenario, and the flags that
/// belong to the other planner. Each fails before it writes anything, so
/// the unused output paths are never created.
const CLI_ERRORS: &[&str] = &[
    // Unknown flags, one invocation per command that checks them.
    "scenario run urban --bogus 1",
    "sweep run --preset urban-platoon --bogus 1",
    "sweep run --scenario urban",
    "fleet shard --preset urban-platoon --bogus 1",
    "fleet worker --bogus 1",
    "fleet merge --bogus 1",
    "fleet run --preset urban-platoon --bogus 1",
    "cache stats --bogus 1",
    "table1 --bogus 1",
    "fig reception --bogus 1",
    "analyze latency --bogus 1",
    "analyze timeline --bogus 1",
    "analyze diff --bogus 1",
    "verify --bogus 1",
    "trace --bogus 1",
    "campaign plan --generator grid-city --bogus 1",
    "campaign run --generator grid-city --bogus 1",
    "chaos --preset urban-platoon --bogus 1",
    "chaos --generator grid-city --bogus 1",
    "gen emit grid-city --bogus 1",
    // Positive counts, given 0.
    "sweep run --preset urban-platoon --rounds 0",
    "fleet shard --preset urban-platoon --shards 0 --out-dir /tmp/carq-cli-golden-unused",
    "fleet shard --preset urban-platoon --shards 2 --rounds 0 --out-dir /tmp/carq-cli-golden-unused",
    "fleet shard --preset urban-platoon --shards 2 --round-chunk 0 --out-dir /tmp/carq-cli-golden-unused",
    "fleet run --preset urban-platoon --workers 0",
    "table1 --rounds 0",
    "fig recovery --rounds 0",
    "verify --scenario urban --rounds 0",
    "analyze latency --scenario urban --rounds 0",
    "analyze latency --preset strategy-compare --rounds 0",
    "campaign plan --generator grid-city --replicas 0",
    "campaign plan --generator grid-city --shards 0 --out-dir /tmp/carq-cli-golden-unused",
    "campaign plan --generator grid-city --rounds 0 --out-dir /tmp/carq-cli-golden-unused",
    "campaign run --generator grid-city --workers 0",
    "chaos --preset urban-platoon --workers 0",
    "chaos --generator grid-city --replicas 0",
    "fleet run --preset urban-platoon --workers 2 --worker-timeout 0",
    // Seeds and formats.
    "sweep run --preset urban-platoon --seed zz",
    "verify --scenario urban --seed zz",
    "chaos --preset strategy-compare --rounds 1 --fault-seed zz",
    "sweep run --preset urban-platoon --format xml",
    "fleet run --preset urban-platoon --workers 2 --format xml",
    "campaign run --generator grid-city --workers 2 --format xml",
    "analyze latency --scenario urban --format xml",
    // Missing sources.
    "verify",
    "trace --out /tmp/carq-cli-golden-unused.trc",
    "analyze latency",
    "analyze timeline --node 1",
    "analyze diff",
    "fleet shard --shards 2 --out-dir /tmp/carq-cli-golden-unused",
    "fleet run --workers 2",
    "campaign plan --out-dir /tmp/carq-cli-golden-unused",
    "campaign run --workers 2",
    "chaos",
    // Rounds outside the scenario's budget.
    "trace --scenario urban --rounds 0..99 --out /tmp/carq-cli-golden-unused.trc",
    "analyze timeline --scenario urban --node 1 --round 99",
    "analyze diff --scenario urban --round 99",
    // Scenario references and their overrides.
    "verify --scenario mars",
    "trace --scenario mars --out /tmp/carq-cli-golden-unused.trc",
    "analyze latency --scenario mars",
    "verify --scenario urban --strategy psychic",
    "analyze diff --scenario urban --against psychic",
    "analyze latency --preset strategy-compare --strategy no-coop",
    // Each planner refuses the other's source.
    "fleet run --generator grid-city",
    "fleet shard --generator grid-city",
    "campaign run --preset urban-platoon",
    "campaign run --generator grid-city --preset urban-platoon",
    "chaos --preset urban-platoon --generator grid-city",
];

fn cli_errors_golden() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/cli_errors.txt")
}

/// One `CLI_ERRORS` case as the golden records it: the command line, the
/// exit code and the standard error, then a blank line.
fn render_cli_error(case: &str) -> String {
    let out = carq(&case.split_whitespace().collect::<Vec<_>>());
    let code = out.status.code().map_or_else(|| "signal".to_string(), |c| c.to_string());
    format!("$ carq-cli {case}\nexit {code}\n{}\n", String::from_utf8_lossy(&out.stderr))
}

#[test]
fn refusals_match_the_cli_errors_golden() {
    let path = cli_errors_golden();
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let rendered: Vec<String> = CLI_ERRORS.iter().map(|case| render_cli_error(case)).collect();
    for block in &rendered {
        assert!(golden.contains(block.as_str()), "not in the golden:\n{block}");
    }
    assert_eq!(rendered.concat(), golden, "the golden holds other cases or another order");
}

/// Re-records `tests/golden/cli_errors.txt` from the current binary:
/// `cargo test --release -p carq-cli --test exit_codes -- --ignored
/// record_cli_errors_golden`.
#[test]
#[ignore = "records the golden instead of checking it"]
fn record_cli_errors_golden() {
    let rendered: String = CLI_ERRORS.iter().map(|case| render_cli_error(case)).collect();
    std::fs::write(cli_errors_golden(), rendered).unwrap();
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("carq-exit-codes-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn success_exits_zero() {
    let out = carq(&["scenario", "list"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    let out = carq(&["verify", "--scenario", "urban", "--rounds", "2"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn help_after_a_subcommand_prints_usage_and_exits_zero() {
    for args in [
        &["fleet", "run", "--help"][..],
        &["campaign", "worker", "--help"][..],
        &["scenario", "run", "urban", "--help"][..],
        &["trace", "-h"][..],
        &["frobnicate", "--seed", "1", "--help"][..],
    ] {
        let out = carq(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE:"), "{args:?}");
    }
}

#[test]
fn check_failures_exit_one() {
    // Two strategies on one scenario genuinely diverge: exit 1, not 2.
    let out = carq(&[
        "analyze",
        "diff",
        "--scenario",
        "urban",
        "--strategy",
        "coop-arq",
        "--against",
        "no-coop",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("diverge"));
}

#[test]
fn usage_errors_exit_two_with_help_hint() {
    for args in [
        &["no-such-command"][..],
        &["verify"][..],
        &["sweep", "run", "--preset", "urban-platoon", "--bogus", "1"][..],
        &["chaos", "--preset", "urban-platoon", "--generator", "highway-flow"][..],
    ] {
        let out = carq(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("run `carq-cli help` for usage"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_closed_stdout_exits_zero_without_a_panic() {
    // The reader of standard output goes away before the command writes
    // (as `| head -1` does once it has its line): the write fails with
    // `BrokenPipe`, which is the reader's choice, not the command's failure.
    let dir = temp_dir("closed-stdout");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("round5.trc");
    let out = carq(
        &["trace", "--scenario", "urban", "--rounds", "5..6", "--out"]
            .into_iter()
            .chain([trace.to_str().unwrap()])
            .collect::<Vec<_>>(),
    );
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let trace = trace.to_str().unwrap();
    // A journal for the `cache` status commands, and places for the files
    // the planners and the tracer write.
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    let out =
        carq(&["scenario", "run", "urban", "--rounds", "1", "--threads", "1", "--cache", cache]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let merged = dir.join("merged");
    let merged = merged.to_str().unwrap();
    let shards = dir.join("shards");
    let shards = shards.to_str().unwrap();
    let retraced = dir.join("again.trc");
    let retraced = retraced.to_str().unwrap();
    for args in [
        &["cache", "stats", "--cache", cache][..],
        &["cache", "compact", "--cache", cache][..],
        &["fleet", "merge", "--cache", merged, "--from", cache][..],
        &["fleet", "shard", "--preset", "urban-platoon", "--rounds", "1", "--shards", "2"][..],
        &["campaign", "plan", "--generator", "platoon-merge", "--rounds", "1"][..],
        &["verify", "--scenario", "urban", "--rounds", "1"][..],
        &["trace", "--scenario", "urban", "--rounds", "0..1", "--out", retraced][..],
        &["gen", "emit", "platoon-merge", "--n_ramp", "2"][..],
        &["analyze", "timeline", "--trace", trace, "--node", "1", "--round", "5"][..],
        &["analyze", "latency", "--trace", trace][..],
        &["analyze", "occupancy", "--trace", trace][..],
        &["analyze", "diff", "--scenario", "urban"][..],
        &["table1", "--rounds", "1"][..],
        &["fig", "reception", "--car", "1", "--rounds", "1"][..],
        &["scenario", "run", "urban", "--rounds", "1", "--threads", "1"][..],
        &["sweep", "run", "--preset", "urban-platoon", "--rounds", "1", "--threads", "1"][..],
        &["scenario", "list"][..],
        &["scenario", "describe", "urban"][..],
        &["sweep", "list"][..],
        &["gen", "describe", "grid-city"][..],
        &["help"][..],
        &["cache", "clear", "--cache", cache][..],
    ] {
        // The planners take their output directory last.
        let planner =
            args.starts_with(&["fleet", "shard"]) || args.starts_with(&["campaign", "plan"]);
        let out_dir = planner.then_some(["--out-dir", shards]);
        let mut child = Command::new(env!("CARGO_BIN_EXE_carq-cli"))
            .args(args.iter().chain(out_dir.iter().flatten()))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    // The last command that writes its file before printing still wrote it.
    assert!(std::fs::metadata(retraced).is_ok_and(|m| m.len() > 0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_counts_past_the_file_exit_two_without_aborting() {
    // A 12-byte trace file that declares 0xffffffff frames is refused as
    // truncated, as a trace cut mid-record is, before anything is allocated
    // for the count. A bare `CARQTRC1` payload, the retired single-round
    // file, is refused with a hint to re-export it, whatever its count.
    let dir = temp_dir("trace-count");
    std::fs::create_dir_all(&dir).unwrap();
    for (magic, message) in [
        ("CARQTRC1", "re-export round R with `carq-cli trace --rounds R..R+1`"),
        ("CARQTRM1", "truncated"),
    ] {
        let path = dir.join(magic);
        std::fs::write(&path, [magic.as_bytes(), &u32::MAX.to_le_bytes()].concat()).unwrap();
        let out = carq(&["analyze", "occupancy", "--trace", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{magic}: {stderr}");
        assert!(stderr.contains(message), "{magic}: {stderr}");
        assert!(stderr.contains("run `carq-cli help` for usage"), "{magic}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantined_shard_degrades_to_exit_three_with_gap_report() {
    let dir = temp_dir("degraded");
    // A poison plan: worker 1 dies at round 0 on *every* attempt
    // (`attempt=*`), so retries are exhausted and the shard quarantines.
    let plan = "VANETFLT1\n\
                fault_seed=0x0000000000000007\n\
                workers=2\n\
                fault=worker=1;attempt=*;kind=kill-at-round;round=0\n";
    std::fs::create_dir_all(&dir).unwrap();
    let plan_path = dir.join("poison.flt");
    std::fs::write(&plan_path, plan).unwrap();

    let cache = dir.join("cache");
    let out = carq(&[
        "fleet",
        "run",
        "--preset",
        "strategy-compare",
        "--rounds",
        "2",
        "--workers",
        "2",
        "--cache",
        cache.to_str().unwrap(),
        "--faults",
        plan_path.to_str().unwrap(),
        "--max-retries",
        "1",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("quarantined"), "{stderr}");
    let gaps = cache.join("coverage-gaps.json");
    assert!(gaps.exists(), "gap report missing: {stderr}");
    let report = std::fs::read_to_string(&gaps).unwrap();
    assert!(report.contains("\"missing_points\""), "{report}");
    assert!(report.contains("\"worker\": 1"), "{report}");
    // The healthy shard's coverage was still exported.
    assert!(!out.stdout.is_empty(), "partial export missing");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantined_campaign_shard_degrades_to_exit_three_with_gap_report() {
    let dir = temp_dir("degraded-campaign");
    // Two generated worlds on two workers; worker 1 dies at round 0 on
    // every attempt, so its world is missing and the other one exports.
    let plan = "VANETFLT1\n\
                fault_seed=0x0000000000000007\n\
                workers=2\n\
                fault=worker=1;attempt=*;kind=kill-at-round;round=0\n";
    std::fs::create_dir_all(&dir).unwrap();
    let plan_path = dir.join("poison.flt");
    std::fs::write(&plan_path, plan).unwrap();

    let cache = dir.join("cache");
    let out = carq(&[
        "campaign",
        "run",
        "--generator",
        "platoon-merge",
        "--feeder_m",
        "100",
        "--tail_m",
        "100,150",
        "--rounds",
        "1",
        "--workers",
        "2",
        "--cache",
        cache.to_str().unwrap(),
        "--faults",
        plan_path.to_str().unwrap(),
        "--max-retries",
        "1",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("quarantined"), "{stderr}");
    let report = std::fs::read_to_string(cache.join("coverage-gaps.json")).unwrap();
    assert!(report.contains("\"missing_scenarios\": [\"gen/platoon-merge/"), "{report}");
    assert!(report.contains("\"generator\": \"platoon-merge\""), "{report}");
    assert!(report.contains("\"worker\": 1"), "{report}");
    assert!(report.contains("\"covered\": 1"), "{report}");
    // The healthy shard's world was still exported: a header and one row.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 2, "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_converges_and_exits_zero() {
    // Kill + torn-append schedule (no stall, to keep the test fast): the
    // supervised run must heal and converge to the clean run's bytes.
    let dir = temp_dir("chaos-pass");
    std::fs::create_dir_all(&dir).unwrap();
    let plan = "VANETFLT1\n\
                fault_seed=0x00000000000000aa\n\
                workers=2\n\
                fault=worker=0;attempt=0;kind=kill-at-round;round=1\n\
                fault=worker=1;attempt=0;kind=torn-append;append=1;keep=9\n";
    let plan_path = dir.join("kill-torn.flt");
    std::fs::write(&plan_path, plan).unwrap();

    let out = carq(&[
        "chaos",
        "--preset",
        "strategy-compare",
        "--rounds",
        "2",
        "--workers",
        "2",
        "--faults",
        plan_path.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stdout.contains("chaos: PASS"), "{stdout}\n{stderr}");
    assert!(stderr.contains("retrying"), "no visible retry: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
