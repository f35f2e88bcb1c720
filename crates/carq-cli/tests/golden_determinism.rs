//! Determinism regression suite for the hot-path optimization.
//!
//! `tests/golden/` (repo root) holds exports recorded from the
//! pre-optimization tree (commit `de0003f`), plus a grid-city campaign
//! recorded before the link memo went per-node (commit `48dbaaa`) — see its
//! README for the exact recording commands. The optimized hot path (scratch
//! buffers, shared frames, the dense node table, the link-state memo, the
//! saturated PER) must reproduce every one of them byte for byte, at any
//! thread count. A legitimate
//! semantics-changing PR re-records the snapshots and says so in its
//! description.
//!
//! `strategy_compare_r1.csv` was recorded later, at commit `67181a4`: the
//! preset the warm-journal benchmark serves, one aggregated row per recovery
//! strategy. `multi_ap_r8.csv` and `highway_flow_campaign_r1.csv` were
//! recorded at commit `195769c`, the last state before the shadowing field's
//! waves went to the vector cosine kernel. The three analysis tables
//! (`*_latency_r1.csv`, `*_occupancy_r1.csv`) were recorded at commit
//! `6ee535a`, the last state in which the analysis engine had a round loop
//! and table renderer of its own. `urban_strategies_r2.csv` was recorded at
//! commit `cd2d502`, the last state before the shadowing field was bounded
//! instead of evaluated and the HELLO handler read SNRs only for
//! `StrongestSignal`. `platoon_merge_campaign_r1.csv` and the three `.gen`
//! scenario files were recorded at commit `6bd2a8f`, the last state in which
//! generated worlds had a parameter system of their own.

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn golden(name: &str) -> Vec<u8> {
    let path = golden_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Runs the real binary and returns stdout and stderr, panicking on
/// failure.
fn run_output(args: &[&str]) -> (Vec<u8>, String) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_carq-cli")).args(args).output().expect("carq-cli spawns");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "carq-cli {args:?} failed: {stderr}");
    (out.stdout, stderr)
}

/// Runs the real binary and returns stdout, panicking on failure.
fn run_stdout(args: &[&str]) -> Vec<u8> {
    run_output(args).0
}

fn assert_matches_golden(actual: &[u8], name: &str, context: &str) {
    let expected = golden(name);
    assert!(
        actual == expected.as_slice(),
        "{context} diverged from tests/golden/{name} ({} vs {} bytes):\n--- golden\n{}\n--- got\n{}",
        expected.len(),
        actual.len(),
        String::from_utf8_lossy(&expected[..expected.len().min(600)]),
        String::from_utf8_lossy(&actual[..actual.len().min(600)]),
    );
}

#[test]
fn table1_matches_the_pre_optimization_golden() {
    let out = run_stdout(&["table1", "--rounds", "3"]);
    assert_matches_golden(&out, "table1_r3.txt", "table1 --rounds 3");
}

#[test]
fn figure_series_match_the_pre_optimization_goldens() {
    let reception = run_stdout(&["fig", "reception", "--car", "1", "--rounds", "2"]);
    assert_matches_golden(&reception, "fig_reception_car1_r2.csv", "fig reception");
    let recovery = run_stdout(&["fig", "recovery", "--car", "2", "--rounds", "2"]);
    assert_matches_golden(&recovery, "fig_recovery_car2_r2.csv", "fig recovery");
}

#[test]
fn sweep_exports_match_the_goldens_at_any_thread_count() {
    for threads in ["1", "2", "8"] {
        let csv = run_stdout(&[
            "sweep",
            "run",
            "--preset",
            "urban-platoon",
            "--rounds",
            "1",
            "--threads",
            threads,
            "--seed",
            "0xbeef",
        ]);
        assert_matches_golden(
            &csv,
            "urban_platoon_r1.csv",
            &format!("sweep run at {threads} thread(s)"),
        );
    }
    let json = run_stdout(&[
        "sweep",
        "run",
        "--preset",
        "urban-platoon",
        "--rounds",
        "1",
        "--threads",
        "2",
        "--seed",
        "0xbeef",
        "--format",
        "json",
    ]);
    assert_matches_golden(&json, "urban_platoon_r1.json", "sweep run JSON export");
}

#[test]
fn strategy_compare_export_matches_the_golden() {
    // The preset the warm-journal benchmark serves: all four recovery
    // strategies, so this export also pins each strategy's aggregated row
    // (Table 1's loss columns and the recovery efficiency).
    for threads in ["1", "8"] {
        let csv = run_stdout(&[
            "sweep",
            "run",
            "--preset",
            "strategy-compare",
            "--rounds",
            "1",
            "--threads",
            threads,
            "--seed",
            "0xbeef",
        ]);
        assert_matches_golden(
            &csv,
            "strategy_compare_r1.csv",
            &format!("strategy-compare at {threads} thread(s)"),
        );
    }
}

#[test]
fn urban_strategies_export_matches_the_golden() {
    // The only preset with `StrongestSignal { k: 1 | 2 }` points: its HELLO
    // handlers are the only readers of a HELLO's SNR, so this export pins
    // what `Medium::snr_db` returns for them.
    for threads in ["1", "8"] {
        let csv = run_stdout(&[
            "sweep",
            "run",
            "--preset",
            "urban-strategies",
            "--rounds",
            "2",
            "--threads",
            threads,
            "--seed",
            "0xbeef",
        ]);
        assert_matches_golden(
            &csv,
            "urban_strategies_r2.csv",
            &format!("urban-strategies at {threads} thread(s)"),
        );
    }
}

#[test]
fn fleet_run_export_matches_the_golden_cold_and_warm() {
    // The supervised pipeline end to end: three worker processes, merged
    // shard journals, a final pass from the merged cache. A second run over
    // the same cache finds every unit covered and spawns no worker.
    let cache = std::env::temp_dir().join(format!("carq-golden-fleet-{}", std::process::id()));
    std::fs::remove_dir_all(&cache).ok();
    let args = [
        "fleet",
        "run",
        "--preset",
        "urban-platoon",
        "--rounds",
        "1",
        "--workers",
        "3",
        "--seed",
        "0xbeef",
        "--cache",
        cache.to_str().unwrap(),
    ];
    let (cold, _) = run_output(&args);
    assert_matches_golden(&cold, "urban_platoon_r1.csv", "fleet run, cold");
    let (warm, stderr) = run_output(&args);
    assert_matches_golden(&warm, "urban_platoon_r1.csv", "fleet run, warm");
    assert!(stderr.contains("fleet: 0 worker process(es)"), "{stderr}");
    assert!(
        stderr.contains("final pass: 0 round(s) simulated, 24 served from the merged cache"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&cache).ok();
}

#[test]
fn highway_scenario_export_matches_the_golden() {
    let csv = run_stdout(&[
        "scenario",
        "run",
        "highway",
        "--speed_kmh",
        "80,120",
        "--rounds",
        "2",
        "--threads",
        "1",
    ]);
    assert_matches_golden(&csv, "highway_speed_r2.csv", "scenario run highway");
}

#[test]
fn grid_city_campaign_export_matches_the_golden() {
    // Unlike the urban and highway goldens, where a moving car sits on
    // every link, a grid-city world has links that outlive other nodes'
    // moves: AP↔AP pairs and cars that are parked or not yet started. The
    // pair cache serves those across mobility ticks, so this export pins
    // its per-node invalidation rule.
    let csv = run_stdout(&[
        "campaign",
        "run",
        "--generator",
        "grid-city",
        "--blocks_x",
        "4",
        "--blocks_y",
        "4",
        "--n_cars",
        "8",
        "--n_aps",
        "2,4",
        "--rounds",
        "1",
        "--workers",
        "1",
        "--seed",
        "0x20081cdc",
    ]);
    assert_matches_golden(&csv, "grid_city_campaign_r1.csv", "campaign run grid-city");
}

#[test]
fn multi_ap_scenario_export_matches_the_golden() {
    // The one golden multi-AP world: cars download through several APs with
    // and without cooperation, so its shadowing field is sampled along a
    // longer route than the urban testbed's.
    let csv = run_stdout(&[
        "scenario",
        "run",
        "multi-ap",
        "--rounds",
        "8",
        "--cooperation",
        "true,false",
        "--threads",
        "1",
        "--seed",
        "0xbeef",
    ]);
    assert_matches_golden(&csv, "multi_ap_r8.csv", "scenario run multi-ap");
}

#[test]
fn highway_flow_campaign_export_matches_the_golden() {
    // A 10 km road gives the largest shadowing-field arguments of any
    // shipped world (about 10^4 rad), so this export pins the vector
    // cosine kernel far from the origin.
    let csv = run_stdout(&[
        "campaign",
        "run",
        "--generator",
        "highway-flow",
        "--road_length_m",
        "600,10000",
        "--rounds",
        "1",
        "--workers",
        "1",
        "--seed",
        "0x20081cdc",
    ]);
    assert_matches_golden(&csv, "highway_flow_campaign_r1.csv", "campaign run highway-flow");
}

#[test]
fn platoon_merge_campaign_export_matches_the_golden() {
    // The third generator's golden: a campaign over merge geometry, whose
    // table columns are every world parameter of the generator.
    let csv = run_stdout(&[
        "campaign",
        "run",
        "--generator",
        "platoon-merge",
        "--feeder_m",
        "100,150",
        "--n_ramp",
        "1,2",
        "--rounds",
        "1",
        "--workers",
        "1",
        "--seed",
        "0xCA4",
    ]);
    assert_matches_golden(&csv, "platoon_merge_campaign_r1.csv", "campaign run platoon-merge");
}

#[test]
fn emitted_scenario_files_match_their_goldens() {
    // One world per generator, together covering a choice, a bool and a
    // non-integral float: each file is the world's identity, rendered by
    // the canonical codec, so these pin every kind's encoding and every
    // generator's declaration order.
    for (args, name) in [
        (
            &["grid-city", "--ap_placement", "corner", "--block_m", "95.5", "--seed", "0x20081cdc"]
                [..],
            "grid_city_corner.gen",
        ),
        (
            &["highway-flow", "--bidirectional", "off", "--speed_jitter", "0.1", "--seed", "7"][..],
            "highway_flow_oneway.gen",
        ),
        (
            &["platoon-merge", "--feeder_m", "150", "--n_ramp", "2", "--seed", "0xCA4"][..],
            "platoon_merge.gen",
        ),
    ] {
        let text = run_stdout(&[&["gen", "emit"][..], args].concat());
        assert_matches_golden(&text, name, &format!("gen emit {}", args[0]));
    }
}

#[test]
fn explicit_default_strategy_reproduces_the_pre_strategy_golden() {
    // The recovery-strategy layer's conformance bar at the CLI surface:
    // spelling out the paper's scheme (`--strategy coop-arq`) must be the
    // same experiment as omitting it — same canonical configs, hence the
    // same per-point seeds and metric values as a golden recorded before
    // the `strategy` parameter existed. Sweeping the parameter adds a
    // `strategy` column to the export, so the comparison projects that
    // column out; everything else must match byte for byte.
    let csv = run_stdout(&[
        "scenario",
        "run",
        "highway",
        "--speed_kmh",
        "80,120",
        "--strategy",
        "coop-arq",
        "--rounds",
        "2",
        "--threads",
        "2",
    ]);
    let csv = String::from_utf8(csv).expect("utf-8 export");
    let header = csv.lines().next().expect("non-empty export");
    let drop_idx = header
        .split(',')
        .position(|c| c == "strategy")
        .expect("the swept strategy appears as a column");
    let projected: String = csv
        .lines()
        .map(|line| {
            let kept: Vec<&str> = line
                .split(',')
                .enumerate()
                .filter(|(i, _)| *i != drop_idx)
                .map(|(_, c)| c)
                .collect();
            kept.join(",") + "\n"
        })
        .collect();
    assert_matches_golden(
        projected.as_bytes(),
        "highway_speed_r2.csv",
        "scenario run highway with explicit --strategy coop-arq",
    );
}

#[test]
fn analysis_tables_match_their_goldens_cold_warm_and_at_any_thread_count() {
    // The per-point analysis tables: identity and parameter columns as the
    // sweep export renders them, then the pooled latency or occupancy
    // cells. multiap-blocks is a settle-capable download whose `rounds`
    // column reads 40 on every row: analysis never settles.
    let cases = [
        ("latency", "strategy-compare", "strategy_compare_latency_r1.csv"),
        ("occupancy", "strategy-compare", "strategy_compare_occupancy_r1.csv"),
        ("latency", "multiap-blocks", "multiap_blocks_latency_r1.csv"),
    ];
    for (metric, preset, name) in cases {
        let dir = std::env::temp_dir()
            .join(format!("carq-golden-analysis-{metric}-{preset}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = dir.to_str().expect("a UTF-8 temp path");
        let base = ["analyze", metric, "--preset", preset, "--rounds", "1", "--seed", "0xbeef"];
        let run = |threads: &str, cached: bool| {
            let mut args = base.to_vec();
            args.extend(["--threads", threads]);
            if cached {
                args.extend(["--cache", cache]);
            }
            run_output(&args)
        };
        let context = format!("analyze {metric} --preset {preset}");
        assert_matches_golden(&run("1", false).0, name, &context);
        // A cold fill at 8 threads, then a warm 1-thread pass served
        // entirely from the digest journal.
        assert_matches_golden(&run("8", true).0, name, &format!("{context}, cold"));
        let (warm, stderr) = run("1", true);
        assert!(stderr.contains("analyze: 0 round(s) simulated"), "{context}, warm: {stderr}");
        assert_matches_golden(&warm, name, &format!("{context}, warm"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
