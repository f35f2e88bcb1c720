//! `carq-cli analyze` — trace-driven analysis of recovery behaviour.
//!
//! Four subcommands over the `vanet-analysis` crate:
//!
//! * `analyze latency` — request-to-repair recovery-latency distributions,
//!   per preset point (`--preset`, the paper-vs-rivals table for
//!   `strategy-compare`) or per round (`--scenario` / `--trace`);
//! * `analyze occupancy` — medium busy fraction, airtime and collision
//!   windows from `tx_start` intervals, same sources;
//! * `analyze timeline` — one node's chronological diary of a round;
//! * `analyze diff` — where two record streams first diverge.
//!
//! A round analysed live (`--scenario`) and the same round replayed from a
//! `CARQTRM1` file (`--trace`) produce byte-identical tables: frames carry
//! `(round, seed)`, and the analysis is a pure function of the record
//! stream. The metric definitions and the record-matching rules are
//! documented in `docs/OBSERVABILITY.md`.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use vanet_analysis::{diff, AnalysisEngine, DigestCodec, RoundDigest};
use vanet_stats::{CellValue, RecordTable};
use vanet_sweep::presets;
use vanet_trace::codec::TRACE_MAGIC;
use vanet_trace::{decode_frames, to_jsonl, TraceFrame, TraceRecord};

use crate::cli::{Options, DEFAULT_SEED, DEFAULT_SWEEP_ROUNDS};
use crate::commands::open_journal;
use crate::failure::CliFailure;
use crate::gen_cmd::ConfiguredScenario;
use crate::output;

/// Routes `analyze SUBCOMMAND` to its implementation. `diff` reports
/// stream divergence as a failed check (exit 1, see `failure.rs`); every
/// other failure here is a usage error.
pub fn analyze_dispatch(args: &[String]) -> Result<(), CliFailure> {
    match args.first().map(String::as_str) {
        Some("latency") => table_cmd(Metric::Latency, &Options::parse(&args[1..])?),
        Some("occupancy") => table_cmd(Metric::Occupancy, &Options::parse(&args[1..])?),
        Some("timeline") => timeline_cmd(&Options::parse(&args[1..])?),
        Some("diff") => diff_cmd(&Options::parse(&args[1..])?),
        other => Err(format!(
            "unknown analyze subcommand `{}` (expected latency, occupancy, timeline or diff)",
            other.unwrap_or("")
        )
        .into()),
    }
}

/// Which table `analyze latency` / `analyze occupancy` renders.
#[derive(Clone, Copy, PartialEq)]
enum Metric {
    Latency,
    Occupancy,
}

/// Loads the frames of a `CARQTRM1` trace file. A bare `CARQTRC1` file is
/// the retired single-round format, which records neither its round nor
/// its seed: it is refused with a hint to re-export it.
fn read_frames(path: &str) -> Result<Vec<TraceFrame>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if bytes.starts_with(TRACE_MAGIC) {
        return Err(format!(
            "{path}: `CARQTRC1` is a retired single-round trace format: re-export round R with \
             `carq-cli trace --rounds R..R+1`"
        ));
    }
    decode_frames(&bytes).map_err(|e| format!("{path}: {e}"))
}

/// The per-round digest table of a single scenario or trace file. The
/// columns deliberately exclude anything a trace file cannot know (scenario
/// name, master seed), so live and replayed analyses are byte-identical.
fn round_table(metric: Metric, digests: &[RoundDigest]) -> RecordTable {
    let mut columns: Vec<String> = ["round", "seed", "records"].map(String::from).to_vec();
    columns.extend(
        match metric {
            Metric::Latency => {
                ["opened", "matched", "unmatched", "p50_ms", "p90_ms", "p99_ms", "max_ms"]
                    .as_slice()
            }
            Metric::Occupancy => {
                ["tx", "collisions", "airtime_ms", "busy_pct", "top_node", "top_share_pct"]
                    .as_slice()
            }
        }
        .iter()
        .map(|s| (*s).to_string()),
    );
    let mut table = RecordTable::new(columns);
    for digest in digests {
        let mut row: Vec<CellValue> = vec![
            digest.round.into(),
            format!("{:#018x}", digest.seed).into(),
            digest.records.into(),
        ];
        match metric {
            Metric::Latency => {
                let l = &digest.latency;
                row.push(l.opened.into());
                row.push(l.matched().into());
                row.push(l.unmatched.into());
                let dist = l.distribution_ms();
                match dist.percentiles() {
                    Some(p) => row.extend([p.p50, p.p90, p.p99, p.max].map(CellValue::Float)),
                    None => row.extend(std::iter::repeat_n(CellValue::from(""), 4)),
                }
            }
            Metric::Occupancy => {
                let o = &digest.occupancy;
                row.push(o.tx_count.into());
                row.push(o.collision_windows.into());
                row.push(CellValue::Float(o.airtime_ms()));
                row.push(CellValue::Float(o.busy_fraction() * 100.0));
                match o.top_talker() {
                    Some((node, share)) => {
                        row.push(node.into());
                        row.push(CellValue::Float(share * 100.0));
                    }
                    None => row.extend([CellValue::from(""), CellValue::from("")]),
                }
            }
        }
        table.push_row(row);
    }
    table
}

/// `analyze latency|occupancy --preset NAME ...` — the per-point table over
/// a preset sweep plan, through the parallel [`AnalysisEngine`].
fn preset_table(metric: Metric, name: &str, opts: &Options) -> Result<RecordTable, String> {
    if opts.get("scenario").is_some() || opts.get("trace").is_some() {
        return Err("--preset, --scenario and --trace are mutually exclusive".into());
    }
    if opts.get("strategy").is_some() {
        return Err("--strategy applies to --scenario analyses; presets fix their own grid".into());
    }
    let preset = presets::find(name)
        .ok_or_else(|| format!("unknown preset `{name}` (see `carq-cli sweep list`)"))?;
    let seed = opts.seed("seed", DEFAULT_SEED)?;
    let rounds = opts.count("rounds")?.unwrap_or(DEFAULT_SWEEP_ROUNDS);
    let (scenario, spec) = preset.build(seed, rounds);
    let threads: usize = opts.get_parsed("threads", 0)?;
    let mut engine = AnalysisEngine::new(threads);
    if let Some(dir) = opts.get("cache") {
        let store = open_journal::<DigestCodec>(dir, "analyze", "digest(s)")?;
        engine = engine.with_store(Arc::new(Mutex::new(store)));
    }
    eprintln!(
        "analyze: {} point(s) of `{}` on {} thread(s), master seed {seed:#x}",
        spec.len(),
        scenario.name(),
        engine.threads(),
    );
    let result = engine.run(scenario.as_ref(), &spec).map_err(|e| e.to_string())?;
    if opts.get("cache").is_some() {
        eprintln!(
            "analyze: {} round(s) simulated, {} served from the digest journal",
            result.rounds_simulated, result.rounds_cached,
        );
    }
    Ok(match metric {
        Metric::Latency => result.latency_table(),
        Metric::Occupancy => result.occupancy_table(),
    })
}

/// `carq-cli analyze latency|occupancy ...` — see the USAGE text.
fn table_cmd(metric: Metric, opts: &Options) -> Result<(), CliFailure> {
    output::emit(opts.get("out"), &render_table(metric, opts)?)
}

/// The table `analyze latency|occupancy` writes.
fn render_table(metric: Metric, opts: &Options) -> Result<String, String> {
    opts.refuse_unknown(
        &[
            "preset", "scenario", "trace", "strategy", "rounds", "seed", "threads", "cache",
            "format", "out",
        ],
        None,
    )?;
    let json = opts.json()?;
    let table = if let Some(name) = opts.get("preset") {
        preset_table(metric, name, opts)?
    } else {
        let frames =
            match (opts.get("scenario"), opts.get("trace")) {
                (Some(_), Some(_)) => {
                    return Err("--scenario and --trace are mutually exclusive".into())
                }
                (Some(reference), None) => {
                    let scenario = ConfiguredScenario::new(opts, reference, Some("strategy"))?;
                    let rounds = scenario.rounds(opts)?;
                    let seed = opts.seed("seed", DEFAULT_SEED)?;
                    scenario.frames(0..rounds, &format!("--rounds {rounds}"), seed)?
                }
                (None, Some(path)) => read_frames(path)?,
                (None, None) => return Err(
                    "analyze needs an input: --preset NAME, --scenario NAME|FILE or --trace FILE"
                        .into(),
                ),
            };
        let digests: Vec<RoundDigest> =
            frames.iter().map(|f| RoundDigest::compute(f.round, f.seed, &f.records)).collect();
        round_table(metric, &digests)
    };
    Ok(if json { table.to_json() } else { table.to_csv() })
}

/// The traced records of round `--round R` of a `--scenario` run, under
/// the strategy `--{strategy_flag}` names, and the run's name and
/// configuration.
fn scenario_round(
    opts: &Options,
    reference: &str,
    strategy_flag: &str,
    round: u32,
) -> Result<(ConfiguredScenario, Vec<TraceRecord>), String> {
    let scenario = ConfiguredScenario::new(opts, reference, Some(strategy_flag))?;
    let seed = opts.seed("seed", DEFAULT_SEED)?;
    let frames = scenario.frames(round..round + 1, &format!("--round {round}"), seed)?;
    let records = frames.into_iter().flat_map(|frame| frame.records).collect();
    Ok((scenario, records))
}

/// `carq-cli analyze timeline --scenario NAME|FILE|--trace FILE --node N`.
fn timeline_cmd(opts: &Options) -> Result<(), CliFailure> {
    output::emit(opts.get("out"), &render_timeline(opts)?)
}

/// The diary `analyze timeline` writes.
fn render_timeline(opts: &Options) -> Result<String, String> {
    opts.refuse_unknown(&["scenario", "trace", "strategy", "node", "round", "seed", "out"], None)?;
    let Some(node_raw) = opts.get("node") else {
        return Err("analyze timeline needs --node N (the node whose diary to render)".into());
    };
    let node: u32 = node_raw.parse().map_err(|_| format!("--node: cannot parse `{node_raw}`"))?;
    let round: u32 = opts.get_parsed("round", 0)?;
    let records = match (opts.get("scenario"), opts.get("trace")) {
        (Some(_), Some(_)) => return Err("--scenario and --trace are mutually exclusive".into()),
        (Some(reference), None) => scenario_round(opts, reference, "strategy", round)?.1,
        (None, Some(path)) => {
            let frames = read_frames(path)?;
            frames
                .into_iter()
                .find(|f| f.round == round)
                .map(|f| f.records)
                .ok_or_else(|| format!("{path}: holds no frame for round {round}"))?
        }
        (None, None) => {
            return Err("analyze timeline needs --scenario NAME|FILE or --trace FILE".into())
        }
    };
    let timeline = vanet_analysis::node_timeline(&records, node);
    if timeline.is_empty() {
        return Err(format!(
            "no record of round {round} involves node {node} ({} record(s) total)",
            records.len()
        ));
    }
    let header = format!(
        "timeline: node {node}, round {round}: {} event(s) of {} record(s)\n",
        timeline.len(),
        records.len()
    );
    Ok(format!("{header}{}", vanet_analysis::render_timeline(&timeline)))
}

/// One side of a diff: its label and its concatenated record stream, from
/// the trace file `--{file_flag}` or else a round of the `--scenario` run
/// under the strategy `--{strategy_flag}` names. `None` without either.
fn diff_side(
    opts: &Options,
    file_flag: &str,
    strategy_flag: &str,
) -> Result<Option<(String, Vec<TraceRecord>)>, String> {
    if let Some(path) = opts.get(file_flag) {
        let records: Vec<TraceRecord> =
            read_frames(path)?.into_iter().flat_map(|f| f.records).collect();
        return Ok(Some((path.to_string(), records)));
    }
    let Some(reference) = opts.get("scenario") else { return Ok(None) };
    let round: u32 = opts.get_parsed("round", 0)?;
    let (scenario, records) = scenario_round(opts, reference, strategy_flag, round)?;
    Ok(Some((format!("{} round {round}, {}", scenario.name, scenario.configuration), records)))
}

/// `carq-cli analyze diff` — compare two record streams: two trace files
/// (`--a FILE --b FILE`) or two deterministic re-runs of a scenario round
/// (`--scenario REF [--strategy X] [--against Y]`; without `--against` the
/// round is compared against its own re-run, proving determinism).
fn diff_cmd(opts: &Options) -> Result<(), CliFailure> {
    opts.refuse_unknown(&["a", "b", "scenario", "strategy", "against", "round", "seed"], None)?;
    if opts.get("scenario").is_some() && (opts.get("a").is_some() || opts.get("b").is_some()) {
        return Err("--scenario and --a/--b are mutually exclusive".into());
    }
    if opts.get("a").is_some() != opts.get("b").is_some() {
        return Err("analyze diff needs both --a FILE and --b FILE".into());
    }
    let Some((label_a, records_a)) = diff_side(opts, "a", "strategy")? else {
        return Err("analyze diff needs --a FILE --b FILE or --scenario NAME|FILE [--strategy X] \
             [--against Y]"
            .into());
    };
    // Side B: the second file, or the scenario re-run under `--against`
    // (defaulting to the same configuration — a determinism self-check).
    let flag = if opts.get("against").is_some() { "against" } else { "strategy" };
    let (label_b, records_b) =
        diff_side(opts, "b", flag)?.expect("side A resolved, so side B must");

    let report = diff(&records_a, &records_b);
    let mut text = format!("a: {} record(s)  ({label_a})\n", report.a_records);
    let _ = writeln!(text, "b: {} record(s)  ({label_b})", report.b_records);
    for (kind, count_a, count_b) in &report.kind_counts {
        let marker = if count_a == count_b { ' ' } else { '!' };
        let _ = writeln!(text, "{marker} {kind:<22} {count_a:>7} {count_b:>7}");
    }
    match &report.first_divergence {
        None => {
            text.push_str("no divergence: the streams are record-for-record identical\n");
            output::print(&text)
        }
        Some(divergence) => {
            let _ = writeln!(text, "first divergence at record {}:", divergence.index);
            for (side, record) in [("a", &divergence.a), ("b", &divergence.b)] {
                match record {
                    Some(r) => {
                        let _ = write!(text, "  {side}: {}", to_jsonl(std::slice::from_ref(r)));
                    }
                    None => {
                        let _ = writeln!(text, "  {side}: <stream ended>");
                    }
                }
            }
            // Divergence is the finding this command exists to detect: a
            // failed check (exit 1), not a usage error, whether or not the
            // reader read the report to its end.
            match output::print(&text) {
                Err(failure) if !failure.is_closed_stdout() => Err(failure),
                _ => Err(CliFailure::check(format!(
                    "streams diverge at record {}",
                    divergence.index
                ))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn strs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    fn opts(items: &[&str]) -> Options {
        Options::parse(&strs(items)).unwrap()
    }

    fn temp_path(tag: &str, ext: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "carq-cli-analyze-test-{tag}-{}-{}.{ext}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn analyze_validates_its_flags() {
        assert!(analyze_dispatch(&strs(&["dance"])).is_err());
        let err = table_cmd(Metric::Latency, &opts(&[])).unwrap_err();
        assert!(err.message.contains("--preset"), "{err}");
        assert!(table_cmd(Metric::Latency, &opts(&["--bogus", "1"])).is_err());
        assert!(table_cmd(Metric::Latency, &opts(&["--preset", "no-such"])).is_err());
        assert!(table_cmd(
            Metric::Latency,
            &opts(&["--preset", "strategy-compare", "--scenario", "urban"])
        )
        .is_err());
        assert!(table_cmd(
            Metric::Latency,
            &opts(&["--scenario", "urban", "--trace", "/tmp/x.trc"])
        )
        .is_err());
        assert!(
            table_cmd(Metric::Latency, &opts(&["--scenario", "urban", "--format", "xml"])).is_err()
        );
        assert!(
            table_cmd(Metric::Latency, &opts(&["--scenario", "urban", "--rounds", "0"])).is_err()
        );
        // timeline needs a node and an input.
        assert!(timeline_cmd(&opts(&[])).is_err());
        assert!(timeline_cmd(&opts(&["--node", "1"])).is_err());
        assert!(timeline_cmd(&opts(&["--node", "nope", "--scenario", "urban"])).is_err());
        // diff needs both sides.
        assert!(diff_cmd(&opts(&[])).is_err());
        assert!(diff_cmd(&opts(&["--a", "/tmp/x.trc"])).is_err());
        assert!(diff_cmd(&opts(&["--scenario", "urban", "--a", "/tmp/x.trc"])).is_err());
    }

    #[test]
    fn per_round_latency_is_identical_live_and_from_a_trace_file() {
        // Trace two framed rounds to a file with `trace --rounds`, then
        // analyze the file and the live scenario: byte-identical tables.
        let trace_file = temp_path("framed", "trc");
        let trace_str = trace_file.display().to_string();
        crate::trace::trace_cmd(&opts(&[
            "--scenario",
            "urban",
            "--rounds",
            "0..2",
            "--out",
            &trace_str,
        ]))
        .unwrap();

        let out_live = temp_path("live", "csv");
        let out_file = temp_path("file", "csv");
        for metric in [Metric::Latency, Metric::Occupancy] {
            table_cmd(
                metric,
                &opts(&[
                    "--scenario",
                    "urban",
                    "--rounds",
                    "2",
                    "--out",
                    &out_live.display().to_string(),
                ]),
            )
            .unwrap();
            table_cmd(
                metric,
                &opts(&["--trace", &trace_str, "--out", &out_file.display().to_string()]),
            )
            .unwrap();
            let live = std::fs::read_to_string(&out_live).unwrap();
            let replayed = std::fs::read_to_string(&out_file).unwrap();
            assert_eq!(live, replayed, "live and replayed analyses must agree");
            assert!(live.starts_with("round,seed,records,"), "{live}");
            assert_eq!(live.lines().count(), 3, "header + 2 rounds: {live}");
        }
        for path in [trace_file, out_live, out_file] {
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn a_one_frame_export_replays_as_its_own_round() {
        // `trace --rounds 5..6` writes one frame, stamped with round 5 and
        // its round seed: replayed, it renders the live run's round-5 row.
        let trace_file = temp_path("one-frame", "trc");
        let trace_str = trace_file.display().to_string();
        crate::trace::trace_cmd(&opts(&[
            "--scenario",
            "urban",
            "--rounds",
            "5..6",
            "--out",
            &trace_str,
        ]))
        .unwrap();
        let out_live = temp_path("live6", "csv");
        let out_file = temp_path("file5", "csv");
        table_cmd(
            Metric::Latency,
            &opts(&[
                "--scenario",
                "urban",
                "--rounds",
                "6",
                "--out",
                &out_live.display().to_string(),
            ]),
        )
        .unwrap();
        table_cmd(
            Metric::Latency,
            &opts(&["--trace", &trace_str, "--out", &out_file.display().to_string()]),
        )
        .unwrap();
        let live = std::fs::read_to_string(&out_live).unwrap();
        let replayed = std::fs::read_to_string(&out_file).unwrap();
        let seed = vanet_scenarios::round_seed(DEFAULT_SEED, 5);
        let row = format!("5,{seed:#018x},");
        let [header, replayed_row] = replayed.lines().collect::<Vec<_>>()[..] else {
            panic!("a header and one row: {replayed}")
        };
        assert!(replayed_row.starts_with(&row), "{replayed_row} is not round 5 at {seed:#x}");
        assert_eq!(live.lines().next(), Some(header));
        assert_eq!(live.lines().nth(6), Some(replayed_row), "live: {live}");

        // The timeline finds round 5 in the file too.
        let timeline = temp_path("timeline5", "txt");
        timeline_cmd(&opts(&[
            "--trace",
            &trace_str,
            "--node",
            "1",
            "--round",
            "5",
            "--out",
            &timeline.display().to_string(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&timeline).unwrap();
        assert!(text.starts_with("timeline: node 1, round 5:"), "{text}");
        for path in [trace_file, out_live, out_file, timeline] {
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn strategy_compare_preset_is_thread_and_cache_invariant() {
        // The acceptance check: `analyze latency --preset strategy-compare`
        // covers all four strategies, byte-identical at 1/2/8 threads, and a
        // warm-cache re-run simulates zero rounds yet renders the same bytes.
        let cache = std::env::temp_dir()
            .join(format!("carq-cli-analyze-test-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&cache).ok();
        let cache_str = cache.display().to_string();
        let out = temp_path("preset", "csv");
        let out_str = out.display().to_string();
        let mut renders = Vec::new();
        for threads in ["1", "2", "8", "1"] {
            // The 4th run re-uses the journal the 3rd populated: warm.
            table_cmd(
                Metric::Latency,
                &opts(&[
                    "--preset",
                    "strategy-compare",
                    "--rounds",
                    "1",
                    "--threads",
                    threads,
                    "--cache",
                    &cache_str,
                    "--out",
                    &out_str,
                ]),
            )
            .unwrap();
            renders.push(std::fs::read_to_string(&out).unwrap());
        }
        assert!(renders.windows(2).all(|w| w[0] == w[1]), "thread/cache-count variance");
        for strategy in ["coop-arq", "no-coop", "net-coded", "one-hop-listen"] {
            assert!(renders[0].contains(strategy), "{strategy} missing:\n{}", renders[0]);
        }
        assert!(renders[0].contains("p99_ms"), "{}", renders[0]);
        // The warm journal really holds every digest of the grid.
        let store = vanet_analysis::AnalysisStore::open(&cache).unwrap();
        assert_eq!(store.len(), 8, "4 strategies x 2 car counts x 1 round");
        std::fs::remove_dir_all(&cache).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn timeline_renders_a_nodes_diary() {
        let out = temp_path("timeline", "txt");
        let out_str = out.display().to_string();
        timeline_cmd(&opts(&["--scenario", "urban", "--node", "0", "--out", &out_str])).unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.starts_with("timeline: node 0, round 0:"), "{text}");
        assert!(text.contains("tx_start"), "the AP transmits in round 0: {text}");
        // A node that does not exist yields an error, not an empty diary.
        assert!(timeline_cmd(&opts(&["--scenario", "urban", "--node", "999"])).is_err());
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn self_diff_reports_no_divergence_and_strategies_diverge() {
        // Determinism self-check: a round diffed against its own re-run.
        diff_cmd(&opts(&["--scenario", "urban"])).unwrap();
        // Cross-strategy: the paper's C-ARQ vs the no-coop ablation must
        // diverge (no cooperative retransmissions at all) — and divergence
        // is a failed check, exit 1.
        let err = diff_cmd(&opts(&[
            "--scenario",
            "urban",
            "--strategy",
            "coop-arq",
            "--against",
            "no-coop",
        ]))
        .unwrap_err();
        assert!(err.message.contains("diverge"), "{err}");
        assert_eq!(err.exit, crate::failure::EXIT_CHECK_FAILED);
        // Bad strategy spellings are rejected.
        assert!(diff_cmd(&opts(&["--scenario", "urban", "--strategy", "psychic"])).is_err());
    }
}
