//! Metrics, provenance and the benchmark's output formats.

use std::fmt::Write as _;

use crate::clock::Spans;
use crate::legs::Tally;
use crate::stats;

/// Version of this harness: bump when workloads, legs or metric
/// definitions change, so two result files say whether they compare.
pub const HARNESS_VERSION: &str = "carqbench/1";

/// Worker threads every leg runs with.
pub const THREADS: usize = 1;

/// The glibc malloc arenas the benchmark allows (`M_ARENA_MAX`). It is
/// recorded with every result because `carq-cli` and library users run
/// with glibc's default, which gives threads arenas of their own.
pub const MALLOC_ARENAS: i32 = 1;

/// The end-to-end metrics every `--trace 0` run reports, with units.
pub const END_TO_END: [(&str, &str); 11] = [
    ("rounds_per_cpu_s", "rounds/s"),
    ("events_per_cpu_s", "events/s"),
    ("round_cpu_ms_p50", "ms"),
    ("round_cpu_ms_tail", "ms"),
    ("allocs_per_round", "count"),
    ("traced_rounds_per_cpu_s", "rounds/s"),
    ("served_rounds_per_cpu_s", "rounds/s"),
    ("ingested_rounds_per_cpu_s", "rounds/s"),
    ("journal_bytes_per_round", "bytes"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every `--trace 1` run reports, with units.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("sim-core.events_per_round", "count"),
    ("sim-core.queue_depth_p50", "count"),
    ("sim-core.push_pop_ns", "ns"),
    ("sim-core.est_share", "ratio"),
    ("vanet-mac.tx_per_round", "count"),
    ("vanet-mac.verdicts_per_tx", "count"),
    ("vanet-mac.pair_cache_hit_share", "ratio"),
    ("vanet-mac.csma_deferrals_per_tx", "count"),
    ("vanet-mac.transmit_ns_per_verdict", "ns"),
    ("vanet-mac.allocs_per_tx", "count"),
    ("vanet-mac.est_share", "ratio"),
    ("vanet-radio.link_state_ns", "ns"),
    ("vanet-radio.sample_from_state_ns", "ns"),
    ("vanet-radio.received_share", "ratio"),
    ("vanet-radio.est_share", "ratio"),
    ("vanet-geo.position_at_ns", "ns"),
    ("vanet-geo.position_queries_per_round", "count"),
    ("vanet-geo.est_share", "ratio"),
    ("carq.strategy_decisions_per_round", "count"),
    ("carq.requests_per_round", "count"),
    ("carq.coop_retransmits_per_round", "count"),
    ("carq.buffer_stores_per_round", "count"),
    ("carq.recovered_per_request", "ratio"),
    ("vanet-scenarios.configure_ms", "ms"),
    ("vanet-scenarios.residual_share", "ratio"),
    ("vanet-gen.instantiate_ms", "ms"),
    ("vanet-trace.records_per_round", "count"),
    ("vanet-trace.traced_overhead", "ratio"),
    ("vanet-trace.verify_us_per_round", "us"),
    ("vanet-analysis.digest_us_per_round", "us"),
    ("vanet-analysis.store_open_ms", "ms"),
    ("vanet-analysis.warm_run_ms", "ms"),
    ("vanet-analysis.merge_us_per_round", "us"),
    ("vanet-analysis.bytes_per_round", "bytes"),
    ("vanet-analysis.latency_matched_share", "ratio"),
    ("vanet-stats.encode_us_per_report", "us"),
    ("vanet-stats.decode_us_per_report", "us"),
    ("vanet-stats.report_bytes", "bytes"),
    ("vanet-stats.render_ms", "ms"),
    ("vanet-sweep.plan_ms", "ms"),
    ("vanet-sweep.warm_run_ms", "ms"),
    ("vanet-sweep.export_ms", "ms"),
    ("vanet-cache.open_ms", "ms"),
    ("vanet-cache.get_us", "us"),
    ("vanet-cache.allocs_per_get", "count"),
    ("vanet-cache.merge_us_per_round", "us"),
    ("vanet-cache.compact_ms", "ms"),
    ("vanet-cache.bytes_per_round", "bytes"),
    ("vanet-fleet.plan_ms", "ms"),
    ("vanet-fleet.execute_shard_s", "s"),
    ("layer-pass.overhead", "ratio"),
];

/// Orders `metrics` by `expected` and checks that the gated ones are
/// exactly the expected names with the expected units.
pub fn in_declared_order(
    metrics: &[Metric],
    expected: &[(&str, &str)],
) -> Result<Vec<Metric>, String> {
    let gated: Vec<&Metric> = metrics.iter().filter(|m| m.gated).collect();
    if gated.len() != expected.len() {
        return Err(format!("{} gated metrics, {} declared", gated.len(), expected.len()));
    }
    expected
        .iter()
        .map(|&(name, unit)| match gated.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit => Ok((*m).clone()),
            Some(m) => Err(format!("{name} has unit {}, declared {unit}", m.unit)),
            None => Err(format!("{name} was not measured")),
        })
        .collect()
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]` only.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Its base or method (sample counts, chosen percentile).
    pub note: String,
    /// Whether it belongs in the result line (the rest are informational).
    pub gated: bool,
}

impl Metric {
    /// A gated metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value, unit, note: String::new(), gated: true }
    }

    /// Attaches a note on the metric's base.
    pub fn note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }

    /// Marks the metric informational: reported, but not in the result line.
    pub fn informational(mut self) -> Metric {
        self.gated = false;
        self
    }
}

/// The median and tail of per-round CPU times.
pub fn round_times(samples_ms: &[f64], what: &str) -> [Metric; 2] {
    let tail = stats::tail(samples_ms);
    [
        Metric::new("round_cpu_ms_p50", stats::median(samples_ms), "ms")
            .note(format!("median of {} {what}", samples_ms.len())),
        Metric::new("round_cpu_ms_tail", tail.value, "ms").note(format!(
            "p{} of {} {what}, {} beyond it",
            tail.percentile, tail.samples, tail.beyond
        )),
    ]
}

/// A memory field of `/proc/self/status` (`VmRSS`, `VmHWM`), MiB.
pub fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where and how a result was produced.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// [`HARNESS_VERSION`].
    pub harness_version: &'static str,
    /// The checkout's commit (short hash), or `unknown` outside a git
    /// checkout.
    pub git_revision: String,
    /// The workload seed.
    pub seed: u64,
    /// CPUs the process may use.
    pub nproc: usize,
    /// Worker threads the legs use.
    pub threads: usize,
    /// Whether this is the layer pass.
    pub trace: bool,
}

impl Provenance {
    /// Collects provenance for this run.
    pub fn collect(seed: u64, trace: bool) -> Provenance {
        Provenance {
            harness_version: HARNESS_VERSION,
            git_revision: git_revision(std::path::Path::new(".git")),
            seed,
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            threads: THREADS,
            trace,
        }
    }

    fn fields(&self) -> String {
        format!(
            "\"harness_version\": \"{}\", \"git_revision\": \"{}\", \"seed\": {}, \"nproc\": {}, \
             \"threads\": {}, \"malloc_arenas\": {}, \"trace\": {}",
            self.harness_version,
            escape(&self.git_revision),
            self.seed,
            self.nproc,
            self.threads,
            MALLOC_ARENAS,
            u8::from(self.trace)
        )
    }

    /// The one-line JSON form printed before the results.
    pub fn to_json(&self) -> String {
        format!("{{\"provenance\": {{{}}}}}", self.fields())
    }
}

/// Resolves `HEAD` by reading the git directory (no process is spawned,
/// and nothing outside the checkout is read).
fn git_revision(git_dir: &std::path::Path) -> String {
    let read = |p: &str| std::fs::read_to_string(git_dir.join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => read(reference).map(|h| h.trim().to_string()).or_else(|| {
            read("packed-refs")?.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        }),
    };
    match hash {
        Some(h) if h.len() >= 7 && h.chars().all(|c| c.is_ascii_hexdigit()) => h[..7].to_string(),
        _ => "unknown".into(),
    }
}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON number: finite values as measured, with all their digits.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, number(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        failed,
        body.join(", ")
    )
}

/// Prints one workload's metrics, failures and health as readable lines.
pub fn print_human(workload: &str, metrics: &[Metric], tally: &Tally, health: &[(String, f64)]) {
    println!("== {workload}");
    for m in metrics {
        let note = if m.note.is_empty() { String::new() } else { format!("  ({})", m.note) };
        println!("{:<42} {:>16.6} {:<9}{note}", m.name, m.value, m.unit);
    }
    println!("checks: {} attempted, {} failed", tally.attempted, tally.failed);
    for failure in tally.failures.iter().take(10) {
        println!("  FAILED: {failure}");
    }
    for (name, ratio) in health {
        let flag = if *ratio < 0.9 {
            "  <- CPU/wall below 0.9: the core was taken away, or the leg waited on I/O"
        } else {
            ""
        };
        println!("health {name:<36} {ratio:.3}{flag}");
    }
}

/// The full JSON report of one workload: provenance, metrics with their
/// notes, checks, health and every span.
pub fn full_report(
    provenance: &Provenance,
    workload: &str,
    metrics: &[Metric],
    tally: &Tally,
    health: &[(String, f64)],
    spans: &Spans,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{\n  {},\n  \"workload\": \"{workload}\",", provenance.fields());
    out.push_str("  \"metrics\": [\n");
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"gated\": {}, \"note\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit,
                m.gated,
                escape(&m.note)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    let _ = write!(
        out,
        "\n  ],\n  \"checks\": {{\"attempted\": {}, \"failed\": {}, \"failures\": [{}]}},\n",
        tally.attempted,
        tally.failed,
        tally
            .failures
            .iter()
            .take(50)
            .map(|f| format!("\"{}\"", escape(f)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let health: Vec<String> =
        health.iter().map(|(k, v)| format!("\"{}\": {}", escape(k), number(*v))).collect();
    let _ = writeln!(out, "  \"health\": {{{}}},", health.join(", "));
    out.push_str("  \"spans\": [\n");
    let origin = spans.all().first().map_or(0, |s| s.start.wall_ns);
    let rows: Vec<String> = spans
        .all()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let cost = spans.cost(i);
            format!(
                "    {{\"id\": {i}, \"name\": \"{}\", \"parent\": {}, \"start_wall_ns\": {}, \
                 \"end_wall_ns\": {}, \"cpu_ns\": {}, \"thread_cpu_ns\": {}, \"self_cpu_ns\": {}, \
                 \"allocs\": {}}}",
                escape(&s.name),
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.start.wall_ns - origin,
                s.end.wall_ns - origin,
                cost.cpu_ns,
                cost.thread_ns,
                spans.self_cpu_ns(i),
                cost.allocs
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
    /// starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_follow_the_naming_rule() {
        for name in ["rounds_per_cpu_s", "vanet-mac.est_share", "sim-core.push_pop_ns"] {
            assert!(valid_name(name), "{name}");
        }
        for name in ["", "_x", "a b", "a/b", "x\"", &"a".repeat(65)] {
            assert!(!valid_name(name), "{name}");
        }
    }

    #[test]
    fn declared_metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let unique: std::collections::BTreeSet<&&str> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "metric names repeat");
    }

    /// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
    fn benchmark_json_list(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key} list"));
        let list = &json[start..];
        let list = &list[..list.find(']').expect("the list closes")];
        let field = |entry: &str, name: &str| -> String {
            let at =
                entry.find(&format!("\"{name}\": \"")).expect("field present") + name.len() + 5;
            entry[at..].split('"').next().expect("closing quote").to_string()
        };
        list.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_measured_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        for (key, declared) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed = benchmark_json_list(&json, key);
            let declared: Vec<(String, String)> =
                declared.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, declared, "{key}");
        }
    }

    #[test]
    fn declared_order_checks_names_and_units() {
        let ok = [
            Metric::new("b", 2.0, "s"),
            Metric::new("a", 1.0, "ms"),
            Metric::new("x", 0.0, "ratio").informational(),
        ];
        let ordered = in_declared_order(&ok, &[("a", "ms"), ("b", "s")]).unwrap();
        assert_eq!(ordered.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(), ["a", "b"]);
        assert!(in_declared_order(&ok, &[("a", "ms"), ("b", "ms")]).is_err());
        assert!(in_declared_order(&ok, &[("a", "ms"), ("c", "s")]).is_err());
        assert!(in_declared_order(&ok, &[("a", "ms")]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(4, 1, &[Metric::new("x", 1.25, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \
             \"metrics\": {\"x\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(result_line(0, 0, &[]).contains("\"correct\": false, \"attempted\": 1"));
    }

    #[test]
    fn git_revision_reads_refs_without_git() {
        let dir = std::path::PathBuf::from(format!(".bench_out/test-git-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("refs/heads")).unwrap();
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(dir.join("refs/heads/main"), "0123456789abcdef\n").unwrap();
        assert_eq!(git_revision(&dir), "0123456");
        std::fs::remove_file(dir.join("refs/heads/main")).unwrap();
        std::fs::write(dir.join("packed-refs"), "fedcba9876543210 refs/heads/main\n").unwrap();
        assert_eq!(git_revision(&dir), "fedcba9");
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(git_revision(&dir), "unknown");
    }
}
