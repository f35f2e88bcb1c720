//! `carqbench`: the CPU-timed, layer-resolved benchmark of the C-ARQ
//! simulator stack.
//!
//! ```text
//! carqbench --workload paper_urban|grid_city|warm_journal|all
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` (the default) measures the end-to-end metrics with tracing
//! off; `--trace 1` runs the layer pass instead. Human-readable lines come
//! first; the last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. A fuller report
//! (provenance, health, failures, spans) is written to
//! `.bench_out/<workload>-seed<N>-trace<T>.json` under the working
//! directory. See `README.md` next to this package for the workloads and
//! metrics.

mod alloc;
mod clock;
mod host;
mod layers;
mod legs;
mod report;
mod stats;
mod world;

use std::path::{Path, PathBuf};

use clock::{measure, Spans};
use legs::{rate, Tally};
use report::{Metric, Provenance};
use world::{Kind, DEFAULT_SEED};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed =
        Args { workloads: Vec::new(), seed: DEFAULT_SEED, seconds: 30.0, trace: false };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" if value == "all" => parsed.workloads = Kind::ALL.to_vec(),
            "--workload" => {
                parsed.workloads =
                    vec![Kind::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?]
            }
            "--seed" => parsed.seed = parse_seed(value)?,
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
        i += 2;
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("bad --seed `{text}`"))
}

/// Removes the run's work directory when the run ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One workload's measurement.
struct Outcome {
    kind: Kind,
    metrics: Vec<Metric>,
    tally: Tally,
    spans: Spans,
    health: Vec<(String, f64)>,
}

fn run_workload(kind: Kind, args: &Args, out_dir: &Path) -> Outcome {
    let work_dir = WorkDir(out_dir.join(format!("work-{}-{}", kind.name(), std::process::id())));
    let _ = std::fs::remove_dir_all(&work_dir.0);
    std::fs::create_dir_all(&work_dir.0).expect("create the work directory");
    let mut tally = Tally::default();
    let mut spans = Spans::default();
    let mut health = Vec::new();
    let started = clock::Stamp::now();
    let metrics = if args.trace {
        layers::layer_pass(
            kind,
            args.seed,
            args.seconds,
            &work_dir.0,
            &mut tally,
            &mut spans,
            &mut health,
        )
    } else {
        end_to_end(kind, args.seed, args.seconds, &work_dir.0, &mut tally, &mut spans, &mut health)
    };
    let mut metrics = metrics;
    legs::reference_probe(kind, &mut tally);
    let run = started.elapsed();
    health.push(("run.cpu_wall_ratio".into(), run.cpu_wall_ratio()));
    metrics.push(
        Metric::new("run_allocations", run.allocs as f64, "count")
            .note(format!("{:.3} CPU s over {:.3} wall s", run.cpu_s(), run.wall_ns as f64 / 1e9))
            .informational(),
    );
    metrics.push(
        Metric::new("failed_share", tally.failed as f64 / tally.attempted.max(1) as f64, "ratio")
            .note(format!("{} of {} checked operations", tally.failed, tally.attempted))
            .informational(),
    );
    Outcome { kind, metrics, tally, spans, health }
}

/// The legs the untraced measurement interleaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    Setup,
    Sim,
    Traced,
    Write,
    Read,
    /// The host-speed kernel (see `host`).
    HostKernel,
}

impl Leg {
    /// The span each step of the leg is recorded under.
    fn span_name(self) -> &'static str {
        match self {
            Leg::Setup => "leg.setup",
            Leg::Sim => "leg.sim",
            Leg::Traced => "leg.traced",
            Leg::Write => "leg.write",
            Leg::Read => "leg.read",
            Leg::HostKernel => "leg.host_kernel",
        }
    }
}

/// Each leg's share of `--seconds`, in wall time.
fn leg_shares(kind: Kind) -> [(Leg, f64); 6] {
    if kind.simulates() {
        [
            (Leg::Setup, 0.001),
            (Leg::Sim, 0.529),
            (Leg::Traced, 0.2),
            (Leg::Write, 0.11),
            (Leg::Read, 0.11),
            (Leg::HostKernel, 0.05),
        ]
    } else {
        [
            (Leg::Setup, 0.2),
            (Leg::Sim, 0.0),
            (Leg::Traced, 0.0),
            (Leg::Write, 0.33),
            (Leg::Read, 0.42),
            (Leg::HostKernel, 0.05),
        ]
    }
}

/// Steps every leg takes at least, so each percentile has a base.
const MIN_STEPS: usize = 3;

/// Every leg after its first step.
struct FirstSteps {
    setup: legs::Setup,
    setup_cpu_ms: f64,
    /// The cold exports every read is checked against.
    cold: (String, String),
    /// The journals the read leg serves.
    merged: PathBuf,
    sim: legs::SimLeg,
    traced: legs::TracedLeg,
    write: legs::WriteLeg,
    read: legs::ReadLeg,
}

/// Set-up, the cold exports, and the first step of every leg of `kind`
/// (the simulating workloads' first passes fill the journals the write and
/// read legs use).
fn first_steps(
    kind: Kind,
    seed: u64,
    work_dir: &Path,
    tally: &mut Tally,
    spans: &mut Spans,
) -> FirstSteps {
    let (setup, setup_cost) = measure(|| legs::set_up(kind, seed, &work_dir.join("setup"), spans));
    let cold = legs::cold_exports(&setup.world);
    let mut sim = legs::SimLeg::default();
    let mut traced = legs::TracedLeg::default();
    if let Some(plan) = &setup.plan {
        sim.step(kind, plan, tally);
        traced.step(plan, &sim.hashes, tally);
        legs::fill_journals(&setup, plan, &sim.reports, &traced.digests);
    }
    let merged = work_dir.join("merged");
    let mut write = legs::WriteLeg::default();
    write.step(&setup.shard_dirs, &merged, spans);
    let mut read = legs::ReadLeg::default();
    read.step(&setup.world, &merged, &cold, tally, spans);
    let setup_cpu_ms = setup_cost.cpu_ns as f64 / 1e6;
    FirstSteps { setup, setup_cpu_ms, cold, merged, sim, traced, write, read }
}

/// The untraced measurement. Peak memory is the high-water mark after the
/// first steps at [`DEFAULT_SEED`], read before any seeded work: the mark
/// is set by the largest trace buffer, whose capacity doubles, so at
/// varying seeds it jumps between two levels. Then, after the first steps
/// at `seed`, the legs' steps are interleaved until `seconds` of wall time
/// is spent, always running the leg furthest behind its share, so every
/// leg samples the whole measurement window. Set-up repeats as a leg of its
/// own.
fn end_to_end(
    kind: Kind,
    seed: u64,
    seconds: f64,
    work_dir: &Path,
    tally: &mut Tally,
    spans: &mut Spans,
    health: &mut Vec<(String, f64)>,
) -> Vec<Metric> {
    let probe_dir = work_dir.join("memory-probe");
    spans.span("memory-probe", |s| drop(first_steps(kind, DEFAULT_SEED, &probe_dir, tally, s)));
    let peak_rss = report::status_mib("VmHWM");
    std::fs::remove_dir_all(probe_dir).expect("remove the memory probe's journals");

    let FirstSteps { setup, setup_cpu_ms, cold, merged, mut sim, mut traced, mut write, mut read } =
        first_steps(kind, seed, work_dir, tally, spans);
    let mut setup_cpu_ms = vec![setup_cpu_ms];
    let world = &setup.world;
    let shares: Vec<(Leg, f64)> =
        leg_shares(kind).into_iter().filter(|(_, share)| *share > 0.0).collect();
    let mut spent_ns = vec![0u64; shares.len()];
    // Every leg but the host kernel has taken its first step above.
    let mut steps: Vec<usize> =
        shares.iter().map(|(leg, _)| usize::from(*leg != Leg::HostKernel)).collect();
    let mut kernel = host::Kernel::default();
    let started = clock::Stamp::now();
    loop {
        let behind = shares.iter().enumerate().find(|(i, _)| steps[*i] < MIN_STEPS).map(|(i, _)| i);
        let out_of_time = started.elapsed().wall_ns as f64 >= seconds * 1e9;
        let next = match behind {
            Some(i) => i,
            None if out_of_time => break,
            None => (0..shares.len())
                .min_by(|&a, &b| {
                    let lag = |i: usize| spent_ns[i] as f64 / shares[i].1;
                    lag(a).total_cmp(&lag(b))
                })
                .expect("at least one leg"),
        };
        let step_started = clock::Stamp::now();
        let leg = shares[next].0;
        spans.span(leg.span_name(), |spans| match leg {
            Leg::Setup => {
                let dir = work_dir.join(format!("setup-{}", setup_cpu_ms.len()));
                let (_, cost) = measure(|| legs::set_up(kind, seed, &dir, spans));
                setup_cpu_ms.push(cost.cpu_ns as f64 / 1e6);
                if dir.exists() {
                    std::fs::remove_dir_all(dir).expect("remove a repeated set-up");
                }
            }
            Leg::Sim => {
                sim.step(kind, setup.plan.as_ref().expect("simulating workloads plan"), tally)
            }
            Leg::Traced => traced.step(
                setup.plan.as_ref().expect("simulating workloads plan"),
                &sim.hashes,
                tally,
            ),
            Leg::Write => {
                let dest = work_dir.join("write");
                write.step(&setup.shard_dirs, &dest, spans);
                std::fs::remove_dir_all(dest).expect("remove a write");
            }
            Leg::Read => read.step(world, &merged, &cold, tally, spans),
            Leg::HostKernel => kernel.step(),
        });
        spent_ns[next] += step_started.elapsed().wall_ns;
        steps[next] += 1;
    }
    for (name, cost) in
        [("sim", sim.cost), ("traced", traced.cost), ("write", write.cost), ("read", read.cost)]
    {
        if cost.wall_ns > 0 {
            health.push((format!("{name}.cpu_wall_ratio"), cost.cpu_wall_ratio()));
        }
    }

    let served = read.rounds_per_iteration as f64;
    let mut m = Vec::new();
    if kind.simulates() {
        let passes = sim.pass_cpu_ms.len();
        m.push(
            Metric::new(
                "rounds_per_cpu_s",
                rate(sim.pass_rounds as f64, &sim.pass_cpu_ms),
                "rounds/s",
            )
            .note(format!("{} rounds per pass at the p10 of {passes} passes", sim.pass_rounds)),
        );
        m.push(Metric::new(
            "events_per_cpu_s",
            rate(sim.pass_events, &sim.pass_cpu_ms),
            "events/s",
        ));
        m.extend(report::round_times(
            &legs::scaled_to_fast_pass(&sim.round_cpu_ms, sim.pass_rounds as usize),
            "simulated rounds, each pass scaled to the p10 pass",
        ));
        m.push(
            Metric::new(
                "allocs_per_round",
                sim.first_pass_allocs as f64 / sim.pass_rounds as f64,
                "count",
            )
            .note(format!("first pass of {} rounds", sim.pass_rounds)),
        );
        m.push(
            Metric::new(
                "traced_rounds_per_cpu_s",
                rate(traced.pass_rounds as f64, &traced.pass_cpu_ms),
                "rounds/s",
            )
            .note(format!("p10 of {} traced passes", traced.pass_cpu_ms.len())),
        );
    } else {
        // warm_journal simulates nothing in its timed legs: its rounds are
        // the rounds the warm sweep serves, and its traced rounds are the
        // digests the warm analysis serves. A read serves its rounds in one
        // call, so the per-round samples are the reads' CPU per served round.
        let per_round: Vec<f64> =
            read.iteration_cpu_ms.iter().map(|ms| ms / served.max(1.0)).collect();
        m.push(
            Metric::new("rounds_per_cpu_s", rate(served, &read.sweep_cpu_ms), "rounds/s")
                .note("rounds served by the warm sweep (open, run, exports)".into()),
        );
        m.push(
            Metric::new(
                "events_per_cpu_s",
                rate(read.events_per_iteration, &read.sweep_cpu_ms),
                "events/s",
            )
            .note("sim_events carried by the served reports".into()),
        );
        m.extend(report::round_times(&per_round, "reads, CPU per served round"));
        m.push(
            Metric::new("allocs_per_round", read.first_allocs as f64 / served.max(1.0), "count")
                .note("first read, per served round".into()),
        );
        m.push(
            Metric::new(
                "traced_rounds_per_cpu_s",
                rate(read.digests_per_iteration as f64, &read.analysis_cpu_ms),
                "rounds/s",
            )
            .note("digests served by the warm analysis (open, run, tables)".into()),
        );
    }
    m.push(
        Metric::new("served_rounds_per_cpu_s", rate(served, &read.iteration_cpu_ms), "rounds/s")
            .note(format!(
                "{served} rounds per read at the p10 of {} reads",
                read.iteration_cpu_ms.len()
            )),
    );
    m.push(
        Metric::new(
            "ingested_rounds_per_cpu_s",
            rate(write.rounds_per_iteration as f64, &write.iteration_cpu_ms),
            "rounds/s",
        )
        .note(format!(
            "{} rounds per write at the p10 of {} writes",
            write.rounds_per_iteration,
            write.iteration_cpu_ms.len()
        )),
    );
    m.push(Metric::new(
        "journal_bytes_per_round",
        write.journal_bytes as f64 / served.max(1.0),
        "bytes",
    ));
    m.push(Metric::new("peak_rss_mib", peak_rss, "MiB").note(format!(
        "VmHWM after the first step of every leg at the default seed {DEFAULT_SEED:#x}"
    )));
    m.push(
        Metric::new("run_vmhwm_mib", report::status_mib("VmHWM"), "MiB")
            .note("VmHWM at the end of the run, seeded legs included".into())
            .informational(),
    );
    m.push(
        Metric::new("setup_s", stats::median(&setup_cpu_ms) / 1e3, "s")
            .note(format!("median CPU time of {} set-ups", setup_cpu_ms.len())),
    );
    let slowdown = kernel.slowdown();
    health.push(("host.slowdown".into(), slowdown));
    m.iter_mut().for_each(|metric| at_reference_speed(metric, slowdown));
    m
}

/// Scales a CPU-time metric to the reference host (see `host`): rates are
/// multiplied by the run's host slowdown and times divided by it. Every
/// end-to-end rate and time is measured in CPU time, so the unit tells
/// which metrics are scaled; counts, bytes and memory are left alone.
fn at_reference_speed(metric: &mut Metric, slowdown: f64) {
    let raw = metric.value;
    match metric.unit {
        "rounds/s" | "events/s" => metric.value *= slowdown,
        "ms" | "s" => metric.value /= slowdown,
        _ => return,
    }
    let sep = if metric.note.is_empty() { "" } else { "; " };
    metric.note = format!("{}{sep}{raw:.6} as measured, host slowdown {slowdown:.4}", metric.note);
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `mallopt` parameter for the arena limit.
const M_ARENA_MAX: i32 = -8;

/// Holds glibc malloc to one arena; its other settings stay at their
/// defaults. The sweep and analysis engines run each call on a fresh scoped
/// thread, and a scope returns before the finished thread has handed its
/// arena back, so with per-thread arenas the number of arenas, and with it
/// the resident memory, varied from run to run at a fixed seed (14 to
/// 19 MiB on warm_journal).
fn one_malloc_arena() {
    // SAFETY: `mallopt` takes two plain integers and only adjusts glibc's
    // allocator parameters; it is called before any thread is spawned.
    unsafe {
        mallopt(M_ARENA_MAX, report::MALLOC_ARENAS);
    }
}

fn main() {
    one_malloc_arena();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("carqbench: {message}");
            std::process::exit(2);
        }
    };
    let provenance = Provenance::collect(args.seed, args.trace);
    println!("{}", provenance.to_json());
    let out_dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out_dir).expect("create .bench_out");

    let mut outcomes = Vec::new();
    for &kind in &args.workloads {
        let outcome = run_workload(kind, &args, &out_dir);
        report::print_human(kind.name(), &outcome.metrics, &outcome.tally, &outcome.health);
        let path = out_dir.join(format!(
            "{}-seed{}-trace{}.json",
            kind.name(),
            args.seed,
            u8::from(args.trace)
        ));
        let full = report::full_report(
            &provenance,
            outcome.kind.name(),
            &outcome.metrics,
            &outcome.tally,
            &outcome.health,
            &outcome.spans,
        );
        if let Err(e) = std::fs::write(&path, full) {
            eprintln!("carqbench: cannot write {}: {e}", path.display());
        }
        outcomes.push(outcome);
    }

    let single = outcomes.len() == 1;
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics = Vec::new();
    for outcome in &outcomes {
        attempted += outcome.tally.attempted;
        failed += outcome.tally.failed;
        let declared = if args.trace { &report::PER_LAYER[..] } else { &report::END_TO_END[..] };
        let ordered = match report::in_declared_order(&outcome.metrics, declared) {
            Ok(ordered) => ordered,
            Err(problem) => {
                eprintln!("carqbench: {}: {problem}", outcome.kind.name());
                std::process::exit(1);
            }
        };
        for mut metric in ordered {
            if !single {
                metric.name = format!("{}.{}", outcome.kind.name(), metric.name);
            }
            metrics.push(metric);
        }
    }
    println!("{}", report::result_line(attempted, failed, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let args = parse_args(&strings(&[
            "--workload",
            "grid_city",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workloads, vec![Kind::GridCity]);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert_eq!(parse_args(&strings(&["--workload", "all"])).unwrap().workloads.len(), 3);
        assert_eq!(parse_seed("0x10"), Ok(16));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "paper_urban", "--trace", "2"],
            &["--workload", "paper_urban", "--seconds", "0"],
            &["--workload"],
            &["--seed", "1"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }
}
