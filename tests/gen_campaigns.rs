//! Generated scenarios behave like first-class citizens of the stack:
//!
//! * random generator configurations produce worlds whose traced rounds
//!   pass every protocol invariant, with tracing observation-only;
//! * an identity `(generator, canonical params, gen seed)` is the whole
//!   story — re-instantiation, `VANETGEN1` re-emission and decode all
//!   reproduce the scenario bit-for-bit, and sweep exports over a
//!   generated world do not depend on the engine's thread count;
//! * a campaign (shard → execute → merge → render) yields a byte-stable
//!   table whose warm re-render simulates nothing, independently of how
//!   the population was sharded.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use carq_repro::cache::{merge_into, SweepCache};
use carq_repro::fleet::{campaign_table, execute_shard, ShardPlan};
use carq_repro::gen::{self, GenGrid, GenValue};
use carq_repro::scenarios::{round_seed, Scenario, SweepPoint};
use carq_repro::sweep::{Param, ParamValue, SweepEngine, SweepSpec};

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "carq-gen-campaign-test-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A small world for the sampled generator: every parameter stays inside
/// its schema range and the car counts / road lengths are kept minimal so
/// a round stays cheap under the full proptest case count.
fn small_config(which: usize, cars: u64, speed: f64) -> (&'static str, Vec<(String, GenValue)>) {
    let f = |key: &str, x: f64| (key.to_string(), GenValue::Float(x));
    let i = |key: &str, x: u64| (key.to_string(), GenValue::Int(x));
    match which {
        0 => (
            "grid-city",
            vec![
                i("n_cars", cars),
                f("speed_kmh", speed),
                f("walk_m", 120.0),
                f("ap_rate_pps", 1.0),
            ],
        ),
        1 => (
            "highway-flow",
            vec![
                i("n_cars", cars),
                f("speed_kmh", speed * 2.0),
                f("road_length_m", 250.0),
                f("ap_rate_pps", 1.0),
            ],
        ),
        _ => (
            "platoon-merge",
            vec![
                i("n_main", cars),
                f("speed_kmh", speed),
                f("feeder_m", 120.0),
                f("tail_m", 120.0),
                f("ap_rate_pps", 1.0),
            ],
        ),
    }
}

proptest! {
    /// Satellite: invariant checking over the generated population. Any
    /// sampled generator config must yield a world whose traced round
    /// passes `vanet_trace::verify`, and whose untraced replay returns the
    /// identical report (tracing is observation-only).
    #[test]
    fn generated_worlds_pass_every_trace_invariant(
        which in 0usize..3,
        cars in 1u64..3,
        speed in 20.0f64..60.0,
        gen_seed in 0u64..u64::MAX,
    ) {
        let (generator, assignments) = small_config(which, cars, speed);
        let scenario = gen::instantiate(generator, &assignments, gen_seed)
            .expect("small_config stays inside the schema ranges");
        let run = scenario.configure(&SweepPoint::empty()).expect("empty point is schema-valid");
        let seed = round_seed(gen_seed, 0);
        let (report, records) = run.run_round_traced(0, seed);
        prop_assert!(!records.is_empty(), "{generator}: a round must trace events");
        let verdict = carq_repro::trace::verify(&records);
        let findings: Vec<String> = verdict
            .violations
            .iter()
            .map(|v| format!("{}: {}", v.invariant, v.detail))
            .collect();
        prop_assert!(findings.is_empty(), "{generator} seed {gen_seed:#x}: {findings:?}");
        // Tracing is observation-only: the untraced replay must match.
        prop_assert_eq!(run.run_round(0, seed), report);
    }
}

/// Satellite: the determinism regression. One identity, three independent
/// instantiations — same name, byte-identical `VANETGEN1` emission, and a
/// decode that reproduces the identity exactly.
#[test]
fn identities_reemit_byte_identical_scenario_files() {
    let assignments = vec![
        ("n_cars".to_string(), GenValue::Int(3)),
        ("headway_m".to_string(), GenValue::Float(30.0)),
    ];
    let a = gen::instantiate("highway-flow", &assignments, 0xFEED).unwrap();
    let b = gen::instantiate("highway-flow", &assignments, 0xFEED).unwrap();
    assert_eq!(a.name(), b.name());
    assert_eq!(a.identity(), b.identity());
    let file = gen::encode(a.identity());
    assert_eq!(file, gen::encode(b.identity()), "emission must be byte-stable");
    let decoded = gen::decode(&file).unwrap();
    assert_eq!(decoded.identity(), a.identity());
    assert_eq!(gen::encode(decoded.identity()), file, "decode→encode round-trips bytes");
    // The identity really is the whole story: a different gen seed or a
    // different parameter value is a different scenario name.
    let other_seed = gen::instantiate("highway-flow", &assignments, 0xFEEE).unwrap();
    assert_ne!(other_seed.name(), a.name());
    let other_param =
        gen::instantiate("highway-flow", &[("n_cars".to_string(), GenValue::Int(4))], 0xFEED)
            .unwrap();
    assert_ne!(other_param.name(), a.name());
}

/// Satellite: sweep exports over a generated scenario are identical across
/// 1, 2 and 8 engine threads — the thread-count-independence contract the
/// built-in scenarios already honour extends to generated worlds.
#[test]
fn generated_sweep_exports_are_thread_count_independent() {
    let scenario = gen::instantiate(
        "platoon-merge",
        &[
            ("feeder_m".to_string(), GenValue::Float(100.0)),
            ("tail_m".to_string(), GenValue::Float(100.0)),
        ],
        0xAB,
    )
    .unwrap();
    let spec = SweepSpec::new(0x2008_1cdc)
        .point(SweepPoint::new(vec![(Param::Rounds, ParamValue::Int(2))]));
    let baseline = SweepEngine::new(1).run(&scenario, &spec).unwrap();
    let csv = baseline.to_csv();
    let json = baseline.to_json();
    for threads in [2usize, 8] {
        let result = SweepEngine::new(threads).run(&scenario, &spec).unwrap();
        assert_eq!(result.to_csv(), csv, "{threads}-thread CSV diverged");
        assert_eq!(result.to_json(), json, "{threads}-thread JSON diverged");
    }
}

/// Runs a full campaign pipeline — plan into `shard_count` shards, execute
/// each shard against its own journal, merge, render — and returns the
/// rendered CSV plus the merged cache (for warm-pass assertions).
fn run_campaign(grid: &GenGrid, shard_count: usize, base: &Path) -> (String, Arc<SweepCache>) {
    let identities = grid.identities(0xCA4);
    let plan = ShardPlan::for_campaign(&identities, 0xCA4, Some(1), shard_count).unwrap();
    let mut shard_dirs = Vec::new();
    for shard in &plan.shards {
        let dir = base.join(format!("shard-{:03}", shard.index));
        let outcome = execute_shard(shard, &dir, 1).unwrap();
        assert_eq!(outcome.units, shard.total_units());
        assert_eq!(outcome.rounds_simulated, shard.total_units(), "1 round per scenario");
        shard_dirs.push(dir);
    }
    let merged = Arc::new(SweepCache::open(base.join("merged")).unwrap());
    let report = merge_into(&merged, &shard_dirs).unwrap();
    assert_eq!(report.records_ingested, plan.total_units());
    // Every shard is now fully covered by the merged journal — a warm
    // re-run would spawn no workers.
    let (pending, covered) = plan.split_covered(&merged).unwrap();
    assert!(pending.shards.iter().all(|shard| shard.groups.is_empty()), "work left: {pending:?}");
    assert_eq!(covered, plan.total_units());
    let result = campaign_table(&identities, 0xCA4, Some(1), &merged, 1).unwrap();
    assert_eq!(result.rounds_simulated, 0, "rendering over a merged cache simulates nothing");
    assert_eq!(result.rounds_cached, plan.total_units());
    (result.table.to_csv(), merged)
}

/// Tentpole end-to-end at the library level: the campaign table is
/// byte-stable across re-renders and across different shardings of the
/// same population, and a warm pass serves everything from cache.
#[test]
fn campaigns_merge_to_a_byte_stable_warm_table() {
    let grid = || {
        GenGrid::new("platoon-merge")
            .unwrap()
            .axis(Param::FeederM, vec![ParamValue::Float(100.0), ParamValue::Float(150.0)])
            .unwrap()
            .axis(Param::NRamp, vec![ParamValue::Int(1), ParamValue::Int(2)])
            .unwrap()
    };
    assert_eq!(grid().len(), 4);
    let base3 = temp_dir("shards3");
    let (csv3, merged) = run_campaign(&grid(), 3, &base3);
    assert_eq!(csv3.lines().count(), 1 + 4, "header plus one row per scenario");
    // A second render over the same cache is byte-identical.
    let identities = grid().identities(0xCA4);
    let again = campaign_table(&identities, 0xCA4, Some(1), &merged, 1).unwrap();
    assert_eq!(again.table.to_csv(), csv3);
    assert_eq!(again.rounds_simulated, 0);
    // Sharding the same population differently changes which journal each
    // record passes through, not the rendered bytes.
    let base1 = temp_dir("shards1");
    let (csv1, _) = run_campaign(&grid(), 1, &base1);
    assert_eq!(csv1, csv3, "shard count leaked into the campaign table");
    std::fs::remove_dir_all(&base3).ok();
    std::fs::remove_dir_all(&base1).ok();
}
