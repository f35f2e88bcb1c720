//! The fault layer's progress counter (`vanet_faults::progress`), which
//! worker heartbeats publish and the fleet supervisor's hang detection
//! reads, advances once for every round a sweep serves or simulates. The
//! counter is process-wide, so this test owns its own test binary.

use std::sync::Arc;

use vanet_scenarios::{round_seed, ParamError, ParamSchema, ParamSpec, Scenario, ScenarioRun};
use vanet_stats::{PointSummary, RoundReport, RoundResult};
use vanet_sweep::{Param, ParamValue, SweepCache, SweepEngine, SweepPoint, SweepSpec};

/// Six cheap rounds whose reports are pure functions of the seed.
struct SixRounds {
    schema: ParamSchema,
}

struct SixRoundsRun;

impl Scenario for SixRounds {
    fn name(&self) -> &'static str {
        "six"
    }

    fn description(&self) -> &'static str {
        "six cheap rounds"
    }

    fn schema(&self) -> &ParamSchema {
        &self.schema
    }

    fn configure(&self, point: &SweepPoint) -> Result<Box<dyn ScenarioRun>, ParamError> {
        self.schema.validate(point)?;
        Ok(Box::new(SixRoundsRun))
    }
}

impl ScenarioRun for SixRoundsRun {
    fn rounds(&self) -> u32 {
        6
    }

    fn run_round(&self, round: u32, seed: u64) -> RoundReport {
        RoundReport::new(round, seed, RoundResult::default()).with_counter("seed", seed as f64)
    }

    fn aggregate(&self, rounds: &[RoundReport]) -> PointSummary {
        PointSummary { metrics: vec![("seed_sum", vanet_stats::counter_total(rounds, "seed"))] }
    }
}

#[test]
fn every_served_or_simulated_round_counts_as_progress() {
    let scenario = SixRounds {
        schema: ParamSchema::new("six", vec![ParamSpec::int(Param::NCars, "cars", 3, 1, 9)]),
    };
    let spec = SweepSpec::new(0x9A0).axis(Param::NCars, vec![ParamValue::Int(3)]);
    let dir = std::env::temp_dir().join(format!("vanet-sweep-progress-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = Arc::new(SweepCache::open(&dir).expect("cache opens"));

    let before = vanet_faults::progress();
    let cold = SweepEngine::new(1).with_cache(Arc::clone(&cache)).run(&scenario, &spec).unwrap();
    assert_eq!((cold.rounds_simulated, cold.rounds_cached), (6, 0));
    assert_eq!(vanet_faults::progress() - before, 6, "six fresh rounds");

    // A hole at round 1: round 0 is served before the first miss, rounds
    // 2..6 after it, in waves that also simulate.
    let plan = vanet_sweep::plan(&scenario, &spec, false).unwrap();
    let hole = plan.cache_key(scenario.name(), 0, 1, round_seed(plan.seeds[0], 1));
    assert!(cache.forget(&hole));
    let before = vanet_faults::progress();
    let patched = SweepEngine::new(1).with_cache(Arc::clone(&cache)).run(&scenario, &spec).unwrap();
    assert_eq!((patched.rounds_simulated, patched.rounds_cached), (1, 5));
    assert_eq!(vanet_faults::progress() - before, 6, "one fresh and five served rounds");
    assert_eq!(patched.to_csv(), cold.to_csv());
    std::fs::remove_dir_all(&dir).ok();
}
