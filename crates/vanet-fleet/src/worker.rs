//! Executing one shard against its own shard journal.
//!
//! A worker is deliberately thin: every group of a shard rebuilds its
//! scenario from its [`ScenarioRef`](crate::ScenarioRef), and every unit is
//! a point walked by the sweep's own point executor ([`walk_points`])
//! against the shard journal, under the same content-addressed keys and
//! with the same wave-by-wave write-back. A full-budget unit walks its
//! whole budget and settles like a sweep; a round-range unit walks only its
//! range and ignores settling. Either way the records landing in the shard
//! journal are byte-identical to the ones the unsharded sweep would have
//! written, which is what makes [`merge_into`](vanet_cache::merge_into) + a
//! final warm pass reproduce the monolithic export exactly. The warm-re-run
//! pre-filter asks the executor's coverage probe ([`would_simulate`]) the
//! same question about the same walk.

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use vanet_cache::SweepCache;
use vanet_scenarios::{Scenario, ScenarioRun};
use vanet_stats::RoundReport;
use vanet_sweep::{walk_points, would_simulate, PointWork, SweepPlan, SweepSpec};

use crate::plan::{FleetError, Shard, ShardPlan, WorkUnit};

/// What a worker did with its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardOutcome {
    /// Work units executed (full-budget points plus round ranges).
    pub units: usize,
    /// Rounds actually simulated (`run_round` calls made).
    pub rounds_simulated: usize,
    /// Rounds already present in the shard journal (a re-run of a killed
    /// worker resumes instead of restarting).
    pub rounds_cached: usize,
}

/// The fleet's point work over a list of units, point `i` of the plan
/// being unit `i`. Nothing folds: the shard journal is the output.
struct Units<'a>(&'a [WorkUnit]);

impl PointWork for Units<'_> {
    type Product = RoundReport;
    type Fold = ();

    fn rounds(&self, index: usize, run: &dyn ScenarioRun) -> Range<u32> {
        match self.0[index].round_range {
            // A range can overshoot a budget that shrank since planning;
            // clamp rather than simulate rounds the sweep will never ask for.
            Some((start, end)) => start..end.min(run.rounds()),
            None => 0..run.rounds(),
        }
    }

    /// Range units ignore settling: a slice from mid-budget cannot judge it.
    fn settled(&self, index: usize, run: &dyn ScenarioRun, so_far: &[RoundReport]) -> bool {
        self.0[index].round_range.is_none() && run.is_settled(so_far)
    }

    fn produce(&self, run: &dyn ScenarioRun, round: u32, seed: u64) -> RoundReport {
        run.run_round(round, seed)
    }

    fn fold(&self, _run: &dyn ScenarioRun, _reports: Vec<RoundReport>) {}
}

/// Plans `units`' points as one spec, so each unit's run, seed and cache
/// keys are the ones the sweep derives.
fn sweep_plan_of(
    scenario: &dyn Scenario,
    master_seed: u64,
    units: &[WorkUnit],
) -> Result<SweepPlan, FleetError> {
    let spec =
        units.iter().fold(SweepSpec::new(master_seed), |spec, unit| spec.point(unit.point.clone()));
    vanet_sweep::plan(scenario, &spec, false).map_err(|e| FleetError::Sweep(e.to_string()))
}

/// Executes `shard` against the journal in `cache_dir`, rebuilding each
/// group's scenario from its reference. `threads` drives the executor (0 =
/// all cores); a shard without units is a successful no-op.
///
/// # Errors
///
/// An unknown preset or generated world, a cache that cannot be opened
/// (including a live concurrent writer on the same directory), and engine
/// or I/O failures.
pub fn execute_shard(
    shard: &Shard,
    cache_dir: impl AsRef<Path>,
    threads: usize,
) -> Result<ShardOutcome, FleetError> {
    let cache =
        Arc::new(SweepCache::open(cache_dir).map_err(|e| FleetError::Cache(e.to_string()))?);
    let mut outcome = ShardOutcome::default();
    for (scenario, units) in &shard.groups {
        let group =
            execute_units(scenario.build()?.as_ref(), shard.master_seed, units, &cache, threads)?;
        outcome.units += group.units;
        outcome.rounds_simulated += group.rounds_simulated;
        outcome.rounds_cached += group.rounds_cached;
    }
    Ok(outcome)
}

/// The scenario-generic execution core behind [`execute_shard`] (and the
/// determinism test suite, which drives it with cheap synthetic
/// scenarios). Results go into `cache` only — a shard has no export of its
/// own; exports come from the merged cache. A re-run of a killed worker
/// resumes from the journal, losing at most one wave per in-flight unit.
pub fn execute_units(
    scenario: &dyn Scenario,
    master_seed: u64,
    units: &[WorkUnit],
    cache: &Arc<SweepCache>,
    threads: usize,
) -> Result<ShardOutcome, FleetError> {
    if units.is_empty() {
        return Ok(ShardOutcome::default());
    }
    // Full-budget units walk before round ranges, which fixes the order a
    // 1-thread worker appends its records in.
    let (full, ranged): (Vec<&WorkUnit>, Vec<&WorkUnit>) =
        units.iter().partition(|unit| unit.round_range.is_none());
    let ordered: Vec<WorkUnit> = full.into_iter().chain(ranged).cloned().collect();
    let plan = sweep_plan_of(scenario, master_seed, &ordered)?;
    let walked = walk_points(scenario.name(), &plan, threads, Some(&**cache), &Units(&ordered))
        .map_err(|e| FleetError::Sweep(e.to_string()))?;
    Ok(ShardOutcome {
        units: units.len(),
        rounds_simulated: walked.rounds_simulated,
        rounds_cached: walked.rounds_cached,
    })
}

/// Partitions `units` into the ones `cache` already fully covers and the
/// ones still needing work, for warm-re-run pre-filtering (see
/// [`ShardPlan::split_covered`]): a run whose merged cache already holds
/// every round of a unit spawns no worker for it. A unit is covered when walking it against `cache` would simulate
/// nothing ([`would_simulate`]): a full-budget unit when its cached prefix
/// reaches the end of its budget or settles first, a round-range unit when
/// every round of its (budget-clamped) range is cached. A settle-capable
/// (multi-AP) unit marked covered therefore has its final pass served
/// entirely from cache, stopping exactly at the settle point.
///
/// # Errors
///
/// [`FleetError::Sweep`] when a unit's point fails the scenario's schema.
pub fn split_covered_units(
    scenario: &dyn Scenario,
    master_seed: u64,
    units: Vec<WorkUnit>,
    cache: &SweepCache,
) -> Result<(Vec<WorkUnit>, usize), FleetError> {
    if units.is_empty() {
        return Ok((units, 0));
    }
    let plan = sweep_plan_of(scenario, master_seed, &units)?;
    let pending: Vec<bool> = (0..units.len())
        .map(|index| would_simulate(scenario.name(), &plan, index, cache, &Units(&units)))
        .collect();
    let covered = pending.iter().filter(|&&pending| !pending).count();
    let remaining = units.into_iter().zip(pending).filter_map(|(unit, p)| p.then_some(unit));
    Ok((remaining.collect(), covered))
}

impl ShardPlan {
    /// [`split_covered_units`] over every group of the plan: the plan left
    /// to run (groups `cache` covers entirely dropped), and how many units
    /// `cache` covers.
    ///
    /// # Errors
    ///
    /// A scenario that cannot be rebuilt, or a point its schema rejects.
    pub fn split_covered(&self, cache: &SweepCache) -> Result<(ShardPlan, usize), FleetError> {
        let mut pending = self.clone();
        let mut covered = 0;
        for shard in &mut pending.shards {
            for (scenario, units) in &mut shard.groups {
                let scenario = scenario.build()?;
                let all = std::mem::take(units);
                let (left, n) =
                    split_covered_units(scenario.as_ref(), shard.master_seed, all, cache)?;
                *units = left;
                covered += n;
            }
            shard.groups.retain(|(_, units)| !units.is_empty());
        }
        Ok((pending, covered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ShardPlan;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vanet_scenarios::round_seed;
    use vanet_sweep::{presets, SweepEngine};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vanet-fleet-worker-test-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn sharded_urban_preset_merges_to_the_monolithic_export() {
        // The whole pipeline at library level, against the real simulator:
        // plan 3 shards, execute each into its own journal, merge, and
        // check the warm engine pass reproduces the monolithic export with
        // zero simulation.
        let (scenario, spec) = presets::find("urban-platoon").unwrap().build(0xF1EE7, 1);
        let reference = SweepEngine::new(2).run(scenario.as_ref(), &spec).unwrap();

        let plan = ShardPlan::for_preset("urban-platoon", 0xF1EE7, 1, 3, None).unwrap();
        let mut shard_dirs = Vec::new();
        for shard in &plan.shards {
            let dir = temp_dir(&format!("shard-{}", shard.index));
            let outcome = execute_shard(shard, &dir, 2).unwrap();
            assert_eq!(outcome.units, shard.total_units());
            assert_eq!(outcome.rounds_simulated, shard.total_units(), "1 round per point");
            assert_eq!(outcome.rounds_cached, 0);
            // A killed-and-restarted worker resumes from its journal.
            let again = execute_shard(shard, &dir, 2).unwrap();
            assert_eq!(again.rounds_simulated, 0);
            assert_eq!(again.rounds_cached, shard.total_units());
            shard_dirs.push(dir);
        }

        let merged_dir = temp_dir("merged");
        let merged = Arc::new(SweepCache::open(&merged_dir).unwrap());
        let report = vanet_cache::merge_into(&merged, &shard_dirs).unwrap();
        assert_eq!(report.records_ingested, 24);
        assert_eq!(report.records_superseded, 0);

        let warm = SweepEngine::new(4)
            .with_cache(Arc::clone(&merged))
            .run(scenario.as_ref(), &spec)
            .unwrap();
        assert_eq!(warm.rounds_simulated, 0, "the merged cache covers the whole sweep");
        assert_eq!(warm.rounds_cached, 24);
        assert_eq!(warm.to_csv(), reference.to_csv());
        assert_eq!(warm.to_json(), reference.to_json());

        for dir in shard_dirs.into_iter().chain([merged_dir]) {
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn covered_units_are_pre_filtered_for_warm_re_runs() {
        let plan = ShardPlan::for_preset("urban-platoon", 0xC0FFEE, 2, 2, None).unwrap();
        let scenario = plan.shards[0].groups[0].0.build().unwrap();
        let shard_units = |shard: &Shard| shard.groups[0].1.clone();
        let dir = temp_dir("covered");
        let cache = Arc::new(SweepCache::open(&dir).unwrap());

        // Cold cache: nothing is covered.
        let units: Vec<WorkUnit> = plan.units().map(|(_, unit)| unit.clone()).collect();
        let (remaining, covered) =
            split_covered_units(scenario.as_ref(), 0xC0FFEE, units.clone(), &cache).unwrap();
        assert_eq!(covered, 0);
        assert_eq!(remaining.len(), 24);
        assert_eq!(plan.split_covered(&cache).unwrap(), (plan.clone(), 0));

        // Execute shard 0, leaving shard 1's units missing.
        let first = shard_units(&plan.shards[0]);
        execute_units(scenario.as_ref(), 0xC0FFEE, &first, &cache, 1).unwrap();
        let (remaining, covered) =
            split_covered_units(scenario.as_ref(), 0xC0FFEE, units.clone(), &cache).unwrap();
        assert_eq!(covered, first.len());
        assert_eq!(remaining, shard_units(&plan.shards[1]));
        let (pending, covered) = plan.split_covered(&cache).unwrap();
        assert_eq!(covered, first.len());
        assert!(pending.shards[0].groups.is_empty(), "a covered group is dropped");
        assert_eq!(pending.shards[1], plan.shards[1]);

        // A fully warm cache covers everything, including round-range units.
        execute_units(scenario.as_ref(), 0xC0FFEE, &shard_units(&plan.shards[1]), &cache, 1)
            .unwrap();
        let (remaining, covered) =
            split_covered_units(scenario.as_ref(), 0xC0FFEE, units, &cache).unwrap();
        assert_eq!((remaining.len(), covered), (0, 24));
        let ranged = ShardPlan::for_preset("urban-platoon", 0xC0FFEE, 2, 2, Some(1)).unwrap();
        let range_units: Vec<WorkUnit> = ranged.units().map(|(_, unit)| unit.clone()).collect();
        assert!(range_units.iter().all(|u| u.round_range.is_some()));
        let (remaining, covered) =
            split_covered_units(scenario.as_ref(), 0xC0FFEE, range_units, &cache).unwrap();
        assert_eq!((remaining.len(), covered), (0, 48), "24 points x 2 one-round ranges");
        let (pending, covered) = ranged.split_covered(&cache).unwrap();
        assert_eq!((pending.total_units(), covered), (0, 48));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn settle_capable_units_are_covered_by_their_settled_prefix() {
        // A 40-block multi-AP download settles before its 12-visit budget.
        // A full-budget unit is covered by exactly the prefix a cold
        // 1-thread run simulated; range units ignore settling.
        use vanet_scenarios::{Param, ParamValue, ScenarioRegistry, SweepPoint};
        let registry = ScenarioRegistry::builtin();
        let scenario = registry.get("multiap").expect("built-in scenario");
        let point = SweepPoint::new(vec![
            (Param::FileBlocks, ParamValue::Int(40)),
            (Param::Rounds, ParamValue::Int(12)),
        ]);
        let spec = SweepSpec::new(0x5E771E).point(point.clone());
        let dir = temp_dir("settle");
        let cache = Arc::new(SweepCache::open(&dir).unwrap());
        let cold = SweepEngine::new(1).with_cache(Arc::clone(&cache)).run(scenario, &spec).unwrap();
        let settled = cold.rounds_simulated;
        assert!((1..12).contains(&settled), "the download settles early, after {settled}");
        assert_eq!(cache.len(), settled, "the journal holds the settled prefix");

        let full = WorkUnit { point: point.clone(), round_range: None };
        let covered = |unit: &WorkUnit| {
            let (remaining, covered) =
                split_covered_units(scenario, 0x5E771E, vec![unit.clone()], &cache).unwrap();
            assert_eq!(remaining.len() + covered, 1);
            covered == 1
        };
        assert!(covered(&full), "the settled prefix covers the whole budget");
        let settled = settled as u32;
        assert!(covered(&WorkUnit { point: point.clone(), round_range: Some((0, settled)) }));
        let past = WorkUnit { point: point.clone(), round_range: Some((settled, 12)) };
        assert!(!covered(&past), "range units ignore settling");

        let plan = vanet_sweep::plan(scenario, &spec, false).unwrap();
        let first = plan.cache_key(scenario.name(), 0, 0, round_seed(plan.seeds[0], 0));
        assert!(cache.forget(&first));
        assert!(!covered(&full), "a missing round 0 precedes any settle");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_shards_are_a_no_op() {
        // Planners never emit an empty shard (a plan holds no more shards
        // than units), but a hand-written shard file may hold no units.
        let empty = Shard { master_seed: 1, index: 0, count: 1, groups: Vec::new() };
        let dir = temp_dir("empty");
        let outcome = execute_shard(&empty, &dir, 1).unwrap();
        assert_eq!(outcome, ShardOutcome::default());
        std::fs::remove_dir_all(&dir).ok();
    }
}
