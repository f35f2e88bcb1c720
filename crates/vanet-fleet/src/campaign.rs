//! Mass campaigns: the rendering side of a generator grid run as a fleet.
//!
//! A campaign is the generated-scenario counterpart of a preset fleet run:
//! instead of partitioning one scenario's parameter grid, it partitions a
//! *population of scenarios* expanded from a [`GenGrid`](vanet_gen::GenGrid)
//! ([`ShardPlan::for_campaign`](crate::ShardPlan::for_campaign)). Shards,
//! workers and merges are the fleet's own: every world's rounds walk
//! through the sweep's point executor against the shard journal under the
//! same content-addressed keys a direct sweep of that world would write,
//! and a generated scenario's cache identity is its *name*, which hashes
//! its regenerable identity, so merges from any worker set are
//! conflict-free. What is campaign-specific is the table: one row per
//! world, which a warm pass over the merged journal renders
//! byte-identically, whatever the worker count.

use std::sync::Arc;

use vanet_cache::SweepCache;
use vanet_gen::GenIdentity;
use vanet_scenarios::{Param, ParamValue, SweepPoint};
use vanet_stats::{CellValue, RecordTable};
use vanet_sweep::{SweepEngine, SweepSpec};

use crate::plan::{FleetError, ScenarioRef};

/// The point every world of a campaign runs at: its generator's default
/// round budget, or the `rounds` override.
pub(crate) fn campaign_point(rounds: Option<u32>) -> SweepPoint {
    match rounds {
        Some(r) => SweepPoint::new(vec![(Param::Rounds, ParamValue::Int(u64::from(r)))]),
        None => SweepPoint::empty(),
    }
}

/// The rendered outcome of a campaign: one row per scenario, plus how much
/// work the rendering pass did (a fully warm campaign renders with zero
/// rounds simulated).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// One row per scenario: identity columns, generator parameters, then
    /// the scenario's aggregated metrics.
    pub table: RecordTable,
    /// Rounds simulated while rendering (0 on a warm cache).
    pub rounds_simulated: usize,
    /// Rounds served from the cache while rendering.
    pub rounds_cached: usize,
}

/// Renders the campaign table by running every identity through the engine
/// against `cache` — on a merged, complete cache this simulates nothing and
/// produces a byte-stable table in identity order.
///
/// # Errors
///
/// Regeneration, engine and cache failures; an identity whose metrics do
/// not line up with the campaign's first row (impossible for a
/// single-generator campaign) is rejected rather than silently misaligned.
pub fn campaign_table(
    identities: &[GenIdentity],
    master_seed: u64,
    rounds: Option<u32>,
    cache: &Arc<SweepCache>,
    threads: usize,
) -> Result<CampaignResult, FleetError> {
    let point = campaign_point(rounds);
    let mut table: Option<RecordTable> = None;
    let mut metric_names: Vec<&'static str> = Vec::new();
    let mut rounds_simulated = 0;
    let mut rounds_cached = 0;
    for identity in identities {
        let scenario = ScenarioRef::Generated(identity.clone()).build()?;
        let spec = SweepSpec::new(master_seed).point(point.clone());
        let result = SweepEngine::new(threads)
            .with_cache(Arc::clone(cache))
            .run(scenario.as_ref(), &spec)
            .map_err(|e| FleetError::Sweep(e.to_string()))?;
        rounds_simulated += result.rounds_simulated;
        rounds_cached += result.rounds_cached;
        let summary = result
            .summaries
            .first()
            .ok_or_else(|| FleetError::Sweep("engine returned no summary".into()))?;

        let table = table.get_or_insert_with(|| {
            let mut columns = vec!["scenario".to_string(), "gen_seed".to_string()];
            columns.extend(identity.params.assignments().iter().map(|(p, _)| p.key().to_string()));
            metric_names = summary.metrics.iter().map(|(name, _)| *name).collect();
            columns.extend(metric_names.iter().map(|name| (*name).to_string()));
            RecordTable::new(columns)
        });
        let expected: Vec<&'static str> = summary.metrics.iter().map(|(name, _)| *name).collect();
        if expected != metric_names {
            return Err(FleetError::Sweep(format!(
                "scenario `{}` reports metrics {:?}, campaign table has {:?}",
                identity.scenario_name(),
                expected,
                metric_names
            )));
        }

        let mut row: Vec<CellValue> =
            vec![identity.scenario_name().into(), format!("{:#018x}", identity.seed).into()];
        row.extend(identity.params.assignments().iter().map(|(_, v)| CellValue::from(*v)));
        row.extend(summary.metrics.iter().map(|(_, value)| CellValue::from(*value)));
        table.push_row(row);
    }
    Ok(CampaignResult {
        table: table.unwrap_or_else(|| RecordTable::new::<String>(vec![])),
        rounds_simulated,
        rounds_cached,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute_shard, ShardPlan};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vanet_gen::GenGrid;

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vanet-campaign-test-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn tiny_grid() -> GenGrid {
        // Small, fast worlds: short merge roads, 1 round each by default.
        GenGrid::new("platoon-merge")
            .unwrap()
            .axis(Param::FeederM, vec![ParamValue::Float(100.0)])
            .unwrap()
            .axis(Param::TailM, vec![ParamValue::Float(100.0), ParamValue::Float(150.0)])
            .unwrap()
            .axis(Param::NRamp, vec![ParamValue::Int(1), ParamValue::Int(2)])
            .unwrap()
    }

    #[test]
    fn covered_scenarios_are_pre_filtered_for_warm_re_runs() {
        let identities = tiny_grid().identities(0xCAFE);
        let plan = ShardPlan::for_campaign(&identities, 0xCAFE, Some(1), 1).unwrap();
        let dir = temp_dir("covered");
        let cache = SweepCache::open(&dir).unwrap();

        // Cold cache: everything remains.
        let (pending, covered) = plan.split_covered(&cache).unwrap();
        assert_eq!((pending.total_units(), covered), (4, 0));
        assert_eq!(pending, plan);

        // Execute a partial shard (the first two worlds only), then the
        // pre-filter drops exactly those.
        let mut partial = plan.shards[0].clone();
        let rest = partial.groups.split_off(2);
        drop(cache);
        execute_shard(&partial, &dir, 1).unwrap();
        let cache = SweepCache::open(&dir).unwrap();
        let (pending, covered) = plan.split_covered(&cache).unwrap();
        assert_eq!((pending.total_units(), covered), (2, 2));
        assert_eq!(pending.shards[0].groups, rest);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_campaign_merges_to_a_byte_stable_warm_table() {
        let identities = tiny_grid().identities(0xFEED);
        let plan = ShardPlan::for_campaign(&identities, 0xFEED, Some(1), 2).unwrap();
        assert_eq!(plan.total_units(), 4);

        let mut shard_dirs = Vec::new();
        for shard in &plan.shards {
            let dir = temp_dir(&format!("shard-{}", shard.index));
            let outcome = execute_shard(shard, &dir, 1).unwrap();
            assert_eq!(outcome.units, shard.groups.len());
            assert_eq!(outcome.rounds_simulated, shard.groups.len(), "1 round each");
            // A killed-and-restarted worker resumes from its journal.
            let again = execute_shard(shard, &dir, 1).unwrap();
            assert_eq!(again.rounds_simulated, 0);
            assert_eq!(again.rounds_cached, shard.groups.len());
            shard_dirs.push(dir);
        }

        let merged_dir = temp_dir("merged");
        let merged = Arc::new(SweepCache::open(&merged_dir).unwrap());
        let report = vanet_cache::merge_into(&merged, &shard_dirs).unwrap();
        assert_eq!(report.records_ingested, 4);

        let warm = campaign_table(&identities, 0xFEED, Some(1), &merged, 1).unwrap();
        assert_eq!(warm.rounds_simulated, 0, "the merged cache covers the campaign");
        assert_eq!(warm.rounds_cached, 4);
        assert_eq!(warm.table.rows().len(), 4);
        assert!(warm.table.columns().iter().any(|c| c == "tail_m"));
        assert!(warm.table.columns().iter().any(|c| c == "loss_after_pct_mean"));

        // Rendering again — and rendering from a monolithic run — is
        // byte-identical.
        let again = campaign_table(&identities, 0xFEED, Some(1), &merged, 2).unwrap();
        assert_eq!(again.table.to_csv(), warm.table.to_csv());
        let mono_dir = temp_dir("mono");
        let mono_cache = Arc::new(SweepCache::open(&mono_dir).unwrap());
        let mono = campaign_table(&identities, 0xFEED, Some(1), &mono_cache, 1).unwrap();
        assert_eq!(mono.rounds_simulated, 4);
        assert_eq!(mono.table.to_csv(), warm.table.to_csv());
        assert_eq!(mono.table.to_json(), warm.table.to_json());

        for dir in shard_dirs.into_iter().chain([merged_dir, mono_dir]) {
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
