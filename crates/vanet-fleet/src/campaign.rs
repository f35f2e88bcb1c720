//! Mass campaigns: a generator grid, sharded across worker processes.
//!
//! A campaign is the generated-scenario counterpart of a preset fleet run:
//! instead of partitioning one scenario's parameter grid, it partitions a
//! *population of scenarios* expanded from a [`GenGrid`]. Everything else
//! deliberately reuses the existing machinery:
//!
//! * every scenario runs through [`SweepEngine::with_cache`] against the
//!   shard's own journal, so the records are the same content-addressed
//!   `(scenario name, fingerprint, canonical config, round, seed)` entries
//!   a direct sweep of that scenario would write;
//! * shard journals union with [`vanet_cache::merge_into`] unchanged — a
//!   generated scenario's cache identity is its *name*, which hashes its
//!   regenerable identity, so merges from any worker set are conflict-free;
//! * a warm pass over the merged journal serves every round from cache and
//!   renders the campaign table byte-identically, regardless of how many
//!   workers (or machines) executed the shards.
//!
//! The `VANETCAMP1` shard file stores scenario *identities*, never worlds:
//! a worker regenerates each scenario from `(generator, params, gen seed)`
//! on its own machine, which keeps shard files small and the format stable
//! under generator-internal changes that do not touch identity.

use std::path::Path;
use std::sync::Arc;

use vanet_cache::SweepCache;
use vanet_gen::{instantiate_with, GenGrid, GenIdentity, GenValue, Generator};
use vanet_scenarios::{Param, ParamValue, Scenario, SweepPoint};
use vanet_stats::{CellValue, RecordTable};
use vanet_sweep::{would_simulate, SweepEngine, SweepSpec};

use crate::plan::{FleetError, WorkUnit};
use crate::worker::{sweep_plan_of, ShardOutcome, Units};

/// First line of every campaign shard file; bump on layout changes.
pub const CAMPAIGN_MAGIC: &str = "VANETCAMP1";

fn parse_error(line: usize, message: impl Into<String>) -> FleetError {
    FleetError::Parse { line, message: message.into() }
}

/// One worker's slice of a campaign: a set of scenario identities plus the
/// run parameters shared by the whole campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignShard {
    /// The generator every scenario in the campaign comes from.
    pub generator: &'static str,
    /// The campaign master seed: seeds both the scenario generation (via
    /// [`vanet_gen::scenario_seed`]) and the sweep's per-point round seeds.
    pub master_seed: u64,
    /// Round budget override; `None` runs each scenario's generator
    /// default.
    pub rounds: Option<u32>,
    /// This shard's index, `0..count`.
    pub index: u32,
    /// Total shards in the plan.
    pub count: u32,
    /// The scenario identities this shard executes.
    pub scenarios: Vec<GenIdentity>,
}

impl CampaignShard {
    /// The sweep point every scenario of the campaign runs at.
    fn point(&self) -> SweepPoint {
        match self.rounds {
            Some(r) => SweepPoint::new(vec![(Param::Rounds, ParamValue::Int(u64::from(r)))]),
            None => SweepPoint::empty(),
        }
    }

    /// Renders the shard as a self-describing `VANETCAMP1` file.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(CAMPAIGN_MAGIC);
        out.push('\n');
        out.push_str(&format!("generator={}\n", self.generator));
        out.push_str(&format!("master_seed={:#018x}\n", self.master_seed));
        match self.rounds {
            Some(r) => out.push_str(&format!("rounds={r}\n")),
            None => out.push_str("rounds=default\n"),
        }
        out.push_str(&format!("shard={}/{}\n", self.index, self.count));
        for identity in &self.scenarios {
            out.push_str(&format!(
                "scenario={};gen_seed={:#018x}\n",
                identity.params.canonical(),
                identity.seed
            ));
        }
        out
    }

    /// Parses a `VANETCAMP1` file back into a shard.
    ///
    /// # Errors
    ///
    /// [`FleetError::Parse`] naming the first offending 1-based line:
    /// wrong magic, missing/duplicate/malformed headers, unknown
    /// generators, and scenario lines whose parameters fail the
    /// generator's schema.
    pub fn decode(text: &str) -> Result<Self, FleetError> {
        fn set_once<T>(
            slot: &mut Option<T>,
            value: T,
            line: usize,
            what: &str,
        ) -> Result<(), FleetError> {
            if slot.is_some() {
                return Err(parse_error(line, format!("duplicate `{what}` header")));
            }
            *slot = Some(value);
            Ok(())
        }

        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
        let (line, magic) = lines.next().ok_or_else(|| parse_error(1, "empty shard file"))?;
        if magic != CAMPAIGN_MAGIC {
            return Err(parse_error(
                line,
                format!("expected magic `{CAMPAIGN_MAGIC}`, found `{magic}`"),
            ));
        }

        let mut generator: Option<Generator> = None;
        let mut master_seed = None;
        let mut rounds: Option<Option<u32>> = None;
        let mut shard = None;
        let mut scenarios = Vec::new();

        for (line, text) in lines {
            if text.is_empty() {
                continue;
            }
            let (key, value) = text.split_once('=').ok_or_else(|| {
                parse_error(line, format!("expected `key=value`, found `{text}`"))
            })?;
            match key {
                "generator" => {
                    let found = vanet_gen::generators::find(value)
                        .ok_or_else(|| parse_error(line, format!("unknown generator `{value}`")))?;
                    set_once(&mut generator, found, line, "generator")?;
                }
                "master_seed" => {
                    let hex = value.strip_prefix("0x").ok_or_else(|| {
                        parse_error(
                            line,
                            format!("master_seed must be 0x-prefixed hex, found `{value}`"),
                        )
                    })?;
                    let seed = u64::from_str_radix(hex, 16).map_err(|_| {
                        parse_error(
                            line,
                            format!("master_seed must be 0x-prefixed hex, found `{value}`"),
                        )
                    })?;
                    set_once(&mut master_seed, seed, line, "master_seed")?;
                }
                "rounds" => {
                    let parsed = if value == "default" {
                        None
                    } else {
                        let r: u32 = value.parse().map_err(|_| {
                            parse_error(
                                line,
                                format!("rounds must be `default` or a positive integer, found `{value}`"),
                            )
                        })?;
                        if r == 0 {
                            return Err(parse_error(line, "rounds must be at least 1"));
                        }
                        Some(r)
                    };
                    set_once(&mut rounds, parsed, line, "rounds")?;
                }
                "shard" => {
                    let parsed = value
                        .split_once('/')
                        .and_then(|(i, n)| Some((i.parse::<u32>().ok()?, n.parse::<u32>().ok()?)))
                        .filter(|(i, n)| *n > 0 && i < n)
                        .ok_or_else(|| {
                            parse_error(
                                line,
                                format!("expected `shard=I/N` with I < N, found `{value}`"),
                            )
                        })?;
                    set_once(&mut shard, parsed, line, "shard")?;
                }
                "scenario" => {
                    let generator = generator.as_ref().ok_or_else(|| {
                        parse_error(line, "`scenario` lines must follow the `generator` header")
                    })?;
                    scenarios.push(parse_scenario_line(generator, value, line)?);
                }
                _ => return Err(parse_error(line, format!("unknown header `{key}`"))),
            }
        }

        let generator = generator.ok_or_else(|| parse_error(1, "missing `generator` header"))?;
        let master_seed =
            master_seed.ok_or_else(|| parse_error(1, "missing `master_seed` header"))?;
        let rounds = rounds.ok_or_else(|| parse_error(1, "missing `rounds` header"))?;
        let (index, count) = shard.ok_or_else(|| parse_error(1, "missing `shard` header"))?;
        Ok(CampaignShard {
            generator: generator.name,
            master_seed,
            rounds,
            index,
            count,
            scenarios,
        })
    }
}

/// Parses one `scenario=` line body: `key=canon;…;gen_seed=0x…`.
fn parse_scenario_line(
    generator: &Generator,
    body: &str,
    line: usize,
) -> Result<GenIdentity, FleetError> {
    let mut assignments: Vec<(String, GenValue)> = Vec::new();
    let mut seed = None;
    for part in body.split(';') {
        let (key, value) = part.split_once('=').ok_or_else(|| {
            parse_error(line, format!("expected `key=value` scenario segment, found `{part}`"))
        })?;
        if key == "gen_seed" {
            if seed.is_some() {
                return Err(parse_error(line, "duplicate `gen_seed` segment"));
            }
            let hex = value.strip_prefix("0x").ok_or_else(|| {
                parse_error(line, format!("gen_seed must be 0x-prefixed hex, found `{value}`"))
            })?;
            let parsed = u64::from_str_radix(hex, 16).map_err(|_| {
                parse_error(line, format!("gen_seed must be 0x-prefixed hex, found `{value}`"))
            })?;
            seed = Some(parsed);
            continue;
        }
        let parsed = generator
            .schema()
            .parse_canonical_value(key, value)
            .map_err(|e| parse_error(line, e.to_string()))?;
        if assignments.iter().any(|(k, _)| k == key) {
            return Err(parse_error(line, format!("parameter `{key}` assigned twice")));
        }
        assignments.push((key.to_string(), parsed));
    }
    let seed = seed.ok_or_else(|| parse_error(line, "missing `gen_seed` segment"))?;
    let params =
        generator.schema().resolve(&assignments).map_err(|e| parse_error(line, e.to_string()))?;
    Ok(GenIdentity { generator: generator.name, params, seed })
}

/// A full campaign: every shard, in index order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    /// The shards, `shards[i].index == i`.
    pub shards: Vec<CampaignShard>,
}

impl CampaignPlan {
    /// Expands `grid` under `master_seed` and strides the scenarios across
    /// `shard_count` shards (scenario `i` → shard `i % shard_count`, the
    /// same striding as preset fleet plans).
    ///
    /// # Errors
    ///
    /// [`FleetError::Invalid`] for zero shards or a zero rounds override;
    /// [`FleetError::Sweep`] if grid expansion fails.
    pub fn new(
        grid: &GenGrid,
        master_seed: u64,
        rounds: Option<u32>,
        shard_count: u32,
    ) -> Result<Self, FleetError> {
        if shard_count == 0 {
            return Err(FleetError::Invalid("a campaign needs at least one shard".into()));
        }
        if rounds == Some(0) {
            return Err(FleetError::Invalid("the rounds override must be at least 1".into()));
        }
        let identities =
            grid.identities(master_seed).map_err(|e| FleetError::Sweep(e.to_string()))?;
        let mut shards: Vec<CampaignShard> = (0..shard_count)
            .map(|index| CampaignShard {
                generator: grid.generator().name,
                master_seed,
                rounds,
                index,
                count: shard_count,
                scenarios: Vec::new(),
            })
            .collect();
        for (i, identity) in identities.into_iter().enumerate() {
            shards[i % shard_count as usize].scenarios.push(identity);
        }
        Ok(CampaignPlan { shards })
    }

    /// Total scenarios across all shards.
    pub fn total_scenarios(&self) -> usize {
        self.shards.iter().map(|s| s.scenarios.len()).sum()
    }

    /// Every identity of the campaign, in expansion order (the order the
    /// campaign table renders rows in).
    pub fn identities(&self) -> Vec<GenIdentity> {
        let mut out = Vec::with_capacity(self.total_scenarios());
        let longest = self.shards.iter().map(|s| s.scenarios.len()).max().unwrap_or(0);
        for i in 0..longest {
            for shard in &self.shards {
                if let Some(identity) = shard.scenarios.get(i) {
                    out.push(identity.clone());
                }
            }
        }
        out
    }
}

/// Regenerates one identity into a runnable scenario.
fn regenerate(identity: &GenIdentity) -> Result<vanet_gen::GeneratedScenario, FleetError> {
    let generator = vanet_gen::generators::find(identity.generator)
        .ok_or_else(|| FleetError::Sweep(format!("unknown generator `{}`", identity.generator)))?;
    let assignments: Vec<(String, GenValue)> =
        identity.params.assignments().iter().map(|(k, v)| ((*k).to_string(), *v)).collect();
    instantiate_with(&generator, &assignments, identity.seed)
        .map_err(|e| FleetError::Sweep(e.to_string()))
}

/// Executes a campaign shard against the journal in `cache_dir`,
/// regenerating every scenario from its identity. Each scenario runs
/// through the standard cached engine path, so a killed worker resumes
/// from its journal on re-execution.
///
/// # Errors
///
/// Cache open/write failures, regeneration failures, and engine errors.
pub fn execute_campaign_shard(
    shard: &CampaignShard,
    cache_dir: impl AsRef<Path>,
    threads: usize,
) -> Result<ShardOutcome, FleetError> {
    let cache =
        Arc::new(SweepCache::open(cache_dir).map_err(|e| FleetError::Cache(e.to_string()))?);
    let mut outcome = ShardOutcome { units: shard.scenarios.len(), ..ShardOutcome::default() };
    let point = shard.point();
    for identity in &shard.scenarios {
        let scenario = regenerate(identity)?;
        let spec = SweepSpec::new(shard.master_seed).point(point.clone());
        let result = SweepEngine::new(threads)
            .with_cache(Arc::clone(&cache))
            .run(&scenario, &spec)
            .map_err(|e| FleetError::Sweep(e.to_string()))?;
        outcome.rounds_simulated += result.rounds_simulated;
        outcome.rounds_cached += result.rounds_cached;
    }
    Ok(outcome)
}

/// Partitions a shard's scenarios into the ones `cache` already fully
/// covers and the ones still needing work — the campaign counterpart of
/// [`split_covered_units`](crate::worker::split_covered_units), used by
/// `carq-cli campaign run` so a warm re-run spawns no worker for a
/// scenario the merged journal covers. Each scenario is a full-budget unit
/// asked through the same coverage probe ([`would_simulate`]).
///
/// # Errors
///
/// Regeneration failures and points the generated runtime schema rejects.
pub fn split_covered_scenarios(
    shard: &CampaignShard,
    cache: &SweepCache,
) -> Result<(Vec<GenIdentity>, usize), FleetError> {
    let unit = [WorkUnit { point: shard.point(), round_range: None }];
    let mut remaining = Vec::new();
    let mut covered = 0usize;
    for identity in &shard.scenarios {
        let scenario = regenerate(identity)?;
        let plan = sweep_plan_of(&scenario, shard.master_seed, &unit)?;
        if would_simulate(scenario.name(), &plan, 0, cache, &Units(&unit)) {
            remaining.push(identity.clone());
        } else {
            covered += 1;
        }
    }
    Ok((remaining, covered))
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
    let point = match rounds {
        Some(r) => SweepPoint::new(vec![(Param::Rounds, ParamValue::Int(u64::from(r)))]),
        None => SweepPoint::empty(),
    };
    let mut table: Option<RecordTable> = None;
    let mut metric_names: Vec<&'static str> = Vec::new();
    let mut rounds_simulated = 0;
    let mut rounds_cached = 0;
    for identity in identities {
        let scenario = regenerate(identity)?;
        let spec = SweepSpec::new(master_seed).point(point.clone());
        let result = SweepEngine::new(threads)
            .with_cache(Arc::clone(cache))
            .run(&scenario, &spec)
            .map_err(|e| FleetError::Sweep(e.to_string()))?;
        rounds_simulated += result.rounds_simulated;
        rounds_cached += result.rounds_cached;
        let summary = result
            .summaries
            .first()
            .ok_or_else(|| FleetError::Sweep("engine returned no summary".into()))?;

        let table = table.get_or_insert_with(|| {
            let mut columns = vec!["scenario".to_string(), "gen_seed".to_string()];
            columns.extend(identity.params.assignments().iter().map(|(k, _)| (*k).to_string()));
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
        row.extend(identity.params.assignments().iter().map(|(_, v)| match v {
            GenValue::Float(x) => CellValue::from(*x),
            GenValue::Int(x) => CellValue::from(*x),
            GenValue::Bool(x) => CellValue::from(if *x { "true" } else { "false" }),
            GenValue::Choice(name) => CellValue::from(*name),
        }));
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
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
            .axis("feeder_m", "100")
            .unwrap()
            .axis("tail_m", "100,150")
            .unwrap()
            .axis("n_ramp", "1,2")
            .unwrap()
    }

    #[test]
    fn plans_stride_scenarios_across_shards() {
        let plan = CampaignPlan::new(&tiny_grid(), 0xCA4, Some(1), 3).unwrap();
        assert_eq!(plan.shards.len(), 3);
        assert_eq!(plan.total_scenarios(), 4);
        let sizes: Vec<usize> = plan.shards.iter().map(|s| s.scenarios.len()).collect();
        assert_eq!(sizes, vec![2, 1, 1], "strided assignment");
        // identities() restores expansion order.
        let direct = tiny_grid().identities(0xCA4).unwrap();
        assert_eq!(plan.identities(), direct);
        assert!(matches!(CampaignPlan::new(&tiny_grid(), 1, None, 0), Err(FleetError::Invalid(_))));
        assert!(matches!(
            CampaignPlan::new(&tiny_grid(), 1, Some(0), 1),
            Err(FleetError::Invalid(_))
        ));
    }

    #[test]
    fn shard_files_round_trip_bit_for_bit() {
        let plan = CampaignPlan::new(&tiny_grid(), 0xCA4, None, 2).unwrap();
        for shard in &plan.shards {
            let encoded = shard.encode();
            assert!(encoded.starts_with("VANETCAMP1\ngenerator=platoon-merge\n"), "{encoded}");
            assert!(encoded.contains("rounds=default\n"));
            let decoded = CampaignShard::decode(&encoded).unwrap();
            assert_eq!(&decoded, shard);
            assert_eq!(decoded.encode(), encoded);
        }
        // An explicit rounds override round-trips too.
        let plan = CampaignPlan::new(&tiny_grid(), 0xCA4, Some(7), 1).unwrap();
        let encoded = plan.shards[0].encode();
        assert!(encoded.contains("rounds=7\n"));
        assert_eq!(CampaignShard::decode(&encoded).unwrap(), plan.shards[0]);
    }

    #[test]
    fn decode_rejects_malformed_shard_files() {
        let good = CampaignPlan::new(&tiny_grid(), 0xCA4, Some(1), 1).unwrap().shards[0].encode();
        let cases: Vec<(String, &str)> = vec![
            (String::new(), "empty shard file"),
            (good.replacen("VANETCAMP1", "VANETCAMP9", 1), "expected magic"),
            (good.replacen("generator=platoon-merge", "generator=mars", 1), "unknown generator"),
            (format!("{good}generator=platoon-merge\n"), "duplicate `generator`"),
            (good.replacen("master_seed=0x", "master_seed=", 1), "0x-prefixed hex"),
            (format!("{good}master_seed=0x01\n"), "duplicate `master_seed`"),
            (good.replacen("rounds=1", "rounds=soon", 1), "rounds must be"),
            (good.replacen("rounds=1", "rounds=0", 1), "at least 1"),
            (format!("{good}rounds=2\n"), "duplicate `rounds`"),
            (good.replacen("shard=0/1", "shard=1/1", 1), "I < N"),
            (good.replacen("shard=0/1", "shard=0", 1), "I < N"),
            (format!("{good}shard=0/1\n"), "duplicate `shard`"),
            (good.replacen("scenario=", "scenario=warp=i1;", 1), "no parameter"),
            (good.replacen("feeder_m=", "feeder_m=x;feeder_m=", 1), "not a valid value"),
            (
                // 0x4059000000000000 is 100.0: a valid feeder_m, repeated.
                good.replacen(
                    "scenario=feeder_m=",
                    "scenario=feeder_m=f4059000000000000;feeder_m=",
                    1,
                ),
                "twice",
            ),
            (format!("{good}scenario=feeder_m=f4059000000000000\n"), "missing `gen_seed`"),
            (
                format!("{good}scenario=gen_seed=0x01;gen_seed=0x01\n"),
                "duplicate `gen_seed` segment",
            ),
            (format!("{good}frobnicate=1\n"), "unknown header"),
            ("VANETCAMP1\nscenario=gen_seed=0x01\n".to_string(), "must follow"),
            ("VANETCAMP1\n".to_string(), "missing `generator`"),
            ("VANETCAMP1\ngenerator=platoon-merge\n".to_string(), "missing `master_seed`"),
            (
                "VANETCAMP1\ngenerator=platoon-merge\nmaster_seed=0x01\n".to_string(),
                "missing `rounds`",
            ),
            (
                "VANETCAMP1\ngenerator=platoon-merge\nmaster_seed=0x01\nrounds=default\n"
                    .to_string(),
                "missing `shard`",
            ),
        ];
        for (text, needle) in cases {
            let err =
                CampaignShard::decode(&text).expect_err(&format!("accepted malformed:\n{text}"));
            let message = err.to_string();
            assert!(
                message.contains(needle),
                "error `{message}` does not mention `{needle}` for:\n{text}"
            );
        }
    }

    #[test]
    fn covered_scenarios_are_pre_filtered_for_warm_re_runs() {
        let plan = CampaignPlan::new(&tiny_grid(), 0xCAFE, Some(1), 1).unwrap();
        let shard = &plan.shards[0];
        let dir = temp_dir("covered");
        let cache = SweepCache::open(&dir).unwrap();

        // Cold cache: everything remains.
        let (remaining, covered) = split_covered_scenarios(shard, &cache).unwrap();
        assert_eq!((remaining.len(), covered), (4, 0));
        assert_eq!(remaining, shard.scenarios);

        // Execute a partial shard (the first two scenarios only), then the
        // pre-filter drops exactly those.
        let partial = CampaignShard { scenarios: shard.scenarios[..2].to_vec(), ..shard.clone() };
        drop(cache);
        execute_campaign_shard(&partial, &dir, 1).unwrap();
        let cache = SweepCache::open(&dir).unwrap();
        let (remaining, covered) = split_covered_scenarios(shard, &cache).unwrap();
        assert_eq!((remaining.len(), covered), (2, 2));
        assert_eq!(remaining, shard.scenarios[2..].to_vec());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_campaign_merges_to_a_byte_stable_warm_table() {
        let grid = tiny_grid();
        let plan = CampaignPlan::new(&grid, 0xFEED, Some(1), 2).unwrap();
        assert_eq!(plan.total_scenarios(), 4);

        let mut shard_dirs = Vec::new();
        for shard in &plan.shards {
            let dir = temp_dir(&format!("shard-{}", shard.index));
            let outcome = execute_campaign_shard(shard, &dir, 1).unwrap();
            assert_eq!(outcome.units, shard.scenarios.len());
            assert_eq!(outcome.rounds_simulated, shard.scenarios.len(), "1 round each");
            // A killed-and-restarted worker resumes from its journal.
            let again = execute_campaign_shard(shard, &dir, 1).unwrap();
            assert_eq!(again.rounds_simulated, 0);
            assert_eq!(again.rounds_cached, shard.scenarios.len());
            shard_dirs.push(dir);
        }

        let merged_dir = temp_dir("merged");
        let merged = Arc::new(SweepCache::open(&merged_dir).unwrap());
        let report = vanet_cache::merge_into(&merged, &shard_dirs).unwrap();
        assert_eq!(report.records_ingested, 4);

        let identities = plan.identities();
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
