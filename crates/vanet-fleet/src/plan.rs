//! Deterministic shard plans and the self-describing shard-file format.
//!
//! A [`ShardPlan`] strides `(scenario, work unit)` pairs across N
//! [`Shard`]s. Two planners feed it: [`ShardPlan::for_preset`] pairs a
//! preset sweep's expanded points (and, optionally, the round ranges within
//! each point) with the preset, and [`ShardPlan::for_campaign`] pairs every
//! generated world of a [`GenGrid`](vanet_gen::GenGrid) with the
//! campaign's one point. Each shard [`encode`](Shard::encode)s to a small
//! `VANETFLEET2` text file that carries everything a worker on any machine
//! needs to reproduce its slice bit-for-bit: the master seed, and for each
//! scenario it names (a [`ScenarioRef`]) the points to run, in the lossless
//! canonical value encoding (`ParamValue::canonical`):
//!
//! ```text
//! VANETFLEET2
//! master_seed=0x000000000000beef
//! shard=0/3
//! scenario=preset=urban-platoon;rounds=1
//! point=speed_kmh=f4024000000000000;n_cars=i2
//! point=speed_kmh=f4024000000000000;n_cars=i5@0..4
//! scenario=generator=platoon-merge;feeder_m=f4059000000000000;…;gen_seed=0x…
//! point=rounds=i1
//! ```
//!
//! A generated world's `scenario=` line is its [`GenIdentity::canonical`]
//! rendering; a campaign's round budget override is the point assignment
//! `rounds=iN`. Because point and round seeds are content-addressed, no
//! coordination beyond this file is needed — the rounds a worker simulates
//! are exactly the rounds the monolithic sweep would have, whichever shard
//! they landed in.

use std::fmt;

use vanet_gen::GenIdentity;
use vanet_scenarios::{Param, ParamValue, Scenario, SweepPoint};
use vanet_sweep::{presets, SweepSpec};

use crate::campaign::campaign_point;

/// First line of every shard file; bump the digit when the format changes.
pub const SHARD_MAGIC: &str = "VANETFLEET2";

/// First lines of the retired shard formats, refused with a hint to re-plan.
const RETIRED_MAGICS: [&str; 2] = ["VANETFLEET1", "VANETCAMP1"];

/// Why a fleet operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The named preset is not in the catalogue.
    UnknownPreset(String),
    /// A shard file failed to parse; `line` is 1-based.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// An invalid plan request (zero shards, zero round chunk, …).
    Invalid(String),
    /// The shard's round cache failed.
    Cache(String),
    /// The sweep engine (or a point's schema validation) failed.
    Sweep(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::UnknownPreset(name) => {
                write!(f, "unknown preset `{name}` (see `carq-cli sweep list`)")
            }
            FleetError::Parse { line, message } => {
                write!(f, "shard file line {line}: {message}")
            }
            FleetError::Invalid(message) => f.write_str(message),
            FleetError::Cache(message) | FleetError::Sweep(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for FleetError {}

fn parse_error(line: usize, message: impl Into<String>) -> FleetError {
    FleetError::Parse { line, message: message.into() }
}

/// The scenario a group of work units runs.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioRef {
    /// A sweep preset (`carq-cli sweep list`) at a per-point round budget.
    Preset {
        /// The preset's catalogue name.
        name: String,
        /// The per-point round budget the preset is built with.
        rounds: u32,
    },
    /// A generated world, regenerated from its identity.
    Generated(GenIdentity),
}

impl ScenarioRef {
    /// Rebuilds the scenario exactly as a monolithic `sweep run` of the
    /// preset, or a `scenario run` of the world's `VANETGEN1` file, would.
    ///
    /// # Errors
    ///
    /// An unknown preset, or a world its generator no longer accepts.
    pub fn build(&self) -> Result<Box<dyn Scenario>, FleetError> {
        match self {
            ScenarioRef::Preset { name, rounds } => {
                let preset =
                    presets::find(name).ok_or_else(|| FleetError::UnknownPreset(name.clone()))?;
                // A preset's master seed seeds its spec, never its scenario.
                Ok(preset.build(0, *rounds).0)
            }
            ScenarioRef::Generated(identity) => match identity.instantiate() {
                Ok(world) => Ok(Box::new(world)),
                Err(e) => Err(FleetError::Sweep(e.to_string())),
            },
        }
    }

    /// The body of a `scenario=` line.
    fn encode(&self) -> String {
        match self {
            ScenarioRef::Preset { name, rounds } => format!("preset={name};rounds={rounds}"),
            ScenarioRef::Generated(identity) => identity.canonical(),
        }
    }

    /// Parses the body of a `scenario=` line.
    fn parse(body: &str) -> Result<ScenarioRef, String> {
        if body.starts_with("generator=") {
            return GenIdentity::parse(body).map(ScenarioRef::Generated);
        }
        let (name, rounds) =
            body.strip_prefix("preset=").and_then(|rest| rest.split_once(";rounds=")).ok_or_else(
                || format!("expected `preset=NAME;rounds=N` or `generator=…`, got `{body}`"),
            )?;
        let preset = presets::find(name)
            .ok_or_else(|| FleetError::UnknownPreset(name.into()).to_string())?;
        let rounds = rounds
            .parse()
            .ok()
            .filter(|&rounds| rounds > 0)
            .ok_or_else(|| format!("bad round count `{rounds}` (at least 1)"))?;
        Ok(ScenarioRef::Preset { name: preset.name.to_string(), rounds })
    }
}

/// One unit of shard work: a point, either at its full round budget or
/// restricted to a round range.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkUnit {
    /// The sweep point to run.
    pub point: SweepPoint,
    /// `None`: the point's whole round budget, executed through the sweep
    /// engine (settle-aware, intra-point parallel). `Some((a, b))`: only
    /// rounds `a..b`, executed directly against the purity contract — the
    /// round-range sharding mode for sweeps whose cost sits in a few
    /// round-heavy points rather than in many points.
    pub round_range: Option<(u32, u32)>,
}

/// One worker's self-describing slice of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Shard {
    /// The master seed every point and round seed derives from.
    pub master_seed: u64,
    /// This shard's index, `0..count`.
    pub index: usize,
    /// Total shards in the plan.
    pub count: usize,
    /// The shard's work units grouped by scenario, in plan order.
    /// Executing a shard without units is a no-op.
    pub groups: Vec<(ScenarioRef, Vec<WorkUnit>)>,
}

impl Shard {
    /// Work units across all groups.
    pub fn total_units(&self) -> usize {
        self.groups.iter().map(|(_, units)| units.len()).sum()
    }

    /// Serializes the shard to its text format (see [`Shard::decode`]).
    pub fn encode(&self) -> String {
        let mut out = format!(
            "{SHARD_MAGIC}\nmaster_seed={:#018x}\nshard={}/{}\n",
            self.master_seed, self.index, self.count
        );
        for (scenario, units) in &self.groups {
            out.push_str(&format!("scenario={}\n", scenario.encode()));
            for unit in units {
                out.push_str("point=");
                out.push_str(&unit.point.canonical());
                if let Some((a, b)) = unit.round_range {
                    out.push_str(&format!("@{a}..{b}"));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Parses a shard file produced by [`Shard::encode`].
    ///
    /// # Errors
    ///
    /// [`FleetError::Parse`] naming the first offending line: wrong or
    /// retired magic, missing or duplicate headers, a scenario that names
    /// an unknown preset or a world its generator rejects, a zero round
    /// budget (a preset's or a point's `rounds=i0`), `point=` lines before
    /// any `scenario=` line, unknown parameters, and values that are not
    /// canonical renderings.
    pub fn decode(text: &str) -> Result<Shard, FleetError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, SHARD_MAGIC)) => {}
            Some((_, retired)) if RETIRED_MAGICS.contains(&retired) => {
                return Err(parse_error(
                    1,
                    format!(
                        "`{retired}` is a retired shard format: re-plan with `carq-cli fleet \
                         shard` or `campaign plan`"
                    ),
                ))
            }
            Some((_, other)) => {
                return Err(parse_error(
                    1,
                    format!("not a vanet-fleet shard file (first line `{other}`)"),
                ))
            }
            None => return Err(parse_error(1, "empty shard file")),
        }
        let mut master_seed: Option<u64> = None;
        let mut shard: Option<(usize, usize)> = None;
        let mut groups: Vec<(ScenarioRef, Vec<WorkUnit>)> = Vec::new();
        for (i, line) in lines {
            let line_no = i + 1;
            if line.is_empty() {
                continue;
            }
            let Some((field, value)) = line.split_once('=') else {
                return Err(parse_error(line_no, format!("expected `field=value`, got `{line}`")));
            };
            match field {
                "master_seed" => {
                    let parsed = value
                        .strip_prefix("0x")
                        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| {
                            parse_error(
                                line_no,
                                format!("master_seed must be 0x-prefixed hex, got `{value}`"),
                            )
                        })?;
                    set_once(line_no, "master_seed", &mut master_seed, parsed)?;
                }
                "shard" => {
                    let parsed = value
                        .split_once('/')
                        .and_then(|(i, n)| Some((i.parse().ok()?, n.parse().ok()?)))
                        .filter(|(index, count): &(usize, usize)| index < count)
                        .ok_or_else(|| {
                            parse_error(line_no, format!("bad shard designator `{value}`"))
                        })?;
                    set_once(line_no, "shard", &mut shard, parsed)?;
                }
                "scenario" => {
                    let scenario = ScenarioRef::parse(value)
                        .map_err(|message| parse_error(line_no, message))?;
                    groups.push((scenario, Vec::new()));
                }
                "point" => {
                    let Some((_, units)) = groups.last_mut() else {
                        return Err(parse_error(line_no, "`point=` before any `scenario=` line"));
                    };
                    units.push(parse_unit(line_no, value)?);
                }
                other => {
                    return Err(parse_error(line_no, format!("unknown field `{other}`")));
                }
            }
        }
        let (index, count) =
            shard.ok_or_else(|| parse_error(1, "missing `shard=INDEX/COUNT` header"))?;
        let master_seed =
            master_seed.ok_or_else(|| parse_error(1, "missing `master_seed=` header"))?;
        Ok(Shard { master_seed, index, count, groups })
    }
}

fn set_once<T>(line: usize, field: &str, slot: &mut Option<T>, value: T) -> Result<(), FleetError> {
    if slot.is_some() {
        return Err(parse_error(line, format!("`{field}` given twice")));
    }
    *slot = Some(value);
    Ok(())
}

/// Parses one `point=` line body: `key=canonical;key=canonical[@a..b]`.
fn parse_unit(line: usize, body: &str) -> Result<WorkUnit, FleetError> {
    let (assignments_text, round_range) = match body.rsplit_once('@') {
        None => (body, None),
        Some((head, range)) => {
            let parsed = range
                .split_once("..")
                .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
                .filter(|(a, b): &(u32, u32)| a < b)
                .ok_or_else(|| parse_error(line, format!("bad round range `@{range}`")))?;
            (head, Some(parsed))
        }
    };
    let mut assignments: Vec<(Param, ParamValue)> = Vec::new();
    if !assignments_text.is_empty() {
        for part in assignments_text.split(';') {
            let Some((key, value)) = part.split_once('=') else {
                return Err(parse_error(line, format!("expected `param=value`, got `{part}`")));
            };
            let param = Param::from_key(key)
                .ok_or_else(|| parse_error(line, format!("unknown parameter `{key}`")))?;
            // A scenario's runtime parameters have no choice words.
            let value = ParamValue::parse_canonical(value, &[]).ok_or_else(|| {
                parse_error(line, format!("`{value}` is not a canonical value for `{key}`"))
            })?;
            if assignments.iter().any(|(p, _)| *p == param) {
                return Err(parse_error(line, format!("parameter `{key}` assigned twice")));
            }
            // Every scenario's schema asks for at least one round; refused
            // here, as a preset's zero budget is, rather than by every
            // retry of the worker.
            if param == Param::Rounds && matches!(value, ParamValue::Int(0)) {
                return Err(parse_error(line, "bad round count `i0` (at least 1)"));
            }
            assignments.push((param, value));
        }
    }
    Ok(WorkUnit { point: SweepPoint::new(assignments), round_range })
}

/// A complete plan: the shards that together cover every unit once.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// The master seed every shard carries.
    pub master_seed: u64,
    /// The shards, `shards[i].index == i`. There are never more shards
    /// than units.
    pub shards: Vec<Shard>,
}

impl ShardPlan {
    /// Plans at most `count` shards over the named preset at `master_seed`
    /// and `rounds`. With `round_chunk = Some(k)`, every point whose budget
    /// exceeds `k` rounds is split into `@a..b` round-range units of at
    /// most `k` rounds each before striding — so even a one-point,
    /// thousand-round sweep spreads across the fleet.
    ///
    /// # Errors
    ///
    /// An unknown preset, a zero shard count, round budget or round chunk,
    /// and points that fail the scenario's schema (impossible for built-in
    /// presets).
    pub fn for_preset(
        preset_name: &str,
        master_seed: u64,
        rounds: u32,
        count: usize,
        round_chunk: Option<u32>,
    ) -> Result<ShardPlan, FleetError> {
        let preset = presets::find(preset_name)
            .ok_or_else(|| FleetError::UnknownPreset(preset_name.to_string()))?;
        if rounds == 0 {
            return Err(FleetError::Invalid("the round budget must be at least 1".into()));
        }
        let (scenario, spec) = preset.build(master_seed, rounds);
        let units = plan_units(scenario.as_ref(), &spec, round_chunk)?;
        let scenario = ScenarioRef::Preset { name: preset.name.to_string(), rounds };
        let pairs = units.into_iter().map(|unit| (scenario.clone(), unit)).collect();
        ShardPlan::stride(master_seed, pairs, count)
    }

    /// Plans at most `count` shards over `worlds` (a grid's
    /// [`identities`](vanet_gen::GenGrid::identities) under
    /// `master_seed`), each run at its generator's default round budget or
    /// at the `rounds` override. World `i` lands in shard `i % count`.
    ///
    /// # Errors
    ///
    /// A zero shard count or rounds override.
    pub fn for_campaign(
        worlds: &[GenIdentity],
        master_seed: u64,
        rounds: Option<u32>,
        count: usize,
    ) -> Result<ShardPlan, FleetError> {
        if rounds == Some(0) {
            return Err(FleetError::Invalid("the rounds override must be at least 1".into()));
        }
        let unit = WorkUnit { point: campaign_point(rounds), round_range: None };
        let pairs = worlds
            .iter()
            .map(|world| (ScenarioRef::Generated(world.clone()), unit.clone()))
            .collect();
        ShardPlan::stride(master_seed, pairs, count)
    }

    /// Strides `pairs` over `count` shards, clamped to one shard per pair
    /// before anything is allocated, and groups each shard's consecutive
    /// pairs by scenario.
    fn stride(
        master_seed: u64,
        pairs: Vec<(ScenarioRef, WorkUnit)>,
        count: usize,
    ) -> Result<ShardPlan, FleetError> {
        if count == 0 {
            return Err(FleetError::Invalid("shard count must be positive".into()));
        }
        let count = count.min(pairs.len()).max(1);
        let shards = stride_units(pairs, count)
            .into_iter()
            .enumerate()
            .map(|(index, pairs)| {
                let mut groups: Vec<(ScenarioRef, Vec<WorkUnit>)> = Vec::new();
                for (scenario, unit) in pairs {
                    match groups.last_mut() {
                        Some((last, units)) if *last == scenario => units.push(unit),
                        _ => groups.push((scenario, vec![unit])),
                    }
                }
                Shard { master_seed, index, count, groups }
            })
            .collect();
        Ok(ShardPlan { master_seed, shards })
    }

    /// Every `(scenario, unit)` pair, shard by shard.
    pub fn units(&self) -> impl Iterator<Item = (&ScenarioRef, &WorkUnit)> {
        self.shards
            .iter()
            .flat_map(|shard| &shard.groups)
            .flat_map(|(scenario, units)| units.iter().map(move |unit| (scenario, unit)))
    }

    /// Total work units across all shards.
    pub fn total_units(&self) -> usize {
        self.shards.iter().map(Shard::total_units).sum()
    }
}

/// Turns a spec's expansion into work units: one full-budget unit per
/// point, or — with `round_chunk = Some(k)` — `@a..b` range units of at
/// most `k` rounds for points whose budget exceeds `k`. Scenario-generic:
/// the planner `configure`s each point to learn its budget, which also
/// validates it against the schema before any worker starts.
pub fn plan_units(
    scenario: &dyn Scenario,
    spec: &SweepSpec,
    round_chunk: Option<u32>,
) -> Result<Vec<WorkUnit>, FleetError> {
    if round_chunk == Some(0) {
        return Err(FleetError::Invalid("round chunk must be positive".into()));
    }
    let mut units = Vec::new();
    for (index, point) in spec.expand().into_iter().enumerate() {
        match round_chunk {
            None => units.push(WorkUnit { point, round_range: None }),
            Some(chunk) => {
                let run = scenario.configure(&point).map_err(|e| {
                    FleetError::Sweep(format!("point {index} ({}): {e}", point.label()))
                })?;
                let budget = run.rounds();
                if budget <= chunk {
                    units.push(WorkUnit { point, round_range: None });
                } else {
                    let mut start = 0;
                    while start < budget {
                        units.push(WorkUnit {
                            point: point.clone(),
                            round_range: Some((start, (start + chunk).min(budget))),
                        });
                        start += chunk;
                    }
                }
            }
        }
    }
    Ok(units)
}

/// Strides `items` across `count` buckets (item `i` lands in bucket
/// `i % count`, so uneven per-item costs spread evenly). Trailing buckets
/// may be empty.
pub fn stride_units<T>(items: Vec<T>, count: usize) -> Vec<Vec<T>> {
    assert!(count > 0, "shard count must be positive");
    let mut shards: Vec<Vec<T>> = (0..count).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        shards[i % count].push(item);
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanet_gen::GenGrid;

    /// The units of `shard`'s one preset group.
    fn preset_units(shard: &Shard) -> &[WorkUnit] {
        match shard.groups.as_slice() {
            [(ScenarioRef::Preset { .. }, units)] => units,
            other => panic!("expected one preset group, got {other:?}"),
        }
    }

    /// Plans `grid`'s worlds under `seed`, as `campaign plan` does.
    fn campaign_plan(
        grid: &GenGrid,
        seed: u64,
        rounds: Option<u32>,
        count: usize,
    ) -> Result<ShardPlan, FleetError> {
        ShardPlan::for_campaign(&grid.identities(seed), seed, rounds, count)
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
    fn preset_plans_cover_the_expansion_exactly() {
        let plan = ShardPlan::for_preset("urban-platoon", 0xBEEF, 2, 3, None).unwrap();
        assert_eq!(plan.shards.len(), 3);
        assert_eq!(plan.total_units(), 24, "urban-platoon has 24 points");
        // Interleave the shards back: every point exactly once, in order.
        let (_, spec) = presets::find("urban-platoon").unwrap().build(0xBEEF, 2);
        let points = spec.expand();
        let mut restored = vec![None; points.len()];
        for shard in &plan.shards {
            assert_eq!(shard.count, 3);
            assert_eq!(
                shard.groups[0].0,
                ScenarioRef::Preset { name: "urban-platoon".into(), rounds: 2 }
            );
            for (offset, unit) in preset_units(shard).iter().enumerate() {
                assert_eq!(unit.round_range, None);
                restored[shard.index + offset * 3] = Some(unit.point.clone());
            }
        }
        let restored: Vec<SweepPoint> = restored.into_iter().map(Option::unwrap).collect();
        assert_eq!(restored, points);
    }

    #[test]
    fn striding_agrees_with_the_preset_planner() {
        // `plan_units` + `stride_units` is the unit-level partition the
        // planner uses (it also carries round ranges). Without chunking,
        // point `i` lands in shard `i % count`, the rule this test pins
        // against `ShardPlan::for_preset`.
        let preset = presets::find("urban-platoon").unwrap();
        let (scenario, spec) = preset.build(0xA11CE, 2);
        let points = spec.expand();
        let units = plan_units(scenario.as_ref(), &spec, None).unwrap();
        for count in 1..=5 {
            let strided = stride_units(units.clone(), count);
            let planned = ShardPlan::for_preset("urban-platoon", 0xA11CE, 2, count, None).unwrap();
            for (index, shard_units) in strided.iter().enumerate() {
                let via_stride: Vec<SweepPoint> =
                    points.iter().skip(index).step_by(count).cloned().collect();
                let via_units: Vec<SweepPoint> =
                    shard_units.iter().map(|u| u.point.clone()).collect();
                assert_eq!(via_units, via_stride, "shard {index}/{count} diverged");
                assert_eq!(preset_units(&planned.shards[index]), shard_units.as_slice());
            }
        }
    }

    #[test]
    fn round_chunking_splits_heavy_points_into_ranges() {
        let plan = ShardPlan::for_preset("urban-platoon", 1, 5, 4, Some(2)).unwrap();
        // 24 points x ceil(5/2)=3 chunks each.
        assert_eq!(plan.total_units(), 72);
        let ranges: Vec<Option<(u32, u32)>> = plan.units().map(|(_, u)| u.round_range).collect();
        assert!(ranges.iter().all(Option::is_some));
        assert!(ranges.contains(&Some((0, 2))));
        assert!(ranges.contains(&Some((4, 5))), "the tail chunk is short");
        // A chunk at least as large as the budget plans full-budget units.
        let full = ShardPlan::for_preset("urban-platoon", 1, 2, 4, Some(2)).unwrap();
        assert!(full.units().all(|(_, u)| u.round_range.is_none()));
    }

    #[test]
    fn plan_rejects_bad_requests() {
        assert!(matches!(
            ShardPlan::for_preset("no-such", 1, 2, 3, None),
            Err(FleetError::UnknownPreset(_))
        ));
        for bad in [
            ShardPlan::for_preset("urban-platoon", 1, 2, 0, None),
            ShardPlan::for_preset("urban-platoon", 1, 0, 3, None),
            ShardPlan::for_preset("urban-platoon", 1, 2, 3, Some(0)),
            campaign_plan(&tiny_grid(), 1, None, 0),
            campaign_plan(&tiny_grid(), 1, Some(0), 1),
        ] {
            assert!(matches!(bad, Err(FleetError::Invalid(_))), "{bad:?}");
        }
        let err = FleetError::UnknownPreset("x".into());
        assert!(err.to_string().contains("sweep list"));
    }

    #[test]
    fn plans_never_hold_more_shards_than_units() {
        // A shard count is clamped before any shard is allocated, so an
        // absurd request plans one shard per unit, at once.
        for count in [usize::MAX, u32::MAX as usize, 25] {
            let plan = ShardPlan::for_preset("urban-platoon", 1, 1, count, None).unwrap();
            assert_eq!(plan.shards.len(), 24);
            assert!(plan.shards.iter().all(|s| s.count == 24 && s.total_units() == 1));
            let campaign = campaign_plan(&tiny_grid(), 1, Some(1), count).unwrap();
            assert_eq!(campaign.shards.len(), 4);
            assert!(campaign.shards.iter().all(|s| s.count == 4 && s.total_units() == 1));
        }
        let chunked = ShardPlan::for_preset("urban-platoon", 1, 5, usize::MAX, Some(2)).unwrap();
        assert_eq!(chunked.shards.len(), 72, "24 points x 3 round ranges");
    }

    #[test]
    fn plans_stride_scenarios_across_shards() {
        let plan = campaign_plan(&tiny_grid(), 0xCA4, Some(1), 3).unwrap();
        assert_eq!(plan.shards.len(), 3);
        assert_eq!(plan.total_units(), 4);
        let sizes: Vec<usize> = plan.shards.iter().map(|s| s.groups.len()).collect();
        assert_eq!(sizes, vec![2, 1, 1], "strided assignment, one group per world");
        // World i of the expansion lands in shard i % 3.
        let identities = tiny_grid().identities(0xCA4);
        for (i, identity) in identities.into_iter().enumerate() {
            let (scenario, units) = &plan.shards[i % 3].groups[i / 3];
            assert_eq!(scenario, &ScenarioRef::Generated(identity));
            assert_eq!(
                units,
                &vec![WorkUnit { point: campaign_point(Some(1)), round_range: None }]
            );
        }
    }

    #[test]
    fn shard_files_round_trip() {
        for chunk in [None, Some(2)] {
            let plan = ShardPlan::for_preset("urban-platoon", 0x20081cdc, 3, 3, chunk).unwrap();
            for shard in &plan.shards {
                let encoded = shard.encode();
                let header = format!(
                    "VANETFLEET2\nmaster_seed=0x0000000020081cdc\nshard={}/3\n\
                     scenario=preset=urban-platoon;rounds=3\npoint=",
                    shard.index
                );
                assert!(encoded.starts_with(&header), "{encoded}");
                let decoded = Shard::decode(&encoded).unwrap();
                assert_eq!(&decoded, shard, "round-trip with chunk {chunk:?}");
            }
        }
        // Strategy-valued and boolean parameters round-trip too.
        let plan = ShardPlan::for_preset("urban-strategies", 7, 2, 2, None).unwrap();
        let decoded = Shard::decode(&plan.shards[1].encode()).unwrap();
        assert_eq!(decoded, plan.shards[1]);
        let plan = ShardPlan::for_preset("highway-speed-rate", 7, 2, 5, None).unwrap();
        let decoded = Shard::decode(&plan.shards[4].encode()).unwrap();
        assert_eq!(decoded, plan.shards[4]);
        // Campaign shards, with and without a rounds override, byte for byte.
        for (rounds, point) in [(None, "point=\n"), (Some(7), "point=rounds=i7\n")] {
            let plan = campaign_plan(&tiny_grid(), 0xCA4, rounds, 2).unwrap();
            for shard in &plan.shards {
                let encoded = shard.encode();
                assert!(encoded.contains("\nscenario=generator=platoon-merge;"), "{encoded}");
                assert_eq!(encoded.matches(point).count(), 2, "{encoded}");
                let decoded = Shard::decode(&encoded).unwrap();
                assert_eq!(&decoded, shard);
                assert_eq!(decoded.encode(), encoded);
            }
        }
    }

    #[test]
    fn empty_and_range_units_round_trip() {
        let shard = Shard {
            master_seed: 42,
            index: 1,
            count: 8,
            groups: vec![(
                ScenarioRef::Preset { name: "urban-platoon".into(), rounds: 9 },
                vec![
                    WorkUnit { point: SweepPoint::empty(), round_range: None },
                    WorkUnit { point: SweepPoint::empty(), round_range: Some((3, 9)) },
                ],
            )],
        };
        assert_eq!(Shard::decode(&shard.encode()).unwrap(), shard);
        let empty = Shard { groups: Vec::new(), ..shard };
        assert_eq!(Shard::decode(&empty.encode()).unwrap(), empty);
    }

    /// Asserts every `(text, needle)` case is refused with `needle` in the
    /// message.
    fn assert_refused(cases: Vec<(String, &str)>) {
        for (text, needle) in cases {
            let err = Shard::decode(&text).expect_err(&format!("accepted malformed:\n{text}"));
            let message = err.to_string();
            assert!(message.contains(needle), "`{needle}` not in `{message}` for:\n{text}");
        }
    }

    #[test]
    fn decode_rejects_malformed_files() {
        let good =
            ShardPlan::for_preset("urban-platoon", 1, 2, 2, None).unwrap().shards[0].encode();
        let scenario = "scenario=preset=urban-platoon;rounds=2\n";
        assert_refused(vec![
            (String::new(), "empty shard file"),
            ("NOTAFLEETFILE\n".into(), "not a vanet-fleet shard file"),
            ("VANETFLEET1\npreset=urban-platoon\n".into(), "retired shard format: re-plan"),
            (good.replace(scenario, ""), "`point=` before any `scenario=` line"),
            (good.replace(scenario, "scenario=preset=no-such;rounds=2\n"), "unknown preset"),
            (good.replace(scenario, "scenario=urban-platoon\n"), "expected `preset=NAME;rounds=N`"),
            (good.replace("rounds=2\n", "rounds=two\n"), "bad round count"),
            (good.replace("rounds=2\n", "rounds=0\n"), "bad round count `0` (at least 1)"),
            (good.replace("shard=0/2\n", "shard=5/2\n"), "bad shard designator"),
            (good.replace("shard=0/2\n", "shard=0/2\nshard=0/2\n"), "given twice"),
            (good.clone() + "mystery=1\n", "unknown field"),
            (good.clone() + "point=warp_factor=i9\n", "unknown parameter"),
            (good.clone() + "point=n_cars=maybe\n", "not a canonical value"),
            (good.clone() + "point=n_cars=i2;n_cars=i3\n", "assigned twice"),
            (good.clone() + "point=n_cars=i2@5..5\n", "bad round range"),
            (good + "gibberish\n", "expected `field=value`"),
        ]);
    }

    #[test]
    fn decode_rejects_malformed_shard_files() {
        let good = campaign_plan(&tiny_grid(), 0xCA4, Some(1), 1).unwrap().shards[0].encode();
        let first = "scenario=generator=platoon-merge;";
        assert_refused(vec![
            (String::new(), "empty shard file"),
            ("VANETCAMP1\ngenerator=platoon-merge\n".into(), "retired shard format: re-plan"),
            (good.replacen("VANETFLEET2", "VANETCAMP9", 1), "not a vanet-fleet shard file"),
            (good.replacen("generator=platoon-merge", "generator=mars", 1), "unknown generator"),
            (format!("{good}generator=platoon-merge\n"), "unknown field `generator`"),
            (good.replacen("master_seed=0x", "master_seed=", 1), "0x-prefixed hex"),
            (format!("{good}master_seed=0x01\n"), "`master_seed` given twice"),
            (good.replace("point=rounds=i1", "point=rounds=soon"), "not a canonical value"),
            (
                good.replace("point=rounds=i1", "point=rounds=i0"),
                "bad round count `i0` (at least 1)",
            ),
            (good.replacen("point=rounds=i1", "point=rounds=i1;rounds=i2", 1), "assigned twice"),
            (good.replacen("shard=0/1", "shard=1/1", 1), "bad shard designator"),
            (good.replacen("shard=0/1", "shard=0", 1), "bad shard designator"),
            (format!("{good}shard=0/1\n"), "`shard` given twice"),
            (good.replacen(first, &format!("{first}warp=i1;"), 1), "no parameter `warp`"),
            (good.replacen("feeder_m=", "feeder_m=x;feeder_m=", 1), "not a canonical value"),
            (
                // 0x4059000000000000 is 100.0: a valid feeder_m, repeated.
                good.replacen("feeder_m=", "feeder_m=f4059000000000000;feeder_m=", 1),
                "assigned twice",
            ),
            (format!("{good}{first}feeder_m=f4059000000000000\n"), "missing `gen_seed`"),
            (format!("{good}{first}gen_seed=0x01;gen_seed=0x01\n"), "duplicate `gen_seed`"),
            (format!("{good}scenario=gen_seed=0x01\n"), "expected `preset=NAME;rounds=N`"),
            (format!("{good}frobnicate=1\n"), "unknown field"),
            ("VANETFLEET2\npoint=\n".into(), "`point=` before any `scenario=` line"),
            ("VANETFLEET2\nshard=0/1\n".into(), "missing `master_seed=`"),
            ("VANETFLEET2\nmaster_seed=0x01\n".into(), "missing `shard=INDEX/COUNT`"),
        ]);
    }

    #[test]
    fn scenario_refs_rebuild_their_scenarios() {
        let plan = ShardPlan::for_preset("multiap-blocks", 1, 2, 2, None).unwrap();
        assert_eq!(plan.shards[0].groups[0].0.build().unwrap().name(), "multi-ap");
        let orphan = ScenarioRef::Preset { name: "gone".into(), rounds: 2 };
        assert!(matches!(orphan.build(), Err(FleetError::UnknownPreset(_))));
        let identity = tiny_grid().identities(3).remove(0);
        let world = ScenarioRef::Generated(identity.clone()).build().unwrap();
        assert_eq!(world.name(), identity.scenario_name());
    }

    /// Deterministic mutations of `text`: every truncation, every single
    /// byte replaced from a small alphabet, and every line duplicated,
    /// deleted or swapped with its successor.
    fn mutations(text: &str) -> Vec<String> {
        let mut out: Vec<String> = (0..text.len()).map(|end| text[..end].to_string()).collect();
        for (i, _) in text.char_indices() {
            for replacement in "=;@.0xfi-9\n".chars() {
                let mut mutated = text.to_string();
                mutated.replace_range(i..i + 1, replacement.encode_utf8(&mut [0; 4]));
                out.push(mutated);
            }
        }
        let lines: Vec<&str> = text.lines().collect();
        let join = |lines: Vec<&str>| lines.iter().map(|l| format!("{l}\n")).collect::<String>();
        for i in 0..lines.len() {
            let mut duplicated = lines.clone();
            duplicated.insert(i, lines[i]);
            out.push(join(duplicated));
            let mut deleted = lines.clone();
            deleted.remove(i);
            out.push(join(deleted));
            if i + 1 < lines.len() {
                let mut swapped = lines.clone();
                swapped.swap(i, i + 1);
                out.push(join(swapped));
            }
        }
        out
    }

    #[test]
    fn hostile_shard_files_never_panic_and_accepted_ones_round_trip() {
        let mut corpus: Vec<Shard> = Vec::new();
        for (preset, chunk, count) in [
            ("urban-platoon", None, 3),
            ("urban-platoon", Some(2), 8),
            ("urban-strategies", None, 4),
            ("multiap-blocks", None, 6),
        ] {
            corpus.extend(ShardPlan::for_preset(preset, 0xBEEF, 3, count, chunk).unwrap().shards);
        }
        let cars = vec![ParamValue::Int(2), ParamValue::Int(3)];
        let grid_city = GenGrid::new("grid-city").unwrap().axis(Param::NCars, cars).unwrap();
        for (grid, rounds) in [(tiny_grid(), None), (tiny_grid(), Some(2)), (grid_city, None)] {
            corpus.extend(campaign_plan(&grid, 0xCA4, rounds, 2).unwrap().shards);
        }
        let (mut accepted, mut refused) = (0, 0);
        for shard in &corpus {
            let text = shard.encode();
            assert_eq!(Shard::decode(&text).as_ref(), Ok(shard));
            for mutated in mutations(&text) {
                match std::panic::catch_unwind(|| Shard::decode(&mutated)) {
                    Err(_) => panic!("decode panicked on:\n{mutated}"),
                    Ok(Err(_)) => refused += 1,
                    Ok(Ok(decoded)) => {
                        accepted += 1;
                        let again = Shard::decode(&decoded.encode()).unwrap_or_else(|e| {
                            panic!(
                                "re-encoding of an accepted mutation is refused ({e}):\n{mutated}"
                            )
                        });
                        assert_eq!(again, decoded, "accepted mutation drifted:\n{mutated}");
                    }
                }
            }
        }
        assert!(accepted > 0 && refused > 0, "{accepted} accepted, {refused} refused");
    }
}
