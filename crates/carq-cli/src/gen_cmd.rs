//! `carq-cli gen` — list, describe, emit and inspect generated scenarios.
//!
//! A generated scenario is fully determined by its identity `(generator,
//! canonical params, gen seed)`; the `VANETGEN1` files `gen emit` writes
//! store only that identity and regenerate the world bit-for-bit on load.
//! The shared [`resolve_scenario`] helper lets `scenario describe`,
//! `scenario run`, `verify`, `trace` and `analyze` accept either a
//! registered scenario name or a path to such a file, and
//! [`ConfiguredScenario`] is the one `--scenario` run those last three
//! configure and trace.

use std::fmt::Write as _;
use std::ops::Range;
use std::path::Path;

use vanet_gen::{GeneratedScenario, Generator};
use vanet_scenarios::{
    round_seed, Param, ParamValue, Scenario, ScenarioRegistry, ScenarioRun, SweepPoint,
};
use vanet_trace::TraceFrame;

use crate::cli::{strategy_override, Options, DEFAULT_SEED};

/// A scenario reference resolved by [`resolve_scenario`]: a registered
/// name, or a generated scenario decoded from a `VANETGEN1` file.
#[derive(Debug)]
pub enum ScenarioSource {
    /// A name the registry knows.
    Registered(String),
    /// A generated scenario loaded (and regenerated) from a file.
    Generated(Box<GeneratedScenario>),
}

impl ScenarioSource {
    /// The scenario itself; `registry` must be the registry the reference
    /// was resolved against.
    pub fn scenario<'a>(&'a self, registry: &'a ScenarioRegistry) -> &'a dyn Scenario {
        match self {
            ScenarioSource::Registered(name) => {
                registry.get(name).expect("resolve_scenario validated the name")
            }
            ScenarioSource::Generated(scenario) => &**scenario,
        }
    }
}

/// Resolves a scenario reference for `scenario describe`, `scenario run`
/// and [`ConfiguredScenario`]: a registered name wins; anything else is
/// read as a `VANETGEN1` scenario file (see `carq-cli gen emit`).
pub fn resolve_scenario(
    registry: &ScenarioRegistry,
    reference: &str,
) -> Result<ScenarioSource, String> {
    if registry.get(reference).is_some() {
        return Ok(ScenarioSource::Registered(reference.to_string()));
    }
    if Path::new(reference).is_file() {
        let text = std::fs::read_to_string(reference)
            .map_err(|e| format!("cannot read {reference}: {e}"))?;
        let scenario = vanet_gen::decode(&text).map_err(|e| format!("{reference}: {e}"))?;
        return Ok(ScenarioSource::Generated(Box::new(scenario)));
    }
    Err(format!(
        "unknown scenario `{reference}` (known: {}; a `carq-cli gen emit` scenario \
         file path also works)",
        registry.names().join(", ")
    ))
}

/// The `--scenario NAME|FILE` reference of `verify` and `trace`, which
/// both require one.
pub fn scenario_flag<'o>(opts: &'o Options, command: &str) -> Result<&'o str, String> {
    opts.get("scenario").ok_or_else(|| {
        format!(
            "{command} needs --scenario NAME (known: {}) or a generated scenario file",
            ScenarioRegistry::builtin().names().join(", ")
        )
    })
}

/// One `--scenario` run of `verify`, `trace` and `analyze`: the reference
/// resolved, and configured at its base configuration or under the one
/// point override these commands accept, a single recovery strategy.
pub struct ConfiguredScenario {
    /// The scenario's name.
    pub name: String,
    /// `base configuration` or `strategy NAME`, for status lines.
    pub configuration: String,
    /// The configured run.
    pub run: Box<dyn ScenarioRun>,
}

impl ConfiguredScenario {
    /// Resolves `reference` and configures it, under the strategy
    /// `--{strategy_flag}` names when the flag is given.
    pub fn new(
        opts: &Options,
        reference: &str,
        strategy_flag: Option<&str>,
    ) -> Result<ConfiguredScenario, String> {
        let registry = ScenarioRegistry::builtin();
        let source = resolve_scenario(&registry, reference)?;
        let scenario = source.scenario(&registry);
        let strategy = match strategy_flag {
            Some(flag) => strategy_override(scenario.schema(), opts, flag)?,
            None => None,
        };
        let (point, configuration) = match strategy {
            Some(value) => {
                (SweepPoint::new(vec![(Param::Strategy, value)]), format!("strategy {value}"))
            }
            None => (SweepPoint::empty(), "base configuration".to_string()),
        };
        let run = scenario.configure(&point).map_err(|e| e.to_string())?;
        Ok(ConfiguredScenario { name: scenario.name().to_string(), configuration, run })
    }

    /// `--rounds N` capped at the run's budget, or the whole budget.
    pub fn rounds(&self, opts: &Options) -> Result<u32, String> {
        let budget = self.run.rounds();
        Ok(opts.count("rounds")?.map_or(budget, |rounds: u32| rounds.min(budget)))
    }

    /// The traced frames of `rounds` at master seed `seed`, each round's
    /// records stamped with the round and its round seed, so a replayed
    /// trace file feeds an analysis exactly the live input. `given` is the
    /// flag as the user spelt it, for the refusal of rounds past the budget.
    pub fn frames(
        &self,
        rounds: Range<u32>,
        given: &str,
        seed: u64,
    ) -> Result<Vec<TraceFrame>, String> {
        if rounds.end > self.run.rounds() {
            return Err(format!(
                "{given} is out of range (`{}` has {} round(s), 0-based)",
                self.name,
                self.run.rounds()
            ));
        }
        Ok(rounds
            .map(|round| {
                let seed = round_seed(seed, round);
                let (_, records) = self.run.run_round_traced(round, seed);
                TraceFrame { round, seed, records }
            })
            .collect())
    }
}

fn lookup_generator(name: &str) -> Result<Generator, String> {
    vanet_gen::generators::lookup(name).map_err(|e| e.to_string())
}

/// `carq-cli gen list`: the generators as a table.
pub fn gen_list() -> String {
    let mut text = format!("{:<14} {:>7}  description\n", "generator", "params");
    for generator in vanet_gen::generators::all() {
        let _ = writeln!(
            text,
            "{:<14} {:>7}  {}",
            generator.name,
            generator.schema().params().len(),
            generator.description
        );
    }
    text.push_str("\nrun `carq-cli gen describe NAME` for a generator's parameter schema\n");
    text
}

/// `carq-cli gen describe NAME`: a generator's world schema, in the table
/// `scenario describe` prints.
pub fn gen_describe(name: &str) -> Result<String, String> {
    let generator = lookup_generator(name)?;
    Ok(format!(
        "{} — {}\n\n{}\nemit a world with `carq-cli gen emit {} --PARAM value ... --out world.gen`; \
         sweep populations with `carq-cli campaign run --generator {}`\n",
        generator.name,
        generator.description,
        generator.schema().render(),
        generator.name,
        generator.name
    ))
}

/// Parses the single-valued world-parameter flags of `gen emit` into
/// checked assignments.
fn parse_assignments(
    generator: &Generator,
    opts: &Options,
) -> Result<Vec<(String, ParamValue)>, String> {
    let mut assignments = Vec::new();
    for spec in generator.schema().params() {
        let key = spec.param.key();
        if let Some(raw) = opts.get(key) {
            let value = spec
                .parse(raw)
                .and_then(|v| spec.check(generator.name, v).map_err(|e| e.to_string()))
                .map_err(|e| format!("--{key}: {e}"))?;
            assignments.push((key.to_string(), value));
        }
    }
    Ok(assignments)
}

/// `carq-cli gen emit NAME [--PARAM V]... [--seed S] [--out FILE]`: what
/// to print, the scenario file's text, or with `--out` a line naming it.
pub fn gen_emit(name: &str, opts: &Options) -> Result<String, String> {
    let generator = lookup_generator(name)?;
    let mut known: Vec<&str> = vec!["seed", "out"];
    known.extend(generator.schema().params().iter().map(|s| s.param.key()));
    opts.refuse_unknown(&known, Some(&format!("gen describe {}", generator.name)))?;
    let assignments = parse_assignments(&generator, opts)?;
    let seed = opts.seed("seed", DEFAULT_SEED)?;
    let scenario =
        vanet_gen::instantiate(generator.name, &assignments, seed).map_err(|e| e.to_string())?;
    let text = vanet_gen::encode(scenario.identity());
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
            Ok(format!("{path}: {}\n", scenario.name()))
        }
        None => Ok(text),
    }
}

/// `carq-cli gen inspect FILE` — decode a scenario file and show what it
/// regenerates to.
pub fn gen_inspect(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let scenario = vanet_gen::decode(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(render_generated(&scenario))
}

/// The shared rendering of a generated scenario (`gen inspect`, and
/// `scenario describe` given a scenario file): identity, regenerated world
/// summary, and the runtime sweep schema.
pub fn render_generated(scenario: &GeneratedScenario) -> String {
    let identity = scenario.identity();
    let blueprint = scenario.blueprint();
    format!(
        "{} — {}\n\n  identity  {}\n  world     {} car(s), {} AP(s), {} default round(s)\n\n{}\n\
         replay it with `carq-cli verify --scenario FILE` or export a round's event \
         stream with `carq-cli trace --scenario FILE`\n",
        scenario.name(),
        scenario.description(),
        identity.canonical(),
        blueprint.cars.len(),
        blueprint.ap_positions.len(),
        blueprint.rounds_default,
        scenario.schema().render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_file(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "carq-cli-gen-test-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn opts(items: &[&str]) -> Options {
        let strings: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        Options::parse(&strings).unwrap()
    }

    #[test]
    fn listings_and_describe_succeed() {
        assert!(gen_list().contains("grid-city"));
        assert!(gen_describe("highway-flow").is_ok());
        assert!(gen_describe("grid-city").is_ok());
        let err = gen_describe("mars").unwrap_err();
        assert!(err.contains("gen list"), "{err}");
    }

    #[test]
    fn emit_validates_its_flags() {
        assert!(gen_emit("mars", &opts(&[])).is_err());
        let err = gen_emit("highway-flow", &opts(&["--bogus", "1"])).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        // Schema errors surface with the flag name.
        let err = gen_emit("highway-flow", &opts(&["--n_cars", "zero"])).unwrap_err();
        assert!(err.contains("--n_cars"), "{err}");
        assert!(gen_emit("highway-flow", &opts(&["--seed", "nope"])).is_err());
    }

    #[test]
    fn emitted_files_are_deterministic_and_inspectable() {
        let path = temp_file("emit");
        let path_str = path.display().to_string();
        let flags =
            ["--n_cars", "3", "--road_length_m", "400", "--seed", "0xAB", "--out", &path_str];
        gen_emit("highway-flow", &opts(&flags)).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        assert!(first.starts_with("VANETGEN1\n"), "{first}");
        // Emitting the same identity again is byte-identical.
        gen_emit("highway-flow", &opts(&flags)).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), first);
        assert!(gen_inspect(&path_str).is_ok());
        std::fs::remove_file(&path).ok();
        assert!(gen_inspect(&path_str).is_err(), "a missing file is reported");
    }

    #[test]
    fn scenario_references_resolve_names_and_files() {
        let registry = ScenarioRegistry::builtin();
        assert!(matches!(
            resolve_scenario(&registry, "urban").unwrap(),
            ScenarioSource::Registered(_)
        ));
        let err = resolve_scenario(&registry, "no-such-scenario").unwrap_err();
        assert!(err.contains("urban"), "lists the known names: {err}");

        let path = temp_file("resolve");
        let path_str = path.display().to_string();
        gen_emit("platoon-merge", &opts(&["--out", &path_str])).unwrap();
        let source = resolve_scenario(&registry, &path_str).unwrap();
        let ScenarioSource::Generated(ref scenario) = source else {
            panic!("a scenario file resolves to a generated scenario");
        };
        assert!(scenario.name().starts_with("gen/platoon-merge/"), "{}", scenario.name());
        // The resolved handle exposes the Scenario API.
        assert_eq!(source.scenario(&registry).name(), scenario.name());

        // A corrupt file is a decode error naming the file.
        std::fs::write(&path, "VANETGEN9\n").unwrap();
        let err = resolve_scenario(&registry, &path_str).unwrap_err();
        assert!(err.contains(&path_str), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
