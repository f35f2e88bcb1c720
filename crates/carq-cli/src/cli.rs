//! Tiny hand-rolled option parsing (the build environment has no crates.io
//! access, so no clap): `--flag value` pairs after the subcommand words,
//! plus a declared set of valueless `--switch` flags. The readers every
//! command shares live here too, each once: the refusal of unknown flags,
//! positive counts, seeds and the export format.

use std::str::FromStr;

use vanet_scenarios::{Param, ParamError, ParamSchema, ParamSpec, ParamValue};

/// The master seed when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 0x2008_1cdc;

/// Rounds per point of a preset when `--rounds` is absent (`sweep run`,
/// `fleet`, `analyze --preset`, `chaos`).
pub const DEFAULT_SWEEP_ROUNDS: u32 = 5;

/// Parsed `--flag value` options, preserving lookup by flag name.
#[derive(Debug, Default)]
pub struct Options {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Options {
    /// Parses `args` as alternating `--flag value` pairs.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        Options::parse_with_switches(args, &[])
    }

    /// Parses `args` as `--flag value` pairs, except that flags listed in
    /// `switches` take no value (e.g. `--allow-unknown`).
    pub fn parse_with_switches(args: &[String], switches: &[&str]) -> Result<Options, String> {
        let mut options = Options::default();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("unexpected argument `{flag}` (expected --flag value)"));
            };
            if switches.contains(&name) {
                if options.switches.iter().any(|n| n == name) {
                    return Err(format!("--{name} given twice"));
                }
                options.switches.push(name.to_string());
                continue;
            }
            let Some(value) = iter.next() else {
                return Err(format!("--{name} needs a value"));
            };
            if options.pairs.iter().any(|(n, _)| n == name) {
                return Err(format!("--{name} given twice"));
            }
            options.pairs.push((name.to_string(), value.clone()));
        }
        Ok(options)
    }

    /// The raw value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the valueless switch `--name` was given.
    pub fn has_switch(&self, name: &str) -> bool {
        self.switches.iter().any(|n| n == name)
    }

    /// Parses `--name` as a `T`, with a default when absent.
    pub fn get_parsed<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("--{name}: cannot parse `{raw}`")),
        }
    }

    /// Refuses every given flag outside `known`, naming them all — catches
    /// typos; `hint` is the `carq-cli` command that lists a schema's
    /// parameter flags. (Switches are checked at parse time and never
    /// unknown.)
    pub fn refuse_unknown(&self, known: &[&str], hint: Option<&str>) -> Result<(), String> {
        let unknown: Vec<&str> =
            self.pairs.iter().map(|(n, _)| n.as_str()).filter(|n| !known.contains(n)).collect();
        if unknown.is_empty() {
            return Ok(());
        }
        let hint = hint.map(|command| format!(" (see `carq-cli {command}`)")).unwrap_or_default();
        Err(format!("unknown flags: --{}{hint}", unknown.join(", --")))
    }

    /// The positive count `--name N`, if given: rounds, replicas, round
    /// chunks, shards and workers.
    pub fn count<T: FromStr + Default + PartialEq>(&self, name: &str) -> Result<Option<T>, String> {
        let Some(raw) = self.get(name) else { return Ok(None) };
        let count: T = raw.parse().map_err(|_| format!("--{name}: cannot parse `{raw}`"))?;
        if count == T::default() {
            return Err(format!("--{name} must be positive"));
        }
        Ok(Some(count))
    }

    /// The seed `--name S`, decimal or `0x` hex, with a default when
    /// absent (`--seed`, `--fault-seed`).
    pub fn seed(&self, name: &str, default: u64) -> Result<u64, String> {
        let Some(raw) = self.get(name) else { return Ok(default) };
        let parsed = match raw.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => raw.parse(),
        };
        parsed.map_err(|_| format!("--{name}: cannot parse `{raw}`"))
    }

    /// Whether `--format` asks for JSON rather than the default CSV.
    pub fn json(&self) -> Result<bool, String> {
        match self.get("format").unwrap_or("csv") {
            "csv" => Ok(false),
            "json" => Ok(true),
            format => Err(format!("unknown format `{format}` (csv, json)")),
        }
    }
}

/// Splits a comma-separated list, rejecting empty items.
pub fn split_list(raw: &str) -> Result<Vec<&str>, String> {
    let items: Vec<&str> = raw.split(',').map(str::trim).collect();
    if items.iter().any(|i| i.is_empty()) {
        return Err(format!("empty item in list `{raw}`"));
    }
    Ok(items)
}

/// Parses a `--PARAM v1,v2,...` list with `spec`'s one text parser
/// ([`ParamSpec::parse`]). Range checking happens against the schema, so
/// bad magnitudes get the schema's error message rather than a parser
/// guess.
pub fn spec_values(spec: &ParamSpec, raw: &str) -> Result<Vec<ParamValue>, String> {
    split_list(raw)?.into_iter().map(|item| spec.parse(item)).collect()
}

/// The one point override `verify` and `analyze` accept: a single
/// recovery strategy given as `--{flag} NAME`, parsed by `schema`'s spec of
/// the parameter. `None` without the flag.
pub fn strategy_override(
    schema: &ParamSchema,
    opts: &Options,
    flag: &str,
) -> Result<Option<ParamValue>, String> {
    let Some(raw) = opts.get(flag) else { return Ok(None) };
    let spec = schema.spec(Param::Strategy).ok_or_else(|| {
        let params = vec![Param::Strategy];
        ParamError::Unknown { scenario: schema.scenario(), params }.to_string()
    })?;
    let values = spec_values(spec, raw).map_err(|e| format!("--{flag}: {e}"))?;
    let [value] = values[..] else {
        return Err(format!("--{flag} takes exactly one recovery strategy"));
    };
    Ok(Some(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_parse_flag_value_pairs() {
        let opts = Options::parse(&strs(&["--seed", "7", "--threads", "4"])).unwrap();
        assert_eq!(opts.get("seed"), Some("7"));
        assert_eq!(opts.get_parsed("threads", 0usize).unwrap(), 4);
        assert_eq!(opts.get_parsed("rounds", 5u32).unwrap(), 5);
        assert!(opts.refuse_unknown(&["seed", "threads"], None).is_ok());
        assert_eq!(opts.refuse_unknown(&["seed"], None).unwrap_err(), "unknown flags: --threads");
        assert_eq!(
            opts.refuse_unknown(&[], Some("gen describe grid-city")).unwrap_err(),
            "unknown flags: --seed, --threads (see `carq-cli gen describe grid-city`)"
        );
    }

    #[test]
    fn counts_seeds_and_formats_parse_once() {
        let opts =
            Options::parse(&strs(&["--rounds", "3", "--shards", "0", "--workers", "x"])).unwrap();
        assert_eq!(opts.count::<u32>("rounds"), Ok(Some(3)));
        assert_eq!(opts.count::<u32>("replicas"), Ok(None));
        assert_eq!(opts.count::<usize>("shards").unwrap_err(), "--shards must be positive");
        assert_eq!(opts.count::<usize>("workers").unwrap_err(), "--workers: cannot parse `x`");
        let opts = Options::parse(&strs(&["--seed", "0xff", "--fault-seed", "42"])).unwrap();
        assert_eq!(opts.seed("seed", DEFAULT_SEED), Ok(255));
        assert_eq!(opts.seed("fault-seed", 7), Ok(42));
        let opts = Options::parse(&strs(&["--seed", "nope", "--format", "xml"])).unwrap();
        assert_eq!(opts.seed("seed", DEFAULT_SEED).unwrap_err(), "--seed: cannot parse `nope`");
        assert_eq!(opts.seed("fault-seed", 7), Ok(7));
        assert_eq!(opts.json().unwrap_err(), "unknown format `xml` (csv, json)");
        let json = |args: &[&str]| Options::parse(&strs(args)).unwrap().json();
        assert_eq!((json(&[]), json(&["--format", "json"])), (Ok(false), Ok(true)));
    }

    #[test]
    fn switches_take_no_value() {
        let opts = Options::parse_with_switches(
            &strs(&["--allow-unknown", "--seed", "7"]),
            &["allow-unknown"],
        )
        .unwrap();
        assert!(opts.has_switch("allow-unknown"));
        assert_eq!(opts.get("seed"), Some("7"));
        // A switch at the end consumes nothing.
        let opts = Options::parse_with_switches(
            &strs(&["--seed", "7", "--allow-unknown"]),
            &["allow-unknown"],
        )
        .unwrap();
        assert!(opts.has_switch("allow-unknown"));
        // Without the declaration it would have needed a value.
        assert!(Options::parse(&strs(&["--allow-unknown"])).is_err());
        // Duplicated switches are rejected.
        assert!(Options::parse_with_switches(
            &strs(&["--allow-unknown", "--allow-unknown"]),
            &["allow-unknown"],
        )
        .is_err());
    }

    #[test]
    fn options_reject_malformed_input() {
        assert!(Options::parse(&strs(&["seed"])).is_err());
        assert!(Options::parse(&strs(&["--seed"])).is_err());
        assert!(Options::parse(&strs(&["--seed", "1", "--seed", "2"])).is_err());
        let opts = Options::parse(&strs(&["--threads", "x"])).unwrap();
        assert!(opts.get_parsed("threads", 0usize).is_err());
    }

    #[test]
    fn value_lists_parse_through_the_spec() {
        use carq::RecoveryStrategyKind;
        let cars = ParamSpec::int(Param::NCars, "cars", 3, 1, 32);
        assert_eq!(spec_values(&cars, "1, 2,3").unwrap().len(), 3);
        assert!(spec_values(&cars, "1,,2").unwrap_err().contains("empty item"));
        assert!(spec_values(&cars, "1.5").unwrap_err().contains("unsigned integer"));
        let strategy = ParamSpec::strategy(Param::Strategy, "arq", RecoveryStrategyKind::CoopArq);
        let schema = ParamSchema::new("s", vec![strategy]);
        let flag = |args: &[&str]| {
            strategy_override(&schema, &Options::parse(&strs(args)).unwrap(), "strategy")
        };
        assert_eq!(flag(&[]), Ok(None));
        assert_eq!(
            flag(&["--strategy", "no-coop"]),
            Ok(Some(ParamValue::Strategy(RecoveryStrategyKind::NoCoop)))
        );
        assert!(flag(&["--strategy", "no-coop,coop-arq"]).unwrap_err().contains("exactly one"));
        assert!(flag(&["--strategy", "bogus"]).unwrap_err().starts_with("--strategy: `bogus`"));
        let without = ParamSchema::new("bare", vec![cars]);
        let opts = Options::parse(&strs(&["--strategy", "no-coop"])).unwrap();
        let err = strategy_override(&without, &opts, "strategy").unwrap_err();
        assert!(err.contains("does not consume parameter(s): strategy"), "{err}");
    }
}
