//! Typed parameter schemas: which parameters a scenario (or a world
//! generator) consumes, with documentation, defaults and ranges — the one
//! text parser for their values, and the validation that turns a loose
//! [`SweepPoint`] into a trustworthy configuration.

use std::fmt;

use carq::{RecoveryStrategyKind, RequestStrategy, SelectionStrategy};

use crate::params::{Param, ParamValue, SweepPoint};

/// The type a parameter value must have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// A real number ([`ParamValue::Float`]; integers are accepted and
    /// widened).
    Float,
    /// An unsigned integer ([`ParamValue::Int`]).
    Int,
    /// An on/off value ([`ParamValue::Bool`]).
    Bool,
    /// A cooperator-selection strategy ([`ParamValue::Selection`]).
    Selection,
    /// A REQUEST strategy ([`ParamValue::Request`]).
    Request,
    /// A recovery strategy ([`ParamValue::Strategy`]).
    Strategy,
    /// One word of a closed vocabulary ([`ParamValue::Choice`]).
    Choice(&'static [&'static str]),
}

impl ParamKind {
    /// The kind name shown in schema listings and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            ParamKind::Float => "float",
            ParamKind::Int => "int",
            ParamKind::Bool => "bool",
            ParamKind::Selection => "selection",
            ParamKind::Request => "request",
            ParamKind::Strategy => "strategy",
            ParamKind::Choice(_) => "choice",
        }
    }

    /// The vocabulary of a choice kind; empty for every other kind.
    pub fn choices(&self) -> &'static [&'static str] {
        match self {
            ParamKind::Choice(words) => words,
            _ => &[],
        }
    }

    fn of(value: ParamValue) -> &'static str {
        match value {
            ParamValue::Float(_) => "float",
            ParamValue::Int(_) => "int",
            ParamValue::Bool(_) => "bool",
            ParamValue::Selection(_) => "selection",
            ParamValue::Request(_) => "request",
            ParamValue::Strategy(_) => "strategy",
            ParamValue::Choice(_) => "choice",
        }
    }
}

/// One documented parameter of a scenario or a world: its type, its default
/// (for a scenario, taken from its base configuration) and, for numeric
/// kinds, the inclusive range of accepted values.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// The parameter.
    pub param: Param,
    /// The type values must have.
    pub kind: ParamKind,
    /// One-line documentation shown by `carq-cli scenario describe` and
    /// `carq-cli gen describe`.
    pub doc: &'static str,
    /// The value used when a point does not assign the parameter.
    pub default: ParamValue,
    /// Inclusive numeric lower bound (`None` for non-numeric kinds).
    pub min: Option<f64>,
    /// Inclusive numeric upper bound (`None` for non-numeric kinds).
    pub max: Option<f64>,
    /// Whether the parameter is **round-neutral**: its value never
    /// influences the report of an individual round, only how many rounds
    /// run, when they settle early, or how they aggregate (see
    /// [`ParamSpec::round_neutral`]).
    pub round_neutral: bool,
    /// Whether the parameter is **default-transparent**: it is omitted from
    /// [`ParamSchema::canonical_config`] whenever its resolved value equals
    /// the spec default (see [`ParamSpec::default_transparent`]).
    pub default_transparent: bool,
}

impl ParamSpec {
    fn new(
        param: Param,
        kind: ParamKind,
        doc: &'static str,
        default: ParamValue,
        range: Option<(f64, f64)>,
    ) -> Self {
        ParamSpec {
            param,
            kind,
            doc,
            default,
            min: range.map(|(min, _)| min),
            max: range.map(|(_, max)| max),
            round_neutral: false,
            default_transparent: false,
        }
    }

    /// A float parameter accepted in `[min, max]`.
    pub fn float(param: Param, doc: &'static str, default: f64, min: f64, max: f64) -> Self {
        ParamSpec::new(param, ParamKind::Float, doc, ParamValue::Float(default), Some((min, max)))
    }

    /// An integer parameter accepted in `[min, max]`.
    pub fn int(param: Param, doc: &'static str, default: u64, min: u64, max: u64) -> Self {
        let range = Some((min as f64, max as f64));
        ParamSpec::new(param, ParamKind::Int, doc, ParamValue::Int(default), range)
    }

    /// A boolean parameter.
    pub fn bool(param: Param, doc: &'static str, default: bool) -> Self {
        ParamSpec::new(param, ParamKind::Bool, doc, ParamValue::Bool(default), None)
    }

    /// A cooperator-selection-strategy parameter.
    pub fn selection(param: Param, doc: &'static str, default: SelectionStrategy) -> Self {
        ParamSpec::new(param, ParamKind::Selection, doc, ParamValue::Selection(default), None)
    }

    /// A REQUEST-strategy parameter.
    pub fn request(param: Param, doc: &'static str, default: RequestStrategy) -> Self {
        ParamSpec::new(param, ParamKind::Request, doc, ParamValue::Request(default), None)
    }

    /// A recovery-strategy parameter.
    pub fn strategy(param: Param, doc: &'static str, default: RecoveryStrategyKind) -> Self {
        ParamSpec::new(param, ParamKind::Strategy, doc, ParamValue::Strategy(default), None)
    }

    /// A parameter over the closed vocabulary `choices`; the default must be
    /// one of them (checked by [`ParamSchema::new`]).
    pub fn choice(
        param: Param,
        doc: &'static str,
        default: &'static str,
        choices: &'static [&'static str],
    ) -> Self {
        let kind = ParamKind::Choice(choices);
        ParamSpec::new(param, kind, doc, ParamValue::Choice(default), None)
    }

    /// Marks the parameter as **round-neutral** (builder style): its value
    /// never influences what [`ScenarioRun::run_round`] returns for an
    /// individual round — only how many rounds run
    /// ([`ScenarioRun::rounds`]), when they settle early
    /// ([`ScenarioRun::is_settled`]), or how the reports aggregate.
    ///
    /// Round-neutral parameters are excluded from
    /// [`ParamSchema::canonical_config`], which is what lets a `--rounds 60`
    /// re-run reuse the cached rounds of a `--rounds 30` run, and lets the
    /// multi-AP download share per-visit reports across file sizes.
    ///
    /// Marking a parameter that *does* affect individual rounds is a
    /// scenario bug: cached reports would silently stand in for different
    /// physics.
    ///
    /// [`ScenarioRun::run_round`]: crate::ScenarioRun::run_round
    /// [`ScenarioRun::rounds`]: crate::ScenarioRun::rounds
    /// [`ScenarioRun::is_settled`]: crate::ScenarioRun::is_settled
    #[must_use]
    pub fn round_neutral(mut self) -> Self {
        self.round_neutral = true;
        self
    }

    /// Marks the parameter as **default-transparent** (builder style): when
    /// a point leaves it unassigned — or assigns exactly the spec default —
    /// it is omitted from [`ParamSchema::canonical_config`] altogether, as
    /// if the schema had never declared it.
    ///
    /// This is how a schema grows a new parameter without orphaning history:
    /// points at the default keep the canonical configuration (and therefore
    /// the derived seeds and golden exports) they had before the parameter
    /// existed, while any non-default assignment extends the canonical
    /// string and gets distinct seeds and cache keys automatically.
    ///
    /// Only parameters whose default reproduces the pre-parameter behaviour
    /// exactly may be marked; a default that changes the physics would make
    /// old canonical strings stand in for different results.
    #[must_use]
    pub fn default_transparent(mut self) -> Self {
        self.default_transparent = true;
        self
    }

    /// The `[min, max]` range rendered for listings, the vocabulary of a
    /// choice, or `-` when the kind has neither.
    pub fn range_label(&self) -> String {
        match (self.min, self.max, self.kind) {
            (Some(min), Some(max), ParamKind::Int) => format!("{}..={}", min as u64, max as u64),
            (Some(min), Some(max), _) => format!("{min}..={max}"),
            (_, _, ParamKind::Choice(words)) => words.join("|"),
            _ => "-".to_string(),
        }
    }

    /// Parses one value as a user types it: `2.5`, `3`, `on`/`off` (also
    /// `true`/`false`, `1`/`0`), `all`/`first2`/`strong1`,
    /// `per-packet`/`batched`, a recovery-strategy name, or a choice word.
    /// This is the one text parser behind every `--PARAM` flag; ranges are
    /// [`check`](ParamSpec::check)ed separately.
    ///
    /// # Errors
    ///
    /// A message naming the text and what the kind accepts.
    pub fn parse(&self, text: &str) -> Result<ParamValue, String> {
        let count = |k: &str| match k.parse::<usize>() {
            Ok(0) => Err(format!("`{text}`: the cooperator count must be positive")),
            Ok(k) => Ok(k),
            Err(_) => Err(format!("`{text}`: `{k}` is not a count")),
        };
        match self.kind {
            ParamKind::Float => {
                text.parse().map(ParamValue::Float).map_err(|_| format!("`{text}` is not a number"))
            }
            ParamKind::Int => text
                .parse()
                .map(ParamValue::Int)
                .map_err(|_| format!("`{text}` is not an unsigned integer")),
            ParamKind::Bool => match text {
                "on" | "true" | "1" => Ok(ParamValue::Bool(true)),
                "off" | "false" | "0" => Ok(ParamValue::Bool(false)),
                _ => Err(format!("`{text}` is not on/off")),
            },
            ParamKind::Selection => {
                let selection = if text == "all" {
                    SelectionStrategy::AllNeighbours
                } else if let Some(k) = text.strip_prefix("first") {
                    SelectionStrategy::FirstHeard { k: count(k)? }
                } else if let Some(k) = text.strip_prefix("strong") {
                    SelectionStrategy::StrongestSignal { k: count(k)? }
                } else {
                    return Err(format!(
                        "`{text}` is not a selection strategy (all, firstK, strongK)"
                    ));
                };
                Ok(ParamValue::Selection(selection))
            }
            ParamKind::Request => match text {
                "per-packet" => Ok(ParamValue::Request(RequestStrategy::PerPacket)),
                "batched" => Ok(ParamValue::Request(RequestStrategy::Batched)),
                _ => Err(format!("`{text}` is not a REQUEST strategy (per-packet, batched)")),
            },
            ParamKind::Strategy => {
                RecoveryStrategyKind::from_name(text).map(ParamValue::Strategy).ok_or_else(|| {
                    let names: Vec<&str> =
                        RecoveryStrategyKind::ALL.iter().map(|k| k.name()).collect();
                    format!("`{text}` is not a recovery strategy ({})", names.join(", "))
                })
            }
            ParamKind::Choice(words) => words
                .iter()
                .find(|word| **word == text)
                .map(|word| ParamValue::Choice(word))
                .ok_or_else(|| format!("`{text}` is not one of {}", words.join(", "))),
        }
    }

    /// Checks one assigned value against this spec and returns it as the
    /// spec holds it: an integer given for a float parameter widens to a
    /// float. `scenario` is the name of the scenario (or generator) doing the
    /// checking; it is carried into the error so that CLI messages name the
    /// rejecting schema, not just the parameter.
    pub fn check(
        &self,
        scenario: &'static str,
        value: ParamValue,
    ) -> Result<ParamValue, ParamError> {
        let (numeric, checked) = match (self.kind, value) {
            (ParamKind::Float, ParamValue::Float(x)) => (x, value),
            // Integers widen to floats (a sweep axis `10,20` may be typed as
            // ints even where the scenario wants a float).
            (ParamKind::Float, ParamValue::Int(x)) => (x as f64, ParamValue::Float(x as f64)),
            (ParamKind::Int, ParamValue::Int(x)) => (x as f64, value),
            (ParamKind::Choice(words), ParamValue::Choice(word)) => {
                if !words.contains(&word) {
                    return Err(self.range_error(scenario, value));
                }
                return Ok(value);
            }
            (ParamKind::Bool, ParamValue::Bool(_))
            | (ParamKind::Selection, ParamValue::Selection(_))
            | (ParamKind::Request, ParamValue::Request(_))
            | (ParamKind::Strategy, ParamValue::Strategy(_)) => return Ok(value),
            _ => {
                return Err(ParamError::Type {
                    scenario,
                    param: self.param,
                    expected: self.kind,
                    got: ParamKind::of(value),
                })
            }
        };
        let below = self.min.is_some_and(|min| numeric < min);
        let above = self.max.is_some_and(|max| numeric > max);
        if !numeric.is_finite() || below || above {
            return Err(self.range_error(scenario, value));
        }
        Ok(checked)
    }

    fn range_error(&self, scenario: &'static str, value: ParamValue) -> ParamError {
        ParamError::Range {
            scenario,
            param: self.param,
            value: value.to_string(),
            range: self.range_label(),
        }
    }
}

/// The typed parameter schema of one scenario, or of one world generator:
/// every parameter it consumes, in the order they are documented and
/// exported. A scenario's runtime schema and a generator's world schema
/// declare different parameters of the one [`Param`] vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSchema {
    scenario: &'static str,
    params: Vec<ParamSpec>,
}

impl ParamSchema {
    /// Creates the schema of `scenario` (or of a generator) from its
    /// parameter specs.
    ///
    /// # Panics
    ///
    /// Panics if a parameter is declared twice or a default violates its own
    /// spec (both programmer errors).
    pub fn new(scenario: &'static str, params: Vec<ParamSpec>) -> Self {
        for (i, spec) in params.iter().enumerate() {
            assert!(
                !params[..i].iter().any(|s| s.param == spec.param),
                "{scenario}: parameter {} declared twice",
                spec.param
            );
            if let Err(e) = spec.check(scenario, spec.default) {
                panic!("{scenario}: default for {} violates its own spec: {e}", spec.param);
            }
        }
        ParamSchema { scenario, params }
    }

    /// The scenario this schema belongs to.
    pub fn scenario(&self) -> &'static str {
        self.scenario
    }

    /// The parameter specs, in declaration order.
    pub fn params(&self) -> &[ParamSpec] {
        &self.params
    }

    /// The spec of `param`, if the scenario consumes it.
    pub fn spec(&self, param: Param) -> Option<&ParamSpec> {
        self.params.iter().find(|s| s.param == param)
    }

    /// Whether the scenario consumes `param`.
    pub fn contains(&self, param: Param) -> bool {
        self.spec(param).is_some()
    }

    /// The parameters `point` assigns that this schema does not declare.
    pub fn unknown_params(&self, point: &SweepPoint) -> Vec<Param> {
        point.assignments().iter().map(|(p, _)| *p).filter(|p| !self.contains(*p)).collect()
    }

    /// Validates `point` against this schema: every assigned parameter must
    /// be declared, of the right type and within range. Unknown parameters
    /// are an error — the silent-ignore behaviour of the old per-scenario
    /// adapters hid typos and unit mistakes; callers that really want to
    /// drive several scenarios from one spec strip the extras first with
    /// [`ParamSchema::strip_unknown`].
    pub fn validate(&self, point: &SweepPoint) -> Result<(), ParamError> {
        let unknown = self.unknown_params(point);
        if !unknown.is_empty() {
            return Err(ParamError::Unknown { scenario: self.scenario, params: unknown });
        }
        for (param, value) in point.assignments() {
            self.spec(*param).expect("declared above").check(self.scenario, *value)?;
        }
        Ok(())
    }

    /// Validates `point` (as [`validate`](ParamSchema::validate) does) and
    /// resolves it against the defaults: every declared parameter, in
    /// declaration order, with its [checked](ParamSpec::check) value. This
    /// is a generated world's resolved form, whose
    /// [`canonical`](SweepPoint::canonical) rendering is part of its
    /// identity.
    pub fn resolve(&self, point: &SweepPoint) -> Result<SweepPoint, ParamError> {
        self.validate(point)?;
        let resolved = self.params.iter().map(|spec| {
            let value = point.get(spec.param).unwrap_or(spec.default);
            Ok((spec.param, spec.check(self.scenario, value)?))
        });
        resolved.collect::<Result<_, _>>().map(SweepPoint::new)
    }

    /// A copy of `point` without the parameters this schema does not declare
    /// — the `--allow-unknown` escape hatch.
    pub fn strip_unknown(&self, point: &SweepPoint) -> SweepPoint {
        point.without(&self.unknown_params(point))
    }

    /// The **canonical configuration** `point` resolves to: every declared
    /// parameter with its assigned-or-default value in declaration order,
    /// as [`ParamSpec::check`] holds it (an integer given for a float
    /// parameter widens), rendered losslessly ([`ParamValue::canonical`]) —
    /// except [round-neutral](ParamSpec::round_neutral) parameters, which
    /// are skipped.
    ///
    /// Two points with the same canonical configuration run **identical
    /// physics** per round, however they were spelled: explicit defaults,
    /// omitted defaults, integers for floats, extra unknown parameters (not
    /// declared here) and differing round budgets all resolve to the same
    /// string. A value the check refuses renders as given. The sweep
    /// engine derives per-point seeds from this string and the round cache
    /// keys on it, so equal configurations share seeds, reports and cache
    /// entries across sweeps, grid positions and spec edits.
    pub fn canonical_config(&self, point: &SweepPoint) -> String {
        let mut out = String::from("scenario=");
        out.push_str(self.scenario);
        for spec in &self.params {
            if spec.round_neutral {
                continue;
            }
            let value = point.get(spec.param).unwrap_or(spec.default);
            let value = spec.check(self.scenario, value).unwrap_or(value);
            if spec.default_transparent && value == spec.default {
                continue;
            }
            out.push(';');
            out.push_str(spec.param.key());
            out.push('=');
            out.push_str(&value.canonical());
        }
        out
    }

    /// A stable 64-bit fingerprint of the schema's *semantics*: the scenario
    /// name plus every parameter's key, kind, default, range and
    /// round-neutrality. Documentation strings are deliberately excluded —
    /// rewording a parameter's help must not invalidate cached results.
    ///
    /// The round cache stores this next to every entry, so a schema change
    /// (new parameter, changed default or range) reads as a cache miss
    /// instead of silently replaying results computed under different
    /// semantics.
    pub fn fingerprint(&self) -> u64 {
        let mut text = String::from(self.scenario);
        for spec in &self.params {
            text.push('\n');
            text.push_str(spec.param.key());
            text.push('|');
            text.push_str(spec.kind.name());
            if spec.round_neutral {
                // A round-neutral parameter's *value* never reaches a
                // round's physics, so its default and range are budgets,
                // not semantics: `--rounds 60` re-instantiates the scenario
                // with a different Rounds default and must keep hitting the
                // rounds cached under `--rounds 30`.
                text.push_str("|neutral");
                continue;
            }
            text.push('|');
            text.push_str(&spec.default.canonical());
            text.push('|');
            match (spec.min, spec.max) {
                (Some(min), Some(max)) => {
                    text.push_str(&format!("{:016x}..{:016x}", min.to_bits(), max.to_bits()));
                }
                _ => text.push('-'),
            }
            if spec.default_transparent {
                // Transparency changes which canonical strings exist, so
                // adding (or dropping) it must read as a schema change —
                // cached entries from before the flag are clean misses.
                text.push_str("|transparent");
            }
        }
        fnv1a64(text.as_bytes())
    }

    /// Renders the schema as the fixed-width table `carq-cli scenario
    /// describe` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:<10} {:<14} {:<14} description\n",
            "parameter", "type", "default", "range"
        ));
        for spec in &self.params {
            out.push_str(&format!(
                "{:<14} {:<10} {:<14} {:<14} {}\n",
                spec.param.key(),
                spec.kind.name(),
                spec.default.to_string(),
                spec.range_label(),
                spec.doc
            ));
        }
        out
    }
}

// The stable hash behind `ParamSchema::fingerprint`: its output is
// specified and never changes across releases, which an on-disk cache key
// requires.
use sim_core::fnv1a64;

/// Why a [`SweepPoint`] was rejected by a scenario's schema. Every variant
/// names the rejecting scenario, so a message bubbling out of a big sweep
/// pinpoints its origin without a stack trace.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    /// The point assigns parameters the scenario does not consume.
    Unknown {
        /// The rejecting scenario.
        scenario: &'static str,
        /// The unrecognized parameters, in assignment order.
        params: Vec<Param>,
    },
    /// A value has the wrong type.
    Type {
        /// The rejecting scenario.
        scenario: &'static str,
        /// The offending parameter.
        param: Param,
        /// The type the schema expects.
        expected: ParamKind,
        /// The type the point assigned.
        got: &'static str,
    },
    /// A numeric value is outside the accepted range (or not finite).
    Range {
        /// The rejecting scenario.
        scenario: &'static str,
        /// The offending parameter.
        param: Param,
        /// The rendered offending value.
        value: String,
        /// The rendered accepted range.
        range: String,
    },
}

impl ParamError {
    /// The scenario that rejected the point.
    pub fn scenario(&self) -> &'static str {
        match self {
            ParamError::Unknown { scenario, .. }
            | ParamError::Type { scenario, .. }
            | ParamError::Range { scenario, .. } => scenario,
        }
    }
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::Unknown { scenario, params } => {
                let names: Vec<&str> = params.iter().map(Param::key).collect();
                write!(
                    f,
                    "scenario `{scenario}` does not consume parameter(s): {} \
                     (use --allow-unknown to ignore them)",
                    names.join(", ")
                )
            }
            ParamError::Type { scenario, param, expected, got } => {
                write!(
                    f,
                    "scenario `{scenario}`: parameter `{param}` expects a {} value, got {got}",
                    expected.name()
                )
            }
            ParamError::Range { scenario, param, value, range } => {
                write!(
                    f,
                    "scenario `{scenario}`: parameter `{param}`: value {value} is outside \
                     the range {range}"
                )
            }
        }
    }
}

impl std::error::Error for ParamError {}

#[cfg(test)]
mod tests {
    use super::*;
    use carq::SelectionStrategy;

    fn schema() -> ParamSchema {
        ParamSchema::new(
            "test",
            vec![
                ParamSpec::float(Param::SpeedKmh, "speed", 20.0, 1.0, 200.0),
                ParamSpec::int(Param::NCars, "cars", 3, 1, 32),
                ParamSpec::bool(Param::Cooperation, "coop", true),
                ParamSpec::selection(Param::Selection, "sel", SelectionStrategy::AllNeighbours),
            ],
        )
    }

    #[test]
    fn valid_points_pass() {
        let s = schema();
        let point = SweepPoint::new(vec![
            (Param::SpeedKmh, ParamValue::Float(30.0)),
            (Param::NCars, ParamValue::Int(5)),
            (Param::Cooperation, ParamValue::Bool(false)),
        ]);
        assert!(s.validate(&point).is_ok());
        assert!(s.validate(&SweepPoint::empty()).is_ok());
        // Ints widen into float parameters.
        let widened = SweepPoint::new(vec![(Param::SpeedKmh, ParamValue::Int(30))]);
        assert!(s.validate(&widened).is_ok());
    }

    #[test]
    fn unknown_parameters_are_listed() {
        let s = schema();
        let point = SweepPoint::new(vec![
            (Param::FileBlocks, ParamValue::Int(100)),
            (Param::Rounds, ParamValue::Int(2)),
        ]);
        let err = s.validate(&point).unwrap_err();
        assert_eq!(
            err,
            ParamError::Unknown {
                scenario: "test",
                params: vec![Param::FileBlocks, Param::Rounds]
            }
        );
        let message = err.to_string();
        assert!(message.contains("file_blocks"), "{message}");
        assert!(message.contains("rounds"), "{message}");
        assert!(message.contains("--allow-unknown"), "{message}");
        // The escape hatch strips exactly those parameters.
        let stripped = s.strip_unknown(&point);
        assert!(stripped.assignments().is_empty());
    }

    #[test]
    fn canonical_config_resolves_defaults_and_skips_round_neutral() {
        let s = ParamSchema::new(
            "canon",
            vec![
                ParamSpec::float(Param::SpeedKmh, "speed", 20.0, 1.0, 200.0),
                ParamSpec::int(Param::NCars, "cars", 3, 1, 32),
                ParamSpec::int(Param::Rounds, "rounds", 5, 1, 100).round_neutral(),
            ],
        );
        let explicit = SweepPoint::new(vec![
            (Param::NCars, ParamValue::Int(3)),
            (Param::SpeedKmh, ParamValue::Float(20.0)),
            (Param::Rounds, ParamValue::Int(50)),
        ]);
        // Omitted defaults, explicit defaults, assignment order and the
        // round budget all resolve to the same canonical configuration.
        assert_eq!(s.canonical_config(&SweepPoint::empty()), s.canonical_config(&explicit));
        let canon = s.canonical_config(&explicit);
        assert!(canon.starts_with("scenario=canon;speed_kmh=f"), "{canon}");
        assert!(canon.contains(";n_cars=i3"), "{canon}");
        assert!(!canon.contains("rounds"), "round-neutral params must be skipped: {canon}");
        // A genuinely different value changes it.
        let faster = SweepPoint::new(vec![(Param::SpeedKmh, ParamValue::Float(30.0))]);
        assert_ne!(s.canonical_config(&faster), canon);
        // Parameters outside the schema are ignored.
        let with_extra = SweepPoint::new(vec![(Param::FileBlocks, ParamValue::Int(9))]);
        assert_eq!(s.canonical_config(&with_extra), s.canonical_config(&SweepPoint::empty()));
        // An integer for a float renders as the float the check widens it
        // to, also where it equals the default.
        let int_speed = SweepPoint::new(vec![(Param::SpeedKmh, ParamValue::Int(20))]);
        assert_eq!(s.canonical_config(&int_speed), canon);
    }

    #[test]
    fn default_transparent_params_vanish_from_canonical_at_their_default() {
        use carq::RecoveryStrategyKind;
        let with = ParamSchema::new(
            "canon",
            vec![
                ParamSpec::int(Param::NCars, "cars", 3, 1, 32),
                ParamSpec::strategy(Param::Strategy, "arq", RecoveryStrategyKind::CoopArq)
                    .default_transparent(),
            ],
        );
        let without =
            ParamSchema::new("canon", vec![ParamSpec::int(Param::NCars, "cars", 3, 1, 32)]);
        // At the default — unassigned or assigned explicitly — the canonical
        // configuration is the one the schema had before the parameter
        // existed, so historical seeds and goldens survive the schema growth.
        let explicit_default = SweepPoint::new(vec![(
            Param::Strategy,
            ParamValue::Strategy(RecoveryStrategyKind::CoopArq),
        )]);
        assert_eq!(
            with.canonical_config(&SweepPoint::empty()),
            without.canonical_config(&SweepPoint::empty())
        );
        assert_eq!(
            with.canonical_config(&explicit_default),
            without.canonical_config(&SweepPoint::empty())
        );
        // Any non-default value extends the canonical string — distinct
        // seeds and cache keys with zero cache-layer changes.
        let rival = SweepPoint::new(vec![(
            Param::Strategy,
            ParamValue::Strategy(RecoveryStrategyKind::NoCoop),
        )]);
        let canon = with.canonical_config(&rival);
        assert_ne!(canon, with.canonical_config(&SweepPoint::empty()));
        assert!(canon.ends_with(";strategy=no-coop"), "{canon}");
        // Each strategy gets its own canonical string.
        let mut canons: Vec<String> = RecoveryStrategyKind::ALL
            .iter()
            .map(|k| {
                with.canonical_config(&SweepPoint::new(vec![(
                    Param::Strategy,
                    ParamValue::Strategy(*k),
                )]))
            })
            .collect();
        canons.sort();
        canons.dedup();
        assert_eq!(canons.len(), RecoveryStrategyKind::ALL.len(), "one canonical per strategy");
    }

    #[test]
    fn fingerprint_tracks_semantics_not_docs() {
        let base = ParamSchema::new("fp", vec![ParamSpec::int(Param::NCars, "cars", 3, 1, 32)]);
        let reworded =
            ParamSchema::new("fp", vec![ParamSpec::int(Param::NCars, "platoon size", 3, 1, 32)]);
        assert_eq!(base.fingerprint(), reworded.fingerprint(), "doc rewording must not matter");
        let wider = ParamSchema::new("fp", vec![ParamSpec::int(Param::NCars, "cars", 3, 1, 64)]);
        assert_ne!(base.fingerprint(), wider.fingerprint(), "range change must matter");
        let neutral = ParamSchema::new(
            "fp",
            vec![ParamSpec::int(Param::NCars, "cars", 3, 1, 32).round_neutral()],
        );
        assert_ne!(base.fingerprint(), neutral.fingerprint(), "neutrality change must matter");
        let renamed = ParamSchema::new("fq", vec![ParamSpec::int(Param::NCars, "cars", 3, 1, 32)]);
        assert_ne!(base.fingerprint(), renamed.fingerprint(), "scenario name must matter");
        // Stable across calls (it keys an on-disk cache).
        assert_eq!(base.fingerprint(), base.fingerprint());
        // A round-neutral parameter's default is a budget, not semantics:
        // presets re-instantiate scenarios with the requested rounds as the
        // schema default, and `--rounds 60` must keep hitting the rounds
        // cached under `--rounds 30`.
        let budget_30 = ParamSchema::new(
            "fp",
            vec![ParamSpec::int(Param::Rounds, "rounds", 30, 1, 100).round_neutral()],
        );
        let budget_60 = ParamSchema::new(
            "fp",
            vec![ParamSpec::int(Param::Rounds, "rounds", 60, 1, 100).round_neutral()],
        );
        assert_eq!(budget_30.fingerprint(), budget_60.fingerprint());
        // Default-transparency changes which canonical strings a schema can
        // produce, so it must read as a schema change (clean cache misses).
        let transparent = ParamSchema::new(
            "fp",
            vec![ParamSpec::int(Param::NCars, "cars", 3, 1, 32).default_transparent()],
        );
        assert_ne!(base.fingerprint(), transparent.fingerprint(), "transparency must matter");
    }

    #[test]
    fn errors_name_the_rejecting_scenario() {
        let s = schema();
        let err =
            s.validate(&SweepPoint::new(vec![(Param::NCars, ParamValue::Float(2.5))])).unwrap_err();
        assert_eq!(err.scenario(), "test");
        assert!(err.to_string().contains("scenario `test`"), "{err}");
        let err =
            s.validate(&SweepPoint::new(vec![(Param::NCars, ParamValue::Int(0))])).unwrap_err();
        assert_eq!(err.scenario(), "test");
        assert!(err.to_string().contains("scenario `test`"), "{err}");
        let err =
            s.validate(&SweepPoint::new(vec![(Param::Rounds, ParamValue::Int(1))])).unwrap_err();
        assert_eq!(err.scenario(), "test");
    }

    #[test]
    fn type_mismatches_are_rejected() {
        let s = schema();
        let err =
            s.validate(&SweepPoint::new(vec![(Param::NCars, ParamValue::Float(2.5))])).unwrap_err();
        assert!(matches!(err, ParamError::Type { param: Param::NCars, .. }), "{err}");
        let err = s
            .validate(&SweepPoint::new(vec![(Param::Cooperation, ParamValue::Int(1))]))
            .unwrap_err();
        assert!(err.to_string().contains("expects a bool"), "{err}");
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        let s = schema();
        for bad in [ParamValue::Float(0.0), ParamValue::Float(500.0), ParamValue::Float(f64::NAN)] {
            let err = s.validate(&SweepPoint::new(vec![(Param::SpeedKmh, bad)])).unwrap_err();
            assert!(matches!(err, ParamError::Range { param: Param::SpeedKmh, .. }), "{err}");
        }
        let err =
            s.validate(&SweepPoint::new(vec![(Param::NCars, ParamValue::Int(0))])).unwrap_err();
        assert!(err.to_string().contains("1..=32"), "{err}");
    }

    #[test]
    fn specs_carry_defaults_and_lookups_work() {
        let s = schema();
        assert_eq!(s.spec(Param::SpeedKmh).unwrap().default, ParamValue::Float(20.0));
        assert_eq!(s.spec(Param::Cooperation).unwrap().default, ParamValue::Bool(true));
        assert!(s.contains(Param::NCars));
        assert!(!s.contains(Param::FileBlocks));
        assert_eq!(s.scenario(), "test");
    }

    #[test]
    fn render_lists_every_parameter() {
        let rendered = schema().render();
        for key in ["speed_kmh", "n_cars", "cooperation", "selection"] {
            assert!(rendered.contains(key), "missing {key} in:\n{rendered}");
        }
        assert!(rendered.contains("1..=32"), "{rendered}");
    }

    fn world() -> ParamSchema {
        ParamSchema::new(
            "world",
            vec![
                ParamSpec::float(Param::BlockM, "block edge", 80.0, 40.0, 400.0),
                ParamSpec::int(Param::NAps, "APs", 1, 1, 4),
                ParamSpec::bool(Param::Bidirectional, "two-way", true),
                ParamSpec::choice(
                    Param::ApPlacement,
                    "AP sites",
                    "center",
                    &["center", "corner", "perimeter"],
                ),
            ],
        )
    }

    #[test]
    fn one_parser_reads_every_kind_as_typed() {
        let w = world();
        let spec = |p| w.spec(p).unwrap();
        assert_eq!(spec(Param::BlockM).parse("95.5"), Ok(ParamValue::Float(95.5)));
        assert_eq!(spec(Param::NAps).parse("3"), Ok(ParamValue::Int(3)));
        for (text, on) in [("on", true), ("true", true), ("1", true), ("off", false), ("0", false)]
        {
            assert_eq!(spec(Param::Bidirectional).parse(text), Ok(ParamValue::Bool(on)), "{text}");
        }
        assert_eq!(spec(Param::ApPlacement).parse("corner"), Ok(ParamValue::Choice("corner")));
        let err = spec(Param::ApPlacement).parse("moon").unwrap_err();
        assert_eq!(err, "`moon` is not one of center, corner, perimeter");
        assert_eq!(spec(Param::BlockM).parse("wide").unwrap_err(), "`wide` is not a number");
        assert!(spec(Param::NAps).parse("1.5").unwrap_err().contains("unsigned integer"));
        assert!(spec(Param::Bidirectional).parse("maybe").unwrap_err().contains("on/off"));
        let s = schema();
        assert_eq!(
            s.spec(Param::Selection).unwrap().parse("strong2"),
            Ok(ParamValue::Selection(SelectionStrategy::StrongestSignal { k: 2 }))
        );
        assert!(s
            .spec(Param::Selection)
            .unwrap()
            .parse("first0")
            .unwrap_err()
            .contains("positive"));
        assert!(s.spec(Param::Selection).unwrap().parse("firstx").unwrap_err().contains("count"));
        assert!(s.spec(Param::Selection).unwrap().parse("bogus").is_err());
        let request = ParamSpec::request(Param::Request, "req", carq::RequestStrategy::PerPacket);
        assert_eq!(
            request.parse("batched"),
            Ok(ParamValue::Request(carq::RequestStrategy::Batched))
        );
        assert!(request.parse("unicast").is_err());
        let strategy =
            ParamSpec::strategy(Param::Strategy, "arq", carq::RecoveryStrategyKind::CoopArq);
        assert_eq!(
            strategy.parse("no-coop"),
            Ok(ParamValue::Strategy(carq::RecoveryStrategyKind::NoCoop))
        );
        assert!(strategy.parse("bogus").unwrap_err().contains("coop-arq, net-coded"));
    }

    #[test]
    fn resolve_fills_defaults_in_declaration_order_and_widens() {
        let w = world();
        let point = SweepPoint::new(vec![
            (Param::ApPlacement, ParamValue::Choice("corner")),
            (Param::BlockM, ParamValue::Int(100)),
        ]);
        let resolved = w.resolve(&point).unwrap();
        assert_eq!(
            resolved.canonical(),
            format!(
                "block_m=f{:016x};n_aps=i1;bidirectional=b1;ap_placement=corner",
                100.0f64.to_bits()
            )
        );
        assert_eq!(w.resolve(&resolved), Ok(resolved.clone()), "resolution is idempotent");
        let bad = |p, v| w.resolve(&SweepPoint::new(vec![(p, v)])).unwrap_err();
        assert!(matches!(bad(Param::NAps, ParamValue::Int(9)), ParamError::Range { .. }));
        assert!(matches!(bad(Param::NAps, ParamValue::Bool(true)), ParamError::Type { .. }));
        let err = bad(Param::ApPlacement, ParamValue::Choice("ring"));
        assert!(err.to_string().contains("center|corner|perimeter"), "{err}");
        assert!(matches!(bad(Param::NCars, ParamValue::Int(2)), ParamError::Unknown { .. }));
        assert!(w.render().contains("choice"), "{}", w.render());
    }

    #[test]
    #[should_panic(expected = "violates its own spec")]
    fn choice_default_outside_the_vocabulary_rejected() {
        let _ = ParamSchema::new(
            "bad",
            vec![ParamSpec::choice(Param::ApPlacement, "sites", "moon", &["center"])],
        );
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn duplicate_declarations_rejected() {
        let _ = ParamSchema::new(
            "dup",
            vec![
                ParamSpec::int(Param::NCars, "cars", 3, 1, 32),
                ParamSpec::int(Param::NCars, "cars", 3, 1, 32),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "violates its own spec")]
    fn invalid_default_rejected() {
        let _ = ParamSchema::new("bad", vec![ParamSpec::int(Param::NCars, "cars", 0, 1, 32)]);
    }
}
