//! The `VANETGEN1` scenario file: a generated scenario's identity, on disk.
//!
//! The file stores **only** the identity — generator name, gen seed, and
//! the canonical parameter vector — never the blueprint. Decoding
//! regenerates the world from scratch, which is what makes the format
//! future-proof against blueprint layout changes and keeps files tiny
//! (a campaign of thousands of scenarios is a few hundred kilobytes).
//!
//! The layout follows the fleet's `VANETFLEET2` shard files: a magic line,
//! ordered `key=value` headers, then one `param=` line per resolved
//! parameter in schema declaration order:
//!
//! ```text
//! VANETGEN1
//! generator=grid-city
//! gen_seed=0x0000000000000007
//! param=ap_rate_pps=f4014000000000000
//! param=n_cars=i2
//! ...
//! ```
//!
//! [`encode`] ∘ [`decode`] is the identity on well-formed files, and
//! [`decode`] ∘ [`encode`] regenerates the exact same scenario (same name,
//! same blueprint, same cache keys) — both properties are tested below.

use vanet_scenarios::ParamValue;

use crate::generators::{lookup, GenError};
use crate::scenario::{decode_value, generate, parse_gen_seed, GenIdentity, GeneratedScenario};

/// First line of every generated-scenario file; bump on layout changes.
pub const GEN_MAGIC: &str = "VANETGEN1";

fn parse_error(line: usize, message: impl Into<String>) -> GenError {
    GenError::Parse { line, message: message.into() }
}

/// Renders a generated scenario's identity as a `VANETGEN1` file.
///
/// The rendering is a pure function of the identity: same `(generator,
/// params, seed)` → byte-identical file, on any platform, at any time.
pub fn encode(identity: &GenIdentity) -> String {
    let mut out = String::new();
    out.push_str(GEN_MAGIC);
    out.push('\n');
    out.push_str(&format!("generator={}\n", identity.generator));
    out.push_str(&format!("gen_seed={:#018x}\n", identity.seed));
    for (param, value) in identity.params.assignments() {
        out.push_str(&format!("param={param}={}\n", value.canonical()));
    }
    out
}

/// Parses a `VANETGEN1` file and regenerates the scenario it names.
///
/// Unassigned parameters take their schema defaults (resolution is what
/// defines the identity, so a hand-trimmed file and a full one naming the
/// same values decode to the same scenario). Unknown generators, unknown or
/// duplicated parameters, malformed canonical values and header violations
/// are all rejected with the 1-based line number.
///
/// # Errors
///
/// [`GenError::Parse`] describing the first offending line.
pub fn decode(text: &str) -> Result<GeneratedScenario, GenError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));

    let (line, magic) = lines.next().ok_or_else(|| parse_error(1, "empty file"))?;
    if magic != GEN_MAGIC {
        return Err(parse_error(line, format!("expected magic `{GEN_MAGIC}`, found `{magic}`")));
    }

    let mut generator = None;
    let mut seed = None;
    let mut assignments: Vec<(String, ParamValue)> = Vec::new();

    for (line, text) in lines {
        if text.is_empty() {
            continue;
        }
        let (key, value) = text
            .split_once('=')
            .ok_or_else(|| parse_error(line, format!("expected `key=value`, found `{text}`")))?;
        match key {
            "generator" => {
                if generator.is_some() {
                    return Err(parse_error(line, "duplicate `generator` header"));
                }
                let found = lookup(value).map_err(|e| parse_error(line, e.to_string()))?;
                generator = Some(found);
            }
            "gen_seed" => {
                if seed.is_some() {
                    return Err(parse_error(line, "duplicate `gen_seed` header"));
                }
                seed = Some(parse_gen_seed(value).map_err(|e| parse_error(line, e))?);
            }
            "param" => {
                let generator = generator.as_ref().ok_or_else(|| {
                    parse_error(line, "`param` lines must follow the `generator` header")
                })?;
                let (pkey, ptext) = value.split_once('=').ok_or_else(|| {
                    parse_error(line, format!("expected `param=key=value`, found `{text}`"))
                })?;
                let parsed =
                    decode_value(generator, pkey, ptext).map_err(|m| parse_error(line, m))?;
                if assignments.iter().any(|(k, _)| k == pkey) {
                    return Err(parse_error(line, format!("parameter `{pkey}` assigned twice")));
                }
                assignments.push((pkey.to_string(), parsed));
            }
            _ => return Err(parse_error(line, format!("unknown header `{key}`"))),
        }
    }

    let generator = generator.ok_or_else(|| parse_error(1, "missing `generator` header"))?;
    let seed = seed.ok_or_else(|| parse_error(1, "missing `gen_seed` header"))?;
    let params = generator.resolve(&assignments).map_err(|e| parse_error(1, e.to_string()))?;
    Ok(generate(&generator, params, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::instantiate;
    use vanet_scenarios::Scenario as _;

    fn sample() -> GeneratedScenario {
        instantiate(
            "highway-flow",
            &[
                ("road_length_m".to_string(), ParamValue::Float(300.0)),
                ("n_cars".to_string(), ParamValue::Int(2)),
                ("bidirectional".to_string(), ParamValue::Bool(false)),
            ],
            0x5eed,
        )
        .unwrap()
    }

    #[test]
    fn encode_decode_round_trips_bit_for_bit() {
        let scenario = sample();
        let text = encode(scenario.identity());
        assert!(text.starts_with("VANETGEN1\ngenerator=highway-flow\ngen_seed=0x"), "{text}");
        let decoded = decode(&text).unwrap();
        assert_eq!(decoded.name(), scenario.name());
        assert_eq!(decoded.identity(), scenario.identity());
        assert_eq!(decoded.blueprint(), scenario.blueprint());
        // Re-encoding the decoded scenario reproduces the file exactly.
        assert_eq!(encode(decoded.identity()), text);
    }

    #[test]
    fn partial_files_resolve_defaults_to_the_same_identity() {
        let scenario = sample();
        // A hand-written file naming only the non-default parameters.
        let trimmed = format!(
            "VANETGEN1\ngenerator=highway-flow\ngen_seed={:#018x}\n\
             param=road_length_m=f{:016x}\nparam=n_cars=i2\nparam=bidirectional=b0\n",
            0x5eed_u64,
            300.0f64.to_bits()
        );
        let decoded = decode(&trimmed).unwrap();
        assert_eq!(decoded.name(), scenario.name(), "defaults are part of the identity");
    }

    #[test]
    fn blank_lines_and_whitespace_are_tolerated() {
        let text = encode(sample().identity()).replace('\n', "\n\n");
        let padded: String = text.lines().map(|l| format!("  {l}  \n")).collect();
        assert_eq!(decode(&padded).unwrap().name(), sample().name());
    }

    #[test]
    fn decode_rejects_malformed_files() {
        let good = encode(sample().identity());
        let cases: Vec<(String, &str)> = vec![
            (String::new(), "empty file"),
            (good.replacen("VANETGEN1", "VANETGEN9", 1), "expected magic"),
            (
                good.replacen("generator=highway-flow", "generator=mars-rover", 1),
                "unknown generator",
            ),
            (good.replacen("gen_seed=0x", "gen_seed=", 1), "0x-prefixed hex"),
            (good.replacen("gen_seed=0x", "gen_seed=0xzz", 1), "0x-prefixed hex"),
            (format!("{good}generator=highway-flow\n"), "duplicate `generator`"),
            (format!("{good}gen_seed=0x0000000000000001\n"), "duplicate `gen_seed`"),
            (good.replacen("param=road_length_m=", "param=warp_factor=", 1), "no parameter"),
            (good.replacen("param=n_cars=i2", "param=n_cars=i2\nparam=n_cars=i2", 1), "twice"),
            (good.replacen("param=n_cars=i2", "param=n_cars=b1", 1), "expects a int"),
            (good.replacen("param=n_cars=i2", "param=n_cars=i999", 1), "outside the range 1..=8"),
            (good.replacen("param=n_cars=i2", "param=n_cars=banana", 1), "not a canonical value"),
            (good.replacen("param=n_cars=i2", "param=n_cars", 1), "param=key=value"),
            (format!("{good}horizon=12\n"), "unknown header `horizon`"),
            (good.replacen("VANETGEN1\n", "VANETGEN1\nparam=n_cars=i2\n", 1), "must follow"),
            ("VANETGEN1\ngen_seed=0x0000000000000001\n".to_string(), "missing `generator`"),
            ("VANETGEN1\ngenerator=highway-flow\n".to_string(), "missing `gen_seed`"),
            (good.replacen("param=n_cars=i2", "just some text", 1), "key=value"),
        ];
        for (text, needle) in cases {
            let err = decode(&text).expect_err(&format!("accepted malformed file:\n{text}"));
            let message = err.to_string();
            assert!(
                message.contains(needle),
                "error `{message}` does not mention `{needle}` for:\n{text}"
            );
            assert!(matches!(err, GenError::Parse { .. }), "{err:?}");
        }
    }

    #[test]
    fn decode_reports_line_numbers() {
        let good = encode(sample().identity());
        let bad = good.replacen("param=n_cars=i2", "param=n_cars=i999", 1);
        let GenError::Parse { line, .. } = decode(&bad).unwrap_err() else {
            panic!("expected a parse error")
        };
        // Header is 3 lines; n_cars is the 2nd declared parameter.
        assert_eq!(line, 5, "line number should point at the offending param line");
    }
}
