//! The content address of one cached round.

use std::fmt;

// The journal's record checksum: FNV-1a, the workspace's one specified hash
// (shared via `sim-core` so durable-format implementations cannot drift).
// It guards against torn writes and bit rot, not adversaries.
pub(crate) use sim_core::{fnv1a64, fnv1a64_chain4};

/// The content address of one round's report:
/// `(scenario, schema fingerprint, canonical configuration, round, round seed)`.
///
/// Everything that can change a round's result is in the key, so a hit is
/// *guaranteed* to equal what re-simulating would produce:
///
/// * the **scenario name** separates experiment families;
/// * the **schema fingerprint** (`ParamSchema::fingerprint`) invalidates
///   entries when a scenario's parameter semantics change;
/// * the **canonical configuration** (`ParamSchema::canonical_config`)
///   captures every parameter value that influences a round's physics,
///   losslessly, with defaults resolved;
/// * the **round** index and **round seed** pin down the one remaining
///   input of `run_round(round, seed)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    canonical: String,
}

impl CacheKey {
    /// Builds the key. `canonical_config` is the scenario schema's canonical
    /// rendering of the point (defaults resolved, round-neutral parameters
    /// excluded).
    ///
    /// # Panics
    ///
    /// Panics if `scenario` or `canonical_config` contains a newline (the
    /// journal's keys are single lines by construction).
    pub fn new(
        scenario: &str,
        schema_fingerprint: u64,
        canonical_config: &str,
        round: u32,
        round_seed: u64,
    ) -> Self {
        assert!(
            !scenario.contains('\n') && !canonical_config.contains('\n'),
            "cache key components must be single-line"
        );
        CacheKey {
            canonical: format!(
                "{scenario}|{schema_fingerprint:016x}|{canonical_config}|r{round}|s{round_seed:016x}"
            ),
        }
    }

    /// Re-wraps a canonical key line read back from a journal.
    pub(crate) fn from_canonical(canonical: String) -> Self {
        CacheKey { canonical }
    }

    /// The full canonical key line — what the journal stores.
    pub fn as_str(&self) -> &str {
        &self.canonical
    }

    /// Parses a canonical key line read back from a journal; `None` when the
    /// line is not a plausible key (multi-line, or missing the
    /// `scenario|fingerprint|config|rN|sHEX` shape).
    pub fn parse(line: &str) -> Option<Self> {
        if line.contains('\n') {
            return None;
        }
        let mut tail = line.rsplit('|');
        let seed = tail.next()?;
        let round = tail.next()?;
        // `scenario|fingerprint|config` leaves ≥ 3 more fields.
        if tail.count() < 3 || !seed.starts_with('s') || !round.starts_with('r') {
            return None;
        }
        Some(CacheKey { canonical: line.to_string() })
    }

    /// The scenario-name component (the first `|`-separated field).
    pub fn scenario(&self) -> &str {
        self.canonical.split('|').next().unwrap_or("")
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_distinct_per_component() {
        let base = CacheKey::new("urban", 1, "scenario=urban;n_cars=i3", 0, 7);
        assert_eq!(base, CacheKey::new("urban", 1, "scenario=urban;n_cars=i3", 0, 7));
        assert_ne!(base, CacheKey::new("highway", 1, "scenario=urban;n_cars=i3", 0, 7));
        assert_ne!(base, CacheKey::new("urban", 2, "scenario=urban;n_cars=i3", 0, 7));
        assert_ne!(base, CacheKey::new("urban", 1, "scenario=urban;n_cars=i4", 0, 7));
        assert_ne!(base, CacheKey::new("urban", 1, "scenario=urban;n_cars=i3", 1, 7));
        assert_ne!(base, CacheKey::new("urban", 1, "scenario=urban;n_cars=i3", 0, 8));
        assert_eq!(base.scenario(), "urban");
        assert!(base.to_string().contains("|r0|"));
    }

    #[test]
    fn parse_round_trips_canonical_lines() {
        let key = CacheKey::new("urban", 1, "scenario=urban;n_cars=i3", 2, 7);
        assert_eq!(CacheKey::parse(key.as_str()), Some(key));
        assert_eq!(CacheKey::parse("not a key"), None);
        assert_eq!(CacheKey::parse("a|b|c|d|e"), None, "tail fields must be rN/sHEX");
        assert_eq!(CacheKey::parse("urban|x|cfg|r0\n|s1"), None);
    }

    #[test]
    #[should_panic(expected = "single-line")]
    fn newlines_in_components_are_rejected() {
        let _ = CacheKey::new("ur\nban", 1, "x", 0, 0);
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned: this value is written into journals on disk.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
