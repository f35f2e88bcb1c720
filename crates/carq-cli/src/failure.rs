//! The CLI's typed exit-code contract.
//!
//! Every failure a subcommand can report carries the process exit code it
//! maps to, so callers and CI can branch on *why* a command failed without
//! parsing stderr:
//!
//! | exit | meaning |
//! |------|---------|
//! | 0    | success, also when the reader of standard output closed it early |
//! | 1    | a check failed: invariant violation (`verify`), stream divergence (`analyze diff`), chaos convergence mismatch (`chaos`) |
//! | 2    | usage or operational error (bad flags, unreadable files, I/O) |
//! | 3    | degraded: a fleet/campaign run quarantined a shard and exported partial coverage plus a gap report |
//!
//! The contract is documented in `docs/RESILIENCE.md` and locked by the
//! `exit_codes` integration test.

/// A check (invariant, divergence, convergence) failed on valid input.
pub const EXIT_CHECK_FAILED: u8 = 1;

/// The command could not run: bad usage or an operational error.
pub const EXIT_USAGE: u8 = 2;

/// The command ran but only delivered partial coverage (quarantined
/// shards); a gap report says what is missing.
pub const EXIT_DEGRADED: u8 = 3;

/// A failed subcommand: a message for stderr plus the exit code it maps
/// to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliFailure {
    /// Process exit code (see the module table).
    pub exit: u8,
    /// Human-readable failure description.
    pub message: String,
}

impl CliFailure {
    /// A failed check on valid input — exit 1.
    pub fn check(message: impl Into<String>) -> Self {
        Self { exit: EXIT_CHECK_FAILED, message: message.into() }
    }

    /// A degraded (partial-coverage) run — exit 3.
    pub fn degraded(message: impl Into<String>) -> Self {
        Self { exit: EXIT_DEGRADED, message: message.into() }
    }

    /// Standard output was closed by its reader before the command wrote
    /// all of it (`| head`): not a failure, so exit 0 with no message. It
    /// still ends the command, through `?`, so that nothing more is
    /// computed for a reader that has gone.
    pub fn closed_stdout() -> Self {
        Self { exit: 0, message: String::new() }
    }

    /// Whether this is [`CliFailure::closed_stdout`].
    pub fn is_closed_stdout(&self) -> bool {
        self.exit == 0
    }
}

/// Untyped errors are usage/operational failures — exit 2, the CLI's
/// historical behaviour for every error.
impl From<String> for CliFailure {
    fn from(message: String) -> Self {
        Self { exit: EXIT_USAGE, message }
    }
}

/// `&str` literals follow the same rule as [`From<String>`].
impl From<&str> for CliFailure {
    fn from(message: &str) -> Self {
        Self { exit: EXIT_USAGE, message: message.to_string() }
    }
}

impl std::fmt::Display for CliFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untyped_errors_map_to_usage() {
        let failure = CliFailure::from("bad flag".to_string());
        assert_eq!(failure.exit, EXIT_USAGE);
        assert_eq!(failure.to_string(), "bad flag");
        assert_eq!(CliFailure::check("diverged").exit, EXIT_CHECK_FAILED);
        assert_eq!(CliFailure::degraded("gaps").exit, EXIT_DEGRADED);
    }
}
