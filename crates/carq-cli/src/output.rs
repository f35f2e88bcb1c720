//! The one writer of the CLI's tables to standard output.
//!
//! A reader may close the pipe before a table ends (`carq-cli analyze
//! timeline ... | head -1`). The write then fails with `BrokenPipe`; that is
//! the reader's choice, not a failure of the command, so [`print()`] reports
//! it as [`CliFailure::closed_stdout`], which `main` turns into a quiet
//! exit 0. `print!` would panic there instead, with exit 101.

use std::io::Write as _;

use crate::failure::CliFailure;

/// Writes `text` to standard output and flushes it.
pub fn print(text: &str) -> Result<(), CliFailure> {
    let mut stdout = std::io::stdout().lock();
    stdout.write_all(text.as_bytes()).and_then(|()| stdout.flush()).map_err(|e| {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            CliFailure::closed_stdout()
        } else {
            CliFailure::from(format!("cannot write to standard output: {e}"))
        }
    })
}

/// Writes `rendered` to the `--out` file when one is given, else to
/// standard output.
pub fn emit(out: Option<&str>, rendered: &str) -> Result<(), CliFailure> {
    match out {
        Some(path) => std::fs::write(path, rendered)
            .map_err(|e| CliFailure::from(format!("cannot write {path}: {e}"))),
        None => print(rendered),
    }
}
