//! Shared error plumbing for every `gpasta` process boundary.
//!
//! The workspace grew one error enum per binary family: the bench
//! harness carried [`CliError`] (malformed command lines) and
//! [`OutputError`] (result files), and `src/bin/gpasta.rs` stringified
//! everything. This module is the single home for all of them:
//!
//! * [`CliError`] / [`OutputError`] — promoted from `gpasta-bench`
//!   (which now re-exports them from here);
//! * [`Error`] — the top-level error every `gpasta` subcommand
//!   (`partition`, `sanitize`, `sta`, `faults`, `update`, `serve`)
//!   returns, with [`Error::exit_code`] mapping the class of failure to
//!   the process exit status: usage errors exit 2, runtime failures
//!   exit 1 — the split `BenchConfig::from_args` already established.

use std::error::Error as StdError;
use std::fmt;
use std::path::PathBuf;

use crate::serve::ServeError;
use crate::session::SessionError;

/// A malformed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A flag that takes a value appeared last.
    MissingValue(&'static str),
    /// A flag's value failed to parse.
    BadValue {
        /// The flag whose value was rejected.
        flag: &'static str,
        /// The offending value as given.
        value: String,
        /// Why it was rejected.
        why: String,
    },
    /// A flag whose value must be positive was zero or negative.
    NonPositive(&'static str),
    /// An argument no binary understands.
    UnknownFlag(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::BadValue { flag, value, why } => {
                write!(f, "{flag}: invalid value `{value}`: {why}")
            }
            CliError::NonPositive(flag) => write!(f, "{flag} must be positive"),
            CliError::UnknownFlag(arg) => write!(f, "unknown argument {arg}; try --help"),
        }
    }
}

impl StdError for CliError {}

/// Writing a result file failed.
#[derive(Debug)]
pub enum OutputError {
    /// A filesystem operation failed; `op` names it and `path` is the
    /// file (or directory) involved.
    Io {
        /// File or directory the operation touched.
        path: PathBuf,
        /// Which operation failed (`create directory`, `write`).
        op: &'static str,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// The rows do not share a column layout, so no single CSV header
    /// can describe them.
    InconsistentColumns {
        /// Label of the first offending row.
        label: String,
        /// Columns that row carries.
        found: usize,
        /// Columns the header (first row) carries.
        expected: usize,
    },
    /// JSON serialization failed.
    Serialize {
        /// Destination the rows were meant for.
        path: PathBuf,
        /// The serializer's error.
        source: serde_json::Error,
    },
}

impl fmt::Display for OutputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutputError::Io { path, op, source } => {
                write!(f, "cannot {op} {}: {source}", path.display())
            }
            OutputError::InconsistentColumns {
                label,
                found,
                expected,
            } => write!(
                f,
                "row `{label}` has {found} column(s) but the header has {expected}"
            ),
            OutputError::Serialize { path, source } => {
                write!(f, "cannot serialize rows for {}: {source}", path.display())
            }
        }
    }
}

impl StdError for OutputError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            OutputError::Io { source, .. } => Some(source),
            OutputError::Serialize { source, .. } => Some(source),
            OutputError::InconsistentColumns { .. } => None,
        }
    }
}

/// The top-level error of the `gpasta` binary: every subcommand funnels
/// into this one enum so `main` has a single place to render the
/// message and choose the exit status.
#[derive(Debug)]
pub enum Error {
    /// The command line itself is malformed (usage error, exit 2).
    Cli(CliError),
    /// A [`Session`](crate::session::Session) operation failed (`sta`,
    /// and the `update` flow, which is a loop over a session).
    Session(SessionError),
    /// The `serve` daemon failed to start or run.
    Serve(ServeError),
    /// Any other runtime failure, already rendered (file I/O, parse
    /// errors, validation mismatches).
    Runtime(String),
}

impl Error {
    /// The process exit status this error maps to: 2 for usage errors
    /// (the caller got the command line wrong), 1 for runtime failures.
    pub fn exit_code(&self) -> u8 {
        match self {
            Error::Cli(_) => 2,
            _ => 1,
        }
    }

    /// Whether the usage banner should accompany the message.
    pub fn is_usage(&self) -> bool {
        matches!(self, Error::Cli(_))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Cli(e) => write!(f, "{e}"),
            Error::Session(e) => write!(f, "{e}"),
            Error::Serve(e) => write!(f, "{e}"),
            Error::Runtime(msg) => f.write_str(msg),
        }
    }
}

impl StdError for Error {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Error::Cli(e) => Some(e),
            Error::Session(e) => Some(e),
            Error::Serve(e) => Some(e),
            Error::Runtime(_) => None,
        }
    }
}

impl From<CliError> for Error {
    fn from(e: CliError) -> Self {
        Error::Cli(e)
    }
}

impl From<SessionError> for Error {
    fn from(e: SessionError) -> Self {
        Error::Session(e)
    }
}

impl From<ServeError> for Error {
    fn from(e: ServeError) -> Self {
        Error::Serve(e)
    }
}

impl From<String> for Error {
    fn from(msg: String) -> Self {
        Error::Runtime(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_errors_exit_2_runtime_errors_exit_1() {
        let usage = Error::Cli(CliError::MissingValue("--ps"));
        assert_eq!(usage.exit_code(), 2);
        assert!(usage.is_usage());
        let runtime = Error::Runtime("cannot read edges.txt".into());
        assert_eq!(runtime.exit_code(), 1);
        assert!(!runtime.is_usage());
    }

    #[test]
    fn display_renders_the_inner_error() {
        let e = Error::Cli(CliError::BadValue {
            flag: "--ps",
            value: "many".into(),
            why: "invalid digit".into(),
        });
        let msg = e.to_string();
        assert!(msg.contains("--ps"), "{msg}");
        assert!(msg.contains("many"), "{msg}");
    }
}
