//! Minimal command-line handling shared by the harness binaries.

use std::path::PathBuf;

/// A malformed harness command line. Lives in [`gpasta::errors`] (the
/// shared process-boundary error module); re-exported here so existing
/// harness imports keep working.
pub use gpasta::errors::CliError;

/// Configuration parsed from the common harness flags.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchConfig {
    /// Fraction of the paper's TDG sizes to generate (1.0 = paper scale).
    pub scale: f64,
    /// Number of measured repetitions to average.
    pub runs: usize,
    /// Executor / device worker count.
    pub workers: usize,
    /// Output directory for CSV/JSON results.
    pub out_dir: PathBuf,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            scale: 0.05,
            runs: 3,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            out_dir: PathBuf::from("results"),
        }
    }
}

impl BenchConfig {
    /// Parse `--scale <f> | --full | --runs <n> | --workers <n> | --out <dir>`
    /// from the process arguments, ignoring the binary name.
    /// This is the harness binaries' process boundary: a malformed command
    /// line prints the typed error plus usage and exits with status 2
    /// instead of panicking.
    pub fn from_args() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("{}", Self::USAGE);
                std::process::exit(2);
            }
        }
    }

    /// Usage line shared by `--help` and error reporting.
    pub const USAGE: &'static str =
        "usage: [--scale <f>] [--full] [--runs <n>] [--workers <n>] [--out <dir>]";

    /// Parse from an explicit argument iterator (testable).
    ///
    /// # Errors
    ///
    /// [`CliError`] describing the offending flag and value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, CliError> {
        let mut cfg = BenchConfig::default();
        let mut it = args.into_iter();
        let value = |flag: &'static str, it: &mut dyn Iterator<Item = String>| {
            it.next().ok_or(CliError::MissingValue(flag))
        };
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = value("--scale", &mut it)?;
                    cfg.scale = v.parse().map_err(|e| CliError::BadValue {
                        flag: "--scale",
                        value: v,
                        why: format!("{e}"),
                    })?;
                }
                "--full" => cfg.scale = 1.0,
                "--runs" => {
                    let v = value("--runs", &mut it)?;
                    cfg.runs = v.parse().map_err(|e| CliError::BadValue {
                        flag: "--runs",
                        value: v,
                        why: format!("{e}"),
                    })?;
                }
                "--workers" => {
                    let v = value("--workers", &mut it)?;
                    cfg.workers = v.parse().map_err(|e| CliError::BadValue {
                        flag: "--workers",
                        value: v,
                        why: format!("{e}"),
                    })?;
                }
                "--out" => cfg.out_dir = PathBuf::from(value("--out", &mut it)?),
                "--help" | "-h" => {
                    eprintln!("{}", Self::USAGE);
                    std::process::exit(0);
                }
                other => return Err(CliError::UnknownFlag(other.to_owned())),
            }
        }
        if cfg.scale <= 0.0 {
            return Err(CliError::NonPositive("--scale"));
        }
        if cfg.runs == 0 {
            return Err(CliError::NonPositive("--runs"));
        }
        if cfg.workers == 0 {
            return Err(CliError::NonPositive("--workers"));
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchConfig, CliError> {
        BenchConfig::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let cfg = parse(&[]).expect("empty args are valid");
        assert_eq!(cfg.scale, 0.05);
        assert_eq!(cfg.runs, 3);
        assert!(cfg.workers >= 1);
    }

    #[test]
    fn full_and_explicit_values() {
        let cfg = parse(&[
            "--full",
            "--runs",
            "10",
            "--workers",
            "2",
            "--out",
            "/tmp/x",
        ])
        .expect("valid");
        assert_eq!(cfg.scale, 1.0);
        assert_eq!(cfg.runs, 10);
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.out_dir, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn scale_overrides() {
        let cfg = parse(&["--scale", "0.25"]).expect("valid");
        assert_eq!(cfg.scale, 0.25);
    }

    #[test]
    fn unknown_flag_is_a_typed_error() {
        assert_eq!(
            parse(&["--bogus"]),
            Err(CliError::UnknownFlag("--bogus".into()))
        );
    }

    #[test]
    fn zero_scale_is_a_typed_error() {
        assert_eq!(
            parse(&["--scale", "0"]),
            Err(CliError::NonPositive("--scale"))
        );
        assert_eq!(
            parse(&["--runs", "0"]),
            Err(CliError::NonPositive("--runs"))
        );
        assert_eq!(
            parse(&["--workers", "0"]),
            Err(CliError::NonPositive("--workers"))
        );
    }

    #[test]
    fn missing_and_malformed_values_are_typed_errors() {
        assert_eq!(parse(&["--runs"]), Err(CliError::MissingValue("--runs")));
        match parse(&["--scale", "fast"]) {
            Err(CliError::BadValue { flag, value, .. }) => {
                assert_eq!(flag, "--scale");
                assert_eq!(value, "fast");
            }
            other => panic!("expected BadValue, got {other:?}"),
        }
    }

    #[test]
    fn errors_render_with_context() {
        let msg = parse(&["--workers", "many"])
            .expect_err("malformed")
            .to_string();
        assert!(msg.contains("--workers"), "{msg}");
        assert!(msg.contains("many"), "{msg}");
    }
}
