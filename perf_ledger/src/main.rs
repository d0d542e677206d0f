//! Command line of the benchmark. `perf_ledger/run.sh` builds everything
//! and forwards its arguments here.

use std::process::ExitCode;

use perf_ledger::{compare, orchestrate, run_workload};

const USAGE: &str = "\
usage:
  perf_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
      one run of one workload; the last line printed is the result object
  perf_ledger run [--seed <n>] [--seconds <s>] [--smoke]
      every workload, untraced then traced, each in a fresh process;
      writes perf_ledger/target/ledger/summary.json
  perf_ledger compare <a.json> <b.json>
      compare two summaries cell by cell against the bounds";

/// Seed of a plain `perf_ledger run`.
const DEFAULT_SEED: u64 = 0x5EED;

#[derive(Debug)]
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?.to_string()),
            "--seed" => {
                let text = value()?;
                flags.seed = match text.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => text.parse(),
                }
                .map_err(|e| format!("--seed {text}: {e}"))?;
            }
            "--seconds" => {
                let text = value()?;
                let seconds: f64 = text.parse().map_err(|e| format!("--seconds {text}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {text}: must be in (0, 600]"));
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                flags.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: must be 0 or 1")),
                }
            }
            "--smoke" => flags.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(flags)
}

fn real_main(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match args {
            [_, a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => Err("compare takes two summary files".to_string()),
        },
        Some("run") => {
            let flags = parse_flags(&args[1..])?;
            if flags.workload.is_some() || flags.trace {
                return Err("`run` always runs every workload, untraced then traced".to_string());
            }
            orchestrate::run(flags.seed, flags.seconds, flags.smoke)
        }
        Some(_) => {
            let flags = parse_flags(args)?;
            let workload = flags.workload.ok_or("--workload is required")?;
            let seconds = flags.seconds.ok_or("--seconds is required")?;
            let ledger = run_workload(&workload, flags.seed, seconds, flags.trace, flags.smoke)?;
            ledger.print_table();
            println!(
                "ledger {}",
                serde_json::to_string(&ledger.to_value()).expect("serializes")
            );
            println!("{}", ledger.contract_line());
            Ok(ledger.failed == 0)
        }
        None => Err("no arguments".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("perf_ledger: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
