//! `perf_ledger run`: every workload, untraced then traced, each in a fresh
//! process of this executable so peak memory is per workload; collects the
//! ledgers into `summary.json` beside the host's fingerprint.

use std::process::Command;

use serde_json::Value;

use crate::host;
use crate::metrics::obj;
use crate::WORKLOADS;

/// Measured seconds per run when none are given: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Run everything; `Ok(true)` when every run succeeded with no failed op.
///
/// # Errors
///
/// When a child cannot be started, prints no ledger, or the summary cannot
/// be written.
pub fn run(seed: u64, seconds: Option<f64>, smoke: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seconds = seconds.unwrap_or(if smoke { 1.0 } else { DEFAULT_SECONDS });
    let mut ledgers = Vec::new();
    let mut all_ok = true;
    for trace in ["0", "1"] {
        for (workload, _) in WORKLOADS {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
            cmd.args(["--seconds", &seconds.to_string(), "--trace", trace]);
            if smoke {
                cmd.arg("--smoke");
            }
            let out = cmd
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut ledger = None;
            for line in stdout.lines() {
                match line.strip_prefix("ledger ") {
                    Some(json) => ledger = serde_json::from_str::<Value>(json).ok(),
                    // The last line is the contract's result object.
                    None if !line.starts_with('{') => println!("{line}"),
                    None => {}
                }
            }
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            all_ok &= out.status.success();
            ledgers.push(ledger.ok_or_else(|| {
                format!(
                    "{workload} (trace {trace}) printed no ledger; exit {}",
                    out.status
                )
            })?);
        }
    }

    let mut fingerprint: Vec<(&str, Value)> = host::fingerprint()
        .into_iter()
        .map(|(k, v)| (k, Value::String(v)))
        .collect();
    // As text: a JSON number cannot carry every u64.
    fingerprint.push(("seed", Value::String(seed.to_string())));
    fingerprint.push(("seconds", Value::Number(seconds)));
    fingerprint.push(("smoke", Value::Bool(smoke)));
    let summary = obj(vec![
        ("host", obj(fingerprint)),
        ("runs", Value::Array(ledgers)),
    ]);
    let path = crate::ledger_dir().join("summary.json");
    let text = serde_json::to_string_pretty(&summary).expect("serializes");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("summary written to {}", path.display());
    Ok(all_ok)
}
