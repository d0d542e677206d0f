//! `perf_ledger compare <a.json> <b.json>`: two summaries of
//! `perf_ledger run`, cell by cell against the bounds.

use std::path::Path;

use serde_json::Value;

use crate::metrics::{END_TO_END, UNGATED};

/// `(median, estimated inter-quartile range of that median)` of `metric` in
/// the untraced ledger of `workload`.
///
/// A cell's value is the median of `n` per-block values. For near-normal
/// samples the median of `n` has an inter-quartile range of about
/// `1.25 / sqrt(n)` times the samples' own, which is what a repeat of the run
/// would scatter by; the blocks' raw range would overstate it.
fn cell(summary: &Value, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let run = summary["runs"]
        .as_array()?
        .iter()
        .find(|run| run["workload"] == workload && run["traced"] == false)?;
    let cell = run["metrics"]
        .as_array()?
        .iter()
        .find(|cell| cell["name"] == metric)?;
    let field = |key: &str| cell[key].as_f64();
    let iqr = field("q3")? - field("q1")?;
    Some((
        field("median")?,
        1.25 * iqr / field("samples")?.max(1.0).sqrt(),
    ))
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The verdict on one cell, each side `(median, inter-quartile range)`.
/// `delta` is how much worse `b` is than `a` as a share of `a`; the wider
/// of the two inter-quartile ranges, as a share of `a`, is the spread. A spread beyond the bound leaves the cell
/// unresolved whatever the delta says.
pub fn verdict(
    a: (f64, f64),
    b: (f64, f64),
    higher_is_better: bool,
    bound: f64,
) -> (&'static str, f64) {
    let worse_by = if higher_is_better {
        a.0 - b.0
    } else {
        b.0 - a.0
    };
    let delta = worse_by / a.0;
    let spread = a.1.max(b.1) / a.0;
    let word = if spread > bound {
        "unresolved"
    } else if delta > bound {
        "regressed"
    } else {
        "ok"
    };
    (word, delta)
}

/// Print one row per (workload, untraced metric); `Ok(false)` when any
/// gated cell regressed.
///
/// # Errors
///
/// When a summary cannot be read or lacks a cell the other has.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    println!(
        "{:<12} {:<22} {:>12} {:>10} {:>12} {:>10} {:>8} {:>6}  verdict",
        "workload", "metric", "a median", "a iqr", "b median", "b iqr", "delta", "bound"
    );
    let mut regressed = false;
    for (workload, _) in crate::WORKLOADS {
        for def in END_TO_END.iter().chain(UNGATED) {
            let missing = || format!("{workload}/{} is missing from a summary", def.name);
            let ca = cell(&a, workload, def.name).ok_or_else(missing)?;
            let cb = cell(&b, workload, def.name).ok_or_else(missing)?;
            let (mut word, delta) = verdict(ca, cb, def.better == "higher", def.bound);
            if def.bound == 0.0 {
                // Reported, not gated.
                word = "info";
            }
            regressed |= word == "regressed";
            println!(
                "{:<12} {:<22} {:>12.4} {:>10.4} {:>12.4} {:>10.4} {:>+8.3} {:>6.2}  {word}",
                workload, def.name, ca.0, ca.1, cb.0, cb.1, delta, def.bound
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better: 10 % slower against a 5 % bound regresses.
        assert_eq!(
            verdict((100.0, 1.0), (110.0, 1.0), false, 0.05).0,
            "regressed"
        );
        assert_eq!(verdict((100.0, 1.0), (103.0, 1.0), false, 0.05).0, "ok");
        assert_eq!(verdict((100.0, 1.0), (80.0, 1.0), false, 0.05).0, "ok");
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            verdict((100.0, 1.0), (90.0, 1.0), true, 0.05).0,
            "regressed"
        );
        assert_eq!(verdict((100.0, 1.0), (120.0, 1.0), true, 0.05).0, "ok");
        // A spread beyond the bound resolves nothing.
        assert_eq!(
            verdict((100.0, 8.0), (110.0, 1.0), false, 0.05).0,
            "unresolved"
        );
    }
}
