//! Deadline budget-sweep benchmark, over the full `update_timing` TDG of
//! each circuit:
//!
//! 1. **full-run baseline** — `run_recovering_bounded` with
//!    [`RunBudget::unbounded`], best of `--runs`. (The plain
//!    `Executor::run_tdg` is a wrapper over the same wavefront, so there is
//!    no other loop to compare against; the `fault_recovery` bench polices
//!    the two entry points at ≤ 5 % of each other.)
//! 2. **budget sweep** — re-run the same update under deadlines set to
//!    fractions of that baseline, recording how much of the task set each
//!    budget salvages; every partial run is then `heal`ed with a fresh
//!    (unbounded) budget and the result asserted bit-identical to the
//!    uninterrupted reference analysis.
//!
//! Writes `deadline_overhead.{csv,json}`, `deadline_sweep.csv`, and the
//! machine-readable summary `BENCH_deadline.json` that CI uploads.
//!
//! ```text
//! cargo run --release -p gpasta-bench --bin deadline_overhead -- --scale 0.05
//! ```

use gpasta_bench::{write_csv, write_json, BenchConfig, OutputError, Row};
use gpasta_circuits::PaperCircuit;
use gpasta_sched::{Executor, FaultPlan, RetryPolicy, RunBudget, StopCause};
use gpasta_sta::{CellLibrary, Timer};
use std::time::Duration;

/// Deadlines exercised by the sweep, as fractions of the measured
/// full-run wall time. The sub-1.0 points force early stops at realistic
/// scales; 1.0 and 2.0 bracket the completion boundary.
const SWEEP_FRACTIONS: [f64; 5] = [0.05, 0.25, 0.5, 1.0, 2.0];

/// Best (minimum) of a set of millisecond samples: scheduler interference
/// only ever *adds* time, so the minimum is the noise-robust estimator of
/// the true full-run cost on busy single-core hosts.
fn best(samples: Vec<f64>) -> f64 {
    samples.into_iter().fold(f64::INFINITY, f64::min)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), OutputError> {
    let cfg = BenchConfig::from_args();
    println!(
        "Deadline-overhead benchmark: scale {}, {} workers, {} runs\n",
        cfg.scale, cfg.workers, cfg.runs
    );

    let mut overhead_rows: Vec<Row> = Vec::new();
    let mut sweep_rows: Vec<Row> = Vec::new();
    for &circuit in &[PaperCircuit::VgaLcd, PaperCircuit::Leon2] {
        let netlist = circuit.build(cfg.scale);
        let library = CellLibrary::typical();
        let exec = Executor::new(cfg.workers);
        let no_faults = FaultPlan::none();
        let policy = RetryPolicy::default();

        // Uninterrupted reference analysis, snapshotted bit-exactly.
        let mut timer = Timer::new(netlist, library);
        timer.update_timing().run_sequential();
        let reference_wns = timer.report(1).wns_ps;

        // (1) the full-run baseline. Every run re-executes the same
        // full-space TDG, which propagation tasks overwrite idempotently.
        timer.invalidate_all();
        let tasks;
        let bounded_ms = {
            let update = timer.update_timing();
            tasks = update.tdg().num_tasks();
            best(
                (0..cfg.runs)
                    .map(|_| {
                        let rec = update.run_recovering_bounded(
                            &exec,
                            &no_faults,
                            &policy,
                            &RunBudget::unbounded(),
                        );
                        assert!(rec.is_clean(), "no faults and no deadline");
                        rec.outcome.report.elapsed.as_secs_f64() * 1e3
                    })
                    .collect(),
            )
        };
        println!(
            "== {} ==\n  full run (no deadline) {:>9.3} ms",
            circuit.name(),
            bounded_ms
        );

        // (2) the budget sweep: salvage fraction vs deadline, every partial
        // run healed back to the reference bits.
        for &frac in &SWEEP_FRACTIONS {
            timer.invalidate_all();
            let (salvaged_frac, unfinished_frac, completed, healed) = {
                let update = timer.update_timing();
                let budget = RunBudget::unbounded()
                    .with_deadline(Duration::from_secs_f64(bounded_ms * frac / 1e3));
                let rec = update.run_recovering_bounded(&exec, &no_faults, &policy, &budget);
                assert!(
                    rec.outcome.poisoned_tasks.is_empty(),
                    "a fault-free run cannot poison tasks"
                );
                let n = update.tdg().num_tasks() as f64;
                update.mark_unknown(&rec);
                let healed = update.heal(&rec);
                assert_eq!(
                    healed,
                    rec.outcome.unfinished_tasks.len(),
                    "heal must re-execute exactly the unfinished closure"
                );
                (
                    rec.outcome.salvaged_tasks as f64 / n,
                    rec.outcome.unfinished_tasks.len() as f64 / n,
                    rec.outcome.stop == StopCause::Completed,
                    healed,
                )
            };
            let healed_wns = timer.report(1).wns_ps;
            assert_eq!(
                healed_wns.to_bits(),
                reference_wns.to_bits(),
                "{}: healed WNS {healed_wns} ps differs from reference {reference_wns} ps (fraction {frac})",
                circuit.name()
            );
            println!(
                "  deadline {:>5.2}x: salvaged {:>5.1}% | unfinished {:>5.1}% | {} | healed {} task(s), WNS bit-identical",
                frac,
                100.0 * salvaged_frac,
                100.0 * unfinished_frac,
                if completed { "completed" } else { "expired  " },
                healed
            );
            sweep_rows.push(Row::new(
                format!("{}@{frac}", circuit.name()),
                &[
                    ("deadline_frac", frac),
                    ("salvaged_frac", salvaged_frac),
                    ("unfinished_frac", unfinished_frac),
                    ("completed", if completed { 1.0 } else { 0.0 }),
                    ("healed_tasks", healed as f64),
                ],
            ));
        }
        println!();

        overhead_rows.push(Row::new(
            circuit.name(),
            &[("tasks", tasks as f64), ("bounded_ms", bounded_ms)],
        ));
    }

    write_csv(&cfg.out_dir.join("deadline_overhead.csv"), &overhead_rows)?;
    write_json(&cfg.out_dir.join("deadline_overhead.json"), &overhead_rows)?;
    write_csv(&cfg.out_dir.join("deadline_sweep.csv"), &sweep_rows)?;
    // The CI summary carries both tables; JSON rows are self-describing.
    let all: Vec<Row> = overhead_rows.iter().chain(&sweep_rows).cloned().collect();
    write_json(&cfg.out_dir.join("BENCH_deadline.json"), &all)?;
    println!(
        "wrote {}",
        cfg.out_dir.join("BENCH_deadline.json").display()
    );
    Ok(())
}
