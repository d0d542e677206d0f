//! Fault-recovery overhead and correctness benchmark.
//!
//! Three measurements per circuit, each over the full `update_timing` TDG:
//!
//! 1. **plain** — `Executor::run_tdg`, which lifts the infallible payload
//!    into the one wavefront and re-raises a contained panic;
//! 2. **recovering, no faults** — `run_recovering_bounded` with
//!    [`FaultPlan::none`] and [`RunBudget::unbounded`]: the same wavefront
//!    behind an empty fault-plan probe per task. Both columns pay the
//!    per-task `catch_unwind` and budget poll, so the gap to (1) is the
//!    probe against the lift and must stay ~zero;
//! 3. **recovering, seeded faults** — the same entry point under a fixed seed
//!    matrix, followed by `mark_unknown` + `heal`; the healed analysis is
//!    asserted bit-identical to the fault-free reference every time.
//!
//! Writes `fault_recovery.{csv,json}` (one row per circuit) and the
//! machine-readable summary `BENCH_fault_recovery.json` that CI uploads.
//!
//! ```text
//! cargo run --release -p gpasta-bench --bin fault_recovery -- --scale 0.05
//! ```

use gpasta_bench::{write_csv, write_json, BenchConfig, OutputError, Row};
use gpasta_circuits::PaperCircuit;
use gpasta_sched::{Executor, FaultKind, FaultPlan, RetryPolicy, RunBudget};
use gpasta_sta::{CellLibrary, Timer};
use std::time::Duration;

/// Fixed fault seeds: every CI run and every host exercises the same fault
/// sets, so recovery behaviour is reproducible bug-for-bug.
const SEEDS: [u64; 3] = [0xFA17, 0x0001, 0x0002];

/// Per-task fault probability for the seeded runs.
const RATE: f64 = 0.02;

/// Median of a set of millisecond samples.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[(samples.len() - 1) / 2]
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
        "Fault-recovery benchmark: scale {}, {} workers, {} runs, seeds {:#x?}\n",
        cfg.scale, cfg.workers, cfg.runs, SEEDS
    );

    let mut rows: Vec<Row> = Vec::new();
    for &circuit in &[PaperCircuit::VgaLcd, PaperCircuit::Leon2] {
        let netlist = circuit.build(cfg.scale);
        let library = CellLibrary::typical();
        let exec = Executor::new(cfg.workers);
        let unbounded = RunBudget::unbounded();

        // Fault-free reference analysis, snapshotted bit-exactly.
        let mut timer = Timer::new(netlist, library);
        timer.update_timing().run_sequential();
        let reference_wns = timer.report(1).wns_ps;

        // (1) vs (2): the no-fault overhead of the recovering path. Both
        // paths re-execute the same full-space TDG, which propagation tasks
        // overwrite idempotently.
        timer.invalidate_all();
        let (plain_ms, recovering_ms) = {
            let update = timer.update_timing();
            let tdg = update.tdg();
            let payload = update.task_fn();
            let no_faults = FaultPlan::none();
            let policy = RetryPolicy::default();

            // Interleave the two paths, swapping which goes first every
            // round, so clock drift and cache warm-up cannot bias the
            // comparison either way.
            let mut plain = Vec::with_capacity(cfg.runs);
            let mut recovering = Vec::with_capacity(cfg.runs);
            let mut run_plain =
                || plain.push(exec.run_tdg(tdg, &payload).elapsed.as_secs_f64() * 1e3);
            let mut run_recovering = || {
                let rec = update.run_recovering_bounded(&exec, &no_faults, &policy, &unbounded);
                assert!(rec.is_clean(), "no plan, no faults");
                recovering.push(rec.outcome.report.elapsed.as_secs_f64() * 1e3);
            };
            for round in 0..cfg.runs {
                if round % 2 == 0 {
                    run_plain();
                    run_recovering();
                } else {
                    run_recovering();
                    run_plain();
                }
            }
            (median(plain), median(recovering))
        };
        let overhead_pct = 100.0 * (recovering_ms - plain_ms) / plain_ms;
        // Only police the 5 % budget when the median means something: the
        // run must be long enough (at smoke scales the per-run time is
        // microseconds and scheduler jitter dominates both paths) and the
        // sample large enough (a median of two runs is their mean, and one
        // jittered run moves it by ±20 % on a loaded host).
        if plain_ms >= 20.0 && cfg.runs >= 5 {
            assert!(
                overhead_pct <= 5.0,
                "{}: recovering path costs {overhead_pct:.2}% over plain (budget 5%)",
                circuit.name()
            );
        }

        // (3): seeded fault storms, healed back to the reference bits.
        let kinds = [
            FaultKind::Panic,
            FaultKind::Transient,
            FaultKind::WrongResult,
        ];
        let retry = RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_micros(5),
            max_backoff: Duration::from_micros(100),
        };
        let (mut fired_total, mut poisoned_total, mut heal_ms_total) = (0u64, 0usize, 0.0f64);
        let mut tasks = 0usize;
        // Injected panics are expected here: keep their backtraces out of
        // the benchmark output. The hook is restored afterwards.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for &seed in &SEEDS {
            timer.invalidate_all();
            {
                let update = timer.update_timing();
                tasks = update.tdg().num_tasks();
                let plan = FaultPlan::random(seed, RATE, &kinds);
                let rec = update.run_recovering_bounded(&exec, &plan, &retry, &unbounded);
                update.mark_unknown(&rec);
                let t0 = std::time::Instant::now();
                let healed = update.heal(&rec);
                heal_ms_total += t0.elapsed().as_secs_f64() * 1e3;
                assert_eq!(healed, rec.outcome.poisoned_tasks.len());
                fired_total += plan.fired();
                poisoned_total += rec.outcome.poisoned_tasks.len();
            }
            let healed_wns = timer.report(1).wns_ps;
            assert_eq!(
                healed_wns.to_bits(),
                reference_wns.to_bits(),
                "{}: healed WNS {healed_wns} ps differs from fault-free {reference_wns} ps (seed {seed:#x})",
                circuit.name()
            );
        }
        std::panic::set_hook(default_hook);
        let salvaged_frac = 1.0 - poisoned_total as f64 / (tasks * SEEDS.len()) as f64;

        println!(
            "== {} ==\n  plain {:>9.3} ms | recovering {:>9.3} ms | overhead {:+.2}%\n  \
             {} seeded runs: {} faults fired, {:.1}% of tasks salvaged, heal {:.3} ms total, healed WNS bit-identical\n",
            circuit.name(),
            plain_ms,
            recovering_ms,
            overhead_pct,
            SEEDS.len(),
            fired_total,
            100.0 * salvaged_frac,
            heal_ms_total
        );

        rows.push(Row::new(
            circuit.name(),
            &[
                ("tasks", tasks as f64),
                ("plain_ms", plain_ms),
                ("recovering_ms", recovering_ms),
                ("overhead_pct", overhead_pct),
                ("faults_fired", fired_total as f64),
                ("salvaged_frac", salvaged_frac),
                ("heal_ms", heal_ms_total),
            ],
        ));
    }

    write_csv(&cfg.out_dir.join("fault_recovery.csv"), &rows)?;
    write_json(&cfg.out_dir.join("fault_recovery.json"), &rows)?;
    write_json(&cfg.out_dir.join("BENCH_fault_recovery.json"), &rows)?;
    println!(
        "wrote {}",
        cfg.out_dir.join("BENCH_fault_recovery.json").display()
    );
    Ok(())
}
