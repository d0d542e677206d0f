//! Figure 7: overall STA runtime over incremental timing iterations.
//!
//! Each iteration applies a design modifier (gate repowering or a net
//! capacitance change) followed by `update_timing`; the partitioner is
//! issued at every call. The cumulative runtime of three policies is
//! tracked: no partitioning, GDCA (tuned), and G-PASTA. The paper runs 8 K
//! iterations; the iteration count scales with `--scale`.
//!
//! Two cumulative series per policy:
//! * wall-clock on this host (single-core hosts understate the run-side
//!   savings), and
//! * build + partition + the deterministic 8-worker simulated run — the
//!   multi-core regime of the paper's testbed.
//!
//! ```text
//! cargo run --release -p gpasta-bench --bin fig7 -- --scale 0.05
//! ```
//!
//! With `--incremental` the harness instead compares from-scratch G-PASTA
//! per iteration against an [`IncrementalPartitioner`] that repairs a
//! cached partition inside the dirty cone (seeded by the timer's
//! full-space task ids) and rebuilds the scheduler graph through a
//! recycled [`FlowArena`]. It writes `fig7_<circuit>_incremental.{csv,json}`
//! plus a cross-circuit summary `BENCH_incremental.json`, and cross-checks
//! that both policies end on the exact same WNS.

use gpasta_bench::figs::{apply_modifier, fig7_circuit_rows, fig7_iterations, FIG7_SEED};
use gpasta_bench::tuning::{gpasta_for, DISPATCH_NS, SIM_WORKERS};
use gpasta_bench::{write_csv, write_json, BenchConfig, OutputError, Row};
use gpasta_circuits::PaperCircuit;
use gpasta_core::{IncrementalPartitioner, Partitioner, PartitionerOptions};
use gpasta_sched::{simulate_makespan, Executor, FlowArena, Taskflow};
use gpasta_sta::{CellLibrary, Timer};
use gpasta_tdg::QuotientTdg;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Per-iteration cumulative series of one incremental-mode policy, plus
/// its final WNS for the bit-identity cross-check.
struct IncrementalSeries {
    part_curve: Vec<f64>,
    wall_curve: Vec<f64>,
    sim_curve: Vec<f64>,
    final_wns_ps: f32,
}

/// The from-scratch baseline: partition the update TDG anew each
/// iteration (the default fig7 G-PASTA policy), with partition-only time
/// tracked separately.
fn run_scratch_policy(
    netlist: &gpasta_sta::Netlist,
    library: &CellLibrary,
    exec: &Executor,
    partitioner: &dyn Partitioner,
    opts: &PartitionerOptions,
    iterations: usize,
) -> IncrementalSeries {
    let mut rng = ChaCha8Rng::seed_from_u64(FIG7_SEED);
    let mut timer = Timer::new(netlist.clone(), library.clone());
    timer.update_timing().run_sequential();

    let (mut part_cum, mut wall_cum, mut sim_cum) = (0.0f64, 0.0f64, 0.0f64);
    let (mut part_curve, mut wall_curve, mut sim_curve) = (
        Vec::with_capacity(iterations),
        Vec::with_capacity(iterations),
        Vec::with_capacity(iterations),
    );
    for _ in 0..iterations {
        apply_modifier(&mut timer, &mut rng);
        let update = timer.update_timing();
        let tdg = update.tdg();
        let payload = update.task_fn();
        let t0 = Instant::now();
        let partition = partitioner.partition(tdg, opts).expect("valid options");
        let part = t0.elapsed();
        let quotient = QuotientTdg::build(tdg, &partition).expect("schedulable");
        let taskflow = Taskflow::from_quotient(&quotient, &payload);
        drop(taskflow);
        let overhead = update.build_time() + t0.elapsed();
        let report = exec.run_partitioned(&quotient, &payload);
        part_cum += part.as_secs_f64() * 1e3;
        wall_cum += (overhead + report.elapsed).as_secs_f64() * 1e3;
        sim_cum += overhead.as_secs_f64() * 1e3
            + simulate_makespan(quotient.graph(), SIM_WORKERS, DISPATCH_NS).makespan_ns / 1e6;
        part_curve.push(part_cum);
        wall_curve.push(wall_cum);
        sim_curve.push(sim_cum);
    }
    IncrementalSeries {
        part_curve,
        wall_curve,
        sim_curve,
        final_wns_ps: timer.report(1).wns_ps,
    }
}

/// The cached policy: install the partition once on the full-space TDG,
/// then repair it inside each iteration's dirty cone and recycle the
/// scheduler graph-build buffers through a [`FlowArena`]. Returns the
/// series plus the one-off install cost (charged to the first iteration's
/// cumulative partition time).
fn run_incremental_policy(
    netlist: &gpasta_sta::Netlist,
    library: &CellLibrary,
    exec: &Executor,
    inner: Box<dyn Partitioner>,
    opts: &PartitionerOptions,
    iterations: usize,
) -> (IncrementalSeries, f64) {
    let mut rng = ChaCha8Rng::seed_from_u64(FIG7_SEED);
    let mut timer = Timer::new(netlist.clone(), library.clone());

    // The initial full update *is* the full task space (task ids are the
    // stable full-space ids), so its TDG is the cache's key domain.
    let mut inc = IncrementalPartitioner::new(inner);
    let full_update = timer.update_timing();
    let t0 = Instant::now();
    inc.install(full_update.tdg(), opts)
        .expect("install on the full-space TDG");
    let install_ms = t0.elapsed().as_secs_f64() * 1e3;
    full_update.run_sequential();
    drop(full_update);

    let mut arena = FlowArena::new();
    let (mut part_cum, mut wall_cum, mut sim_cum) = (install_ms, install_ms, install_ms);
    let (mut part_curve, mut wall_curve, mut sim_curve) = (
        Vec::with_capacity(iterations),
        Vec::with_capacity(iterations),
        Vec::with_capacity(iterations),
    );
    for _ in 0..iterations {
        apply_modifier(&mut timer, &mut rng);
        let update = timer.update_timing();
        let ids = update.full_space_ids();
        let payload = update.task_fn();
        let t0 = Instant::now();
        // The timer's dirty cone is successor-closed and duplicate-free by
        // construction (forward invalidation), so take the trusted entry.
        let (_, sub) = inc
            .repair_and_project_trusted(&ids)
            .expect("ids are in range");
        let part = t0.elapsed();
        let quotient = QuotientTdg::build(update.tdg(), &sub).expect("schedulable");
        arena.load_quotient(&quotient);
        let overhead = update.build_time() + t0.elapsed();
        let report = exec.run_partitioned(&quotient, &payload);
        part_cum += part.as_secs_f64() * 1e3;
        wall_cum += (overhead + report.elapsed).as_secs_f64() * 1e3;
        sim_cum += overhead.as_secs_f64() * 1e3
            + simulate_makespan(quotient.graph(), SIM_WORKERS, DISPATCH_NS).makespan_ns / 1e6;
        part_curve.push(part_cum);
        wall_curve.push(wall_cum);
        sim_curve.push(sim_cum);
    }
    (
        IncrementalSeries {
            part_curve,
            wall_curve,
            sim_curve,
            final_wns_ps: timer.report(1).wns_ps,
        },
        install_ms,
    )
}

/// The `--incremental` mode: from-scratch G-PASTA vs. the dirty-cone
/// partition cache, identical modifier streams, WNS cross-checked.
fn run_incremental_mode(cfg: &BenchConfig) -> Result<(), OutputError> {
    let iterations = fig7_iterations(cfg.scale);
    println!(
        "Figure 7 (incremental partition maintenance): {} iterations @ scale {}\n",
        iterations, cfg.scale
    );

    let mut summary: Vec<Row> = Vec::new();
    for &circuit in &[PaperCircuit::VgaLcd, PaperCircuit::Leon2] {
        println!("== {} ==", circuit.name());
        let netlist = circuit.build(cfg.scale);
        let library = CellLibrary::typical();
        let exec = Executor::new(cfg.workers);
        let auto_opts = PartitionerOptions::default();

        // `--runs` independent repetitions per policy (same modifier
        // stream), keeping the run with the median cumulative partitioning
        // time so a scheduler hiccup in either policy cannot skew the
        // comparison.
        let median = |mut runs: Vec<IncrementalSeries>| {
            runs.sort_by(|a, b| {
                let part = |s: &IncrementalSeries| *s.part_curve.last().expect("non-empty");
                part(a).total_cmp(&part(b))
            });
            let mid = (runs.len() - 1) / 2;
            runs.swap_remove(mid)
        };
        let scratch_p = gpasta_for(cfg.workers);
        let scratch = median(
            (0..cfg.runs)
                .map(|_| {
                    run_scratch_policy(
                        &netlist,
                        &library,
                        &exec,
                        scratch_p.as_ref(),
                        &auto_opts,
                        iterations,
                    )
                })
                .collect(),
        );
        let mut inc_runs: Vec<(IncrementalSeries, f64)> = (0..cfg.runs)
            .map(|_| {
                run_incremental_policy(
                    &netlist,
                    &library,
                    &exec,
                    gpasta_for(cfg.workers),
                    &auto_opts,
                    iterations,
                )
            })
            .collect();
        inc_runs.sort_by(|a, b| {
            let part = |s: &(IncrementalSeries, f64)| *s.0.part_curve.last().expect("non-empty");
            part(a).total_cmp(&part(b))
        });
        let (inc, install_ms) = inc_runs.swap_remove((inc_runs.len() - 1) / 2);

        // Bit-identity: both policies executed valid partitioned TDGs over
        // the same modifier stream, so the analyses must agree exactly.
        assert_eq!(
            scratch.final_wns_ps.to_bits(),
            inc.final_wns_ps.to_bits(),
            "incremental repair changed the STA result: scratch WNS {} vs incremental WNS {}",
            scratch.final_wns_ps,
            inc.final_wns_ps
        );

        let last = |v: &[f64]| *v.last().expect("non-empty");
        let scratch_part = last(&scratch.part_curve);
        let inc_part = last(&inc.part_curve);
        println!(
            "  partitioning time: scratch {:>9.1} ms | incremental {:>9.1} ms (install {:.1} ms) | {:.1}x faster",
            scratch_part,
            inc_part,
            install_ms,
            scratch_part / inc_part
        );
        println!(
            "  wall: scratch {:>9.1} ms | incremental {:>9.1} ms; simulated ({} workers): scratch {:>9.1} ms | incremental {:>9.1} ms",
            last(&scratch.wall_curve),
            last(&inc.wall_curve),
            SIM_WORKERS,
            last(&scratch.sim_curve),
            last(&inc.sim_curve)
        );
        println!("  final WNS identical: {} ps\n", inc.final_wns_ps);

        let rows: Vec<Row> = (0..iterations)
            .map(|i| {
                Row::new(
                    format!("{}", i + 1),
                    &[
                        ("scratch_part_ms", scratch.part_curve[i]),
                        ("inc_part_ms", inc.part_curve[i]),
                        ("scratch_wall_ms", scratch.wall_curve[i]),
                        ("inc_wall_ms", inc.wall_curve[i]),
                        ("scratch_sim_ms", scratch.sim_curve[i]),
                        ("inc_sim_ms", inc.sim_curve[i]),
                    ],
                )
            })
            .collect();
        write_csv(
            &cfg.out_dir
                .join(format!("fig7_{}_incremental.csv", circuit.name())),
            &rows,
        )?;
        write_json(
            &cfg.out_dir
                .join(format!("fig7_{}_incremental.json", circuit.name())),
            &rows,
        )?;

        summary.push(Row::new(
            circuit.name(),
            &[
                ("iterations", iterations as f64),
                ("install_ms", install_ms),
                ("scratch_part_ms", scratch_part),
                ("incremental_part_ms", inc_part),
                ("speedup", scratch_part / inc_part),
                ("scratch_wall_ms", last(&scratch.wall_curve)),
                ("incremental_wall_ms", last(&inc.wall_curve)),
            ],
        ));
    }
    write_json(&cfg.out_dir.join("BENCH_incremental.json"), &summary)?;
    println!(
        "wrote {} and fig7_*_incremental.csv",
        cfg.out_dir.join("BENCH_incremental.json").display()
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), OutputError> {
    let cfg = BenchConfig::from_args();
    if cfg.incremental {
        return run_incremental_mode(&cfg);
    }
    let iterations = fig7_iterations(cfg.scale);
    println!(
        "Figure 7 reproduction: {} incremental iterations @ scale {}\n",
        iterations, cfg.scale
    );

    for &circuit in &[PaperCircuit::VgaLcd, PaperCircuit::Leon2] {
        println!("== {} ==", circuit.name());
        let rows = fig7_circuit_rows(circuit, cfg.scale, cfg.workers);

        let final_row = rows.last().expect("at least 20 iterations");
        let col = |name: &str| {
            final_row
                .values
                .iter()
                .find(|(k, _)| k == name)
                .map(|&(_, v)| v)
                .expect("fig7 schema")
        };
        for name in ["original", "gdca", "gpasta"] {
            println!(
                "  {:<10} cumulative wall {:>10.1} ms | simulated ({} workers) {:>10.1} ms",
                name,
                col(&format!("{name}_wall_ms")),
                SIM_WORKERS,
                col(&format!("{name}_sim_ms"))
            );
        }
        println!(
            "  simulated: G-PASTA improves overall STA by {:.0}% (paper: 43% on leon2); GDCA at {:.2}x the original (paper: 3.7x slower)\n",
            100.0 * (1.0 - col("gpasta_sim_ms") / col("original_sim_ms")),
            col("gdca_sim_ms") / col("original_sim_ms")
        );

        write_csv(
            &cfg.out_dir.join(format!("fig7_{}.csv", circuit.name())),
            &rows,
        )?;
        write_json(
            &cfg.out_dir.join(format!("fig7_{}.json", circuit.name())),
            &rows,
        )?;
    }
    println!("wrote {}", cfg.out_dir.join("fig7_*.csv").display());
    Ok(())
}
