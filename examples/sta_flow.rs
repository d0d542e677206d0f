//! A complete static-timing-analysis flow on a synthetic design.
//!
//! Generates an aes_core-class circuit, runs `update_timing` three ways —
//! sequentially, through the work-stealing scheduler, and through the
//! scheduler after G-PASTA partitioning — verifies all three agree
//! bit-for-bit, and prints the timing report plus the runtime of each
//! strategy.
//!
//! ```text
//! cargo run --release --example sta_flow
//! ```

use gpasta::circuits::PaperCircuit;
use gpasta::core::{GPasta, Partitioner, PartitionerOptions};
use gpasta::sched::Executor;
use gpasta::sta::{CellLibrary, Timer};
use gpasta::tdg::QuotientTdg;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = 0.02; // ~1.3 K tasks; raise for a heavier demo
    let netlist = PaperCircuit::AesCore.build(scale);
    println!(
        "design: {} gates, {} nets, {} PIs, {} POs",
        netlist.num_gates(),
        netlist.num_nets(),
        netlist.num_inputs(),
        netlist.num_outputs()
    );

    let mut timer = Timer::new(netlist, CellLibrary::typical());
    timer.set_clock_period(800.0); // 800 ps — a demanding target

    // Strategy 1: plain sequential propagation.
    let sequential = {
        let update = timer.update_timing();
        println!(
            "update_timing TDG: {} tasks, {} dependencies",
            update.tdg().num_tasks(),
            update.tdg().num_deps()
        );
        let t0 = Instant::now();
        update.run_sequential();
        t0.elapsed()
    };
    let reference = timer.report(5);

    // Strategy 2: the work-stealing scheduler on the raw TDG.
    timer.invalidate_all();
    let exec = Executor::host_parallel();
    let plain = {
        let update = timer.update_timing();
        let payload = update.task_fn();
        exec.run_tdg(update.tdg(), &payload)
    };
    let scheduled = timer.report(5);

    // Strategy 3: partition with G-PASTA, then schedule partitions.
    timer.invalidate_all();
    let (partitioned, partition_time) = {
        let update = timer.update_timing();
        let t0 = Instant::now();
        let partition = GPasta::new().partition(update.tdg(), &PartitionerOptions::default())?;
        let quotient = QuotientTdg::build(update.tdg(), &partition)?;
        let partition_time = t0.elapsed();
        let payload = update.task_fn();
        (exec.run_partitioned(&quotient, &payload), partition_time)
    };
    let partitioned_report = timer.report(5);

    // All three strategies must agree exactly.
    assert_eq!(reference.wns_ps, scheduled.wns_ps);
    assert_eq!(reference.wns_ps, partitioned_report.wns_ps);

    println!("\ntiming report ({} endpoints):", reference.num_endpoints);
    print!("{reference}");

    println!("\nruntimes:");
    println!(
        "  sequential          : {:>9.3} ms",
        sequential.as_secs_f64() * 1e3
    );
    println!(
        "  scheduler (raw TDG) : {:>9.3} ms ({} dispatches)",
        plain.elapsed.as_secs_f64() * 1e3,
        plain.dispatches
    );
    println!(
        "  scheduler (G-PASTA) : {:>9.3} ms ({} dispatches, +{:.3} ms partitioning)",
        partitioned.elapsed.as_secs_f64() * 1e3,
        partitioned.dispatches,
        partition_time.as_secs_f64() * 1e3
    );
    println!(
        "\npartitioning collapsed {} tasks into {} scheduled units",
        plain.dispatches, partitioned.dispatches
    );

    // Trace the most critical path for diagnosis.
    if let Some(worst) = reference.worst.first() {
        if let Some(path) = timer.worst_paths(worst.node, 1).first() {
            println!();
            print!("{path}");
        }
    }
    Ok(())
}
