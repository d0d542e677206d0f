//! A miniature timing-closure loop built on the incremental engine.
//!
//! Starts from a design that misses timing at an aggressive clock, then
//! repeatedly traces the worst path, upsizes its weakest gate, and re-runs
//! `update_timing` incrementally (through the scheduler, with G-PASTA
//! partitioning) until the design meets timing or upsizing stops helping —
//! the classic repower loop of physical synthesis, driven entirely by this
//! library's public API.
//!
//! ```text
//! cargo run --release --example timing_optimizer
//! ```

use gpasta::circuits::PaperCircuit;
use gpasta::core::{Partitioner, PartitionerOptions, SeqGPasta};
use gpasta::sched::Executor;
use gpasta::sta::{CellLibrary, GateId, Timer};
use gpasta::tdg::QuotientTdg;

const MAX_DRIVE: f32 = 8.0;
const MAX_ROUNDS: usize = 200;

/// Run the pending incremental update through the partitioned scheduler.
fn run_update(timer: &mut Timer, exec: &Executor, partitioner: &SeqGPasta) -> usize {
    let update = timer.update_timing();
    let tasks = update.tdg().num_tasks();
    if tasks == 0 {
        return 0;
    }
    let partition = partitioner
        .partition(update.tdg(), &PartitionerOptions::default())
        .expect("valid options");
    let quotient = QuotientTdg::build(update.tdg(), &partition).expect("schedulable");
    let payload = update.task_fn();
    exec.run_partitioned(&quotient, &payload);
    tasks
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut timer = Timer::new(PaperCircuit::AesCore.build(0.01), CellLibrary::typical());
    let exec = Executor::host_parallel();
    let partitioner = SeqGPasta::new();

    // Find a clock the unoptimised design misses by a healthy margin.
    timer.update_timing().run_sequential();
    let relaxed_wns = timer.report(1).wns_ps;
    let clock = timer.data().clock_period_ps - relaxed_wns - 60.0;
    timer.set_clock_period(clock);
    run_update(&mut timer, &exec, &partitioner);
    let start = timer.report(1);
    println!(
        "target clock {clock:.0} ps: starting WNS {:.1} ps, TNS {:.1} ps",
        start.wns_ps, start.tns_ps
    );
    assert!(start.wns_ps < 0.0, "the target clock must start violated");

    let mut upsized = 0usize;
    let mut incremental_tasks = 0usize;
    for round in 0..MAX_ROUNDS {
        let report = timer.report(1);
        if report.wns_ps >= 0.0 {
            println!(
                "\nmet timing after {round} rounds ({} gates upsized, {} incremental tasks re-run)",
                upsized, incremental_tasks
            );
            println!("final WNS {:.1} ps", report.wns_ps);
            return Ok(());
        }

        // Trace the worst path and pick its weakest (lowest-drive) gate.
        let endpoint = report.worst.first().expect("violating endpoint").node;
        let path = timer
            .worst_paths(endpoint, 1)
            .pop()
            .expect("endpoint is traceable");
        // A gate's drive is kept at its output pin, the step's node.
        let victim: Option<(GateId, f32)> = path
            .steps
            .iter()
            .filter_map(|step| match timer.graph().node_kind(step.node) {
                gpasta::sta::NodeKind::GateOutput(g) => {
                    Some((GateId(g), timer.data().drive(step.node)))
                }
                _ => None,
            })
            .filter(|&(_, drive)| drive < MAX_DRIVE)
            .min_by(|a, b| a.1.total_cmp(&b.1));

        let Some((gate, drive)) = victim else {
            println!("\nno upsizable gate left on the critical path; stopping");
            println!(
                "best achieved WNS {:.1} ps at clock {clock:.0} ps",
                report.wns_ps
            );
            return Ok(());
        };
        let new_drive = drive * 2.0;
        timer.repower_gate(gate, new_drive);
        upsized += 1;
        incremental_tasks += run_update(&mut timer, &exec, &partitioner);

        if round % 10 == 0 {
            println!(
                "round {round:>3}: WNS {:>8.1} ps, upsized {} ({} drive {new_drive})",
                timer.report(1).wns_ps,
                upsized,
                timer.netlist().gates()[gate.index()].name
            );
        }
    }
    println!(
        "\nstopped after {MAX_ROUNDS} rounds; WNS {:.1} ps",
        timer.report(1).wns_ps
    );
    Ok(())
}
