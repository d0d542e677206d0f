//! Incremental timing with a partition kept for the design's life.
//!
//! Applies a sequence of design modifiers (gate repowering, net
//! capacitance changes) to a vga_lcd-class design. After every modifier,
//! `update_timing` emits a TDG for just the affected region; the example
//! compares running those incremental TDGs raw vs. scheduling the same
//! cone on the partition a `Session` keeps — seq-G-PASTA installed once
//! on the full task space, each cone run on a restriction of its one
//! quotient, never repaired because delay edits leave the full-space TDG
//! unchanged — vs. not scheduling at all: the cone in ascending full-space
//! id on the calling thread, with no TDG, quotient or executor, running only the
//! tasks a changed value reaches (executed / structural is printed, and so
//! is the time that lane spends finding the cone, `Timer::dirty_cone`,
//! beside its total). It verifies the timing results agree at every step.
//! On the 2-core development host the last column wins at every cone
//! size, which is why a `Session` runs every update without a stall
//! window that way.
//!
//! ```text
//! cargo run --release --example incremental
//! ```

use gpasta::circuits::PaperCircuit;
use gpasta::core::{IncrementalPartitioner, PartitionerOptions, SeqGPasta};
use gpasta::sched::Executor;
use gpasta::sta::{CellLibrary, GateId, Timer};
use gpasta::tdg::QuotientArena;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

const ITERATIONS: usize = 60;

fn modify(timer: &mut Timer, rng: &mut ChaCha8Rng) {
    if rng.gen_bool(0.5) {
        let g = GateId(rng.gen_range(0..timer.netlist().num_gates() as u32));
        timer.repower_gate(g, *[0.5f32, 1.0, 2.0, 4.0].choose(rng).expect("non-empty"));
    } else {
        let net = rng.gen_range(0..timer.netlist().num_nets() as u32);
        timer.set_net_cap(net, rng.gen_range(0.0..6.0));
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = PaperCircuit::VgaLcd.build(0.01);
    let library = CellLibrary::typical();
    let exec = Executor::host_parallel();
    let opts = PartitionerOptions::default();

    // Three timers fed the identical modifier stream.
    let mut plain_timer = Timer::new(netlist.clone(), library.clone());
    let mut part_timer = Timer::new(netlist.clone(), library.clone());
    let mut order_timer = Timer::new(netlist, library);
    plain_timer.update_timing().run_sequential();
    order_timer.update_timing().run_sequential();

    // Install the partition once, on the initial full update: its TDG
    // spans the full task space, which every later cone lives in.
    let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
    let mut arena = QuotientArena::new();
    let t0 = std::time::Instant::now();
    let full_update = part_timer.update_timing();
    inc.install(full_update.tdg(), &opts)?;
    let install = t0.elapsed();
    full_update.run_sequential();
    drop(full_update);

    let mut rng_a = ChaCha8Rng::seed_from_u64(7);
    let mut rng_b = ChaCha8Rng::seed_from_u64(7);
    let mut rng_c = ChaCha8Rng::seed_from_u64(7);
    let (mut plain_total, mut part_total) = (Duration::ZERO, install);
    let (mut order_total, mut discover_total) = (Duration::ZERO, Duration::ZERO);
    let (mut order_executed, mut order_structural) = (0usize, 0usize);
    let mut total_tasks = 0usize;
    let mut total_dispatches_plain = 0u64;
    let mut total_dispatches_part = 0u64;

    for i in 0..ITERATIONS {
        modify(&mut plain_timer, &mut rng_a);
        modify(&mut part_timer, &mut rng_b);
        modify(&mut order_timer, &mut rng_c);

        // Raw incremental TDG.
        {
            let update = plain_timer.update_timing();
            let payload = update.task_fn();
            let report = exec.run_tdg(update.tdg(), &payload);
            plain_total += update.build_time() + report.elapsed;
            total_tasks += report.tasks_executed;
            total_dispatches_plain += report.dispatches;
        }

        // The kept partition, restricted to the dirty cone.
        {
            let t0 = std::time::Instant::now();
            let cone = part_timer.dirty_cone();
            let quotient = inc
                .cone_quotient(cone.ids(), &mut arena)
                .expect("installed above")?;
            let report = exec.run_partitioned(&quotient, &cone.task_fn());
            part_total += t0.elapsed();
            total_dispatches_part += report.dispatches;
        }

        // The cone alone, in ascending full-space id: a topological
        // order, so nothing has to be built to run it — and what no
        // changed value reaches is not run at all.
        {
            let t0 = std::time::Instant::now();
            let cone = order_timer.dirty_cone();
            discover_total += t0.elapsed();
            order_executed += cone.run_in_order();
            order_total += t0.elapsed();
            order_structural += cone.num_tasks();
        }

        // All three policies must agree, bit for bit, after every iteration.
        let a = plain_timer.report(1);
        for (other, lane) in [(&part_timer, "partitioned"), (&order_timer, "in-order")] {
            let b = other.report(1);
            assert_eq!(
                (a.wns_ps.to_bits(), a.tns_ps.to_bits()),
                (b.wns_ps.to_bits(), b.tns_ps.to_bits()),
                "{lane} lane diverged at iteration {i}"
            );
        }
    }

    let final_report = plain_timer.report(3);
    println!(
        "{} iterations, {} incremental tasks total",
        ITERATIONS, total_tasks
    );
    println!(
        "raw TDGs        : {:>8.2} ms cumulative, {} dispatches",
        plain_total.as_secs_f64() * 1e3,
        total_dispatches_plain
    );
    println!(
        "kept partition  : {:>8.2} ms cumulative ({:.2} ms install), {} dispatches",
        part_total.as_secs_f64() * 1e3,
        install.as_secs_f64() * 1e3,
        total_dispatches_part
    );
    println!(
        "cone in id order: {:>8.2} ms cumulative ({:.2} ms in dirty_cone()), \
         {order_executed} / {order_structural} tasks executed, no TDG, no dispatch",
        order_total.as_secs_f64() * 1e3,
        discover_total.as_secs_f64() * 1e3
    );
    println!("\nfinal timing state:\n{final_report}");
    Ok(())
}
