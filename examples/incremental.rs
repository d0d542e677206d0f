//! Incremental timing three ways.
//!
//! Applies a sequence of design modifiers (gate repowering, net
//! capacitance changes) to a vga_lcd-class design, on three timers: raw
//! incremental TDGs through the executor; a `ScheduledTimer`, which
//! installs seq-G-PASTA once on the full task space and runs each dirty
//! cone on a restriction of its one quotient; and the cone in ascending
//! full-space id on the calling thread, as a `Session` runs it, executing
//! only the tasks a changed value reaches (executed / structural is
//! printed, and so is the time spent finding the cone, `Timer::dirty_cone`).
//! It verifies the timing results agree at every step. On the 2-core
//! development host the last column wins at every cone size.
//!
//! ```text
//! cargo run --release --example incremental
//! ```

use gpasta::circuits::PaperCircuit;
use gpasta::sched::{Executor, RunBudget};
use gpasta::scheduled::ScheduledTimer;
use gpasta::sta::{CellLibrary, GateId, Timer};
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
    let unbounded = RunBudget::unbounded();

    // Three timers fed the identical modifier stream. The partition is
    // installed once, on the full task space every later cone lives in.
    let mut plain_timer = Timer::new(netlist.clone(), library.clone());
    let t0 = std::time::Instant::now();
    let mut part = ScheduledTimer::new(Timer::new(netlist.clone(), library.clone()), exec.clone())?;
    let install = t0.elapsed();
    let mut order_timer = Timer::new(netlist, library);
    plain_timer.update_timing().run_sequential();
    part.update(&unbounded)?;
    order_timer.update_timing().run_sequential();

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
        modify(part.timer_mut(), &mut rng_b);
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
            let rec = part.update(&unbounded)?;
            part_total += t0.elapsed();
            total_dispatches_part += rec.outcome.report.dispatches;
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
        for (other, lane) in [(part.timer(), "partitioned"), (&order_timer, "in-order")] {
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
