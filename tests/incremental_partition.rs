//! Differential test layer for the paper's update path against a
//! from-scratch oracle.
//!
//! Two timers receive the identical random modifier stream. One is a
//! `ScheduledTimer`: seq-G-PASTA installed once on the full task space, and
//! every update's dirty cone run through a restriction of its one quotient
//! on two workers. The other is the oracle: full invalidation, full
//! re-analysis, a from-scratch partition — no cone discovery shared with
//! the first. Every iteration asserts that
//!
//! 1. the partition installed up front is valid on
//!    `Timer::full_space_tdg()` — total, acyclic quotient, convex, within
//!    the size bound — and has not changed since;
//! 2. the scheduled update leaves the timer in a state **bit-identical**
//!    (`f32::to_bits`) to the full re-analysis: arrival, slew, and required
//!    times for every node, transition, and mode, plus both slacks.

use gpasta::circuits::PaperCircuit;
use gpasta::core::{Partitioner, PartitionerOptions, SeqGPasta};
use gpasta::sched::{Executor, RunBudget};
use gpasta::scheduled::ScheduledTimer;
use gpasta::sta::{CellLibrary, GateId, Mode, NodeId, Timer, Tr};
use gpasta::tdg::{validate, Partition, QuotientTdg};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

const ITERATIONS: usize = 20;

fn modify(timer: &mut Timer, rng: &mut ChaCha8Rng) {
    if rng.gen_bool(0.5) {
        let g = GateId(rng.gen_range(0..timer.netlist().num_gates() as u32));
        timer.repower_gate(g, *[0.5f32, 1.0, 2.0, 4.0].choose(rng).expect("non-empty"));
    } else {
        let net = rng.gen_range(0..timer.netlist().num_nets() as u32);
        timer.set_net_cap(net, rng.gen_range(0.0..6.0));
    }
}

/// Assert the two timers' full timing states agree bit-for-bit.
fn assert_bit_identical(reference: &Timer, cached: &Timer, iteration: usize) {
    let n = reference.graph().num_nodes();
    assert_eq!(n, cached.graph().num_nodes());
    let (a, b) = (reference.data(), cached.data());
    for v in 0..n as u32 {
        let v = NodeId(v);
        for tr in [Tr::Rise, Tr::Fall] {
            for mode in [Mode::Early, Mode::Late] {
                for (what, x, y) in [
                    ("arrival", a.arrival(v, tr, mode), b.arrival(v, tr, mode)),
                    ("slew", a.slew(v, tr, mode), b.slew(v, tr, mode)),
                    ("required", a.required(v, tr, mode), b.required(v, tr, mode)),
                ] {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{what} diverged at node {v:?} {tr:?}/{mode:?}, iteration {iteration}: \
                         {x} vs {y}"
                    );
                }
            }
        }
        assert_eq!(
            a.slack_late(v).to_bits(),
            b.slack_late(v).to_bits(),
            "late slack diverged at node {v:?}, iteration {iteration}"
        );
        assert_eq!(
            a.slack_early(v).to_bits(),
            b.slack_early(v).to_bits(),
            "early slack diverged at node {v:?}, iteration {iteration}"
        );
    }
}

fn differential(circuit: PaperCircuit, scale: f64, seed: u64) {
    let netlist = circuit.build(scale);
    let library = CellLibrary::typical();
    let exec = Executor::new(2);
    let opts = PartitionerOptions::default();
    let unbounded = RunBudget::unbounded();

    let mut reference = Timer::new(netlist.clone(), library.clone());
    reference.update_timing().run_sequential();
    let mut cached =
        ScheduledTimer::new(Timer::new(netlist, library), Executor::new(2)).expect("install");
    cached.update(&unbounded).expect("initial analysis");
    let full_space = cached.timer().full_space_tdg();
    let ps = opts.resolve_ps(&full_space);
    let installed = cached.partition_assignment().to_vec();
    // (1) The installed partition is valid …
    let full = Partition::new(installed.clone());
    validate::check_all(&full_space, &full).expect("valid partition");
    validate::check_size_bound(&full, ps).expect("size bound");

    let mut rng_a = ChaCha8Rng::seed_from_u64(seed);
    let mut rng_b = ChaCha8Rng::seed_from_u64(seed);
    for i in 0..ITERATIONS {
        modify(&mut reference, &mut rng_a);
        modify(cached.timer_mut(), &mut rng_b);

        // Oracle: full re-analysis with a from-scratch partition.
        {
            reference.invalidate_all();
            let update = reference.update_timing();
            let scratch = SeqGPasta::new()
                .partition(update.tdg(), &opts)
                .expect("scratch partition");
            let quotient = QuotientTdg::build(update.tdg(), &scratch).expect("schedulable");
            let payload = update.task_fn();
            exec.run_partitioned(&quotient, &payload);
        }

        // Scheduled path: the dirty cone, off the installed partition.
        let rec = cached.update(&unbounded).expect("schedulable");
        assert!(
            rec.is_clean(),
            "iteration {i}: an unbounded update completes"
        );

        // (1) … and stays as installed.
        assert_eq!(
            cached.partition_assignment(),
            &installed[..],
            "the partition changed at iteration {i}"
        );

        // (2) The timing state matches the oracle bit-for-bit.
        assert_bit_identical(&reference, cached.timer(), i);
    }
}

#[test]
fn vga_lcd_scheduled_updates_match_full_reanalysis_bit_for_bit() {
    differential(PaperCircuit::VgaLcd, 0.002, 0xD1FF);
}

#[test]
fn aes_core_scheduled_updates_match_full_reanalysis_bit_for_bit() {
    differential(PaperCircuit::AesCore, 0.004, 0xAE5);
}
