//! Criterion microbenchmarks: STA engine costs — table lookups, task
//! granularity, the in-order sweep the product runs, TDG build time.
//!
//! Verifies the workload sits in the paper's regime: propagation tasks
//! comparable to (or a small multiple of) per-task scheduling cost.

use criterion::{criterion_group, criterion_main, Criterion};
use gpasta_circuits::PaperCircuit;
use gpasta_sta::{CellKind, CellLibrary, GateId, Timer};

fn bench_sta(c: &mut Criterion) {
    let library = CellLibrary::typical();

    // Raw NLDM lookup (the innermost delay-calculation kernel).
    let table = &library.cell(CellKind::Nand2).tables.delay_rise;
    c.bench_function("nldm_lookup", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for i in 0..100u32 {
                let s = 5.0 + (i as f32) * 3.0;
                let l = 0.5 + (i as f32) * 0.3;
                acc += table.lookup_at(s, table.load_bracket(l));
            }
            acc
        })
    });

    // The same lookups with both brackets resolved ahead, as the forward
    // kernel does once per gate (load) and once per fan-in corner (slew).
    let brackets: Vec<_> = (0..100u32)
        .map(|i| {
            let s = 5.0 + (i as f32) * 3.0;
            let l = 0.5 + (i as f32) * 0.3;
            (table.slew_bracket(s), table.load_bracket(l))
        })
        .collect();
    c.bench_function("nldm_lookup_bracketed", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for &(sb, lb) in &brackets {
                acc += table.lookup_bracketed(sb, lb);
            }
            acc
        })
    });

    // Full-update propagation: per-task cost = total / tasks.
    let netlist = PaperCircuit::AesCore.build(0.05);
    let mut group = c.benchmark_group("update_timing");
    group.sample_size(10);
    // The product's one-thread path: the dirty cone swept in id order on
    // the calling thread, with no task graph — the whole design (a session
    // with `workers = 1`), and the cone of one repower (only the tasks a
    // changed value reaches run).
    group.bench_function("run_in_order", |b| {
        let mut timer = Timer::new(netlist.clone(), library.clone());
        b.iter(|| {
            timer.invalidate_all();
            timer.dirty_cone().run_in_order()
        })
    });
    group.bench_function("run_in_order_one_edit", |b| {
        let mut timer = Timer::new(netlist.clone(), library.clone());
        timer.dirty_cone().run_in_order();
        let gate = GateId(timer.netlist().num_gates() as u32 / 2);
        let mut drive = 1.0;
        b.iter(|| {
            drive = 3.0 - drive;
            timer.repower_gate(gate, drive);
            timer.dirty_cone().run_in_order()
        })
    });
    group.bench_function("run_sequential", |b| {
        let mut timer = Timer::new(netlist.clone(), library.clone());
        b.iter(|| {
            timer.invalidate_all();
            let update = timer.update_timing();
            update.run_sequential();
            update.tdg().num_tasks()
        })
    });
    group.bench_function("build_tdg", |b| {
        let mut timer = Timer::new(netlist.clone(), library.clone());
        b.iter(|| {
            timer.invalidate_all();
            let update = timer.update_timing();
            update.tdg().num_tasks()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sta);
criterion_main!(benches);
