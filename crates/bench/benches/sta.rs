//! Criterion microbenchmarks: STA engine costs — table lookups, task
//! granularity, TDG build time.
//!
//! Verifies the workload sits in the paper's regime: propagation tasks
//! comparable to (or a small multiple of) per-task scheduling cost.

use criterion::{criterion_group, criterion_main, Criterion};
use gpasta_circuits::PaperCircuit;
use gpasta_sta::{CellKind, CellLibrary, Timer};

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

    // Full-update propagation: per-task cost = total / tasks.
    let netlist = PaperCircuit::AesCore.build(0.05);
    let mut group = c.benchmark_group("update_timing");
    group.sample_size(10);
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
