//! Shared measurement cores for the Figure 7 / Figure 8 emitters.
//!
//! The `fig7` and `fig8` binaries emit these rows as they are, so the
//! committed `results/fig{7,8}_<circuit>.{csv,json}` files carry exactly
//! the columns built here; the harness smoke tests pin that list for a
//! fresh run and for the committed files alike.

use crate::tuning::{gpasta_for, tune_gdca_ps, DISPATCH_NS, SIM_WORKERS};
use crate::Row;
use gpasta_circuits::PaperCircuit;
use gpasta_core::{DeterGPasta, GPasta, Gdca, Partitioner, PartitionerOptions, SeqGPasta};
use gpasta_gpu::Device;
use gpasta_sched::{simulate_makespan, Executor, Taskflow};
use gpasta_sta::{CellLibrary, GateId, Timer};
use gpasta_tdg::QuotientTdg;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Partition sizes swept by the Figure 8 emitter.
pub const FIG8_PARTITION_SIZES: &[usize] = &[1, 2, 3, 5, 8, 15, 30, 60, 120, 240];

/// Seed of the deterministic per-iteration modifier stream (shared by
/// every fig7 policy so all policies time the identical workload).
const FIG7_SEED: u64 = 0x5EED;

/// Iteration count of the Figure 7 loop at `scale` (the paper runs 8 K).
pub fn fig7_iterations(scale: f64) -> usize {
    ((8_000.0 * scale) as usize).max(20)
}

/// One deterministic design modifier per iteration: repower a random
/// gate or change a random net's capacitance.
fn apply_modifier(timer: &mut Timer, rng: &mut ChaCha8Rng) {
    let num_gates = timer.netlist().num_gates();
    let num_nets = timer.netlist().num_nets() as u32;
    if rng.gen_bool(0.5) && num_gates > 0 {
        let g = GateId(rng.gen_range(0..num_gates as u32));
        let drive = *[0.5f32, 1.0, 2.0, 4.0].choose(rng).expect("non-empty");
        timer.repower_gate(g, drive);
    } else if num_nets > 0 {
        let net = rng.gen_range(0..num_nets);
        timer.set_net_cap(net, rng.gen_range(0.0..6.0));
    }
}

/// A named fig7 scheduling policy: `None` runs the raw TDG.
pub type Fig7Policy<'a> = (
    &'a str,
    Option<(&'a dyn Partitioner, &'a PartitionerOptions)>,
);

/// Per-iteration cost of one fig7 policy: `(wall_ms, sim_ms)`.
pub fn fig7_one_iteration(
    timer: &mut Timer,
    exec: &Executor,
    policy: Option<(&dyn Partitioner, &PartitionerOptions)>,
) -> (f64, f64) {
    let update = timer.update_timing();
    let tdg = update.tdg();
    let payload = update.task_fn();
    match policy {
        None => {
            let t0 = Instant::now();
            let taskflow = Taskflow::from_tdg(tdg, &payload);
            drop(taskflow);
            let overhead = update.build_time() + t0.elapsed();
            let report = exec.run_tdg(tdg, &payload);
            let wall = (overhead + report.elapsed).as_secs_f64() * 1e3;
            let sim = overhead.as_secs_f64() * 1e3
                + simulate_makespan(tdg, SIM_WORKERS, DISPATCH_NS).makespan_ns / 1e6;
            (wall, sim)
        }
        Some((p, opts)) => {
            let t0 = Instant::now();
            let partition = p.partition(tdg, opts).expect("valid options");
            let quotient = QuotientTdg::build(tdg, &partition).expect("schedulable");
            let taskflow = Taskflow::from_quotient(&quotient, &payload);
            drop(taskflow);
            let overhead = update.build_time() + t0.elapsed();
            let report = exec.run_partitioned(&quotient, &payload);
            let wall = (overhead + report.elapsed).as_secs_f64() * 1e3;
            let sim = overhead.as_secs_f64() * 1e3
                + simulate_makespan(quotient.graph(), SIM_WORKERS, DISPATCH_NS).makespan_ns / 1e6;
            (wall, sim)
        }
    }
}

/// The Figure 7 per-circuit core: run the three policies (no
/// partitioning, tuned GDCA, G-PASTA) over the identical modifier
/// stream and return one row per iteration with cumulative wall and
/// simulated-makespan columns — exactly the schema of the committed
/// `results/fig7_<circuit>.json` files.
pub fn fig7_circuit_rows(circuit: PaperCircuit, scale: f64, workers: usize) -> Vec<Row> {
    let iterations = fig7_iterations(scale);
    let netlist = circuit.build(scale);
    let library = CellLibrary::typical();
    let exec = Executor::new(workers);

    // Tune GDCA once on the full-update TDG, as for Table 1.
    let gdca_ps = {
        let mut t = Timer::new(netlist.clone(), library.clone());
        let update = t.update_timing();
        tune_gdca_ps(update.tdg(), SIM_WORKERS, DISPATCH_NS)
    };

    let gdca: Box<dyn Partitioner> = Box::new(Gdca::new());
    let gpasta = gpasta_for(workers);
    let gdca_opts = PartitionerOptions::with_max_size(gdca_ps);
    let auto_opts = PartitionerOptions::default();
    let policies: Vec<Fig7Policy> = vec![
        ("original", None),
        ("gdca", Some((gdca.as_ref(), &gdca_opts))),
        ("gpasta", Some((gpasta.as_ref(), &auto_opts))),
    ];

    let mut wall_series: Vec<Vec<f64>> = Vec::new();
    let mut sim_series: Vec<Vec<f64>> = Vec::new();
    for (_, policy) in &policies {
        // Identical modifier sequence per policy.
        let mut rng = ChaCha8Rng::seed_from_u64(FIG7_SEED);
        let mut timer = Timer::new(netlist.clone(), library.clone());
        // Initial full analysis is common to all policies (warm start).
        timer.update_timing().run_sequential();

        let (mut wall_cum, mut sim_cum) = (0.0f64, 0.0f64);
        let mut wall_curve = Vec::with_capacity(iterations);
        let mut sim_curve = Vec::with_capacity(iterations);
        for _ in 0..iterations {
            apply_modifier(&mut timer, &mut rng);
            let (wall, sim) = fig7_one_iteration(&mut timer, &exec, *policy);
            wall_cum += wall;
            sim_cum += sim;
            wall_curve.push(wall_cum);
            sim_curve.push(sim_cum);
        }
        wall_series.push(wall_curve);
        sim_series.push(sim_curve);
    }

    (0..iterations)
        .map(|i| {
            Row::new(
                format!("{}", i + 1),
                &[
                    ("original_wall_ms", wall_series[0][i]),
                    ("gdca_wall_ms", wall_series[1][i]),
                    ("gpasta_wall_ms", wall_series[2][i]),
                    ("original_sim_ms", sim_series[0][i]),
                    ("gdca_sim_ms", sim_series[1][i]),
                    ("gpasta_sim_ms", sim_series[2][i]),
                ],
            )
        })
        .collect()
}

/// The Figure 8 per-circuit core: sweep [`FIG8_PARTITION_SIZES`] over
/// the four partitioners and return one row per partition size with
/// simulated-makespan and wall-clock columns — exactly the schema of
/// the committed `results/fig8_<circuit>.json` files.
pub fn fig8_circuit_rows(
    circuit: PaperCircuit,
    scale: f64,
    runs: usize,
    workers: usize,
) -> Vec<Row> {
    let netlist = circuit.build(scale);
    let library = CellLibrary::typical();
    let exec = Executor::new(workers);

    let partitioners: Vec<Box<dyn Partitioner>> = vec![
        Box::new(Gdca::new()),
        Box::new(SeqGPasta::new()),
        Box::new(GPasta::with_device(Device::new(workers))),
        Box::new(DeterGPasta::with_device(Device::new(workers))),
    ];

    let mut rows = Vec::new();
    for &ps in FIG8_PARTITION_SIZES {
        let opts = PartitionerOptions::with_max_size(ps);
        let mut wall_ms = Vec::new();
        let mut sim_ms = Vec::new();
        for p in &partitioners {
            // Wall-clock on this host.
            let mut timer = Timer::new(netlist.clone(), library.clone());
            let t = crate::flow::average(runs, || {
                timer.invalidate_all();
                crate::measure_partitioned_update(&mut timer, &exec, p.as_ref(), &opts)
            });
            wall_ms.push(t.run.as_secs_f64() * 1e3);

            // Deterministic multi-worker makespan.
            let mut timer = Timer::new(netlist.clone(), library.clone());
            let update = timer.update_timing();
            let partition = p.partition(update.tdg(), &opts).expect("valid options");
            let q = QuotientTdg::build(update.tdg(), &partition).expect("schedulable");
            let sim = simulate_makespan(q.graph(), SIM_WORKERS, DISPATCH_NS);
            sim_ms.push(sim.makespan_ns / 1e6);
        }
        rows.push(Row::new(
            format!("{ps}"),
            &[
                ("gdca_sim_ms", sim_ms[0]),
                ("seq_gpasta_sim_ms", sim_ms[1]),
                ("gpasta_sim_ms", sim_ms[2]),
                ("deter_gpasta_sim_ms", sim_ms[3]),
                ("gdca_wall_ms", wall_ms[0]),
                ("seq_gpasta_wall_ms", wall_ms[1]),
                ("gpasta_wall_ms", wall_ms[2]),
                ("deter_gpasta_wall_ms", wall_ms[3]),
            ],
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_iterations_floor_and_scale() {
        assert_eq!(fig7_iterations(0.0001), 20);
        assert_eq!(fig7_iterations(0.05), 400);
        assert_eq!(fig7_iterations(1.0), 8_000);
    }

    #[test]
    fn fig7_rows_carry_the_committed_schema() {
        let rows = fig7_circuit_rows(PaperCircuit::VgaLcd, 0.001, 2);
        assert_eq!(rows.len(), 20, "floor of 20 iterations");
        let cols: Vec<&str> = rows[0].values.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            cols,
            [
                "original_wall_ms",
                "gdca_wall_ms",
                "gpasta_wall_ms",
                "original_sim_ms",
                "gdca_sim_ms",
                "gpasta_sim_ms"
            ]
        );
        // Cumulative series are non-decreasing.
        for w in rows.windows(2) {
            for i in 0..w[0].values.len() {
                assert!(w[0].values[i].1 <= w[1].values[i].1, "cumulative column");
            }
        }
    }

    #[test]
    fn fig8_rows_carry_the_committed_schema() {
        let rows = fig8_circuit_rows(PaperCircuit::DesPerf, 0.002, 1, 2);
        assert_eq!(rows.len(), FIG8_PARTITION_SIZES.len());
        let cols: Vec<&str> = rows[0].values.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            cols,
            [
                "gdca_sim_ms",
                "seq_gpasta_sim_ms",
                "gpasta_sim_ms",
                "deter_gpasta_sim_ms",
                "gdca_wall_ms",
                "seq_gpasta_wall_ms",
                "gpasta_wall_ms",
                "deter_gpasta_wall_ms"
            ]
        );
        assert_eq!(rows[0].label, "1");
        assert_eq!(rows.last().expect("non-empty").label, "240");
    }
}
