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

use gpasta_bench::figs::{fig7_circuit_rows, fig7_iterations};
use gpasta_bench::tuning::SIM_WORKERS;
use gpasta_bench::{write_csv, write_json, BenchConfig, OutputError};
use gpasta_circuits::PaperCircuit;

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), OutputError> {
    let cfg = BenchConfig::from_args();
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
