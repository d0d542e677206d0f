//! Figure 8: TDG runtime (after partitioning) under different partition
//! sizes.
//!
//! GDCA's runtime shows a V-shape (too-small sizes leave scheduling cost,
//! too-large sizes destroy parallelism), while the G-PASTA family keeps
//! improving until saturation thanks to the partition-count lower bound —
//! so its `Ps` needs no tuning.
//!
//! Two metrics per point:
//! * wall-clock on this host's executor (core-count dependent — on a
//!   single-core machine the parallelism-loss penalty is invisible), and
//! * the deterministic 8-worker list-scheduling makespan
//!   ([`gpasta_sched::simulate_makespan`]), which reproduces the paper's
//!   multi-core shape on any machine and is what the printed table shows.
//!
//! The measurement itself lives in
//! [`gpasta_bench::figs::fig8_circuit_rows`]; the harness smoke tests pin
//! its column list on a fresh run and on the committed `results/fig8_*`
//! files.
//!
//! ```text
//! cargo run --release -p gpasta-bench --bin fig8 -- --scale 0.05
//! ```

use gpasta_bench::figs::fig8_circuit_rows;
use gpasta_bench::tuning::{DISPATCH_NS, SIM_WORKERS};
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
    println!(
        "Figure 8 reproduction: TDG runtime vs partition size @ scale {} (simulated {} workers, {} ns/dispatch)\n",
        cfg.scale, SIM_WORKERS, DISPATCH_NS
    );

    for &circuit in &[PaperCircuit::DesPerf, PaperCircuit::Leon2] {
        println!("== {} (simulated makespan, ms) ==", circuit.name());
        println!(
            "{:>5} {:>12} {:>12} {:>12} {:>12}",
            "Ps", "GDCA", "seq-GP", "GP", "deter"
        );
        let rows = fig8_circuit_rows(circuit, cfg.scale, cfg.runs, cfg.workers);
        for row in &rows {
            let col = |name: &str| {
                row.values
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|&(_, v)| v)
                    .expect("fig8 schema column")
            };
            println!(
                "{:>5} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
                row.label,
                col("gdca_sim_ms"),
                col("seq_gpasta_sim_ms"),
                col("gpasta_sim_ms"),
                col("deter_gpasta_sim_ms")
            );
        }
        write_csv(
            &cfg.out_dir.join(format!("fig8_{}.csv", circuit.name())),
            &rows,
        )?;
        write_json(
            &cfg.out_dir.join(format!("fig8_{}.json", circuit.name())),
            &rows,
        )?;
        println!();
    }
    println!("wrote {}", cfg.out_dir.join("fig8_*.csv").display());
    Ok(())
}
