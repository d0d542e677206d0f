//! Sharded-execution overhead benchmark.
//!
//! `gpasta shard` buys kill-tolerance with OS processes and pipes; this
//! bench measures what that buys *costs* on the fault-free path and
//! proves recovery is invisible to results:
//!
//! 1. **overhead** — the same update runs two ways, interleaved
//!    run-by-run: in-process in the worker's exact task order
//!    ([`run_in_plan_order`], task loop timed) and as a one-shard
//!    [`run_sharded`] run whose worker reports its own task-loop
//!    nanoseconds over the wire. Same order, same dispatch — the only
//!    difference is the worker's heartbeat/fault bookkeeping — so the
//!    comparison isolates what sharding costs from cache effects of a
//!    different schedule (which swing tens of percent either way) and
//!    from the process spawn + context rebuild, which a run now pays
//!    once — its one long-lived worker rebuilds while the supervisor
//!    does — and which is reported as `wall_ms` but not policed (the
//!    end-to-end price is `perf_ledger`'s `shard_full` workload). The
//!    sharded loop must stay within 5 % of in-process
//!    whenever the baseline is long enough to measure (≥ 20 ms). A
//!    separate [`run_single_process`] run (level order) anchors bit
//!    identity across all three schedules.
//!
//!    Beside it, unpoliced, a chained run: four shards on at most two
//!    workers (the ledger's `shard_full` shape), whose rounds queue behind
//!    one another on one worker, timed wall to wall against a
//!    [`run_single_process`] run of the same update (`chained4_gain` =
//!    single-process wall over sharded wall).
//! 2. **healed bit-identity** — a fixed seed matrix of killed runs
//!    (SIGKILL on first attempts, plus one retry-exhausted shard that
//!    must poison and heal) each asserts its final WNS bits equal its
//!    uninterrupted oracle's.
//!
//! Writes `shard_overhead.csv` and the machine-readable summary
//! `BENCH_shard.json` that CI uploads.
//!
//! ```text
//! cargo run --release -p gpasta-bench --bin shard_overhead -- --scale 0.02
//! ```

use gpasta::shard::{run_in_plan_order, run_sharded, run_single_process, ShardRunConfig};
use gpasta_bench::{write_csv, write_json, BenchConfig, OutputError, Row};
use gpasta_circuits::PaperCircuit;
use gpasta_sched::{FaultKind, FaultPlan};
use std::path::PathBuf;
use std::time::Instant;

/// Best (minimum) of a set of samples; scheduler interference only ever
/// *adds* time, so the per-path minimum is the noise-robust estimator.
fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `gpasta` binary whose hidden `shard-worker` subcommand the
/// supervisor spawns: `$GPASTA_BIN` if set, else the sibling of this
/// bench binary in the same target directory.
fn gpasta_exe() -> PathBuf {
    if let Ok(path) = std::env::var("GPASTA_BIN") {
        return PathBuf::from(path);
    }
    let mut path = std::env::current_exe().expect("current exe");
    path.set_file_name("gpasta");
    path
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), OutputError> {
    let cfg = BenchConfig::from_args();
    println!(
        "Shard-overhead benchmark: scale {}, {} runs\n",
        cfg.scale, cfg.runs
    );
    let exe = gpasta_exe();
    assert!(
        exe.exists(),
        "worker binary {} not found; build the workspace first or set GPASTA_BIN",
        exe.display()
    );

    const SEED: u64 = 0x0DDBA11;
    let mut overhead_rows: Vec<Row> = Vec::new();
    let mut heal_rows: Vec<Row> = Vec::new();

    // --- 1. fault-free overhead: task loop vs task loop, interleaved ---
    for &circuit in &[PaperCircuit::VgaLcd, PaperCircuit::Leon2] {
        // Level-order oracle: any topological schedule must reproduce
        // these bits exactly.
        let oracle_wns = run_single_process(circuit, cfg.scale, SEED).wns_bits;

        let mut raw_ns = Vec::with_capacity(cfg.runs);
        let mut shard_ns = Vec::with_capacity(cfg.runs);
        let mut wall_ms = Vec::with_capacity(cfg.runs);
        let mut chained_ms = Vec::with_capacity(cfg.runs);
        let mut single_ms = Vec::with_capacity(cfg.runs);
        for _ in 0..cfg.runs.max(2) {
            let raw = run_in_plan_order(circuit, cfg.scale, SEED);
            raw_ns.push(raw.exec_nanos as f64);
            assert_eq!(
                raw.wns_bits,
                oracle_wns,
                "{}: plan order must be bit-identical to level order",
                circuit.name()
            );

            let mut c = ShardRunConfig::new(circuit, cfg.scale, SEED, 1);
            c.worker_exe = exe.clone();
            let t = Instant::now();
            let out = run_sharded(&c).expect("single-shard run");
            wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
            assert_eq!(out.num_shards, 1);
            assert_eq!(
                out.wns_bits,
                oracle_wns,
                "{}: one-shard run must be bit-identical to in-process",
                circuit.name()
            );
            shard_ns.push(out.worker_exec_nanos as f64);

            let mut c = ShardRunConfig::new(circuit, cfg.scale, SEED, 4);
            c.worker_exe = exe.clone();
            c.max_workers = 2;
            let t = Instant::now();
            let out = run_sharded(&c).expect("chained run");
            chained_ms.push(t.elapsed().as_secs_f64() * 1e3);
            assert_eq!(
                out.wns_bits,
                oracle_wns,
                "{}: chained run must be bit-identical to in-process",
                circuit.name()
            );
            let t = Instant::now();
            run_single_process(circuit, cfg.scale, SEED);
            single_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }

        let raw_ms = best(&raw_ns) / 1e6;
        let shard_ms = best(&shard_ns) / 1e6;
        let overhead_pct = 100.0 * (shard_ms - raw_ms) / raw_ms;
        // Only police the budget when the baseline is long enough for
        // the estimator to mean something; at smoke scales the loop is
        // microseconds and jitter dominates both paths.
        if raw_ms >= 20.0 {
            assert!(
                overhead_pct <= 5.0,
                "{}: sharded task loop costs {overhead_pct:.2}% over in-process (budget 5%)",
                circuit.name()
            );
        }
        let chained_gain = best(&single_ms) / best(&chained_ms);
        println!(
            "== {} ==\n  in-process {:>9.3} ms | worker loop {:>9.3} ms | overhead {:+.2}% | wall (one spawn+rebuild) {:>9.1} ms\n  chained 4 shards {:>9.1} ms | single process {:>9.1} ms | gain {:.3}",
            circuit.name(),
            raw_ms,
            shard_ms,
            overhead_pct,
            best(&wall_ms),
            best(&chained_ms),
            best(&single_ms),
            chained_gain
        );
        overhead_rows.push(Row::new(
            circuit.name(),
            &[
                ("in_process_ms", raw_ms),
                ("worker_loop_ms", shard_ms),
                ("overhead_pct", overhead_pct),
                ("wall_ms", best(&wall_ms)),
                ("policed", if raw_ms >= 20.0 { 1.0 } else { 0.0 }),
                ("chained4_wall_ms", best(&chained_ms)),
                ("single_process_wall_ms", best(&single_ms)),
                ("chained4_gain", chained_gain),
            ],
        ));
    }

    // --- 2. healed bit-identity under a fixed seed matrix ---
    for &seed in &[0xA11CEu64, 0xB0B, 0xCAFE] {
        let oracle = run_single_process(PaperCircuit::AesCore, cfg.scale, seed);

        // Respawn path: SIGKILL one worker, exit(1) another, both healed
        // by retry.
        let mut c = ShardRunConfig::new(PaperCircuit::AesCore, cfg.scale, seed, 3);
        c.worker_exe = exe.clone();
        c.chaos_seed = seed;
        c.faults =
            FaultPlan::none()
                .inject(0, 0, FaultKind::Panic)
                .inject(1, 0, FaultKind::Transient);
        let killed = run_sharded(&c).expect("killed run");
        assert_eq!(
            killed.wns_bits, oracle.wns_bits,
            "seed {seed:#x}: killed-and-respawned run must match the oracle"
        );

        // Poison path: a shard that dies on every attempt heals
        // in-process at the end.
        let mut c = ShardRunConfig::new(PaperCircuit::AesCore, cfg.scale, seed, 3);
        c.worker_exe = exe.clone();
        c.retry.max_retries = 0;
        c.faults = FaultPlan::none().inject(0, 0, FaultKind::Panic);
        let poisoned = run_sharded(&c).expect("poisoned run");
        assert_eq!(poisoned.poisoned, vec![0], "seed {seed:#x}");
        assert_eq!(
            poisoned.wns_bits, oracle.wns_bits,
            "seed {seed:#x}: poisoned-and-healed run must match the oracle"
        );

        println!(
            "seed {seed:#x}: respawns {}, healed tasks {}, WNS bit-identical both ways",
            killed.respawns, poisoned.healed_tasks
        );
        heal_rows.push(Row::new(
            format!("heal_{seed:#x}"),
            &[
                ("respawns", killed.respawns as f64),
                ("healed_tasks", poisoned.healed_tasks as f64),
                ("wns_matches", 1.0),
            ],
        ));
    }

    // The CSV wants homogeneous columns, so it carries the overhead
    // rows only; the JSON summary carries everything.
    write_csv(&cfg.out_dir.join("shard_overhead.csv"), &overhead_rows)?;
    let mut rows = overhead_rows;
    rows.extend(heal_rows);
    write_json(&cfg.out_dir.join("BENCH_shard.json"), &rows)?;
    println!("\nwrote {}", cfg.out_dir.join("BENCH_shard.json").display());
    Ok(())
}
