//! `perf_ledger` — the repository's benchmark.
//!
//! Four workloads run against the real product paths
//! (`gpasta::session::Session`, a spawned `gpasta serve`, and
//! `gpasta::shard::run_sharded` with real worker processes), every result
//! is checked bit for bit against an oracle, and every metric is printed by
//! name with its unit. Layers are measured from outside, by timing calls
//! into their public functions; nothing in the product is instrumented.
//! `README.md` holds the metric glossary and how to read the numbers.

pub mod compare;
pub mod drive;
pub mod edits;
pub mod host;
pub mod inproc;
pub mod metrics;
pub mod mirror;
pub mod orchestrate;
pub mod serve;
pub mod shard;
pub mod stats;
pub mod trace;

use std::path::{Path, PathBuf};

use gpasta::circuits::PaperCircuit;

use edits::StreamKind;
use metrics::Ledger;

/// The workloads, with the one-line reason each exists (as in
/// `BENCHMARK.json`).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "full_retime",
        "whole design dirty on every op (paper Table 1, Fig. 1(a)): TDG build, quotient build and \
         the scheduled run do most of the work; dirty-cone repair and serving do none",
    ),
    (
        "eco_loop",
        "one random ECO edit per op (paper Fig. 7): cone-local TDG build, dirty-cone repair and \
         executor wake-up dominate; moves opposite to full_retime when a change trades small \
         cones for whole-graph speed",
    ),
    (
        "serve_eco",
        "one ECO edit, update and report per cycle through a real gpasta serve daemon, a \
         connection per request: accept, HTTP parse, JSON and the registry are about half of \
         the cycle",
    ),
    (
        "shard_full",
        "one fault-free sharded full update across two worker processes: spawn, per-worker \
         context rebuild and pipe framing dominate, task execution is a few percent",
    ),
];

/// Where run artefacts (traces, summaries, spools, checkpoints) go: inside
/// this package's ignored `target/`, so a run writes only in its checkout.
pub fn ledger_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/ledger");
    std::fs::create_dir_all(&dir).expect("ledger directory is creatable");
    dir
}

/// The `gpasta` binary (daemon and shard worker) built beside this one.
///
/// # Errors
///
/// When no `gpasta` sits in this executable's directory or the one above
/// (test executables live in `deps/`).
pub fn gpasta_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    me.ancestors()
        .skip(1)
        .take(2)
        .map(|dir| dir.join("gpasta"))
        .find(|exe| exe.is_file())
        .ok_or_else(|| {
            format!(
                "no `gpasta` binary beside {}; build the root package into the same target \
                 directory first (perf_ledger/run.sh does)",
                me.display()
            )
        })
}

pub(crate) fn write_trace(dir: &Path, workload: &str, tracer: &trace::Tracer) {
    let path = dir.join(format!("trace_{workload}.json"));
    if let Err(e) = std::fs::write(&path, tracer.to_json()) {
        eprintln!("perf_ledger: cannot write {}: {e}", path.display());
    }
}

/// Run one workload once. `smoke` shrinks every design to a size a test
/// can afford.
///
/// # Errors
///
/// An unknown workload name, or a missing `gpasta` binary.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Ledger, String> {
    let dir = ledger_dir();
    let (big, big_scale) = if smoke {
        (PaperCircuit::AesCore, 0.01)
    } else {
        (PaperCircuit::Leon2, 0.05)
    };
    match name {
        "full_retime" => {
            let spec = inproc::Spec {
                circuit: big,
                scale: big_scale,
                stream: StreamKind::ClockFlip,
                edits_per_op: 1,
                warmup: 4,
            };
            Ok(inproc::run(name, &spec, seed, seconds, traced, &dir))
        }
        "eco_loop" => {
            let spec = inproc::Spec {
                circuit: big,
                scale: big_scale,
                stream: StreamKind::Eco,
                edits_per_op: 1,
                warmup: if smoke { 10 } else { 64 },
            };
            Ok(inproc::run(name, &spec, seed, seconds, traced, &dir))
        }
        "serve_eco" => serve::run(name, seed, seconds, traced, smoke, &dir),
        "shard_full" => shard::run(name, seed, seconds, traced, smoke, &dir),
        other => Err(format!("unknown workload `{other}`")),
    }
}
