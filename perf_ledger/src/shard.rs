//! The `shard_full` workload: one fault-free `gpasta::shard::run_sharded`
//! per op, with real `gpasta shard-worker` processes, next to the
//! single-process run of the same update.

use std::path::Path;

use gpasta::circuits::PaperCircuit;
use gpasta::shard::{run_sharded, run_single_process, ShardRunConfig, ShardRunOutcome};

use crate::drive::{self, Subject};
use crate::edits::StreamKind;
use crate::host;
use crate::inproc;
use crate::metrics::Ledger;
use crate::stats::median;

struct Sharded {
    config: ShardRunConfig,
    bits: [(u32, u32); 2],
    outcomes: Vec<ShardRunOutcome>,
    single_exec_ms: Vec<f64>,
}

impl Subject for Sharded {
    fn lanes(&self) -> usize {
        2
    }

    fn next_op(&mut self, _op: u32) {}

    fn run(&mut self, lane: usize) -> Result<(), String> {
        if lane == 0 {
            let outcome = run_sharded(&self.config).map_err(|e| e.to_string())?;
            self.bits[0] = (outcome.wns_bits, outcome.tns_bits);
            let clean = outcome.respawns == 0
                && outcome.poisoned.is_empty()
                && outcome.unfinished.is_empty();
            self.outcomes.push(outcome);
            if !clean {
                return Err("a fault-free sharded run respawned or lost a shard".to_string());
            }
        } else {
            let single =
                run_single_process(self.config.circuit, self.config.scale, self.config.seed);
            self.bits[1] = (single.wns_bits, single.tns_bits);
            self.single_exec_ms.push(single.exec_nanos as f64 / 1e6);
        }
        Ok(())
    }

    fn agree(&mut self) -> bool {
        self.bits[0] == self.bits[1]
    }
}

/// Run the `shard_full` workload and fill in its ledger.
///
/// # Errors
///
/// When the worker binary is missing.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    dir: &Path,
) -> Result<Ledger, String> {
    let (circuit, scale, shards) = if smoke {
        (PaperCircuit::AesCore, 0.01, 2)
    } else {
        // A quarter of the other workloads' design: an op is ~0.35 s, so a
        // run holds some fifty of them. At 0.05 an op is 1.5 s, a run holds
        // ten, and their median moves by a sixth between runs.
        (PaperCircuit::Leon2, 0.0125, 4)
    };
    let mut config = ShardRunConfig::new(circuit, scale, seed, shards);
    config.max_workers = host::workers();
    config.worker_exe = crate::gpasta_exe()?;
    let mut subject = Sharded {
        config,
        bits: [(0, 0); 2],
        outcomes: Vec::new(),
        single_exec_ms: Vec::new(),
    };
    let mut ledger = Ledger::new(name, traced);

    // Set-up is what a user waits for before a warm op: the first runs,
    // which load the worker binary and fault its pages in.
    let mut setup_s = Vec::new();
    for _ in 0..inproc::SETUP_ROUNDS {
        let t0 = std::time::Instant::now();
        subject.run(0)?;
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    subject.outcomes.clear();

    let pid = std::process::id();
    let samples = drive::measure(&mut subject, 0, seconds, pid);
    if traced {
        ledger.attempted = samples.attempted;
        ledger.failed = samples.failed;
        let of = |f: fn(&ShardRunOutcome) -> f64| -> Vec<f64> {
            subject.outcomes.iter().map(f).collect()
        };
        let worker_exec = of(|o| o.worker_exec_nanos as f64 / 1e6);
        ledger.set("shard.worker_exec_ms", &worker_exec);
        ledger.set("shard.single_process_ms", &subject.single_exec_ms);
        // Sharded wall over the single-process *task loop*: everything
        // sharding adds (spawn, context rebuild, framing) per unit of the
        // work it distributes.
        ledger.set(
            "shard.overhead_ratio",
            &[median(&samples.wall_ms[0]) / median(&subject.single_exec_ms)],
        );
        ledger.set("shard.edge_cut", &of(|o| o.edge_cut as f64));
        ledger.set("shard.respawns", &of(|o| o.respawns as f64));
        // The in-process layers of the same whole-design update.
        let spec = inproc::Spec {
            circuit,
            scale,
            stream: StreamKind::ClockFlip,
            edits_per_op: 1,
            warmup: 2,
        };
        let layers = inproc::run(
            &format!("{name}.layers"),
            &spec,
            seed,
            seconds / 4.0,
            true,
            dir,
        );
        ledger.absorb(&layers);
    } else {
        let peak_rss = host::peak_rss_mib(pid);
        for _ in 0..inproc::SETUP_ROUNDS {
            let t0 = std::time::Instant::now();
            subject.run(0)?;
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        drive::end_to_end(&mut ledger, &samples, &setup_s, peak_rss);
    }
    Ok(ledger)
}
