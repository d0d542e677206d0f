//! `gpasta` — command-line TDG partitioner.
//!
//! Reads a task dependency graph from an edge-list file (one `from to`
//! pair per line, `#` comments allowed, task ids dense from 0), partitions
//! it with the chosen algorithm, validates the result, and prints
//! statistics — optionally emitting the assignment as CSV or the
//! partitioned graph as Graphviz DOT.
//!
//! ```text
//! gpasta partition edges.txt --algo gpasta --ps 16 --dot out.dot
//! gpasta sanitize edges.txt --algo gpasta --workers 1,2,4
//! gpasta stats edges.txt
//! gpasta serve --addr 127.0.0.1:9480 --spool /tmp/spool
//! gpasta demo
//! ```
//!
//! Every subcommand funnels into [`gpasta::errors::Error`]: usage
//! errors print the banner and exit 2, runtime failures exit 1.

use gpasta::core::sanitize::{audit_host_partitioner, audit_partitioner};
use gpasta::core::{
    forward_closure, DeterGPasta, GPasta, Gdca, Partitioner, PartitionerOptions, Sarkar, SeqGPasta,
};
use gpasta::errors::{CliError, Error};
use gpasta::sched::{Executor, FaultKind, FaultPlan, FaultyWork, RetryPolicy, RunBudget};
use gpasta::serve::ServeConfig;
use gpasta::session::{DesignSources, Edit, Session};
use gpasta::tdg::{
    partition_to_dot, validate, ParallelismProfile, QuotientTdg, TaskId, Tdg, TdgBuilder,
};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  gpasta partition <edges-file> [--algo gpasta|deter|seq|gdca|sarkar]
                                [--ps <n>] [--dot <file>] [--csv <file>]
  gpasta sanitize <edges-file>  [--algo gpasta|deter|seq|gdca|sarkar|recovery|all]
                                [--ps <n>] [--workers <w1,w2,..>] [--runs <n>]
  gpasta stats <edges-file>
  gpasta sta <netlist.v> [--lib <file.lib>] [--sdc <file.sdc>]\n                         [--clock <ps>] [--paths <k>]\n                         [--repower <gate>=<drive> ..] [--bits]
  gpasta faults <edges-file>    [--algo gpasta|deter|seq|gdca|sarkar] [--ps <n>]
                                [--workers <n>] [--seed <n>] [--rate <f>]
                                [--retries <n>]
  gpasta update --circuit <name> [--scale <f>] [--iters <n>] [--seed <n>]
                                [--checkpoint <file>] [--resume <file>]
                                [--kill-after <i>] [--deadline-ms <n>]
  gpasta shard --circuit <name> [--scale <f>] [--shards <k>] [--workers <n>]
               [--seed <n>] [--retries <n>] [--stall-ms <n>]
               [--kill <shard:attempt[:kind]> ..]
               [--chaos-seed <n>] [--chaos-rate <f>]
               [--checkpoint <file>] [--resume <file>]
               [--kill-after-shards <n>] [--bits]
  gpasta serve [--addr <host:port>] [--stdio] [--spool <dir>]
               [--workers <n>] [--max-sessions <n>]
               [--checkpoint-ms <n>] [--max-inflight <n>]
               [--max-connections <n>] [--read-timeout-ms <n>]
               [--keep-alive-requests <n>] [--idle-timeout-ms <n>]
               [--crash-window-ms <n>] [--max-crashes <n>]
               [--chaos-seed <n>] [--chaos-rate <f>] [--chaos-kinds <k,..>]
               [--chaos-inject <name:update:attempt:kind> ..]
  gpasta demo

edge-list format: one `from to` pair of task ids per line; `#` comments
and blank lines are ignored; task count is 1 + the largest id. Netlists
use the structural-Verilog subset produced by gpasta::sta::write_verilog;
libraries use the Liberty subset of gpasta::sta::write_liberty.
`serve` hosts warm timing sessions over HTTP/JSON (or JSON-RPC on stdio);
see DESIGN.md section 12 for the wire schema.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if e.is_usage() {
                eprintln!("{USAGE}");
            }
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(args: &[String]) -> Result<(), Error> {
    match args.first().map(String::as_str) {
        Some("partition") => partition_cmd(&args[1..]),
        Some("sanitize") => sanitize_cmd(&args[1..]),
        Some("stats") => stats_cmd(&args[1..]),
        Some("sta") => sta_cmd(&args[1..]),
        Some("faults") => faults_cmd(&args[1..]),
        Some("update") => update_cmd(&args[1..]),
        Some("shard") => shard_cmd(&args[1..]),
        // Hidden: the child-process half of `gpasta shard`.
        Some("shard-worker") => shard_worker_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("demo") => demo_cmd(),
        Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`; try --help").into()),
    }
}

/// The flag's value, or a typed usage error.
fn need(flag: &'static str, value: Option<&String>) -> Result<String, Error> {
    value
        .cloned()
        .ok_or_else(|| CliError::MissingValue(flag).into())
}

/// Parse `--scale`: a finite factor above zero (a `nan` or `inf` would
/// reach the netlist generator).
fn parse_scale(value: Option<&String>) -> Result<f64, Error> {
    let scale = parse::<f64>("--scale", value)?;
    if scale.is_finite() && scale > 0.0 {
        return Ok(scale);
    }
    Err(CliError::BadValue {
        flag: "--scale",
        value: value.cloned().unwrap_or_default(),
        why: "must be a finite number above 0".to_string(),
    }
    .into())
}

/// Parse the flag's value, or a typed usage error naming flag and value.
fn parse<T>(flag: &'static str, value: Option<&String>) -> Result<T, Error>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let raw = need(flag, value)?;
    raw.parse().map_err(|e: T::Err| {
        CliError::BadValue {
            flag,
            value: raw.clone(),
            why: e.to_string(),
        }
        .into()
    })
}

fn unexpected(arg: &str) -> Error {
    CliError::UnknownFlag(arg.to_string()).into()
}

fn load_edges(path: &Path) -> Result<Tdg, Error> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(gpasta::tdg::parse_edge_list(&text).map_err(|e| e.to_string())?)
}

fn pick_algo(name: &str) -> Result<Box<dyn Partitioner>, Error> {
    Ok(match name {
        "gpasta" => Box::new(GPasta::new()),
        "deter" => Box::new(DeterGPasta::new()),
        "seq" => Box::new(SeqGPasta::new()),
        "gdca" => Box::new(Gdca::new()),
        "sarkar" => Box::new(Sarkar::new()),
        other => return Err(format!("unknown algorithm `{other}`").into()),
    })
}

fn partition_cmd(args: &[String]) -> Result<(), Error> {
    let mut file = None;
    let mut algo = "gpasta".to_owned();
    let mut ps = None;
    let mut dot_out = None;
    let mut csv_out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--algo" => algo = need("--algo", it.next())?,
            "--ps" => ps = Some(parse::<usize>("--ps", it.next())?),
            "--dot" => dot_out = Some(need("--dot", it.next())?),
            "--csv" => csv_out = Some(need("--csv", it.next())?),
            other if file.is_none() => file = Some(other.to_owned()),
            other => return Err(unexpected(other)),
        }
    }
    let file = file.ok_or_else(|| Error::from("missing <edges-file>".to_string()))?;
    let tdg = load_edges(Path::new(&file))?;
    let partitioner = pick_algo(&algo)?;
    let opts = match ps {
        Some(n) => PartitionerOptions::with_max_size(n),
        None => PartitionerOptions::default(),
    };

    let t0 = std::time::Instant::now();
    let partition = partitioner
        .partition(&tdg, &opts)
        .map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed();
    validate::check_all(&tdg, &partition).map_err(|e| format!("internal error: {e}"))?;

    println!(
        "{}: {} tasks, {} deps -> {}",
        partitioner.name(),
        tdg.num_tasks(),
        tdg.num_deps(),
        partition.stats(&tdg)
    );
    println!(
        "partitioned in {:.3} ms; result validated (acyclic, convex)",
        elapsed.as_secs_f64() * 1e3
    );

    if let Some(path) = csv_out {
        let mut out = String::from("task,partition\n");
        for (t, &p) in partition.assignment().iter().enumerate() {
            out.push_str(&format!("{t},{p}\n"));
        }
        std::fs::write(&path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = dot_out {
        std::fs::write(&path, partition_to_dot(&tdg, &partition))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn sanitize_cmd(args: &[String]) -> Result<(), Error> {
    let mut file = None;
    let mut algo = "all".to_owned();
    let mut ps = None;
    let mut workers = vec![1usize, 2, 4];
    let mut runs = 2usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--algo" => algo = need("--algo", it.next())?,
            "--ps" => ps = Some(parse::<usize>("--ps", it.next())?),
            "--workers" => {
                let raw = need("--workers", it.next())?;
                workers = raw
                    .split(',')
                    .map(|w| {
                        w.trim().parse::<usize>().map_err(|e| {
                            Error::from(CliError::BadValue {
                                flag: "--workers",
                                value: raw.clone(),
                                why: e.to_string(),
                            })
                        })
                    })
                    .collect::<Result<_, _>>()?;
                if workers.is_empty() || workers.contains(&0) {
                    return Err(CliError::NonPositive("--workers").into());
                }
            }
            "--runs" => {
                runs = parse::<usize>("--runs", it.next())?;
                if runs == 0 {
                    return Err(CliError::NonPositive("--runs").into());
                }
            }
            other if file.is_none() => file = Some(other.to_owned()),
            other => return Err(unexpected(other)),
        }
    }
    let file = file.ok_or_else(|| Error::from("missing <edges-file>".to_string()))?;
    let tdg = load_edges(Path::new(&file))?;
    let opts = match ps {
        Some(n) => PartitionerOptions::with_max_size(n),
        None => PartitionerOptions::default(),
    };
    let algos: Vec<&str> = if algo == "all" {
        vec!["gpasta", "deter", "seq", "gdca", "sarkar", "recovery"]
    } else {
        vec![algo.as_str()]
    };
    if let Some(bad) = algos.iter().find(|a| {
        !matches!(
            **a,
            "gpasta" | "deter" | "seq" | "gdca" | "sarkar" | "recovery"
        )
    }) {
        return Err(format!("unknown algorithm `{bad}`").into());
    }
    println!(
        "sanitizing {} tasks, {} deps under workers {workers:?} x {} schedule(s) x {runs} run(s)\n",
        tdg.num_tasks(),
        tdg.num_deps(),
        gpasta::gpu::Schedule::ALL.len(),
    );
    for name in algos {
        let outcome = match name {
            "gpasta" => audit_partitioner(GPasta::with_device, &tdg, &opts, &workers, runs),
            "deter" => audit_partitioner(DeterGPasta::with_device, &tdg, &opts, &workers, runs),
            "seq" => audit_host_partitioner(&SeqGPasta::new(), &tdg, &opts, &workers, runs),
            "gdca" => audit_host_partitioner(&Gdca::new(), &tdg, &opts, &workers, runs),
            "sarkar" => audit_host_partitioner(&Sarkar::new(), &tdg, &opts, &workers, runs),
            // Fault recovery under a fixed plan: same seed + same worker
            // count must yield the identical salvage/poison sets.
            "recovery" => audit_recovery(&tdg, &opts, &workers, runs)?,
            other => unreachable!("algorithm `{other}` validated above"),
        };
        println!("{name:<12} {outcome}");
    }
    Ok(())
}

/// Determinism audit of the fault-recovery path itself: partition the
/// graph once (deterministic partitioner), then replay a fixed
/// [`FaultPlan`] through `run_partitioned_recovering_bounded` under every audited
/// worker count, fingerprinting the salvage/poison sets. Recovery is
/// sound only if the fingerprint is independent of scheduling — the audit
/// must report `Deterministic`.
fn audit_recovery(
    tdg: &Tdg,
    opts: &PartitionerOptions,
    workers: &[usize],
    runs: usize,
) -> Result<gpasta::core::sanitize::AuditOutcome, Error> {
    let partition = DeterGPasta::new()
        .partition(tdg, opts)
        .map_err(|e| e.to_string())?;
    let quotient = QuotientTdg::build(tdg, &partition).map_err(|e| e.to_string())?;
    let kinds = [
        FaultKind::Panic,
        FaultKind::Transient,
        FaultKind::WrongResult,
    ];
    let policy = RetryPolicy {
        max_retries: 1,
        base_backoff: std::time::Duration::ZERO,
        max_backoff: std::time::Duration::ZERO,
    };
    // Injected panics are expected; keep the default hook's stderr lines
    // out of the audit output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = gpasta::gpu::audit_determinism(workers, runs, |dev| {
        let plan = FaultPlan::random(0xFA17_0001, 0.05, &kinds);
        let payload = |_t: TaskId| {};
        let work = FaultyWork::new(&payload, &plan);
        let exec = Executor::new(dev.num_threads());
        let outcome = exec.run_partitioned_recovering_bounded(
            &quotient,
            &work,
            &policy,
            &RunBudget::unbounded(),
        );
        // Fingerprint: poisoned units, poisoned tasks, then the counters.
        let mut fp = outcome.poisoned_units.clone();
        fp.push(u32::MAX);
        fp.extend_from_slice(&outcome.poisoned_tasks);
        fp.push(u32::MAX);
        fp.push(outcome.salvaged_tasks as u32);
        fp.push(outcome.retries as u32);
        fp.push(outcome.failures.len() as u32);
        fp
    });
    std::panic::set_hook(default_hook);
    Ok(outcome)
}

fn stats_cmd(args: &[String]) -> Result<(), Error> {
    let file = args
        .first()
        .ok_or_else(|| Error::from("missing <edges-file>".to_string()))?;
    let tdg = load_edges(Path::new(file))?;
    let profile = ParallelismProfile::of(&tdg);
    println!("{} tasks, {} deps", tdg.num_tasks(), tdg.num_deps());
    println!("{profile}");
    println!(
        "{} sources, {} sinks",
        tdg.sources().len(),
        tdg.sinks().len()
    );
    Ok(())
}

/// The `sta` subcommand, built on [`Session`] — the same ownership unit
/// `gpasta serve` hosts, so a CLI run and a served session follow the
/// identical code path (and the serve smoke test can compare their
/// WNS/TNS bit patterns).
fn sta_cmd(args: &[String]) -> Result<(), Error> {
    let mut file = None;
    let mut lib_file = None;
    let mut sdc_file = None;
    let mut clock_ps = 1_000.0f32;
    let mut paths = 1usize;
    let mut repowers: Vec<(String, f32)> = Vec::new();
    let mut bits = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--lib" => lib_file = Some(need("--lib", it.next())?),
            "--sdc" => sdc_file = Some(need("--sdc", it.next())?),
            "--clock" => clock_ps = parse::<f32>("--clock", it.next())?,
            "--paths" => paths = parse::<usize>("--paths", it.next())?,
            "--repower" => {
                let raw = need("--repower", it.next())?;
                let parsed = raw.split_once('=').and_then(|(gate, drive)| {
                    drive
                        .parse::<f32>()
                        .ok()
                        .map(|d| (gate.trim().to_string(), d))
                });
                match parsed {
                    Some(pair) => repowers.push(pair),
                    None => {
                        return Err(CliError::BadValue {
                            flag: "--repower",
                            value: raw,
                            why: "expected <gate>=<drive>".to_string(),
                        }
                        .into())
                    }
                }
            }
            "--bits" => bits = true,
            other if file.is_none() => file = Some(other.to_owned()),
            other => return Err(unexpected(other)),
        }
    }
    let file = file.ok_or_else(|| Error::from("missing <netlist.v>".to_string()))?;
    let verilog = std::fs::read_to_string(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let read = |path: Option<String>| -> Result<Option<String>, Error> {
        match path {
            Some(p) => Ok(Some(
                std::fs::read_to_string(&p).map_err(|e| format!("cannot read {p}: {e}"))?,
            )),
            None => Ok(None),
        }
    };
    let sources = DesignSources {
        verilog,
        liberty: read(lib_file)?,
        sdc: read(sdc_file)?,
        clock_period_ps: clock_ps,
    };
    let mut session = Session::create(&file, sources, 1)?;
    let shape = session.shape();
    println!(
        "design: {} gates, {} nets, {} PIs, {} POs; clock {clock_ps} ps",
        shape.gates, shape.nets, shape.inputs, shape.outputs
    );

    for (gate, drive) in &repowers {
        session.apply_edit(&Edit::Repower {
            gate: gate.clone(),
            drive: *drive,
        })?;
    }
    if !repowers.is_empty() {
        let out = session.update_timing(&RunBudget::unbounded())?;
        println!(
            "applied {} repower edit(s); incremental update: {} task(s)",
            repowers.len(),
            out.tasks
        );
    }

    let report = session.report(paths.max(1));
    print!("{report}");
    if bits {
        println!(
            "WNS bits {:08x}  TNS bits {:08x}",
            report.wns_ps.to_bits(),
            report.tns_ps.to_bits()
        );
    }
    for endpoint in report.worst.iter().take(paths) {
        if let Some(path) = session.timer().worst_paths(endpoint.node, 1).first() {
            println!();
            print!("{path}");
        }
    }
    Ok(())
}

/// The `faults` subcommand: partition the TDG, run it through the
/// recovering executor under a seeded fault plan, and report the salvage /
/// quarantine split — verifying on the way out that the poisoned set is
/// exactly the forward closure of the failed partitions.
fn faults_cmd(args: &[String]) -> Result<(), Error> {
    let mut file = None;
    let mut algo = "deter".to_owned();
    let mut ps = None;
    let mut workers = 2usize;
    let mut seed = 0xFA17u64;
    let mut rate = 0.02f64;
    let mut retries = 2u32;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--algo" => algo = need("--algo", it.next())?,
            "--ps" => ps = Some(parse::<usize>("--ps", it.next())?),
            "--workers" => workers = parse::<usize>("--workers", it.next())?,
            "--seed" => seed = parse::<u64>("--seed", it.next())?,
            "--rate" => {
                rate = parse::<f64>("--rate", it.next())?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err("--rate must be within [0, 1]".to_string().into());
                }
            }
            "--retries" => retries = parse::<u32>("--retries", it.next())?,
            other if file.is_none() => file = Some(other.to_owned()),
            other => return Err(unexpected(other)),
        }
    }
    let file = file.ok_or_else(|| Error::from("missing <edges-file>".to_string()))?;
    let tdg = load_edges(Path::new(&file))?;
    let exec = Executor::try_new(workers).map_err(|e| format!("--workers: {e}"))?;
    let partitioner = pick_algo(&algo)?;
    let opts = match ps {
        Some(n) => PartitionerOptions::with_max_size(n),
        None => PartitionerOptions::default(),
    };
    let partition = partitioner
        .partition(&tdg, &opts)
        .map_err(|e| e.to_string())?;
    let quotient = QuotientTdg::build(&tdg, &partition).map_err(|e| e.to_string())?;

    let kinds = [
        FaultKind::Panic,
        FaultKind::Transient,
        FaultKind::WrongResult,
    ];
    let plan = FaultPlan::random(seed, rate, &kinds);
    let policy = RetryPolicy {
        max_retries: retries,
        ..RetryPolicy::default()
    };
    println!(
        "{}: {} tasks in {} partitions; injecting faults at rate {rate} (seed {seed}, \
         {retries} retr{} max) on {workers} worker(s)",
        partitioner.name(),
        tdg.num_tasks(),
        quotient.graph().num_tasks(),
        if retries == 1 { "y" } else { "ies" },
    );

    let payload = |_t: TaskId| {};
    let work = FaultyWork::new(&payload, &plan);
    // Injected panics are expected and reported below as failure records;
    // keep the default hook's per-panic stderr lines out of the output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome =
        exec.run_partitioned_recovering_bounded(&quotient, &work, &policy, &RunBudget::unbounded());
    std::panic::set_hook(default_hook);

    println!(
        "{} fault(s) fired, {} retr(y/ies) absorbed",
        plan.fired(),
        outcome.retries
    );
    for f in &outcome.failures {
        println!(
            "  partition {} quarantined: task {} failed after {} attempt(s): {}",
            f.unit, f.task, f.attempts, f.error
        );
    }
    println!("{outcome}");

    // The quarantine contract: poisoned partitions are exactly the forward
    // closure (in the quotient graph) of the partitions that failed.
    let failed_units: Vec<u32> = outcome.failures.iter().map(|f| f.unit).collect();
    let mut expected = if failed_units.is_empty() {
        Vec::new()
    } else {
        forward_closure(quotient.graph(), &failed_units)
    };
    expected.sort_unstable();
    if expected != outcome.poisoned_units {
        return Err(format!(
            "quarantine mismatch: poisoned {:?}, expected closure {:?}",
            outcome.poisoned_units, expected
        )
        .into());
    }
    let salvage_check: usize = quotient
        .graph()
        .num_tasks()
        .saturating_sub(outcome.poisoned_units.len());
    println!(
        "quarantine verified: poisoned set is the forward closure of {} failed \
         partition(s); {} partition(s) salvaged",
        failed_units.len(),
        salvage_check,
    );
    Ok(())
}

/// The `update` command: the crash-safe incremental timing-update flow —
/// deterministic gate-repower iterations over a paper circuit with
/// per-iteration checkpointing, kill/resume, and an optional wall-clock
/// deadline (see `gpasta::checkpoint`).
fn update_cmd(args: &[String]) -> Result<(), Error> {
    use gpasta::checkpoint::{run_update_flow, UpdateFlowConfig};
    use gpasta::circuits::PaperCircuit;
    use gpasta::sched::StopCause;

    let mut circuit = None;
    let mut cfg = UpdateFlowConfig::small(PaperCircuit::AesCore);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--circuit" => circuit = Some(parse_circuit(&need("--circuit", it.next())?)?),
            "--scale" => cfg.scale = parse_scale(it.next())?,
            "--iters" => cfg.iterations = parse::<u32>("--iters", it.next())?,
            "--seed" => cfg.seed = parse::<u64>("--seed", it.next())?,
            "--checkpoint" => cfg.checkpoint_to = Some(need("--checkpoint", it.next())?.into()),
            "--resume" => cfg.resume_from = Some(need("--resume", it.next())?.into()),
            "--kill-after" => cfg.kill_after = Some(parse::<u32>("--kill-after", it.next())?),
            "--deadline-ms" => {
                cfg.deadline = Some(std::time::Duration::from_millis(parse::<u64>(
                    "--deadline-ms",
                    it.next(),
                )?))
            }
            other => return Err(unexpected(other)),
        }
    }
    cfg.circuit =
        circuit.ok_or_else(|| Error::from("update needs --circuit <name>".to_string()))?;
    if cfg.kill_after.is_some() && cfg.checkpoint_to.is_none() {
        return Err(
            "--kill-after needs --checkpoint (the resume point must be saved)"
                .to_string()
                .into(),
        );
    }

    let out = run_update_flow(&cfg)?;
    println!(
        "update({}, scale {}): {}/{} iteration(s), WNS {} ps, TNS {} ps",
        cfg.circuit.name(),
        cfg.scale,
        out.iterations_done,
        cfg.iterations,
        f32::from_bits(out.wns_bits),
        f32::from_bits(out.tns_bits),
    );
    match out.stop {
        StopCause::Completed => {}
        cause => println!(
            "stopped early ({cause:?}): {} endpoint(s) read unknown (NaN); \
             re-run with --resume and a fresh budget to converge",
            out.unknown_endpoints
        ),
    }
    if out.killed {
        println!(
            "killed after iteration {} (simulated crash); resume with --resume {}",
            out.iterations_done,
            cfg.checkpoint_to
                .as_deref()
                .map(|p| p.display().to_string())
                .unwrap_or_default()
        );
    }
    Ok(())
}

/// Resolve a paper-circuit name, listing the choices on a miss.
fn parse_circuit(name: &str) -> Result<gpasta::circuits::PaperCircuit, Error> {
    use gpasta::circuits::PaperCircuit;
    PaperCircuit::all()
        .iter()
        .copied()
        .find(|c| c.name() == name)
        .ok_or_else(|| {
            format!(
                "unknown circuit `{name}` (choose from {})",
                PaperCircuit::all()
                    .iter()
                    .map(|c| c.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
            .into()
        })
}

/// The `shard` subcommand: one full timing update executed across K
/// worker processes under a kill-tolerant supervisor (see
/// `gpasta::shard`). `--kill` and the chaos knobs inject worker deaths;
/// the run still ends bit-identical to a single-process run because the
/// supervisor respawns, quarantines, and heals.
fn shard_cmd(args: &[String]) -> Result<(), Error> {
    use gpasta::shard::{run_sharded, ShardRunConfig};

    let mut circuit = None;
    let mut scale = 1.0f64;
    let mut seed = 0x5EEDu64;
    let mut shards = 4usize;
    let mut workers = 0usize;
    let mut retries = 3u32;
    let mut stall_ms = 10_000u64;
    let mut kills: Vec<(u32, u32, FaultKind)> = Vec::new();
    let mut chaos_seed = 0u64;
    let mut chaos_rate = 0.0f64;
    let mut checkpoint = None;
    let mut resume = None;
    let mut kill_after_shards = None;
    let mut bits = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--circuit" => circuit = Some(parse_circuit(&need("--circuit", it.next())?)?),
            "--scale" => scale = parse_scale(it.next())?,
            "--seed" => seed = parse::<u64>("--seed", it.next())?,
            "--shards" => {
                shards = parse::<usize>("--shards", it.next())?;
                if shards == 0 {
                    return Err(CliError::NonPositive("--shards").into());
                }
            }
            "--workers" => workers = parse::<usize>("--workers", it.next())?,
            "--retries" => retries = parse::<u32>("--retries", it.next())?,
            "--stall-ms" => stall_ms = parse::<u64>("--stall-ms", it.next())?,
            "--kill" => kills.push(parse_kill(&need("--kill", it.next())?)?),
            "--chaos-seed" => chaos_seed = parse::<u64>("--chaos-seed", it.next())?,
            "--chaos-rate" => {
                chaos_rate = parse::<f64>("--chaos-rate", it.next())?;
                if !(0.0..=1.0).contains(&chaos_rate) {
                    return Err("--chaos-rate must be within [0, 1]".to_string().into());
                }
            }
            "--checkpoint" => checkpoint = Some(need("--checkpoint", it.next())?.into()),
            "--resume" => resume = Some(need("--resume", it.next())?.into()),
            "--kill-after-shards" => {
                kill_after_shards = Some(parse::<u32>("--kill-after-shards", it.next())?)
            }
            "--bits" => bits = true,
            other => return Err(unexpected(other)),
        }
    }
    let circuit = circuit.ok_or_else(|| Error::from("shard needs --circuit <name>".to_string()))?;
    if kill_after_shards.is_some() && checkpoint.is_none() {
        return Err(
            "--kill-after-shards needs --checkpoint (the hand-off must be saved)"
                .to_string()
                .into(),
        );
    }

    let mut cfg = ShardRunConfig::new(circuit, scale, seed, shards);
    cfg.max_workers = workers;
    cfg.retry.max_retries = retries;
    cfg.stall_after = std::time::Duration::from_millis(stall_ms.max(1));
    // Random chaos draws only prompt-killable kinds; a random stall would
    // serialise the run on the watchdog window (still available through a
    // targeted `--kill s:a:delay`).
    cfg.faults = FaultPlan::random(
        chaos_seed,
        chaos_rate,
        &[FaultKind::Panic, FaultKind::Transient],
    )
    .with_targets(kills);
    cfg.chaos_seed = chaos_seed;
    cfg.checkpoint_to = checkpoint;
    cfg.resume_from = resume;
    cfg.kill_after_shards = kill_after_shards;

    let out = run_sharded(&cfg).map_err(|e| e.to_string())?;
    println!(
        "shard({}, scale {scale}): {} shard(s), edge cut {}, {} worker(s) max",
        circuit.name(),
        out.num_shards,
        out.edge_cut,
        if cfg.max_workers == 0 {
            out.num_shards
        } else {
            cfg.max_workers
        },
    );
    println!(
        "salvaged {} shard(s), poisoned {:?}, unfinished {:?}; {} respawn(s), {} task(s) healed, \
         {} worker process(es) spawned",
        out.salvaged.len(),
        out.poisoned,
        out.unfinished,
        out.respawns,
        out.healed_tasks,
        out.workers_spawned,
    );
    println!(
        "WNS {} ps, TNS {} ps; worker exec total {:.3} ms",
        f32::from_bits(out.wns_bits),
        f32::from_bits(out.tns_bits),
        out.worker_exec_nanos as f64 / 1e6,
    );
    if bits {
        println!(
            "WNS bits {:08x}  TNS bits {:08x}",
            out.wns_bits, out.tns_bits
        );
    }
    if out.killed {
        println!(
            "killed after {} shard completion(s) (simulated supervisor crash); \
             resume with --resume {}",
            cfg.kill_after_shards.unwrap_or_default(),
            cfg.checkpoint_to
                .as_deref()
                .map(|p| p.display().to_string())
                .unwrap_or_default()
        );
    }
    Ok(())
}

/// Parse one `--kill shard:attempt[:kind]` spec; the kind defaults to
/// `panic` (a SIGKILLed worker) and may itself contain a colon
/// (`delay:500` hangs the worker for the watchdog to reap).
fn parse_kill(raw: &str) -> Result<(u32, u32, FaultKind), Error> {
    let invalid = |why: String| {
        Error::from(CliError::BadValue {
            flag: "--kill",
            value: raw.to_string(),
            why,
        })
    };
    let mut parts = raw.splitn(3, ':');
    let (Some(shard), Some(attempt)) = (parts.next(), parts.next()) else {
        return Err(invalid(format!(
            "expected shard:attempt[:kind], got `{raw}`"
        )));
    };
    let shard = shard
        .parse::<u32>()
        .map_err(|_| invalid(format!("shard `{shard}` is not a u32")))?;
    let attempt = attempt
        .parse::<u32>()
        .map_err(|_| invalid(format!("attempt `{attempt}` is not a u32")))?;
    let kind = match parts.next() {
        Some(k) => k.parse::<FaultKind>().map_err(invalid)?,
        None => FaultKind::Panic,
    };
    Ok((shard, attempt, kind))
}

/// The hidden `shard-worker` subcommand: rebuild the context once, then
/// serve shard rounds on stdio until stdin closes; exit nonzero on any
/// protocol violation. Spawned only by the shard supervisor — not part
/// of the public CLI surface.
fn shard_worker_cmd(args: &[String]) -> Result<(), Error> {
    use gpasta::shard::{run_worker, WorkerArgs};

    let mut wa = WorkerArgs {
        circuit: gpasta::circuits::PaperCircuit::AesCore,
        scale_bits: 1.0f64.to_bits(),
        seed: 0,
        shards: 1,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--circuit" => wa.circuit = parse_circuit(&need("--circuit", it.next())?)?,
            "--scale-bits" => wa.scale_bits = parse::<u64>("--scale-bits", it.next())?,
            "--seed" => wa.seed = parse::<u64>("--seed", it.next())?,
            "--shards" => wa.shards = parse::<usize>("--shards", it.next())?,
            other => return Err(unexpected(other)),
        }
    }
    run_worker(&wa).map_err(|e| Error::from(format!("shard worker: {e}")))
}

/// The `serve` subcommand: host warm timing sessions over HTTP/JSON or
/// JSON-RPC stdio. Runs until a shutdown request (or stdio EOF), then
/// spools every live session to the spool directory.
fn serve_cmd(args: &[String]) -> Result<(), Error> {
    let mut cfg = ServeConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = need("--addr", it.next())?,
            "--stdio" => cfg.stdio = true,
            "--spool" => cfg.spool = need("--spool", it.next())?.into(),
            "--workers" => {
                cfg.workers = parse::<usize>("--workers", it.next())?;
                if cfg.workers == 0 {
                    return Err(CliError::NonPositive("--workers").into());
                }
            }
            "--max-sessions" => {
                cfg.max_sessions = parse::<usize>("--max-sessions", it.next())?;
                if cfg.max_sessions == 0 {
                    return Err(CliError::NonPositive("--max-sessions").into());
                }
            }
            "--checkpoint-ms" => cfg.checkpoint_ms = parse::<u64>("--checkpoint-ms", it.next())?,
            "--max-inflight" => cfg.max_inflight = parse::<u64>("--max-inflight", it.next())?,
            "--max-connections" => {
                cfg.max_connections = parse::<usize>("--max-connections", it.next())?;
            }
            "--read-timeout-ms" => {
                cfg.read_timeout_ms = parse::<u64>("--read-timeout-ms", it.next())?;
            }
            "--keep-alive-requests" => {
                cfg.keep_alive_requests = parse::<u64>("--keep-alive-requests", it.next())?;
            }
            "--idle-timeout-ms" => {
                cfg.idle_timeout_ms = parse::<u64>("--idle-timeout-ms", it.next())?;
            }
            "--crash-window-ms" => {
                cfg.crash_window_ms = parse::<u64>("--crash-window-ms", it.next())?;
            }
            "--max-crashes" => {
                cfg.max_crashes = parse::<usize>("--max-crashes", it.next())?;
                if cfg.max_crashes == 0 {
                    return Err(CliError::NonPositive("--max-crashes").into());
                }
            }
            "--chaos-seed" => cfg.chaos.seed = parse::<u64>("--chaos-seed", it.next())?,
            "--chaos-rate" => {
                cfg.chaos.rate = parse::<f64>("--chaos-rate", it.next())?;
                if !(0.0..=1.0).contains(&cfg.chaos.rate) {
                    return Err(CliError::BadValue {
                        flag: "--chaos-rate",
                        value: cfg.chaos.rate.to_string(),
                        why: "must be in [0, 1]".to_string(),
                    }
                    .into());
                }
            }
            "--chaos-kinds" => {
                let raw = need("--chaos-kinds", it.next())?;
                cfg.chaos.kinds = raw
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        session_fault_kind(s).map_err(|why| CliError::BadValue {
                            flag: "--chaos-kinds",
                            value: s.to_string(),
                            why,
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--chaos-inject" => {
                let raw = need("--chaos-inject", it.next())?;
                cfg.chaos.targeted.push(parse_chaos_inject(&raw)?);
            }
            other => return Err(unexpected(other)),
        }
    }
    gpasta::serve::run(&cfg)?;
    Ok(())
}

/// Parse one `--chaos-inject name:update:attempt:kind` spec (the kind
/// may itself contain a colon, as in `delay:500`).
fn parse_chaos_inject(raw: &str) -> Result<(String, u32, u32, FaultKind), Error> {
    let invalid = |why: String| {
        Error::from(CliError::BadValue {
            flag: "--chaos-inject",
            value: raw.to_string(),
            why,
        })
    };
    let mut parts = raw.splitn(4, ':');
    let (Some(name), Some(update), Some(attempt), Some(kind)) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(invalid(format!(
            "expected name:update:attempt:kind, got `{raw}`"
        )));
    };
    let update = update
        .parse::<u32>()
        .map_err(|_| invalid(format!("update index `{update}` is not a u32")))?;
    let attempt = attempt
        .parse::<u32>()
        .map_err(|_| invalid(format!("attempt `{attempt}` is not a u32")))?;
    let kind = session_fault_kind(kind).map_err(invalid)?;
    Ok((name.to_string(), update, attempt, kind))
}

/// A fault kind a session can inject: `panic` or `delay[:<µs>]`. The
/// other kinds model a failed executor task, and a session runs no task
/// through an executor.
fn session_fault_kind(raw: &str) -> Result<FaultKind, String> {
    match raw.parse::<FaultKind>()? {
        kind @ (FaultKind::Panic | FaultKind::Delay { .. }) => Ok(kind),
        _ => Err(format!(
            "a session injects only `panic` or `delay[:<µs>]`, not `{raw}`"
        )),
    }
}

fn demo_cmd() -> Result<(), Error> {
    // The paper's Figure 4 graph, partitioned by every algorithm.
    let mut b = TdgBuilder::new(7);
    for (u, v) in [(0, 1), (2, 3), (4, 5), (1, 6), (3, 6), (5, 6)] {
        b.add_edge(TaskId(u), TaskId(v));
    }
    let tdg = b.build().map_err(|e| e.to_string())?;
    println!(
        "Figure 4 demo graph: {} tasks, {} deps\n",
        tdg.num_tasks(),
        tdg.num_deps()
    );
    for name in ["gpasta", "deter", "seq", "gdca", "sarkar"] {
        let p = pick_algo(name)?;
        let partition = p
            .partition(&tdg, &PartitionerOptions::with_max_size(3))
            .map_err(|e| e.to_string())?;
        println!("{:<10} {:?}", p.name(), partition.assignment());
    }
    Ok(())
}
