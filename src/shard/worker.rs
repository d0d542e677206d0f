//! The shard worker: the child-process half of sharded execution.
//!
//! A worker is a long-lived owner of work, not a per-shard spawn. Once
//! per process it rebuilds the deterministic analysis context from
//! `(circuit, scale, seed)` (see [`super::build_timer`]) and the shard
//! plan from `(shards, max_tasks_per_shard)` via the shared pure planning
//! function, and sends `Hello` (the agreement fingerprint). Then it
//! serves rounds on its stdio ([`super::wire`]) until its stdin closes:
//!
//! 1. receive `Assign` (which shard, which attempt, the heartbeat
//!    cadence, the injected fault if any);
//! 2. receive `Boundary` (the values the shard's tasks read but do not
//!    compute), verify the set against its own projection, and apply it;
//! 3. execute the shard's tasks in topological order, sending
//!    `Heartbeat` frames as progress proof for the supervisor's
//!    hung-worker watchdog;
//! 4. send `Delta` (every value the tasks wrote) followed by `Done`.
//!
//! The timing state survives from round to round, which is harmless:
//! every value a round reads is either in its boundary or written
//! earlier in the same round.
//!
//! Fault injection happens *here*, in the victim process: the supervisor
//! translates a shard-level [`FaultKind`](crate::sched::FaultKind) into
//! an [`InjectedFault`] on the `Assign` frame, and the worker SIGKILLs
//! itself, exits nonzero, or goes silent at the chosen task index. The
//! supervisor only ever observes the *symptom* — a dead pipe or a silent
//! child — exactly as it would for a real crash.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use super::wire::{Frame, InjectedFault, WireError};
use super::{build_timer, plan_shards, run_fingerprint, shard_work, ShardError};
use crate::circuits::PaperCircuit;
use crate::sta::BoundaryValues;
use crate::tdg::TaskId;

/// What a worker process is launched with (parsed from the hidden
/// `gpasta shard-worker` command line): the inputs of the context
/// rebuild, and nothing about any one shard — shard, attempt, heartbeat
/// cadence and injected faults arrive per round in
/// [`Frame::Assign`].
#[derive(Debug, Clone)]
pub struct WorkerArgs {
    /// Design to rebuild.
    pub circuit: PaperCircuit,
    /// Circuit scale as `f64` bits (bit-exact across the exec boundary).
    pub scale_bits: u64,
    /// Modifier-schedule seed.
    pub seed: u64,
    /// Shard count the supervisor planned with.
    pub shards: usize,
    /// Member-task cap the supervisor planned with.
    pub max_tasks_per_shard: usize,
}

/// Fire an injected fault.
fn fire(fault: InjectedFault) -> ! {
    match fault {
        InjectedFault::Die => {
            // SIGKILL self so the parent observes a killed child, not a
            // clean exit; abort() is the fallback if the kill binary is
            // missing.
            let _ = std::process::Command::new("kill")
                .arg("-9")
                .arg(std::process::id().to_string())
                .status();
            std::process::abort();
        }
        InjectedFault::Exit => std::process::exit(1),
        // Hang without exiting or beating: only the supervisor's
        // heartbeat watchdog can detect this state.
        InjectedFault::Stall => loop {
            std::thread::sleep(Duration::from_millis(50));
        },
    }
}

/// The worker protocol over caller-supplied streams (the testable core
/// of [`run_worker`]): one rebuild, one `Hello`, then rounds until `inp`
/// reaches end of file.
///
/// # Errors
///
/// [`ShardError`] when planning fails, a frame is corrupt, or the
/// supervisor violates the protocol.
pub(crate) fn run_worker_io(
    args: &WorkerArgs,
    inp: &mut impl Read,
    out: &mut impl Write,
) -> Result<(), ShardError> {
    let mut timer = build_timer(args.circuit, f64::from_bits(args.scale_bits), args.seed);
    let update = timer.update_timing();
    let (quotient, plan) = plan_shards(&update, args.shards, args.max_tasks_per_shard)?;
    let work = shard_work(&update, &quotient, &plan);
    drop(quotient);
    let data = update.data();

    Frame::Hello {
        num_shards: plan.num_shards() as u32,
        num_tasks: update.tdg().num_tasks() as u64,
        fingerprint: run_fingerprint(update.tdg(), &plan),
    }
    .write_to(out)?;

    loop {
        let frame = match Frame::read_from(inp) {
            Ok(frame) => frame,
            Err(WireError::Eof) => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        let Frame::Assign {
            shard,
            attempt,
            beat_every,
            beat_interval_micros,
            fault,
        } = frame
        else {
            return Err(ShardError::Protocol(format!(
                "expected an Assign frame, got {frame:?}"
            )));
        };
        if (shard as usize) >= plan.num_shards() {
            return Err(ShardError::Protocol(format!(
                "assigned shard {shard} but the plan has {} shards",
                plan.num_shards()
            )));
        }
        let job = &work[shard as usize];
        let tasks = &job.tasks;

        let frame = Frame::read_from(inp)?;
        let Frame::Boundary(boundary) = frame else {
            return Err(ShardError::Protocol(format!(
                "expected a Boundary frame, got {frame:?}"
            )));
        };
        if boundary.clock_period_bits != data.clock_period_ps.to_bits() {
            return Err(ShardError::Protocol(
                "clock period disagrees with the supervisor".into(),
            ));
        }
        if boundary.set != job.needed {
            return Err(ShardError::Protocol(format!(
                "boundary names {} cells but shard {shard} (attempt {attempt}) needs {}",
                boundary.set.len(),
                job.needed.len()
            )));
        }
        boundary.apply(data);

        // Timing tasks run sub-microsecond, so even an `Option` compare
        // per task shows up against the single-process baseline. Execute
        // in clean segments that end at a heartbeat check or at the fault
        // point: the fault-free path pays no per-task bookkeeping at all.
        let beat_every = beat_every.max(1);
        let beat_interval = Duration::from_micros(beat_interval_micros);
        let total = tasks.len() as u64;
        let start = Instant::now();
        let mut last_beat = start;
        let mut done = 0u64;
        loop {
            if let Some((kind, at)) = fault {
                if at == done {
                    fire(kind);
                }
            }
            if done == total {
                break;
            }
            let mut stop = (done + beat_every).min(total);
            if let Some((_, at)) = fault {
                if at > done && at < stop {
                    stop = at;
                }
            }
            for &t in &tasks[done as usize..stop as usize] {
                update.execute_task(TaskId(t));
            }
            done = stop;
            let now = Instant::now();
            if now.duration_since(last_beat) >= beat_interval {
                Frame::Heartbeat { done }.write_to(out)?;
                last_beat = now;
            }
        }
        let exec_nanos = start.elapsed().as_nanos() as u64;

        Frame::Delta(BoundaryValues::export(data, job.writes.clone())).write_to(out)?;
        Frame::Done {
            exec_nanos,
            tasks: done,
        }
        .write_to(out)?;
    }
}

/// Entry point of the hidden `gpasta shard-worker` subcommand: the
/// protocol of [`run_worker_io`] over this process's stdin/stdout.
///
/// # Errors
///
/// See [`run_worker_io`]; the CLI maps any error to a nonzero exit.
pub fn run_worker(args: &WorkerArgs) -> Result<(), ShardError> {
    let mut inp = std::io::stdin().lock();
    let mut out = std::io::stdout().lock();
    run_worker_io(args, &mut inp, &mut out)
}

#[cfg(test)]
mod tests {
    use super::super::{run_single_process, ShardWork};
    use super::*;
    use crate::sta::ValueSet;

    const CIRCUIT: PaperCircuit = PaperCircuit::AesCore;
    const SCALE: f64 = 0.002;
    const SEED: u64 = 0xC0FFEE;

    fn args(shards: usize) -> WorkerArgs {
        WorkerArgs {
            circuit: CIRCUIT,
            scale_bits: SCALE.to_bits(),
            seed: SEED,
            shards,
            max_tasks_per_shard: 0,
        }
    }

    fn assign(shard: u32) -> Frame {
        Frame::Assign {
            shard,
            attempt: 0,
            beat_every: 8,
            beat_interval_micros: 0,
            fault: None,
        }
    }

    /// Drive *one* worker stream through every shard's round, playing the
    /// supervisor by hand, and check the assembled result against the
    /// single-process oracle bit for bit. The worker's timing state
    /// survives from shard `s` to `s + 1`; only its deltas reach the
    /// timer that is compared.
    #[test]
    fn workers_reassemble_the_oracle_bit_for_bit() {
        let shards = 3;
        // A supervisor-side twin computes each round's boundary: shard
        // ids are topological, so after running shards `< s` in place it
        // holds exactly what a supervisor would export for shard `s`.
        let mut twin = build_timer(CIRCUIT, SCALE, SEED);
        let twin = twin.update_timing();
        let (quotient, plan) = plan_shards(&twin, shards, 0).expect("plan");
        assert!(plan.num_shards() >= 2, "test needs state carried over");
        let mut inbox = Vec::new();
        let mut write_sets = Vec::new();
        // The reference projection over the shared task lists.
        for (s, ShardWork { tasks, .. }) in shard_work(&twin, &quotient, &plan).iter().enumerate() {
            let s = s as u32;
            let writes = ValueSet::writes_of(&twin, tasks);
            let needed = ValueSet::reads_of(&twin, tasks).minus(&writes);
            assign(s).write_to(&mut inbox).expect("frame");
            Frame::Boundary(BoundaryValues::export(twin.data(), needed))
                .write_to(&mut inbox)
                .expect("frame");
            for &t in tasks {
                twin.execute_task(TaskId(t));
            }
            write_sets.push((writes, tasks.len() as u64));
        }

        let mut outbox = Vec::new();
        run_worker_io(&args(shards), &mut std::io::Cursor::new(inbox), &mut outbox)
            .expect("worker");

        // One Hello, then per round heartbeats, the delta, and Done.
        let mut master = build_timer(CIRCUIT, SCALE, SEED);
        let update = master.update_timing();
        let mut cursor = std::io::Cursor::new(outbox);
        let hello = Frame::read_from(&mut cursor).expect("hello");
        let Frame::Hello { fingerprint, .. } = hello else {
            panic!("expected Hello, got {hello:?}");
        };
        assert_eq!(fingerprint, run_fingerprint(update.tdg(), &plan));
        for (writes, num_tasks) in &write_sets {
            let mut delta = None;
            loop {
                match Frame::read_from(&mut cursor).expect("frame") {
                    Frame::Heartbeat { .. } => {}
                    Frame::Delta(d) => {
                        assert_eq!(&d.set, writes);
                        delta = Some(d);
                    }
                    Frame::Done { tasks, .. } => {
                        assert_eq!(tasks, *num_tasks);
                        break;
                    }
                    other => panic!("unexpected frame {other:?}"),
                }
            }
            delta.expect("Done follows Delta").apply(update.data());
        }
        assert!(
            matches!(Frame::read_from(&mut cursor), Err(WireError::Eof)),
            "the worker stops at end of input without another frame"
        );

        drop(update);
        let oracle = run_single_process(CIRCUIT, SCALE, SEED);
        assert_eq!(master.snapshot(), oracle.snapshot, "bit-identical");
    }

    #[test]
    fn a_wrong_boundary_is_a_protocol_error() {
        let shards = 2;
        let mut timer = build_timer(CIRCUIT, SCALE, SEED);
        let update = timer.update_timing();
        let (_, plan) = plan_shards(&update, shards, 0).expect("plan");
        assert!(plan.num_shards() >= 2, "test needs a real split");

        // Send shard 1 an empty boundary: its read set is not empty (it
        // depends on shard 0), so the worker must refuse to run.
        let empty = BoundaryValues::export(update.data(), ValueSet::default());
        let mut inbox = Vec::new();
        assign(1).write_to(&mut inbox).expect("frame");
        Frame::Boundary(empty).write_to(&mut inbox).expect("frame");
        let mut outbox = Vec::new();
        let err = run_worker_io(&args(shards), &mut std::io::Cursor::new(inbox), &mut outbox)
            .expect_err("empty boundary must be rejected");
        assert!(matches!(err, ShardError::Protocol(_)), "got {err:?}");
    }

    #[test]
    fn out_of_range_shards_and_unassigned_boundaries_are_rejected() {
        let mut timer = build_timer(CIRCUIT, SCALE, SEED);
        let update = timer.update_timing();
        let empty = BoundaryValues::export(update.data(), ValueSet::default());
        for first in [assign(99), Frame::Boundary(empty)] {
            let mut inbox = Vec::new();
            first.write_to(&mut inbox).expect("frame");
            let mut outbox = Vec::new();
            let err = run_worker_io(&args(2), &mut std::io::Cursor::new(inbox), &mut outbox)
                .expect_err("must fail");
            assert!(matches!(err, ShardError::Protocol(_)), "got {err:?}");
        }
    }

    #[test]
    fn a_worker_with_nothing_assigned_says_hello_and_leaves() {
        let mut outbox = Vec::new();
        run_worker_io(&args(2), &mut std::io::Cursor::new(Vec::new()), &mut outbox)
            .expect("end of input is a clean exit");
        let mut cursor = std::io::Cursor::new(outbox);
        assert!(matches!(
            Frame::read_from(&mut cursor),
            Ok(Frame::Hello { .. })
        ));
        assert!(matches!(Frame::read_from(&mut cursor), Err(WireError::Eof)));
    }
}
