//! The shard worker: the child-process half of sharded execution.
//!
//! A worker is a long-lived owner of work, not a per-shard spawn. Once
//! per process it rebuilds the deterministic analysis context from
//! `(circuit, scale, seed)` (see [`super::build_timer`]), works out the
//! shard plan, every shard's sets and the agreement fingerprint as the
//! supervisor does ([`plan_and_work`](super::plan_and_work)), and sends
//! `Hello`. Then it serves rounds on its stdio
//! ([`super::wire`]) until its stdin closes. The supervisor may queue a
//! round behind the one running, so the next round's frames usually wait
//! in stdin already; each round:
//!
//! 1. read `Assign` (which shard, which attempt, the heartbeat cadence,
//!    the injected fault if any);
//! 2. read `Boundary` (the values the shard's tasks read but do not
//!    compute, less those this process holds or will hold once the round
//!    ahead is done), verify the set against its own [`boundary_set`], and
//!    apply it;
//! 3. execute the shard's tasks in topological order, queueing
//!    `Heartbeat` frames as progress proof for the supervisor's
//!    hung-worker watchdog;
//! 4. copy every value the tasks wrote into a `Delta`, queue it and
//!    `Done`, and go on to the next round at once.
//!
//! One writer thread ([`Outbox`]) writes the queued frames in order —
//! `Delta(k)`, `Done(k)`, then round `k + 1`'s — so a large delta crosses
//! the pipe while the next round's tasks run. The queue holds two frames:
//! at most one finished delta waits beside the one being written.
//!
//! The timing state survives from round to round, and the boundary relies
//! on it: every cell has exactly one writer task, so once this process has
//! completed a shard it holds the final value of every cell that shard
//! wrote, and the supervisor leaves those cells out of later boundaries.
//! Every other value a round reads is in its boundary or written earlier
//! in the same round.
//!
//! Fault injection happens *here*, in the victim process: the supervisor
//! translates a shard-level [`FaultKind`](crate::sched::FaultKind) into
//! an [`InjectedFault`] on the `Assign` frame, and the worker SIGKILLs
//! itself, exits nonzero, or goes silent at the chosen task index — once
//! the writer has written every frame queued before that point, so the
//! supervisor holds the deltas of the rounds already served. The
//! supervisor only ever observes the *symptom* — a dead pipe or a silent
//! child — exactly as it would for a real crash.

use std::io::{Read, Write};
use std::panic::resume_unwind;
use std::sync::mpsc::{self, SyncSender};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use super::wire::{Frame, InjectedFault, WireError};
use super::{boundary_set, build_timer, plan_and_work, ShardError, ShardWork};
use crate::circuits::PaperCircuit;
use crate::sta::{BoundaryValues, DirtyCone};
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

/// The frames a worker sends, written in order by one writer thread so the
/// task loop never waits on the pipe. The queue holds two frames: the
/// task loop can finish the next round while a delta is being written,
/// but no further.
struct Outbox<'scope> {
    frames: SyncSender<Frame>,
    writer: ScopedJoinHandle<'scope, Result<(), WireError>>,
}

impl<'scope> Outbox<'scope> {
    fn open<'env>(scope: &'scope Scope<'scope, 'env>, out: &'env mut (impl Write + Send)) -> Self {
        let (frames, queued) = mpsc::sync_channel::<Frame>(2);
        let writer = scope.spawn(move || queued.iter().try_for_each(|frame| frame.write_to(out)));
        Outbox { frames, writer }
    }

    /// Queue `frame` behind every frame queued before it. Fails only once
    /// the writer stopped on a write error, which [`close`](Self::close)
    /// reports.
    fn send(&self, frame: Frame) -> Result<(), ShardError> {
        self.frames
            .send(frame)
            .map_err(|_| ShardError::Protocol("the frame writer stopped".into()))
    }

    /// Wait until every queued frame is written; the first write error.
    fn close(self) -> Result<(), ShardError> {
        drop(self.frames);
        let written = self.writer.join().unwrap_or_else(|p| resume_unwind(p));
        written.map_err(ShardError::from)
    }
}

/// The worker protocol over caller-supplied streams (the testable core
/// of [`run_worker`]): one rebuild, one `Hello`, then rounds until `inp`
/// reaches end of file — or until a round's injected fault comes up,
/// which is returned once every frame before it is written, for the
/// caller to fire.
///
/// # Errors
///
/// [`ShardError`] when planning fails, a frame is corrupt, the supervisor
/// violates the protocol, or `out` fails.
pub(crate) fn run_worker_io(
    args: &WorkerArgs,
    inp: &mut impl Read,
    out: &mut (impl Write + Send),
) -> Result<Option<InjectedFault>, ShardError> {
    let mut timer = build_timer(args.circuit, f64::from_bits(args.scale_bits), args.seed);
    let cone = timer.dirty_cone();
    let (plan, work, fingerprint) = plan_and_work(&cone, args.shards)?;
    let hello = Frame::Hello {
        num_shards: plan.num_shards() as u32,
        num_tasks: cone.num_tasks() as u64,
        fingerprint,
    };
    std::thread::scope(|scope| {
        let outbox = Outbox::open(scope, out);
        let served = outbox
            .send(hello)
            .and_then(|()| serve(&cone, &work, inp, &outbox));
        outbox.close().and(served)
    })
}

/// Serve rounds until `inp` ends, handing each round's frames to
/// `outbox`; stops early with the fault a round injects when its task
/// index comes up.
fn serve(
    cone: &DirtyCone<'_>,
    work: &[ShardWork],
    inp: &mut impl Read,
    outbox: &Outbox<'_>,
) -> Result<Option<InjectedFault>, ShardError> {
    let data = cone.data();
    // Shards this process completed, in the order it served them.
    let mut held: Vec<u32> = Vec::new();
    loop {
        let frame = match Frame::read_from(inp) {
            Ok(frame) => frame,
            Err(WireError::Eof) => return Ok(None),
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
        if (shard as usize) >= work.len() {
            return Err(ShardError::Protocol(format!(
                "assigned shard {shard} but the plan has {} shards",
                work.len()
            )));
        }
        let job = &work[shard as usize];
        let expected = boundary_set(work, shard, &held);

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
        if boundary.set != expected {
            return Err(ShardError::Protocol(format!(
                "boundary names {} cells but shard {shard} (attempt {attempt}) needs {}",
                boundary.set.len(),
                expected.len()
            )));
        }
        boundary.apply(data);

        // Timing tasks run sub-microsecond, so even an `Option` compare
        // per task shows up against the single-process baseline. Execute
        // in clean segments that end at a heartbeat check or at the fault
        // point: the fault-free path pays no per-task bookkeeping at all.
        let beat_every = beat_every.max(1);
        let beat_interval = Duration::from_micros(beat_interval_micros);
        let first = job.tasks.start;
        let total = job.tasks.len() as u64;
        let start = Instant::now();
        let mut last_beat = start;
        let mut done = 0u64;
        loop {
            if let Some((kind, at)) = fault {
                if at == done {
                    return Ok(Some(kind));
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
            for t in first + done as u32..first + stop as u32 {
                cone.execute_task(TaskId(t));
            }
            done = stop;
            let now = Instant::now();
            if now.duration_since(last_beat) >= beat_interval {
                outbox.send(Frame::Heartbeat { done })?;
                last_beat = now;
            }
        }
        let exec_nanos = start.elapsed().as_nanos() as u64;

        // The delta is a copy: the next round may overwrite its cells
        // while the writer still sends it.
        outbox.send(Frame::Delta(BoundaryValues::export(
            data,
            job.writes.clone(),
        )))?;
        outbox.send(Frame::Done {
            exec_nanos,
            tasks: done,
        })?;
        held.push(shard);
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
    // An injected fault fires once every frame before it is written, so
    // the supervisor holds the deltas of the rounds already served.
    match run_worker_io(args, &mut inp, &mut std::io::stdout())? {
        Some(fault) => fire(fault),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use super::super::{plan_of, run_fingerprint, run_single_process};
    use super::*;
    use crate::sta::{DirtyCone, ValueSet};
    use crate::tdg::ShardPlan;

    const CIRCUIT: PaperCircuit = PaperCircuit::AesCore;
    const SCALE: f64 = 0.002;
    const SEED: u64 = 0xC0FFEE;

    fn args(shards: usize) -> WorkerArgs {
        WorkerArgs {
            circuit: CIRCUIT,
            scale_bits: SCALE.to_bits(),
            seed: SEED,
            shards,
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

    /// Every shard's `(writes, needed)` from the reference projection of
    /// its task range — not from `plan_and_work` or `boundary_set`.
    fn reference_sets(cone: &DirtyCone<'_>, plan: &ShardPlan) -> Vec<(ValueSet, ValueSet)> {
        (0..plan.num_shards() as u32)
            .map(|s| {
                let tasks: Vec<u32> = plan.range(s).collect();
                let writes = ValueSet::writes_of(cone, &tasks);
                let needed = ValueSet::reads_of(cone, &tasks).minus(&writes);
                (writes, needed)
            })
            .collect()
    }

    /// Queue one round — `Assign`, then a boundary of `set` exported from
    /// `data` — on `inbox`.
    fn send_round(inbox: &mut Vec<u8>, shard: u32, data: &crate::sta::TimingData, set: ValueSet) {
        assign(shard).write_to(inbox).expect("frame");
        Frame::Boundary(BoundaryValues::export(data, set))
            .write_to(inbox)
            .expect("frame");
    }

    /// The fingerprint of the `Hello` a worker opens its output with.
    fn read_hello(cursor: &mut Cursor<Vec<u8>>) -> u64 {
        match Frame::read_from(cursor).expect("hello") {
            Frame::Hello { fingerprint, .. } => fingerprint,
            other => panic!("expected Hello, got {other:?}"),
        }
    }

    /// One round's output — heartbeats, the delta, `Done` — checked to
    /// name `writes` and to count `tasks`; returns the delta.
    fn read_round(cursor: &mut Cursor<Vec<u8>>, writes: &ValueSet, tasks: u64) -> BoundaryValues {
        let mut delta = None;
        loop {
            match Frame::read_from(cursor).expect("frame") {
                Frame::Heartbeat { .. } => {}
                Frame::Delta(d) => {
                    assert_eq!(&d.set, writes);
                    delta = Some(d);
                }
                Frame::Done { tasks: done, .. } => {
                    assert_eq!(done, tasks);
                    return delta.expect("Done follows Delta");
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }

    /// Two worker streams serve four shards — one takes 0 and 2, the other
    /// 1 and 3 — with the supervisor played by hand. Each boundary leaves
    /// out what its stream completed earlier, worked out from the
    /// reference sets. Only the deltas reach the timer that is compared,
    /// so the bits of an elided cell come from the worker's own earlier
    /// round; the result must equal the single-process oracle bit for bit.
    #[test]
    fn workers_reassemble_the_oracle_bit_for_bit() {
        let shards = 4;
        let streams: [&[u32]; 2] = [&[0, 2], &[1, 3]];
        // A supervisor-side twin computes each round's boundary: shard
        // ids are topological, so after running shards `< s` in place it
        // holds exactly what a supervisor would export for shard `s`.
        let mut twin = build_timer(CIRCUIT, SCALE, SEED);
        let twin = twin.dirty_cone();
        let plan = plan_of(&twin, shards).expect("plan");
        assert_eq!(plan.num_shards(), shards);
        let sets = reference_sets(&twin, &plan);
        let mut inboxes = [Vec::new(), Vec::new()];
        let mut partly_elided = false;
        for s in 0..shards as u32 {
            let w = usize::from(streams[1].contains(&s));
            let held = streams[w].iter().filter(|&&h| h < s);
            let full = &sets[s as usize].1;
            let set = held.fold(full.clone(), |set, &h| set.minus(&sets[h as usize].0));
            partly_elided |= !set.is_empty() && set.len() < full.len();
            send_round(&mut inboxes[w], s, twin.data(), set);
            for t in plan.range(s) {
                twin.execute_task(TaskId(t));
            }
        }
        assert!(
            partly_elided,
            "some boundary is cut, but not emptied, by what its stream holds"
        );

        let mut master = build_timer(CIRCUIT, SCALE, SEED);
        let cone = master.dirty_cone();
        for (inbox, stream) in inboxes.into_iter().zip(streams) {
            let mut outbox = Vec::new();
            run_worker_io(&args(shards), &mut Cursor::new(inbox), &mut outbox).expect("worker");
            let mut cursor = Cursor::new(outbox);
            assert_eq!(
                read_hello(&mut cursor),
                run_fingerprint(cone.graph(), &plan)
            );
            for &s in stream {
                let tasks = plan.range(s).len() as u64;
                read_round(&mut cursor, &sets[s as usize].0, tasks).apply(cone.data());
            }
            assert!(
                matches!(Frame::read_from(&mut cursor), Err(WireError::Eof)),
                "the worker stops at end of input without another frame"
            );
        }

        drop(cone);
        let oracle = run_single_process(CIRCUIT, SCALE, SEED);
        assert_eq!(master.snapshot(), oracle.snapshot, "bit-identical");
    }

    /// One worker serves a chain of rounds that all wait in its inbox, as
    /// the supervisor queues them: each boundary leaves out what every
    /// round before it writes and is exported before the round ahead ran.
    /// The frames come out Delta(k), Done(k), Delta(k + 1), Done(k + 1),
    /// and the deltas rebuild the oracle bit for bit.
    #[test]
    fn queued_rounds_come_out_in_order_and_reassemble_the_oracle() {
        let shards = 4;
        let mut twin = build_timer(CIRCUIT, SCALE, SEED);
        let twin = twin.dirty_cone();
        let plan = plan_of(&twin, shards).expect("plan");
        let sets = reference_sets(&twin, &plan);
        let mut inbox = Vec::new();
        for s in 0..shards as u32 {
            let ahead = 0..s;
            let set = ahead.fold(sets[s as usize].1.clone(), |set, h| {
                set.minus(&sets[h as usize].0)
            });
            send_round(&mut inbox, s, twin.data(), set);
            // The round ahead runs only now, after this boundary left.
            for t in s.checked_sub(1).map_or(0..0, |ahead| plan.range(ahead)) {
                twin.execute_task(TaskId(t));
            }
        }

        let mut outbox = Vec::new();
        let fault = run_worker_io(&args(shards), &mut Cursor::new(inbox), &mut outbox);
        assert_eq!(fault.expect("worker"), None);
        let mut master = build_timer(CIRCUIT, SCALE, SEED);
        let cone = master.dirty_cone();
        let mut cursor = Cursor::new(outbox);
        read_hello(&mut cursor);
        for s in 0..shards as u32 {
            let tasks = plan.range(s).len() as u64;
            read_round(&mut cursor, &sets[s as usize].0, tasks).apply(cone.data());
        }
        assert!(matches!(Frame::read_from(&mut cursor), Err(WireError::Eof)));
        drop(cone);
        let oracle = run_single_process(CIRCUIT, SCALE, SEED);
        assert_eq!(master.snapshot(), oracle.snapshot, "bit-identical");
    }

    /// A fault injected in the round queued behind round k, at its first
    /// task, in its middle or after its last, stops the worker only once
    /// round k's Delta and Done are written: the supervisor still gets
    /// round k, and nothing of the faulty round but heartbeats.
    #[test]
    fn a_fault_in_a_queued_round_comes_after_the_round_ahead() {
        let shards = 3;
        let mut twin = build_timer(CIRCUIT, SCALE, SEED);
        let twin = twin.dirty_cone();
        let plan = plan_of(&twin, shards).expect("plan");
        let sets = reference_sets(&twin, &plan);
        let total = plan.range(1).len() as u64;
        for at in [0, total / 2, total] {
            let mut inbox = Vec::new();
            send_round(&mut inbox, 0, twin.data(), sets[0].1.clone());
            let faulty = Frame::Assign {
                shard: 1,
                attempt: 0,
                beat_every: 8,
                beat_interval_micros: 0,
                fault: Some((InjectedFault::Exit, at)),
            };
            faulty.write_to(&mut inbox).expect("frame");
            let set = sets[1].1.minus(&sets[0].0);
            Frame::Boundary(BoundaryValues::export(twin.data(), set))
                .write_to(&mut inbox)
                .expect("frame");

            let mut outbox = Vec::new();
            let fault = run_worker_io(&args(shards), &mut Cursor::new(inbox), &mut outbox);
            assert_eq!(fault.expect("worker"), Some(InjectedFault::Exit), "at {at}");
            let mut cursor = Cursor::new(outbox);
            read_hello(&mut cursor);
            read_round(&mut cursor, &sets[0].0, plan.range(0).len() as u64);
            loop {
                match Frame::read_from(&mut cursor) {
                    Ok(Frame::Heartbeat { done }) => assert!(done <= at, "at {at}"),
                    Err(WireError::Eof) => break,
                    other => panic!("at {at}: the faulty round sent {other:?}"),
                }
            }
        }
    }

    /// The worker's check is exact both ways: a worker that completed
    /// shard 0 refuses shard 1's whole boundary, and a fresh worker
    /// refuses shard 1's boundary cut as if it held shard 0.
    #[test]
    fn a_full_boundary_to_a_worker_that_holds_it_is_refused() {
        let shards = 2;
        let mut twin = build_timer(CIRCUIT, SCALE, SEED);
        let twin = twin.dirty_cone();
        let plan = plan_of(&twin, shards).expect("plan");
        let sets = reference_sets(&twin, &plan);
        let cut = sets[1].1.minus(&sets[0].0);
        assert!(
            cut.len() < sets[1].1.len(),
            "shard 1 reads what shard 0 writes"
        );

        let mut holds = Vec::new();
        send_round(&mut holds, 0, twin.data(), sets[0].1.clone());
        send_round(&mut holds, 1, twin.data(), sets[1].1.clone());
        let mut fresh = Vec::new();
        send_round(&mut fresh, 1, twin.data(), cut);
        // The first worker serves shard 0 before it refuses; the second
        // refuses its first round.
        for (inbox, served_shard_0) in [(holds, true), (fresh, false)] {
            let mut outbox = Vec::new();
            let err = run_worker_io(&args(shards), &mut Cursor::new(inbox), &mut outbox)
                .expect_err("the boundary names the wrong set");
            assert!(matches!(err, ShardError::Protocol(_)), "got {err:?}");
            let mut cursor = Cursor::new(outbox);
            read_hello(&mut cursor);
            if served_shard_0 {
                read_round(&mut cursor, &sets[0].0, plan.range(0).len() as u64);
            }
            assert!(matches!(Frame::read_from(&mut cursor), Err(WireError::Eof)));
        }
    }

    /// A worker that holds nothing is owed a shard's whole `needed` set;
    /// a fresh worker whose first round is the last shard, sent that set,
    /// returns the in-process bits of every cell the shard writes.
    #[test]
    fn a_fresh_worker_gets_the_whole_boundary() {
        let shards = 3;
        let mut twin = build_timer(CIRCUIT, SCALE, SEED);
        let twin = twin.dirty_cone();
        let (_, work, _) = plan_and_work(&twin, shards).expect("plan");
        for (s, job) in work.iter().enumerate() {
            assert_eq!(boundary_set(&work, s as u32, &[]), job.needed, "shard {s}");
        }
        let last = &work[shards - 1];
        assert!(!last.needed.is_empty(), "the last shard reads earlier ones");
        for t in 0..last.tasks.start {
            twin.execute_task(TaskId(t));
        }
        let mut inbox = Vec::new();
        send_round(
            &mut inbox,
            shards as u32 - 1,
            twin.data(),
            last.needed.clone(),
        );
        for t in last.tasks.clone() {
            twin.execute_task(TaskId(t));
        }

        let mut outbox = Vec::new();
        run_worker_io(&args(shards), &mut Cursor::new(inbox), &mut outbox).expect("worker");
        let mut cursor = Cursor::new(outbox);
        read_hello(&mut cursor);
        let delta = read_round(&mut cursor, &last.writes, last.tasks.len() as u64);
        assert_eq!(
            delta,
            BoundaryValues::export(twin.data(), last.writes.clone())
        );
    }

    #[test]
    fn a_wrong_boundary_is_a_protocol_error() {
        let shards = 2;
        let mut timer = build_timer(CIRCUIT, SCALE, SEED);
        let cone = timer.dirty_cone();
        let plan = plan_of(&cone, shards).expect("plan");
        assert!(plan.num_shards() >= 2, "test needs a real split");

        // Send shard 1 an empty boundary: its read set is not empty (it
        // depends on shard 0), so the worker must refuse to run.
        let empty = BoundaryValues::export(cone.data(), ValueSet::default());
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
        let cone = timer.dirty_cone();
        let empty = BoundaryValues::export(cone.data(), ValueSet::default());
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
