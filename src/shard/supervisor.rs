//! The shard supervisor: parent-process orchestration of kill-tolerant
//! worker processes.
//!
//! [`run_sharded`] owns the master [`Timer`](crate::sta::Timer) state and
//! a small pool of long-lived `gpasta shard-worker` children. A worker
//! rebuilds the context and says `Hello` once; after that each shard it
//! serves is one round — `Assign` and the shard's boundary inputs it does
//! not already hold down its stdin, `Heartbeat`/`Delta`/`Done` back up its
//! stdout. Shards are dispatched in the shard graph's topological order
//! (shard ids) to an idle worker, and a new process is launched only
//! while a shard is ready, no worker is idle and fewer than `max_workers`
//! are alive. The first worker is launched before the supervisor's own
//! rebuild, so the two rebuilds overlap.
//!
//! Rounds are pipelined along chains: behind a worker's running round
//! the pool queues one successor whose other predecessors are all
//! completed, and its `Assign` and boundary go down the pipe at once. The
//! boundary also leaves out what the running round writes, which the
//! worker holds by the time it starts the queued one. The queued round
//! starts — and becomes an attempt, with the heartbeat watchdog on it —
//! with the `Done` of the round ahead; a worker lost before that hands it
//! back unspent.
//!
//! Which shard goes where, what a death costs and when a retry is due is
//! decided by the pure [`Pool`]; this module carries its decisions out.
//! Per child, one writer thread feeds stdin from a channel (the event
//! loop never blocks on a boundary larger than the pipe buffer) and one
//! reader thread turns stdout into events for one mpsc event loop. Every
//! event is tagged with the worker's slot and never-reused serial, so a
//! straggler from a killed process cannot be mistaken for its successor.
//!
//! Failure handling is crash-only, at shard granularity:
//!
//! * a child that dies (SIGKILL, panic, nonzero exit — observed as a
//!   closed pipe), breaks the protocol, or goes silent past the heartbeat
//!   stall window between launch and `Hello` or inside a round is killed
//!   and reaped. That fails exactly the `(shard, attempt)` in flight on
//!   it — deltas of shards it completed earlier are already in the master
//!   state, and a round queued behind it was no attempt yet — and the
//!   retry goes to an idle or new worker after a bounded backoff. An idle
//!   worker is not monitored;
//! * a shard that exhausts its retries is *poisoned* and its forward
//!   closure in the shard graph drains as *unfinished* — exactly the
//!   salvage semantics of the in-process recovering executor, one level
//!   up;
//! * at the end, the supervisor *heals* poisoned/unfinished shards by
//!   executing their tasks in-process (shard-id order is topological), so
//!   the final report is bit-identical to the single-process oracle no
//!   matter what was killed;
//! * after every shard completion the supervisor can persist a
//!   [`ShardCheckpoint`], and a *new* supervisor — even one with a
//!   different shard count — resumes from it, re-running only partially
//!   covered shards (idempotent: re-execution is bit-identical).
//!
//! Every worker is killed and reaped before [`run_sharded`] returns, on
//! every path.

use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::heartbeat::HeartbeatMonitor;
use super::pool::{Action, Event, Pool, State};
use super::wire::{Frame, InjectedFault, WireError};
use super::{
    boundary_set, build_timer, covered, fault_point, plan_and_work, ShardCheckpoint, ShardError,
    ShardRunConfig, ShardRunOutcome, ShardWork,
};
use crate::sched::FaultKind;
use crate::sta::{BoundaryValues, DirtyCone};
use crate::tdg::{ShardPlan, TaskId};

/// What a reader thread heard on its child's stdout — a frame, or why
/// the pipe is finished ([`WireError::Eof`] when it closed cleanly) —
/// tagged with the worker's slot and serial.
type Tagged = (usize, u64, Result<Frame, WireError>);

/// The round a worker is serving.
struct Round {
    /// The shard; its write set validates the delta.
    shard: u32,
    /// Stashed on `Delta`, applied on `Done`.
    delta: Option<BoundaryValues>,
}

/// One live worker process and its two pipe threads.
struct Proc {
    child: Child,
    /// Feeds the writer thread; dropping it closes the child's stdin.
    to_child: Sender<Frame>,
    threads: [JoinHandle<()>; 2],
    greeted: bool,
    round: Option<Round>,
    /// The shard queued behind `round`: its frames are in the pipe.
    next: Option<u32>,
    /// Shards this process completed: it holds every cell they wrote, so
    /// its boundaries leave those cells out ([`boundary_set`]).
    held: Vec<u32>,
}

impl Proc {
    /// Launch `gpasta shard-worker` and its pipe threads; everything the
    /// reader hears arrives on `tx` tagged `(slot, serial)`.
    fn launch(
        cfg: &ShardRunConfig,
        slot: usize,
        serial: u64,
        tx: &Sender<Tagged>,
    ) -> Result<Proc, ShardError> {
        let mut child = Command::new(&cfg.worker_exe)
            .arg("shard-worker")
            .arg("--circuit")
            .arg(cfg.circuit.name())
            .arg("--scale-bits")
            .arg(cfg.scale.to_bits().to_string())
            .arg("--seed")
            .arg(cfg.seed.to_string())
            .arg("--shards")
            .arg(cfg.shards.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|source| ShardError::Io {
                op: "spawn shard worker",
                source,
            })?;

        // One writer for the worker's whole life: a boundary larger than
        // the pipe buffer must not block the event loop (the child reads
        // its first one only after its own rebuild).
        let mut stdin = child.stdin.take().expect("stdin was piped");
        let (to_child, frames) = mpsc::channel::<Frame>();
        let writer = std::thread::spawn(move || {
            for frame in frames {
                if frame.write_to(&mut stdin).is_err() {
                    return;
                }
            }
        });

        // Frames become events; a closed pipe is the death notification.
        let mut stdout = child.stdout.take().expect("stdout was piped");
        let tx = tx.clone();
        let reader = std::thread::spawn(move || loop {
            let heard = Frame::read_from(&mut stdout);
            let closed = heard.is_err();
            if tx.send((slot, serial, heard)).is_err() || closed {
                return;
            }
        });

        Ok(Proc {
            child,
            to_child,
            threads: [writer, reader],
            greeted: false,
            round: None,
            next: None,
            held: Vec::new(),
        })
    }

    /// Kill the process, reap it, and join its threads (both end once
    /// the pipes are dead).
    fn reap(mut self) {
        drop(self.to_child);
        let _ = self.child.kill();
        let _ = self.child.wait();
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// The live processes by slot; dropping the table reaps them all, so no
/// return path of [`run_sharded`] leaves a worker or a zombie behind.
struct Procs(Vec<Option<Proc>>);

impl Drop for Procs {
    fn drop(&mut self) {
        for proc in self.0.iter_mut().filter_map(Option::take) {
            proc.reap();
        }
    }
}

struct Supervisor<'a, 'b> {
    cfg: &'a ShardRunConfig,
    /// The whole design: task id = full-space id.
    cone: &'a DirtyCone<'b>,
    plan: &'a ShardPlan,
    /// Per-shard task lists and read/write sets.
    work: &'a [ShardWork],
    fingerprint: u64,
    pool: Pool<'a>,
    procs: Procs,
    /// Keyed by worker slot.
    monitor: HeartbeatMonitor,
    tx: Sender<Tagged>,
    rx: Receiver<Tagged>,
    worker_exec_nanos: u64,
    /// Shards completed by workers this run (excludes checkpoint-restored
    /// ones) — the `kill_after_shards` counter.
    completed_new: u32,
    killed: bool,
}

impl Supervisor<'_, '_> {
    fn perform(&mut self, actions: Vec<Action>, now: Instant) -> Result<(), ShardError> {
        for action in actions {
            match action {
                Action::Kill { slot } => {
                    self.monitor.stop(slot as u32);
                    self.procs.0[slot]
                        .take()
                        .expect("the pool kills live workers")
                        .reap();
                }
                Action::Spawn { slot, serial } => {
                    self.procs.0[slot] = Some(Proc::launch(self.cfg, slot, serial, &self.tx)?);
                    self.monitor.start(slot as u32, now);
                }
                Action::Assign {
                    slot,
                    shard,
                    attempt,
                } => self.assign(slot, shard, attempt, now),
            }
        }
        Ok(())
    }

    /// Open a round: send `Assign` and the shard's boundary to the worker
    /// in `slot` (it reads them once it has said `Hello`). Behind a running
    /// round the new one is queued, and its boundary leaves out the cells
    /// the running round writes too: the worker holds them by the time it
    /// starts.
    fn assign(&mut self, slot: usize, shard: u32, attempt: u32, now: Instant) {
        let cfg = self.cfg;
        let work = &self.work[shard as usize];
        let proc = self.procs.0[slot]
            .as_mut()
            .expect("the pool assigns to live workers");
        let ahead = proc.round.as_ref().map(|r| r.shard);
        let held: Vec<u32> = proc.held.iter().copied().chain(ahead).collect();
        let set = boundary_set(self.work, shard, &held);
        let boundary = BoundaryValues::export(self.cone.data(), set);
        let fault = cfg.faults.fault_at(shard, attempt).map(|kind| {
            let how = match kind {
                FaultKind::Panic | FaultKind::WrongResult => InjectedFault::Die,
                FaultKind::Transient => InjectedFault::Exit,
                FaultKind::Delay { .. } => InjectedFault::Stall,
            };
            let at = fault_point(cfg.chaos_seed, shard, attempt, work.tasks.len() as u64);
            (how, at)
        });
        let assign = Frame::Assign {
            shard,
            attempt,
            beat_every: 1.max(work.tasks.len() as u64 / 64),
            // Beats throttled to an eighth of the stall deadline: dense
            // enough that the watchdog never false-fires, sparse enough
            // that frame wakeups don't preempt the task loop on small
            // machines.
            beat_interval_micros: 1.max(cfg.stall_after.as_micros() as u64 / 8),
            fault,
        };
        // A send fails only when the writer already saw the pipe die; the
        // reader reports that death.
        let _ = proc.to_child.send(assign);
        let _ = proc.to_child.send(Frame::Boundary(boundary));
        match ahead {
            // The watchdog keeps covering the running round.
            Some(_) => proc.next = Some(shard),
            None => {
                proc.round = Some(Round { shard, delta: None });
                self.monitor.start(slot as u32, now);
            }
        }
    }

    fn handle(
        &mut self,
        slot: usize,
        serial: u64,
        heard: Result<Frame, WireError>,
        now: Instant,
    ) -> Result<(), ShardError> {
        if self.pool.serial(slot) != Some(serial) {
            // A straggler from a process that was already killed.
            return Ok(());
        }
        let unit = slot as u32;
        let proc = self.procs.0[slot].as_mut().expect("the serial is current");
        match (heard, proc.round.as_mut()) {
            (
                Ok(Frame::Hello {
                    fingerprint,
                    num_shards,
                    ..
                }),
                round,
            ) if !proc.greeted => {
                if fingerprint != self.fingerprint || num_shards as usize != self.work.len() {
                    // A deterministic-rebuild disagreement can never
                    // succeed on retry; fail the whole run loudly.
                    return Err(ShardError::Protocol(format!(
                        "worker {serial} rebuilt a different plan \
                         (fingerprint {fingerprint:#018x} vs {:#018x})",
                        self.fingerprint
                    )));
                }
                proc.greeted = true;
                match round {
                    Some(_) => self.monitor.beat(unit, now),
                    None => self.monitor.stop(unit),
                }
            }
            (Ok(Frame::Heartbeat { .. }), Some(_)) => self.monitor.beat(unit, now),
            (Ok(Frame::Delta(delta)), Some(round)) => {
                if delta.set == self.work[round.shard as usize].writes {
                    round.delta = Some(delta);
                    self.monitor.beat(unit, now);
                } else {
                    self.lose(slot, serial, now, "sent a delta for the wrong cell set")?;
                }
            }
            (Ok(Frame::Done { exec_nanos, .. }), Some(round)) => match round.delta.take() {
                Some(delta) => {
                    proc.held.push(round.shard);
                    proc.round = proc.next.take().map(|shard| Round { shard, delta: None });
                    self.complete(slot, serial, delta, exec_nanos, now)?;
                }
                None => self.lose(slot, serial, now, "reported done without a delta")?,
            },
            (Ok(_), _) => self.lose(slot, serial, now, "sent a frame out of turn")?,
            // SIGKILL, panic, nonzero exit, or a corrupt tail — all the
            // same symptom, all retried.
            (Err(e), _) => self.lose(slot, serial, now, &e.to_string())?,
        }
        Ok(())
    }

    /// The worker in `slot` is gone for `why`: kill and reap it, and fail
    /// the round it was serving, if any.
    fn lose(
        &mut self,
        slot: usize,
        serial: u64,
        now: Instant,
        why: &str,
    ) -> Result<(), ShardError> {
        let job = self.pool.job(slot);
        let actions = self.pool.on(Event::Lost { slot, serial }, now);
        match job {
            Some((shard, attempt)) => {
                let next = match self.pool.states()[shard as usize] {
                    State::Poisoned => "retries exhausted, poisoning",
                    _ => "respawning",
                };
                eprintln!("gpasta shard: shard {shard} attempt {attempt} failed ({why}); {next}");
            }
            None => eprintln!("gpasta shard: idle worker {serial} lost ({why})"),
        }
        self.perform(actions, now)
    }

    /// The worker in `slot` closed its round with `delta`.
    fn complete(
        &mut self,
        slot: usize,
        serial: u64,
        delta: BoundaryValues,
        exec_nanos: u64,
        now: Instant,
    ) -> Result<(), ShardError> {
        delta.apply(self.cone.data());
        let actions = self.pool.on(Event::Done { slot, serial }, now);
        debug_assert!(actions.is_empty(), "dispatch waits for the next tick");
        // The queued round, if any, started with this `Done`: the watchdog
        // covers it from here.
        match self.pool.job(slot) {
            Some(_) => self.monitor.start(slot as u32, now),
            None => self.monitor.stop(slot as u32),
        }
        self.worker_exec_nanos += exec_nanos;
        self.completed_new += 1;
        if let Some(path) = &self.cfg.checkpoint_to {
            self.checkpoint().write_to_path(path)?;
        }
        // Simulate the supervisor's own death: stop without dispatching
        // or healing (the caller reaps whatever is still running).
        self.killed = self.cfg.kill_after_shards == Some(self.completed_new);
        Ok(())
    }

    fn checkpoint(&self) -> ShardCheckpoint {
        let states = self.pool.states();
        let completed =
            (0..states.len() as u32).filter(|&s| states[s as usize] == State::Completed);
        ShardCheckpoint {
            circuit: self.cfg.circuit.name().to_string(),
            scale_bits: self.cfg.scale.to_bits(),
            seed: self.cfg.seed,
            design_fingerprint: self.cone.graph().fingerprint(),
            completed_ranges: covered(self.plan, completed),
            snapshot: self.cone.snapshot(),
        }
    }

    fn event_loop(&mut self) -> Result<(), ShardError> {
        loop {
            if self.killed || self.pool.settled() {
                return Ok(());
            }
            let now = Instant::now();
            for unit in self.monitor.stalled(now) {
                let slot = unit as usize;
                if let Some(serial) = self.pool.serial(slot) {
                    self.lose(slot, serial, now, "heartbeat stall (hung worker)")?;
                }
            }
            let actions = self.pool.on(Event::Tick, now);
            self.perform(actions, now)?;
            let timeout = [self.monitor.next_deadline(now), self.pool.next_retry(now)]
                .into_iter()
                .flatten()
                .fold(Duration::from_millis(100), Duration::min)
                .max(Duration::from_millis(1));
            match self.rx.recv_timeout(timeout) {
                Ok((slot, serial, heard)) => self.handle(slot, serial, heard, Instant::now())?,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("the supervisor keeps a sender alive")
                }
            }
        }
    }
}

/// Execute one full timing update across `cfg.shards` shards on a pool of
/// worker processes and report the result (see the module docs for the
/// failure model).
///
/// # Errors
///
/// [`ShardError`] when planning fails, a worker cannot be spawned, a
/// worker's rebuild disagrees with the supervisor's, or a checkpoint
/// cannot be written/read. Worker *deaths* are not errors — they are
/// retried, then poisoned and healed.
pub fn run_sharded(cfg: &ShardRunConfig) -> Result<ShardRunOutcome, ShardError> {
    // The first worker goes up before anything else, so its rebuild
    // overlaps the supervisor's own; `procs` reaps it on every return.
    let (tx, rx) = mpsc::channel();
    let mut procs = Procs(vec![Some(Proc::launch(cfg, 0, 0, &tx)?)]);

    let mut timer = build_timer(cfg.circuit, cfg.scale, cfg.seed);
    let resume = match &cfg.resume_from {
        Some(p) => Some(ShardCheckpoint::read_from_path(p)?),
        None => None,
    };
    if let Some(ck) = &resume {
        if ck.circuit != cfg.circuit.name() {
            return Err(ShardError::Checkpoint(format!(
                "checkpoint is for circuit {} (run is {})",
                ck.circuit,
                cfg.circuit.name()
            )));
        }
        if ck.scale_bits != cfg.scale.to_bits() || ck.seed != cfg.seed {
            return Err(ShardError::Checkpoint(
                "checkpoint scale/seed disagree with the run".into(),
            ));
        }
        if ck.design_fingerprint != timer.graph().fingerprint() {
            return Err(ShardError::Checkpoint(
                "checkpoint design fingerprint disagrees with the rebuilt design".into(),
            ));
        }
        timer.restore_snapshot(&ck.snapshot)?;
        // The snapshot cleared the dirty set; re-dirty everything so the
        // cone covers the full design again (idempotent re-runs of
        // partially covered shards are what make resume correct).
        timer.invalidate_all();
    }
    let cone = timer.dirty_cone();
    let (plan, work, fingerprint) = plan_and_work(&cone, cfg.shards)?;
    let k = plan.num_shards();

    // Shards covered by a checkpointed range are already complete: their
    // values were restored with the snapshot. Partially covered shards
    // re-run from scratch.
    let restored: Vec<bool> = (0..k as u32)
        .map(|s| {
            let r = plan.range(s);
            resume
                .iter()
                .flat_map(|ck| &ck.completed_ranges)
                .any(|c| c.start <= r.start && r.end <= c.end)
        })
        .collect();

    let max_workers = match cfg.max_workers {
        0 => k.max(1),
        n => n,
    };
    procs.0.resize_with(max_workers, || None);
    let mut monitor = HeartbeatMonitor::new(max_workers, cfg.stall_after);
    // The early worker has had the supervisor's whole rebuild to get
    // going; its window to `Hello` counts from here.
    monitor.start(0, Instant::now());
    let mut sup = Supervisor {
        cfg,
        cone: &cone,
        plan: &plan,
        work: &work,
        fingerprint,
        pool: Pool::new(plan.graph(), &restored, max_workers, cfg.retry.clone()),
        procs,
        monitor,
        tx,
        rx,
        worker_exec_nanos: 0,
        completed_new: 0,
        killed: false,
    };
    sup.event_loop()?;
    let Supervisor {
        pool,
        procs,
        worker_exec_nanos,
        killed,
        ..
    } = sup;
    drop(procs);
    let states = pool.states();

    // Heal: execute every non-completed shard's tasks in-process, in
    // shard-id (topological) order — bit-identical to what a healthy
    // worker would have computed. A killed supervisor leaves them for the
    // run that resumes its checkpoint.
    let mut healed_tasks = 0u64;
    if !killed {
        for (s, ShardWork { tasks, .. }) in work.iter().enumerate() {
            if states[s] == State::Completed {
                continue;
            }
            for t in tasks.clone() {
                cone.execute_task(TaskId(t));
            }
            healed_tasks += tasks.len() as u64;
        }
    }

    let mut salvaged = Vec::new();
    let mut poisoned = Vec::new();
    let mut unfinished = Vec::new();
    for s in 0..k as u32 {
        match states[s as usize] {
            State::Completed => salvaged.push(s),
            State::Poisoned => poisoned.push(s),
            State::Unfinished => unfinished.push(s),
            // Only reachable when `kill_after_shards` stopped the run.
            _ => unfinished.push(s),
        }
    }
    let completed_ranges = covered(&plan, salvaged.iter().copied());

    let (attempts, respawns, workers_spawned) = (
        pool.attempts().to_vec(),
        pool.respawns(),
        pool.workers_spawned(),
    );
    drop(cone);
    let report = timer.report(1);
    Ok(ShardRunOutcome {
        wns_bits: report.wns_ps.to_bits(),
        tns_bits: report.tns_ps.to_bits(),
        num_shards: k,
        edge_cut: plan.edge_cut(),
        salvaged,
        poisoned,
        unfinished,
        attempts,
        respawns,
        workers_spawned,
        healed_tasks,
        worker_exec_nanos,
        killed,
        completed_ranges,
        snapshot: cfg.capture_snapshot.then(|| timer.snapshot()),
    })
}
