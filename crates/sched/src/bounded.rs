//! The wavefront: the one sequential and the one work-stealing dispatch
//! body behind every `Executor::run_*` entry point, with fault
//! containment, wall-clock deadlines and cooperative cancellation. It
//! never unwinds into its caller; the plain entry points
//! ([`Executor::run_tdg`], [`Executor::run_partitioned`]) re-raise a
//! contained payload panic themselves.
//!
//! The dispatch unit is a node of a [`UnitGraph`]: a quotient's partition,
//! or a single task. Every attempt of every member task runs under
//! `catch_unwind`; transient failures retry with the [`RetryPolicy`]'s
//! backoff; a task that fails permanently (panic, fatal error, retries
//! exhausted) *poisons* its unit (remaining members are skipped) and the
//! unit's forward closure, while the wavefront keeps scheduling everything
//! else. Poison is the exact forward closure of the failed units at any
//! worker count, so salvage is its exact complement.
//!
//! A [`RunBudget`] adds a third, disjoint unit class: *unfinished*. When
//! the budget expires or a [`CancelToken`] fires, the scheduler stops
//! *admitting* units (already-running payloads finish normally) and drains
//! the remaining wavefront administratively: each drained unit either
//! inherits poison from a failed predecessor or is marked unfinished. The
//! drain preserves the dependency-counting discipline, so the unfinished set
//! is exactly the forward closure of the unadmitted frontier minus the
//! poison cone — which is what lets `gpasta-sta` re-run exactly
//! `poisoned ∪ unfinished` later and converge to the bit-identical full
//! analysis.
//!
//! Stealing workers batch their successor decrements ([`DecrementBatch`]):
//! run, poisoned and drained units alike note their fan-out locally, and
//! one `fetch_sub(count)` per distinct successor publishes units worth up
//! to [`Executor::chunk_size`] member tasks at once. A batch is always
//! flushed before its worker steals or parks, so no readiness is ever
//! stranded.
//!
//! The budget is polled once per unit admission. With
//! [`RunBudget::unbounded`] that poll is two register tests, so the plain
//! entry points cost what the recovering ones do plus a payload lift
//! (`fault_recovery` bench: within ± 5 % of each other).

use crate::executor::{Executor, TaskWork};
use crate::outcome::{
    FailureRecord, RecoverableWork, RetryPolicy, RunOutcome, StopCause, TaskError,
};
use crate::report::RunReport;
use crossbeam_deque::{Injector, Stealer, Worker};
use crossbeam_utils::Backoff;
use gpasta_check::mutant;
use gpasta_check::sync::{
    AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Mutex, Ordering,
};
use gpasta_tdg::{CancelObserver, CancelToken, PartitionId, QuotientTdg, TaskId, Tdg};
use std::time::{Duration, Instant};

/// The time bounds of one run: a wall-clock deadline and a cancel token,
/// both optional; [`RunBudget::unbounded`] sets neither. The in-order
/// sweep and the executor honour them alike.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Wall-clock budget for the run. When it expires the scheduler stops
    /// admitting units and drains the rest as *unfinished*
    /// ([`StopCause::DeadlineExpired`]).
    pub deadline: Option<Duration>,
    /// Cooperative cancellation handle. A [`CancelToken::cancel`] issued
    /// during the run stops admission at the next unit boundary
    /// ([`StopCause::Cancelled`]). The run observes the token's generation
    /// at start, so cancels issued *before* the run are ignored.
    pub cancel: Option<CancelToken>,
}

impl RunBudget {
    /// No deadline, no cancellation.
    pub fn unbounded() -> Self {
        RunBudget::default()
    }

    /// Set the wall-clock budget.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Start one run under this budget: the deadline counts from now, and
    /// only a cancel issued from now on stops the run.
    pub fn start(&self) -> BudgetClock {
        BudgetClock {
            deadline: self.deadline.map(|d| Instant::now() + d),
            cancel: self.cancel.as_ref().map(CancelToken::observe),
        }
    }
}

/// A [`RunBudget`]'s deadline and cancel token as one run sees them
/// ([`RunBudget::start`]): the one poll behind every bounded run, the
/// executor's and the in-order sweep's alike.
#[derive(Debug, Clone)]
pub struct BudgetClock {
    deadline: Option<Instant>,
    cancel: Option<CancelObserver>,
}

impl BudgetClock {
    /// Why the run must stop now, if it must: a cancel first, then an
    /// expired deadline. With neither set this is two register tests — an
    /// unbounded run touches neither the clock nor any shared state here.
    #[inline]
    pub fn poll(&self) -> Option<StopCause> {
        if self
            .cancel
            .as_ref()
            .is_some_and(CancelObserver::is_cancelled)
        {
            Some(StopCause::Cancelled)
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(StopCause::DeadlineExpired)
        } else {
            None
        }
    }
}

/// Raw result of a recovering wavefront: per-unit poison and unfinished
/// flags plus why admission stopped.
struct BoundedRun {
    dispatches: u64,
    poisoned: Vec<bool>,
    unfinished: Vec<bool>,
    stop: StopCause,
}

/// What the recovering wavefront schedules: a DAG of dispatch units, each
/// running its member tasks in order.
trait UnitGraph: Sync {
    /// The unit-level dependency DAG.
    fn units(&self) -> &Tdg;
    /// The tasks `unit` runs, in execution order.
    fn members(&self, unit: u32) -> impl ExactSizeIterator<Item = u32>;
    /// Total member tasks over all units.
    fn num_tasks(&self) -> usize;
}

/// A plain TDG is the quotient of singletons: every task is its own unit.
impl UnitGraph for Tdg {
    fn units(&self) -> &Tdg {
        self
    }
    fn members(&self, unit: u32) -> impl ExactSizeIterator<Item = u32> {
        std::iter::once(unit)
    }
    fn num_tasks(&self) -> usize {
        Tdg::num_tasks(self)
    }
}

impl UnitGraph for QuotientTdg {
    fn units(&self) -> &Tdg {
        self.graph()
    }
    fn members(&self, unit: u32) -> impl ExactSizeIterator<Item = u32> {
        self.execution_order(PartitionId(unit)).iter().copied()
    }
    fn num_tasks(&self) -> usize {
        QuotientTdg::num_tasks(self)
    }
}

impl Executor {
    /// Execute every task of `tdg` exactly once, respecting dependencies.
    ///
    /// Returns a [`RunReport`] with the wall-clock time and the number of
    /// scheduling operations (task dispatches) performed.
    ///
    /// # Panics
    ///
    /// A payload panic is contained while the wavefront finishes every
    /// task outside the panicking task's forward closure, then re-raised
    /// here as `task <t> (unit <u>) fatal: <original message>` for the
    /// lowest failing `(unit, task)` — the same one at any worker count.
    pub fn run_tdg<W: TaskWork>(&self, tdg: &Tdg, work: &W) -> RunReport {
        self.run_infallible(tdg, work)
    }

    /// Execute a *partitioned* TDG: each quotient node is dispatched once
    /// and runs its member tasks sequentially in topological order.
    ///
    /// The underlying task payloads are identical to
    /// [`run_tdg`](Executor::run_tdg); only the scheduling granularity
    /// changes, so results must be bit-identical (a property the test suite
    /// checks). Panics like [`run_tdg`](Executor::run_tdg).
    pub fn run_partitioned<W: TaskWork>(&self, quotient: &QuotientTdg, work: &W) -> RunReport {
        self.run_infallible(quotient, work)
    }

    /// Execute every task of `tdg` through the recovering wavefront: never
    /// unwinds into the caller. Failures are contained to their forward
    /// closure (`poisoned_tasks`), an expired `budget` leaves the forward
    /// closure of the unadmitted tasks in `unfinished_tasks` with
    /// [`RunOutcome::stop`] saying why, and everything else is salvaged.
    /// With a payload that never fails and [`RunBudget::unbounded`] the
    /// result is behaviourally identical to
    /// [`run_tdg`](Executor::run_tdg).
    pub fn run_tdg_recovering_bounded<W: RecoverableWork>(
        &self,
        tdg: &Tdg,
        work: &W,
        policy: &RetryPolicy,
        budget: &RunBudget,
    ) -> RunOutcome {
        self.run_units(tdg, work, policy, budget)
    }

    /// Recovering variant of
    /// [`run_partitioned`](Executor::run_partitioned) with **partition
    /// quarantine**: the dispatch (and budget-polling) unit is the quotient
    /// node, so a member task that fails permanently poisons its whole
    /// partition (remaining members are skipped — their in-partition
    /// inputs are suspect) plus the partition's forward closure in the
    /// quotient graph, and deadline expiry or cancellation acts at
    /// partition boundaries. `poisoned_units` / `unfinished_units` hold
    /// partition ids; `poisoned_tasks` / `unfinished_tasks` their member
    /// tasks (sorted).
    pub fn run_partitioned_recovering_bounded<W: RecoverableWork>(
        &self,
        quotient: &QuotientTdg,
        work: &W,
        policy: &RetryPolicy,
        budget: &RunBudget,
    ) -> RunOutcome {
        self.run_units(quotient, work, policy, budget)
    }

    /// The plain entry points: an infallible payload's only failure is a
    /// panic, which the wavefront contains as [`TaskError::Fatal`]; the
    /// first one (records are sorted by `(unit, task)`) is re-raised here.
    fn run_infallible<G: UnitGraph, W: TaskWork>(&self, graph: &G, work: &W) -> RunReport {
        let lifted = |task: TaskId, _attempt: u32| -> Result<(), TaskError> {
            work.execute(task);
            Ok(())
        };
        let outcome = self.run_units(
            graph,
            &lifted,
            &RetryPolicy::no_retries(),
            &RunBudget::unbounded(),
        );
        if let Some(first) = outcome.failures.first() {
            panic!("task {} (unit {}) {}", first.task, first.unit, first.error);
        }
        outcome.report
    }

    fn run_units<G: UnitGraph, W: RecoverableWork>(
        &self,
        graph: &G,
        work: &W,
        policy: &RetryPolicy,
        budget: &RunBudget,
    ) -> RunOutcome {
        let units = graph.units();
        let n = units.num_tasks();
        let start = Instant::now();
        let clock = budget.start();
        let state = RecoveryState {
            policy,
            retries: AtomicU64::new(0),
            failures: Mutex::new(Vec::new()),
        };
        let run_unit = |u: u32| graph.members(u).all(|t| state.attempt_task(work, u, t));
        let run = if self.num_workers() == 1 {
            run_sequential_bounded(units, run_unit, &clock)
        } else {
            run_stealing_bounded(
                graph,
                self.num_workers(),
                self.chunk_size(),
                &run_unit,
                &clock,
            )
        };
        // Flagged units in id order, and their member tasks sorted.
        let expand = |flags: &[bool]| {
            let units: Vec<u32> = (0..n as u32).filter(|&u| flags[u as usize]).collect();
            let mut tasks: Vec<u32> = units.iter().flat_map(|&u| graph.members(u)).collect();
            tasks.sort_unstable();
            (units, tasks)
        };
        let (poisoned_units, poisoned_tasks) = expand(&run.poisoned);
        let (unfinished_units, unfinished_tasks) = expand(&run.unfinished);
        let salvaged = graph.num_tasks() - poisoned_tasks.len() - unfinished_tasks.len();
        let (failures, retries) = state.into_parts();
        RunOutcome {
            report: RunReport {
                elapsed: start.elapsed(),
                tasks_executed: salvaged,
                dispatches: run.dispatches,
                num_workers: self.num_workers(),
            },
            salvaged_tasks: salvaged,
            poisoned_tasks,
            poisoned_units,
            unfinished_tasks,
            unfinished_units,
            failures,
            retries,
            stop: run.stop,
        }
    }
}

/// Shared bookkeeping of one recovering run: retry loop, failure records,
/// retry counter.
struct RecoveryState<'p> {
    policy: &'p RetryPolicy,
    retries: AtomicU64,
    failures: Mutex<Vec<FailureRecord>>,
}

impl RecoveryState<'_> {
    /// Run `task` (dispatched as part of `unit`) with bounded retries.
    /// Returns `true` on success; on permanent failure records a
    /// [`FailureRecord`] and returns `false`.
    fn attempt_task<W: RecoverableWork>(&self, work: &W, unit: u32, task: u32) -> bool {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut attempt = 0u32;
        loop {
            match catch_unwind(AssertUnwindSafe(|| work.execute(TaskId(task), attempt))) {
                Ok(Ok(())) => return true,
                Ok(Err(TaskError::Transient(msg))) => {
                    if attempt >= self.policy.max_retries {
                        self.record(unit, task, attempt + 1, TaskError::Transient(msg));
                        return false;
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    let pause = self.policy.backoff(attempt);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                    attempt += 1;
                }
                Ok(Err(err)) => {
                    self.record(unit, task, attempt + 1, err);
                    return false;
                }
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    self.record(unit, task, attempt + 1, TaskError::Fatal(msg));
                    return false;
                }
            }
        }
    }

    fn record(&self, unit: u32, task: u32, attempts: u32, error: TaskError) {
        self.failures.lock().push(FailureRecord {
            unit,
            task,
            attempts,
            error,
        });
    }

    /// Failure records (sorted by unit then task, so parallel runs report
    /// deterministically) plus the retry count.
    fn into_parts(self) -> (Vec<FailureRecord>, u64) {
        let mut failures = self.failures.into_inner();
        failures.sort_by_key(|f| (f.unit, f.task));
        (failures, self.retries.into_inner())
    }
}

/// Best-effort text of a caught panic payload — what a contained payload
/// panic carries in its [`TaskError::Fatal`].
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "payload panicked".to_string()
    }
}

const STOP_RUNNING: u8 = 0;
const STOP_DEADLINE: u8 = 1;
const STOP_CANCELLED: u8 = 2;

fn stop_cause(code: u8) -> StopCause {
    match code {
        STOP_DEADLINE => StopCause::DeadlineExpired,
        STOP_CANCELLED => StopCause::Cancelled,
        _ => StopCause::Completed,
    }
}

/// Poll the budget once: returns the stop code to set (0 = keep running).
#[inline]
fn poll_budget(clock: &BudgetClock) -> u8 {
    match clock.poll() {
        None | Some(StopCause::Completed) => STOP_RUNNING,
        Some(StopCause::DeadlineExpired) => STOP_DEADLINE,
        Some(StopCause::Cancelled) => STOP_CANCELLED,
    }
}

/// Single-threaded bounded recovering wavefront.
///
/// Before admitting each unit the budget is polled; once it trips, the
/// remaining wavefront *drains*: poisoned units keep propagating poison
/// (their state was final before the stop) and everything else is marked
/// unfinished, with dependency counting intact so every unit is visited
/// exactly once and the drain terminates.
fn run_sequential_bounded(
    units: &Tdg,
    run_unit: impl Fn(u32) -> bool,
    clock: &BudgetClock,
) -> BoundedRun {
    let n = units.num_tasks();
    let mut poisoned = vec![false; n];
    let mut unfinished = vec![false; n];
    let mut dep = units.in_degrees();
    let mut ready: Vec<u32> = (0..n as u32).filter(|&t| dep[t as usize] == 0).collect();
    let mut dispatches = 0u64;
    let mut stop = STOP_RUNNING;
    while let Some(t) = ready.pop() {
        if stop == STOP_RUNNING {
            stop = poll_budget(clock);
        }
        let poison = if stop == STOP_RUNNING {
            dispatches += 1;
            poisoned[t as usize] || !run_unit(t)
        } else {
            // Drain: never admit. Poison (decided before the stop) still
            // propagates; everything else becomes unfinished.
            unfinished[t as usize] = !poisoned[t as usize];
            poisoned[t as usize]
        };
        if poison {
            poisoned[t as usize] = true;
        }
        for &s in units.successors(TaskId(t)) {
            if poison {
                poisoned[s as usize] = true;
            }
            dep[s as usize] -= 1;
            if dep[s as usize] == 0 {
                ready.push(s);
            }
        }
    }
    BoundedRun {
        dispatches,
        poisoned,
        unfinished,
        stop: stop_cause(stop),
    }
}

/// Worker-local batch of dependency decrements: `(successor, count)` pairs
/// accumulated across finished units worth up to `chunk_size` member tasks,
/// published with one `fetch_sub(count)` per *distinct* successor instead of
/// one per edge. A flush also publishes the finished-unit count, so the
/// shared `completed` counter only moves once per batch. Exactly one worker
/// observes a counter cross zero: the `fetch_sub` that returns its own
/// operand is that worker's claim on the successor.
struct DecrementBatch {
    pending: Vec<(u32, u32)>,
    finished: usize,
    /// Member tasks of the finished units: what `chunk_size` bounds. A
    /// partition already amortises its dispatch over its members, so a
    /// coarse quotient publishes (nearly) per unit and only task-sized
    /// units are held back.
    tasks: usize,
}

impl DecrementBatch {
    fn with_capacity(capacity: usize) -> Self {
        DecrementBatch {
            pending: Vec::with_capacity(capacity),
            finished: 0,
            tasks: 0,
        }
    }

    /// Batch one decrement of `succ`'s counter.
    #[inline]
    fn note(&mut self, succ: u32) {
        // Linear merge: fan-out batches are tiny (≤ chunk_size ·
        // mean-degree with heavy duplication), so a scan beats hashing.
        match self.pending.iter_mut().find(|e| e.0 == succ) {
            Some(e) => e.1 += 1,
            None => self.pending.push((succ, 1)),
        }
    }

    /// Count one finished unit of `tasks` member tasks; whether the batch
    /// now holds `chunk_size` tasks and is due a flush.
    #[inline]
    fn finish(&mut self, tasks: usize, chunk_size: usize) -> bool {
        self.finished += 1;
        self.tasks += tasks;
        self.tasks >= chunk_size
    }

    /// Publish the batch: one `fetch_sub(count)` per distinct successor,
    /// handing `ready` each successor whose counter this flush brings to
    /// zero, then the finished-unit count.
    #[inline]
    fn flush(&mut self, dep: &[AtomicU32], completed: &AtomicUsize, mut ready: impl FnMut(u32)) {
        for &(s, c) in &self.pending {
            // hb: dep-handoff
            let order = mutant!("flush-relaxed", Ordering::AcqRel, Ordering::Relaxed);
            if dep[s as usize].fetch_sub(c, order) == c {
                ready(s);
            }
        }
        self.pending.clear();
        if self.finished > 0 {
            completed.fetch_add(self.finished, Ordering::Release); // hb: run-complete
            self.finished = 0;
            self.tasks = 0;
        }
    }
}

/// The run's stop cause as a worker admits its next unit: one already
/// latched, else whatever `poll` finds now, latched so that the first
/// cause wins. Returns the latched cause (a worker whose latch lost drains
/// under the winner's), or `STOP_RUNNING` while the run goes on.
#[inline]
fn latch_stop(stop: &AtomicU8, poll: impl FnOnce() -> u8) -> u8 {
    let latched = stop.load(Ordering::Acquire); // hb: stop-latch
    if latched != STOP_RUNNING {
        return latched;
    }
    let cause = poll();
    if cause == STOP_RUNNING {
        return cause;
    }
    mutant!(
        "stop-latch-store",
        // hb: stop-latch
        match stop.compare_exchange(STOP_RUNNING, cause, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => cause,
            Err(first) => first,
        },
        {
            stop.store(cause, Ordering::Release); // hb: stop-latch
            cause
        },
    )
}

/// Work-stealing bounded recovering wavefront.
///
/// Each unit has exactly one claimant: the worker that popped it, which
/// performs the unit's poison publication, successor decrements and
/// completion increment. Poison is always stored (`Release`) before the
/// dependency decrement (`AcqRel`, batched) that can ready a successor, so
/// the inherited-poison check (`Acquire`) observes every parent failure
/// regardless of interleaving: a unit is only popped after every
/// predecessor decremented its fan-in count. Weakening that decrement to
/// `Relaxed`, or letting a worker park on an unflushed batch, are the
/// mutations the model checker catches (`model_check::chunked_flush`
/// below, which drives [`DecrementBatch`] itself).
fn run_stealing_bounded<G: UnitGraph, R: Fn(u32) -> bool + Sync>(
    graph: &G,
    workers: usize,
    chunk_size: usize,
    run_unit: &R,
    clock: &BudgetClock,
) -> BoundedRun {
    let units = graph.units();
    let n = units.num_tasks();
    let successors = |u: u32| units.successors(TaskId(u));
    if n == 0 {
        return BoundedRun {
            dispatches: 0,
            poisoned: Vec::new(),
            unfinished: Vec::new(),
            stop: StopCause::Completed,
        };
    }
    let dep: Vec<AtomicU32> = units.in_degrees().into_iter().map(AtomicU32::new).collect();
    let poisoned: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let unfinished: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let injector = Injector::new();
    for t in 0..n as u32 {
        if dep[t as usize].load(Ordering::Relaxed) == 0 {
            injector.push(t);
        }
    }
    let completed = AtomicUsize::new(0);
    let dispatches = AtomicU64::new(0);
    let stop = AtomicU8::new(STOP_RUNNING);

    let locals: Vec<Worker<u32>> = (0..workers).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<u32>> = locals.iter().map(Worker::stealer).collect();

    std::thread::scope(|scope| {
        for (w, local) in locals.into_iter().enumerate() {
            let dep = &dep;
            let poisoned = &poisoned;
            let unfinished = &unfinished;
            let injector = &injector;
            let stealers = &stealers;
            let completed = &completed;
            let dispatches = &dispatches;
            let stop = &stop;
            scope.spawn(move || {
                let backoff = Backoff::new();
                let mut batch = DecrementBatch::with_capacity(chunk_size.min(n) * 2);
                let mut dispatched = 0u64;
                loop {
                    let unit = local.pop().or_else(|| {
                        // Publish pending decrements before going looking
                        // for work elsewhere: a batched edge may be the
                        // only thing standing between the pool and either
                        // new ready units or the termination condition.
                        batch.flush(dep, completed, |s| local.push(s));
                        local.pop().or_else(|| {
                            std::iter::repeat_with(|| {
                                injector.steal_batch_and_pop(&local).or_else(|| {
                                    stealers
                                        .iter()
                                        .enumerate()
                                        .filter(|&(i, _)| i != w)
                                        .map(|(_, s)| s.steal())
                                        .collect()
                                })
                            })
                            .find(|s| !s.is_retry())
                            .and_then(|s| s.success())
                        })
                    });
                    let Some(t) = unit else {
                        // The batch was flushed before the steal above, so
                        // `completed` reflects this worker fully.
                        // hb: run-complete
                        if completed.load(Ordering::Acquire) == n {
                            break;
                        }
                        backoff.snooze();
                        continue;
                    };
                    backoff.reset();
                    let cause = latch_stop(stop, || poll_budget(clock));
                    let poison = if cause != STOP_RUNNING {
                        // Drain without admitting (see the sequential
                        // runner for the semantics).
                        // hb: poison-publish
                        let was_poisoned = poisoned[t as usize].load(Ordering::Acquire);
                        if !was_poisoned {
                            // Only read after the scope join (which
                            // synchronises); no release edge needed.
                            unfinished[t as usize].store(true, Ordering::Relaxed);
                        }
                        was_poisoned
                    } else {
                        dispatched += 1;
                        // hb: poison-publish
                        let ok = !poisoned[t as usize].load(Ordering::Acquire) && run_unit(t);
                        if !ok {
                            // hb: poison-publish
                            poisoned[t as usize].store(true, Ordering::Release);
                        }
                        !ok
                    };
                    // Poison reaches a successor before the (batched)
                    // decrement that can ready it.
                    for &s in successors(t) {
                        if poison {
                            // hb: poison-publish
                            poisoned[s as usize].store(true, Ordering::Release);
                        }
                        batch.note(s);
                    }
                    if batch.finish(graph.members(t).len(), chunk_size) {
                        batch.flush(dep, completed, |s| local.push(s));
                    }
                }
                // One shared RMW per worker per run, not one per unit.
                dispatches.fetch_add(dispatched, Ordering::Relaxed);
            });
        }
    });

    BoundedRun {
        dispatches: dispatches.load(Ordering::Relaxed),
        poisoned: poisoned.into_iter().map(AtomicBool::into_inner).collect(),
        unfinished: unfinished.into_iter().map(AtomicBool::into_inner).collect(),
        stop: stop_cause(stop.into_inner()),
    }
}

/// Exhaustive model-check harnesses for the two protocol steps of the
/// stealing wavefront, each driving the shipped function: the decrement
/// batch ([`DecrementBatch::note`] / [`DecrementBatch::flush`]) and the
/// stop latch ([`latch_stop`]). Run with `RUSTFLAGS="--cfg
/// gpasta_model_check" cargo test -p gpasta-sched --lib model_check`.
#[cfg(all(test, gpasta_model_check))]
mod model_check {
    use super::*;
    use gpasta_check::model::sync::TrackedCell;
    use gpasta_check::model::{
        assert_caught, assert_exhausted, check, count, explore, run_threads, seed, Report,
        HARNESS_BOUNDS,
    };

    // -----------------------------------------------------------------
    // Chunked decrement flush
    // -----------------------------------------------------------------

    /// Member tasks a worker finishes before the chunk rule flushes.
    const CHUNK: usize = 2;
    const CHUNK_UNITS: usize = 4;

    /// Bounded instance: sources `0`, `1`, `3` all feed the shared
    /// successor `2`; unit 0 fails its payload, so unit 2 is poisoned and
    /// must be admitted (exactly once, after all three predecessors) but
    /// never run.
    struct ChunkInstance {
        poisoned: [AtomicBool; 4],
        /// Fan-in countdowns: only the shared successor has predecessors.
        dep: [AtomicU32; 4],
        completed: AtomicUsize,
        output: [TrackedCell<u32>; 4],
        /// Which worker's flush readied unit 2.
        unit2_admitter: TrackedCell<u32>,
    }

    fn chunk_succ(unit: u32) -> &'static [u32] {
        match unit {
            0 | 1 | 3 => &[2],
            _ => &[],
        }
    }

    /// One stealing worker: a private LIFO of ready units and the shipped
    /// [`DecrementBatch`] it accumulates between flushes.
    struct ChunkWorker<'a> {
        inst: &'a ChunkInstance,
        id: u32,
        local: Vec<u32>,
        batch: DecrementBatch,
    }

    impl ChunkWorker<'_> {
        fn flush(&mut self) {
            let local = &mut self.local;
            self.batch
                .flush(&self.inst.dep, &self.inst.completed, |s| local.push(s));
        }

        /// Admit one unit as the worker loop does: inherit poison or run
        /// the payload, publish poison on failure, and batch (not
        /// publish) the successor decrements.
        fn admit(&mut self, unit: u32) {
            let inst = self.inst;
            let is_poisoned = inst.poisoned[unit as usize].load(Ordering::Acquire);
            if unit == 2 {
                inst.unit2_admitter.write(self.id);
                // Admission happens-after every predecessor, poisoned or
                // not: reading their outputs makes the race detector prove
                // it.
                check(
                    inst.output[1].read() == 101 && inst.output[3].read() == 103,
                    "a unit must be admitted after all its predecessors",
                );
            }
            // Unit 0's payload fails; everything else succeeds when clean.
            let ok = !is_poisoned && unit != 0;
            if ok {
                inst.output[unit as usize].write(100 + unit);
            }
            for &s in chunk_succ(unit) {
                if !ok {
                    inst.poisoned[s as usize].store(true, Ordering::Release);
                }
                self.batch.note(s);
            }
            if self.batch.finish(1, CHUNK) {
                self.flush();
            }
        }

        /// The worker loop, reduced to its local deque: out of local work,
        /// it flushes and (the seeds being dealt out, so a steal finds
        /// nothing) parks. `flush_before_steal: false` is the
        /// `FlushAfterSteal` mutant, which flushes only once a steal has
        /// succeeded, i.e. never.
        fn run(mut self, flush_before_steal: bool) {
            loop {
                if self.local.is_empty() && flush_before_steal {
                    self.flush();
                }
                let Some(unit) = self.local.pop() else {
                    return;
                };
                self.admit(unit);
            }
        }
    }

    /// One execution of the chunked-flush instance: worker 1 is dealt the
    /// failing unit 0 (its batch is published by the flush-before-steal
    /// rule), worker 2 the clean units 1 and 3 (its batch merges their two
    /// decrements of unit 2 into one `fetch_sub(2)`, published by the
    /// chunk rule). `mutant` seeds a production mutation.
    fn chunked_flush_once(mutant: Option<&'static str>, flush_before_steal: bool) {
        if let Some(name) = mutant {
            seed(name);
        }
        let inst = ChunkInstance {
            poisoned: [
                AtomicBool::named("poisoned0", false),
                AtomicBool::named("poisoned1", false),
                AtomicBool::named("poisoned2", false),
                AtomicBool::named("poisoned3", false),
            ],
            dep: [
                AtomicU32::named("dep0", 0),
                AtomicU32::named("dep1", 0),
                AtomicU32::named("dep2", 3),
                AtomicU32::named("dep3", 0),
            ],
            completed: AtomicUsize::named("completed", 0),
            output: [
                TrackedCell::named("output0", 0),
                TrackedCell::named("output1", 0),
                TrackedCell::named("output2", 0),
                TrackedCell::named("output3", 0),
            ],
            unit2_admitter: TrackedCell::named("unit2_admitter", u32::MAX),
        };
        let worker = |id: u32, local: Vec<u32>| ChunkWorker {
            inst: &inst,
            id,
            local,
            batch: DecrementBatch::with_capacity(4),
        };
        let (w1, w2) = (worker(1, vec![0]), worker(2, vec![1, 3]));
        run_threads(vec![
            Box::new(move || w1.run(flush_before_steal)),
            Box::new(move || w2.run(flush_before_steal)),
        ]);
        // A parked worker exits once `completed` reaches the unit count;
        // with both workers parked, anything short of it is a run that
        // never ends.
        check(
            inst.completed.load(Ordering::Relaxed) == CHUNK_UNITS,
            "the run must terminate with every unit accounted for exactly once",
        );
        check(
            inst.dep[2].load(Ordering::Relaxed) == 0,
            "every batched decrement must be published",
        );
        check(
            inst.poisoned[2].load(Ordering::Relaxed),
            "failed parent must poison the shared successor",
        );
        check(
            !inst.poisoned[1].load(Ordering::Relaxed) && !inst.poisoned[3].load(Ordering::Relaxed),
            "poison must not leak outside the forward closure",
        );
        check(
            inst.output[2].read() == 0,
            "poisoned unit must never run its payload",
        );
        check(
            inst.output[1].read() == 101 && inst.output[3].read() == 103,
            "unpoisoned units must run",
        );
        match inst.unit2_admitter.read() {
            1 => count("unit2-readied-by-failing-worker"),
            2 => count("unit2-readied-by-batched-decrement"),
            _ => count("unit2-never-reached"),
        }
    }

    fn chunked_flush(mutant: Option<&'static str>, flush_before_steal: bool) -> Report {
        explore(&HARNESS_BOUNDS, || {
            chunked_flush_once(mutant, flush_before_steal)
        })
    }

    #[test]
    fn chunked_flush_exhaustive_no_violation() {
        let report = chunked_flush(None, true);
        // Either worker's flush must be the one that readies unit 2 in
        // some schedule: the lone decrement acquiring the batched one and
        // the batched `fetch_sub(2)` acquiring the poison.
        assert_exhausted(
            &report,
            &[
                "unit2-readied-by-failing-worker",
                "unit2-readied-by-batched-decrement",
            ],
        );
        assert!(!report.counters.contains_key("unit2-never-reached"));
    }

    #[test]
    fn flush_after_steal_mutation_caught_with_replayable_trace() {
        assert_caught(chunked_flush(None, false), &["terminate"], || {
            chunked_flush_once(None, false)
        });
    }

    #[test]
    fn chunk_decrement_mutation_caught_with_replayable_trace() {
        assert_caught(
            chunked_flush(Some("flush-relaxed"), true),
            &["poisoned unit", "data race"],
            || chunked_flush_once(Some("flush-relaxed"), true),
        );
    }

    // -----------------------------------------------------------------
    // Stop latch
    // -----------------------------------------------------------------

    /// One worker about to admit a unit, whose budget poll would find
    /// `cause`: records the cause [`latch_stop`] returns (the one it
    /// drains under) and whether it polled at all.
    fn admit_under(stop: &AtomicU8, cause: u8, drained: &TrackedCell<u8>) {
        let mut polled = false;
        let got = latch_stop(stop, || {
            polled = true;
            cause
        });
        if !polled {
            count("saw-the-latch-before-polling");
        }
        drained.write(got);
    }

    /// One execution of the stop-latch instance: two workers, one whose
    /// budget poll finds the deadline expired and one that finds the token
    /// cancelled. `mutant` seeds a production mutation.
    fn stop_latch_once(mutant: Option<&'static str>) {
        if let Some(name) = mutant {
            seed(name);
        }
        let stop = AtomicU8::named("stop", STOP_RUNNING);
        let deadline = TrackedCell::named("deadline_worker", STOP_RUNNING);
        let cancel = TrackedCell::named("cancel_worker", STOP_RUNNING);
        let (st, dl, cl) = (&stop, &deadline, &cancel);
        run_threads(vec![
            Box::new(move || admit_under(st, STOP_DEADLINE, dl)),
            Box::new(move || admit_under(st, STOP_CANCELLED, cl)),
        ]);
        let reported = stop.load(Ordering::Relaxed);
        check(
            reported != STOP_RUNNING,
            "a cause both workers found must latch",
        );
        check(
            deadline.read() == reported && cancel.read() == reported,
            "exactly one cause latches: every worker drains under the cause the run reports",
        );
        count(match reported {
            STOP_DEADLINE => "deadline-latched",
            _ => "cancel-latched",
        });
    }

    fn stop_latch(mutant: Option<&'static str>) -> Report {
        explore(&HARNESS_BOUNDS, || stop_latch_once(mutant))
    }

    #[test]
    fn stop_latch_exhaustive_no_violation() {
        // Either cause can win, and a worker can find the latch already
        // taken before it polls.
        assert_exhausted(
            &stop_latch(None),
            &[
                "deadline-latched",
                "cancel-latched",
                "saw-the-latch-before-polling",
            ],
        );
    }

    #[test]
    fn stop_latch_store_mutation_caught_with_replayable_trace() {
        assert_caught(
            stop_latch(Some("stop-latch-store")),
            &["exactly one cause"],
            || stop_latch_once(Some("stop-latch-store")),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, FaultyWork};
    use gpasta_tdg::TdgBuilder;
    use std::sync::atomic::AtomicU64 as StdAtomicU64;

    fn diamond() -> Tdg {
        let mut b = TdgBuilder::new(4);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(0), TaskId(2));
        b.add_edge(TaskId(1), TaskId(3));
        b.add_edge(TaskId(2), TaskId(3));
        b.build().expect("diamond DAG")
    }

    fn chain(n: usize) -> Tdg {
        let mut b = TdgBuilder::new(n);
        for i in 1..n {
            b.add_edge(TaskId(i as u32 - 1), TaskId(i as u32));
        }
        b.build().expect("chain DAG")
    }

    fn layered(n_per_level: usize, levels: usize) -> Tdg {
        let n = n_per_level * levels;
        let mut b = TdgBuilder::new(n);
        for l in 1..levels {
            for i in 0..n_per_level {
                let v = (l * n_per_level + i) as u32;
                let u = ((l - 1) * n_per_level + (i * 7 + 3) % n_per_level) as u32;
                b.add_edge(TaskId(u), TaskId(v));
                let u2 = ((l - 1) * n_per_level + (i * 11 + 1) % n_per_level) as u32;
                b.add_edge(TaskId(u2), TaskId(v));
            }
        }
        b.build().expect("layered DAG")
    }

    /// Reference forward closure over raw TDG successors (BFS).
    fn closure_of(tdg: &Tdg, seeds: &[u32]) -> Vec<u32> {
        let mut seen = vec![false; tdg.num_tasks()];
        let mut stack: Vec<u32> = seeds.to_vec();
        for &s in seeds {
            seen[s as usize] = true;
        }
        while let Some(t) = stack.pop() {
            for &s in tdg.successors(TaskId(t)) {
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    stack.push(s);
                }
            }
        }
        (0..tdg.num_tasks() as u32)
            .filter(|&t| seen[t as usize])
            .collect()
    }

    #[test]
    fn recovering_with_no_faults_matches_plain_run() {
        let tdg = layered(32, 10);
        let plan = FaultPlan::none();
        for workers in [1usize, 4] {
            let count = StdAtomicU64::new(0);
            let payload = |_t: TaskId| {
                count.fetch_add(1, Ordering::Relaxed);
            };
            let work = FaultyWork::new(&payload, &plan);
            let exec = Executor::new(workers);
            let outcome = exec.run_tdg_recovering_bounded(
                &tdg,
                &work,
                &RetryPolicy::default(),
                &RunBudget::unbounded(),
            );
            assert!(outcome.is_clean(), "workers={workers}");
            assert_eq!(outcome.salvaged_tasks, tdg.num_tasks());
            assert_eq!(outcome.retries, 0);
            assert_eq!(outcome.report.dispatches as usize, tdg.num_tasks());
            assert_eq!(count.load(Ordering::Relaxed) as usize, tdg.num_tasks());
        }
        assert_eq!(plan.fired(), 0);
    }

    #[test]
    fn fatal_fault_poisons_exactly_the_forward_closure() {
        let tdg = layered(16, 8);
        let seed = 20u32; // a task in level 1: real downstream cone
        let expected = closure_of(&tdg, &[seed]);
        assert!(expected.len() > 1, "seed must have successors");
        let plan = FaultPlan::none().inject(seed, 0, FaultKind::WrongResult);
        for workers in [1usize, 4] {
            let payload = |_t: TaskId| {};
            let work = FaultyWork::new(&payload, &plan);
            let exec = Executor::new(workers);
            let outcome = exec.run_tdg_recovering_bounded(
                &tdg,
                &work,
                &RetryPolicy::no_retries(),
                &RunBudget::unbounded(),
            );
            assert_eq!(outcome.poisoned_tasks, expected, "workers={workers}");
            assert_eq!(
                outcome.salvaged_tasks,
                tdg.num_tasks() - expected.len(),
                "salvage is the exact complement"
            );
            assert_eq!(outcome.failures.len(), 1);
            assert_eq!(outcome.failures[0].task, seed);
        }
    }

    #[test]
    fn panic_fault_is_contained_not_propagated() {
        let tdg = layered(8, 4);
        let plan = FaultPlan::none().inject(7, 0, FaultKind::Panic);
        for workers in [1usize, 3] {
            let payload = |_t: TaskId| {};
            let work = FaultyWork::new(&payload, &plan);
            let exec = Executor::new(workers);
            // Must NOT unwind — that is the whole point.
            let outcome = exec.run_tdg_recovering_bounded(
                &tdg,
                &work,
                &RetryPolicy::no_retries(),
                &RunBudget::unbounded(),
            );
            assert!(!outcome.is_clean());
            assert_eq!(outcome.failures[0].task, 7);
            assert!(matches!(outcome.failures[0].error, TaskError::Fatal(_)));
            assert_eq!(outcome.poisoned_tasks, closure_of(&tdg, &[7]));
        }
    }

    #[test]
    fn transient_fault_recovers_via_retry() {
        let tdg = diamond();
        // Fails twice, succeeds on the third attempt.
        let plan =
            FaultPlan::none()
                .inject(1, 0, FaultKind::Transient)
                .inject(1, 1, FaultKind::Transient);
        let count = StdAtomicU64::new(0);
        let payload = |_t: TaskId| {
            count.fetch_add(1, Ordering::Relaxed);
        };
        let work = FaultyWork::new(&payload, &plan);
        let exec = Executor::new(1);
        let policy = RetryPolicy {
            max_retries: 3,
            base_backoff: std::time::Duration::ZERO,
            max_backoff: std::time::Duration::ZERO,
        };
        let outcome =
            exec.run_tdg_recovering_bounded(&tdg, &work, &policy, &RunBudget::unbounded());
        assert!(outcome.poisoned_tasks.is_empty());
        assert_eq!(outcome.salvaged_tasks, 4);
        assert_eq!(outcome.retries, 2);
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn transient_fault_exhausting_retries_is_quarantined() {
        let tdg = diamond();
        let plan =
            FaultPlan::none()
                .inject(0, 0, FaultKind::Transient)
                .inject(0, 1, FaultKind::Transient);
        let payload = |_t: TaskId| {};
        let work = FaultyWork::new(&payload, &plan);
        let exec = Executor::new(1);
        let policy = RetryPolicy {
            max_retries: 1,
            base_backoff: std::time::Duration::ZERO,
            max_backoff: std::time::Duration::ZERO,
        };
        let outcome =
            exec.run_tdg_recovering_bounded(&tdg, &work, &policy, &RunBudget::unbounded());
        // Task 0 is the diamond's source: everything is in its closure.
        assert_eq!(outcome.poisoned_tasks, vec![0, 1, 2, 3]);
        assert_eq!(outcome.salvaged_tasks, 0);
        assert_eq!(outcome.failures[0].attempts, 2);
        assert_eq!(outcome.retries, 1);
    }

    #[test]
    fn delay_fault_slows_but_never_fails() {
        let tdg = diamond();
        let plan = FaultPlan::none().inject(2, 0, FaultKind::Delay { micros: 50 });
        let count = StdAtomicU64::new(0);
        let payload = |_t: TaskId| {
            count.fetch_add(1, Ordering::Relaxed);
        };
        let work = FaultyWork::new(&payload, &plan);
        let outcome = Executor::new(2).run_tdg_recovering_bounded(
            &tdg,
            &work,
            &RetryPolicy::default(),
            &RunBudget::unbounded(),
        );
        assert!(outcome.poisoned_tasks.is_empty());
        assert_eq!(count.load(Ordering::Relaxed), 4);
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn partitioned_recovery_quarantines_the_whole_partition() {
        use gpasta_tdg::Partition;
        // Chain 0 -> 1 -> 2 -> 3 grouped {0} -> {1,2} -> {3}: member order
        // inside partition 1 is dependency-forced, so failing member 1 must
        // skip member 2 and poison partitions 1 and 2.
        let mut b = TdgBuilder::new(4);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(1), TaskId(2));
        b.add_edge(TaskId(2), TaskId(3));
        let tdg = b.build().expect("chain DAG");
        let p = Partition::new(vec![0, 1, 1, 2]);
        let q = QuotientTdg::build(&tdg, &p).expect("valid partition");
        let plan = FaultPlan::none().inject(1, 0, FaultKind::WrongResult);
        for workers in [1usize, 2] {
            let ran = parking_lot::Mutex::new(Vec::new());
            let payload = |t: TaskId| {
                ran.lock().push(t.0);
            };
            let work = FaultyWork::new(&payload, &plan);
            let exec = Executor::new(workers);
            let outcome = exec.run_partitioned_recovering_bounded(
                &q,
                &work,
                &RetryPolicy::no_retries(),
                &RunBudget::unbounded(),
            );
            assert_eq!(outcome.poisoned_units, vec![1, 2], "workers={workers}");
            assert_eq!(outcome.poisoned_tasks, vec![1, 2, 3]);
            assert_eq!(outcome.salvaged_tasks, 1);
            assert_eq!(outcome.failures[0].unit, 1);
            assert_eq!(outcome.failures[0].task, 1);
            let ran = ran.into_inner();
            assert!(ran.contains(&0), "unaffected partition still runs");
            assert!(!ran.contains(&2), "members after the failure are skipped");
        }
    }

    #[test]
    fn salvage_set_is_identical_across_worker_counts() {
        let tdg = layered(24, 12);
        let kinds = [
            FaultKind::Panic,
            FaultKind::Transient,
            FaultKind::WrongResult,
        ];
        let plan = FaultPlan::random(0xFA17, 0.02, &kinds);
        let policy = RetryPolicy {
            max_retries: 2,
            base_backoff: std::time::Duration::ZERO,
            max_backoff: std::time::Duration::ZERO,
        };
        let mut reference: Option<Vec<u32>> = None;
        for workers in [1usize, 2, 4] {
            let payload = |_t: TaskId| {};
            let work = FaultyWork::new(&payload, &plan);
            let outcome = Executor::new(workers).run_tdg_recovering_bounded(
                &tdg,
                &work,
                &policy,
                &RunBudget::unbounded(),
            );
            assert!(!outcome.poisoned_tasks.is_empty(), "plan should fire");
            match &reference {
                None => reference = Some(outcome.poisoned_tasks),
                Some(r) => assert_eq!(
                    &outcome.poisoned_tasks, r,
                    "poison set must not depend on worker count (workers={workers})"
                ),
            }
        }
    }

    #[test]
    fn recovering_empty_graph_is_clean() {
        let tdg = TdgBuilder::new(0).build().expect("empty DAG");
        let plan = FaultPlan::none();
        let payload = |_t: TaskId| {};
        let work = FaultyWork::new(&payload, &plan);
        for workers in [1usize, 2] {
            let outcome = Executor::new(workers).run_tdg_recovering_bounded(
                &tdg,
                &work,
                &RetryPolicy::default(),
                &RunBudget::unbounded(),
            );
            assert!(outcome.is_clean());
            assert_eq!(outcome.salvaged_tasks, 0);
        }
    }

    #[test]
    fn pre_expired_deadline_leaves_everything_unfinished() {
        let tdg = layered(8, 6);
        let ran = StdAtomicU64::new(0);
        for workers in [1usize, 3] {
            ran.store(0, Ordering::Relaxed);
            let work = |_t: TaskId, _a: u32| -> Result<(), TaskError> {
                ran.fetch_add(1, Ordering::Relaxed);
                Ok(())
            };
            let outcome = Executor::new(workers).run_tdg_recovering_bounded(
                &tdg,
                &work,
                &RetryPolicy::no_retries(),
                &RunBudget::unbounded().with_deadline(Duration::ZERO),
            );
            assert_eq!(
                outcome.stop,
                StopCause::DeadlineExpired,
                "workers={workers}"
            );
            assert_eq!(outcome.salvaged_tasks, 0);
            assert_eq!(
                outcome.unfinished_tasks,
                (0..tdg.num_tasks() as u32).collect::<Vec<_>>()
            );
            assert!(outcome.poisoned_tasks.is_empty());
            assert_eq!(ran.load(Ordering::Relaxed), 0, "nothing was admitted");
        }
    }

    #[test]
    fn deadline_mid_run_leaves_exactly_the_unadmitted_closure() {
        // (graph, workers, per-task sleep in ms, deadline in ms). A chain
        // of slow tasks on one worker makes admission order deterministic;
        // a layered DAG on two workers stops while one slow source is
        // still in flight, and that task is waited for, not abandoned.
        let slow_source = |t: u32| if t == 0 { 60 } else { 0 };
        let cases = [
            (chain(32), 1, (|_| 2) as fn(u32) -> u64, 10),
            (layered(4, 4), 2, slow_source, 5),
        ];
        for (tdg, workers, sleep_ms, deadline_ms) in cases {
            let n = tdg.num_tasks() as u32;
            let run = |budget: RunBudget| {
                let ran = parking_lot::Mutex::new(Vec::new());
                let work = |t: TaskId, _a: u32| -> Result<(), TaskError> {
                    std::thread::sleep(Duration::from_millis(sleep_ms(t.0)));
                    ran.lock().push(t.0);
                    Ok(())
                };
                let outcome = Executor::new(workers).run_tdg_recovering_bounded(
                    &tdg,
                    &work,
                    &RetryPolicy::no_retries(),
                    &budget,
                );
                let mut ran = ran.into_inner();
                ran.sort_unstable();
                (outcome, ran)
            };
            let (outcome, ran) = run(RunBudget::unbounded());
            assert!(outcome.is_clean(), "workers={workers}: {outcome}");
            assert_eq!(ran, (0..n).collect::<Vec<_>>(), "every task exactly once");

            let deadline = Duration::from_millis(deadline_ms);
            let (outcome, ran) = run(RunBudget::unbounded().with_deadline(deadline));
            assert_eq!(outcome.stop, StopCause::DeadlineExpired);
            assert!(outcome.poisoned_tasks.is_empty());
            assert!(ran.contains(&0), "the first (slow) task is salvaged");
            assert!(ran.len() < n as usize, "the deadline tripped mid-run");
            // Unfinished is exactly what never ran, and that set is the
            // forward closure of the unadmitted units.
            let unadmitted: Vec<u32> = (0..n).filter(|t| ran.binary_search(t).is_err()).collect();
            assert_eq!(outcome.unfinished_tasks, unadmitted, "workers={workers}");
            assert_eq!(closure_of(&tdg, &unadmitted), unadmitted);
            assert_eq!(outcome.salvaged_tasks, ran.len());
        }
    }

    #[test]
    fn cancellation_stops_admission_promptly() {
        let n = 64;
        let tdg = chain(n);
        let token = CancelToken::new();
        let cancel_after = 5u64;
        let count = StdAtomicU64::new(0);
        let token_ref = &token;
        let work = move |_t: TaskId, _a: u32| -> Result<(), TaskError> {
            if count.fetch_add(1, Ordering::Relaxed) + 1 == cancel_after {
                token_ref.cancel();
            }
            Ok(())
        };
        let outcome = Executor::new(1).run_tdg_recovering_bounded(
            &tdg,
            &work,
            &RetryPolicy::no_retries(),
            &RunBudget::unbounded().with_cancel(token.clone()),
        );
        assert_eq!(outcome.stop, StopCause::Cancelled);
        assert_eq!(
            outcome.salvaged_tasks, cancel_after as usize,
            "admission stops at the next unit boundary"
        );
        assert_eq!(outcome.unfinished_tasks.len(), n - cancel_after as usize);
    }

    #[test]
    fn stale_cancel_from_a_previous_run_is_ignored() {
        let tdg = chain(8);
        let token = CancelToken::new();
        token.cancel(); // fired before the run starts
        let work = |_t: TaskId, _a: u32| -> Result<(), TaskError> { Ok(()) };
        let outcome = Executor::new(2).run_tdg_recovering_bounded(
            &tdg,
            &work,
            &RetryPolicy::no_retries(),
            &RunBudget::unbounded().with_cancel(token),
        );
        assert_eq!(outcome.stop, StopCause::Completed);
        assert!(outcome.is_clean());
    }

    #[test]
    fn deadline_expiry_with_faults_keeps_sets_disjoint() {
        let tdg = layered(8, 16);
        let plan = FaultPlan::random(0xD1ED, 0.05, &[FaultKind::WrongResult, FaultKind::Panic]);
        for workers in [1usize, 4] {
            let slow = |_t: TaskId| {
                std::thread::sleep(Duration::from_micros(200));
            };
            let work = FaultyWork::new(&slow, &plan);
            let outcome = Executor::new(workers).run_tdg_recovering_bounded(
                &tdg,
                &work,
                &RetryPolicy::no_retries(),
                &RunBudget::unbounded().with_deadline(Duration::from_millis(3)),
            );
            let mut all: Vec<u32> = Vec::new();
            all.extend(&outcome.poisoned_tasks);
            all.extend(&outcome.unfinished_tasks);
            let before = all.len();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), before, "poisoned ∩ unfinished = ∅");
            assert_eq!(
                outcome.salvaged_tasks + before,
                tdg.num_tasks(),
                "salvage ∪ poisoned ∪ unfinished = task set (workers={workers})"
            );
        }
    }

    #[test]
    fn bounded_partitioned_run_respects_deadline_at_partition_boundaries() {
        use gpasta_tdg::Partition;
        // Chain 0..8 grouped into 4 partitions of 2.
        let tdg = chain(8);
        let p = Partition::new(vec![0, 0, 1, 1, 2, 2, 3, 3]);
        let q = QuotientTdg::build(&tdg, &p).expect("valid partition");
        let work = |_t: TaskId, _a: u32| -> Result<(), TaskError> {
            std::thread::sleep(Duration::from_millis(3));
            Ok(())
        };
        let outcome = Executor::new(1).run_partitioned_recovering_bounded(
            &q,
            &work,
            &RetryPolicy::no_retries(),
            &RunBudget::unbounded().with_deadline(Duration::from_millis(8)),
        );
        assert_eq!(outcome.stop, StopCause::DeadlineExpired);
        assert!(!outcome.unfinished_units.is_empty());
        // Unfinished units expand to whole member-task blocks of 2.
        assert_eq!(outcome.unfinished_tasks.len() % 2, 0);
        assert_eq!(
            outcome.salvaged_tasks + outcome.unfinished_tasks.len(),
            tdg.num_tasks()
        );
    }

    #[test]
    fn salvage_partition_is_worker_count_independent_under_cancel_free_budget() {
        let tdg = layered(24, 12);
        let plan = FaultPlan::random(0xFA17, 0.02, &[FaultKind::Panic, FaultKind::WrongResult]);
        let mut reference: Option<Vec<u32>> = None;
        for workers in [1usize, 2, 4] {
            let payload = |_t: TaskId| {};
            let work = FaultyWork::new(&payload, &plan);
            let outcome = Executor::new(workers).run_tdg_recovering_bounded(
                &tdg,
                &work,
                &RetryPolicy::no_retries(),
                &RunBudget::unbounded(),
            );
            assert!(outcome.unfinished_tasks.is_empty());
            match &reference {
                None => reference = Some(outcome.poisoned_tasks),
                Some(r) => assert_eq!(&outcome.poisoned_tasks, r, "workers={workers}"),
            }
        }
    }
}
