//! The wavefront: the one sequential and the one work-stealing dispatch
//! body behind every `Executor::run_*` entry point, with fault
//! containment, wall-clock deadlines, cooperative cancellation, and a
//! hung-task watchdog. It never unwinds into its caller; the plain entry
//! points ([`Executor::run_tdg`], [`Executor::run_partitioned`]) re-raise
//! a contained payload panic themselves.
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
//! The watchdog is a sibling thread inside the same scope. Workers publish
//! their in-flight unit in a per-worker slot (`(unit+1) << 32 | start_µs`);
//! the watchdog polls those slots at a fraction of the stall window and
//! *claims* any unit in flight longer than the window via a per-unit state
//! CAS (`pending → stalled`). The claim loser is simply whichever side the
//! CAS rejects: if the worker finishes first the watchdog backs off; if the
//! watchdog wins it records a [`TaskError::Stalled`] failure, poisons the
//! unit's forward closure, and advances the completion count so the
//! wavefront keeps flowing around the hole. A *finite* stall therefore
//! completes degraded within ~2× the window; a truly infinite hang still
//! pins its worker thread (threads cannot be killed safely) — that is what
//! the crash-safe checkpoint/resume path is for. With a window armed, a
//! worker flushes its batch before *entering* every unit: a hung worker
//! must not sit on other units' readiness.
//!
//! The budget is polled once per unit admission. With
//! [`RunBudget::unbounded`] that poll is two register tests, and without a
//! stall window the watchdog bookkeeping is skipped, so the plain entry points cost what the
//! recovering ones do plus a payload lift (`fault_recovery` bench: within
//! ± 5 % of each other).

use crate::executor::{Executor, TaskWork};
use crate::outcome::{
    FailureRecord, RecoverableWork, RetryPolicy, RunOutcome, StopCause, TaskError,
};
use crate::report::RunReport;
use crossbeam_deque::{Injector, Stealer, Worker};
use crossbeam_utils::Backoff;
use gpasta_check::sync::{
    AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Mutex, Ordering,
};
use gpasta_tdg::{CancelObserver, CancelToken, PartitionId, QuotientTdg, TaskId, Tdg};
use std::time::{Duration, Instant};

/// The time bounds of one run: a wall-clock deadline and a cancel token,
/// both optional; [`RunBudget::unbounded`] sets neither. The in-order
/// sweep and the executor honour them alike. The hung-task watchdog is the
/// executor's ([`Executor::with_stall_window`]).
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
    /// Arm the hung-task watchdog on every run of this executor: a unit in
    /// flight longer than `window` is claimed as [`TaskError::Stalled`] and
    /// its forward closure poisoned, so the run completes (degraded)
    /// instead of wedging. A plain entry point re-raises the claim as a
    /// panic, like any contained failure. Runs always use the
    /// work-stealing runner then (the watchdog needs its own thread), even
    /// with one worker.
    #[must_use]
    pub fn with_stall_window(mut self, window: Duration) -> Self {
        self.stall_window = Some(window);
        self
    }

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
        let state = RecoveryState::new(policy);
        let run_unit = |u: u32| graph.members(u).all(|t| state.attempt_task(work, u, t));
        let run = if self.num_workers() == 1 && self.stall_window.is_none() {
            run_sequential_bounded(
                n,
                &units.in_degrees(),
                |u| units.successors(TaskId(u)),
                run_unit,
                &clock,
            )
        } else {
            run_stealing_bounded(
                graph,
                self.num_workers(),
                self.chunk_size(),
                &run_unit,
                &clock,
                self.stall_window,
                &state,
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

impl<'p> RecoveryState<'p> {
    fn new(policy: &'p RetryPolicy) -> Self {
        RecoveryState {
            policy,
            retries: AtomicU64::new(0),
            failures: Mutex::new(Vec::new()),
        }
    }

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
fn run_sequential_bounded<'a, S, R>(
    n: usize,
    in_degrees: &[u32],
    successors: S,
    run_unit: R,
    clock: &BudgetClock,
) -> BoundedRun
where
    S: Fn(u32) -> &'a [u32],
    R: Fn(u32) -> bool,
{
    let mut poisoned = vec![false; n];
    let mut unfinished = vec![false; n];
    let mut dep: Vec<u32> = in_degrees.to_vec();
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
        for &s in successors(t) {
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

/// Encode worker `w`'s in-flight unit for the watchdog: `(unit+1) << 32`
/// ored with the start time in microseconds since run start, truncated to
/// `u32`. Zero means idle. The truncation wraps every ~71.6 minutes; a
/// stall spanning a wrap is detected one poll late at worst because ages
/// are computed with wrapping subtraction in the same 32-bit domain.
#[inline]
fn encode_inflight(unit: u32, started_micros: u32) -> u64 {
    (u64::from(unit) + 1) << 32 | u64::from(started_micros)
}

const UNIT_PENDING: u8 = 0;
const UNIT_DONE: u8 = 1;
const UNIT_STALLED: u8 = 2;

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
    fn note(&mut self, succ: u32) {
        // Linear merge: fan-out batches are tiny (≤ chunk_size ·
        // mean-degree with heavy duplication), so a scan beats hashing.
        match self.pending.iter_mut().find(|e| e.0 == succ) {
            Some(e) => e.1 += 1,
            None => self.pending.push((succ, 1)),
        }
    }

    fn flush(&mut self, dep: &[AtomicU32], local: &Worker<u32>, completed: &AtomicUsize) {
        for &(s, c) in &self.pending {
            // hb: dep-handoff
            if dep[s as usize].fetch_sub(c, Ordering::AcqRel) == c {
                local.push(s);
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

/// Work-stealing bounded recovering wavefront with an optional watchdog.
///
/// Per-unit completion is arbitrated by a `pending → done|stalled` CAS so
/// the worker that ran a unit and the watchdog that claimed it stalled can
/// never both account for it. The CAS winner performs the unit's poison
/// publication, successor decrements, and completion increment; the loser
/// discards its result. Poison is always stored (`Release`) before the
/// dependency decrement (`AcqRel`, batched or not) that can ready a
/// successor, so the inherited-poison check (`Acquire`) observes every
/// parent failure regardless of interleaving: a unit is only popped after
/// every predecessor decremented its fan-in count. Weakening that decrement
/// to `Relaxed`, or letting a worker park on an unflushed batch, are the
/// mutations the model checker catches (gpasta-check `chunked_flush`).
#[allow(clippy::too_many_arguments)]
fn run_stealing_bounded<G: UnitGraph, R: Fn(u32) -> bool + Sync>(
    graph: &G,
    workers: usize,
    chunk_size: usize,
    run_unit: &R,
    clock: &BudgetClock,
    stall_window: Option<Duration>,
    state: &RecoveryState<'_>,
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
    let run_start = Instant::now();
    // Watchdog bookkeeping (in-flight slots, per-unit claim states, and the
    // per-unit clock read that stamps them) is only paid when a stall window
    // is armed; without one, no other claimant exists.
    let watching = stall_window.is_some();
    let dep: Vec<AtomicU32> = units.in_degrees().into_iter().map(AtomicU32::new).collect();
    let poisoned: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let unfinished: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let unit_state: Vec<AtomicU8> = (0..if watching { n } else { 0 })
        .map(|_| AtomicU8::new(UNIT_PENDING))
        .collect();
    let inflight: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
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
        // Spawned first so every worker can wake it on its way out: it
        // polls at a quarter of the window, and a run that completes
        // between polls must not wait out the rest of that sleep.
        let watchdog = stall_window.map(|window| {
            let dep = &dep;
            let poisoned = &poisoned;
            let unit_state = &unit_state;
            let inflight = &inflight;
            let injector = &injector;
            let completed = &completed;
            let handle = scope.spawn(move || {
                let window_us = window.as_micros().min(u128::from(u32::MAX / 2)) as u64;
                let poll = Duration::from_micros((window_us / 4).max(50));
                // hb: run-complete
                while completed.load(Ordering::Acquire) < n {
                    std::thread::park_timeout(poll);
                    // hb: run-complete
                    if completed.load(Ordering::Acquire) >= n {
                        break;
                    }
                    let now = run_start.elapsed().as_micros() as u32;
                    for slot in inflight {
                        let v = slot.load(Ordering::Acquire); // hb: inflight-publish
                        if v == 0 {
                            continue;
                        }
                        let unit = ((v >> 32) - 1) as u32;
                        let started = v as u32;
                        let age = u64::from(now.wrapping_sub(started));
                        if age <= window_us {
                            continue;
                        }
                        if unit_state[unit as usize]
                            .compare_exchange(
                                UNIT_PENDING,
                                UNIT_STALLED,
                                Ordering::AcqRel, // hb: unit-claim
                                Ordering::Acquire,
                            )
                            .is_err()
                        {
                            continue;
                        }
                        state.record(
                            unit,
                            graph.members(unit).next().unwrap_or(unit),
                            1,
                            TaskError::Stalled(format!(
                                "no progress within the {} µs stall window (in flight {} µs)",
                                window_us, age
                            )),
                        );
                        poisoned[unit as usize].store(true, Ordering::Release); // hb: poison-publish
                        for &s in successors(unit) {
                            poisoned[s as usize].store(true, Ordering::Release); // hb: poison-publish
                                                                                 // hb: dep-handoff
                            if dep[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                                injector.push(s);
                            }
                        }
                        completed.fetch_add(1, Ordering::Release); // hb: run-complete
                    }
                }
            });
            handle.thread().clone()
        });

        for (w, local) in locals.into_iter().enumerate() {
            let dep = &dep;
            let poisoned = &poisoned;
            let unfinished = &unfinished;
            let unit_state = &unit_state;
            let inflight = &inflight;
            let injector = &injector;
            let stealers = &stealers;
            let completed = &completed;
            let dispatches = &dispatches;
            let stop = &stop;
            let watchdog = watchdog.clone();
            scope.spawn(move || {
                let backoff = Backoff::new();
                let mut batch = DecrementBatch {
                    pending: Vec::with_capacity(chunk_size.min(n) * 2),
                    finished: 0,
                    tasks: 0,
                };
                let mut dispatched = 0u64;
                loop {
                    let unit = local.pop().or_else(|| {
                        // Publish pending decrements before going looking
                        // for work elsewhere: a batched edge may be the
                        // only thing standing between the pool and either
                        // new ready units or the termination condition.
                        batch.flush(dep, &local, completed);
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
                    let mut cause = stop.load(Ordering::Acquire); // hb: stop-latch
                    if cause == STOP_RUNNING {
                        cause = poll_budget(clock);
                        if cause != STOP_RUNNING {
                            // First observer wins; losers just see a
                            // non-zero stop and drain too.
                            let _ = stop.compare_exchange(
                                STOP_RUNNING,
                                cause,
                                Ordering::AcqRel, // hb: stop-latch
                                Ordering::Acquire,
                            );
                        }
                    }
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
                        if watching {
                            // A hung worker must not sit on other units'
                            // readiness: enter every unit with an empty
                            // batch.
                            batch.flush(dep, &local, completed);
                            let started = run_start.elapsed().as_micros() as u32;
                            // hb: inflight-publish
                            inflight[w].store(encode_inflight(t, started), Ordering::Release);
                        }
                        // hb: poison-publish
                        let ok = !poisoned[t as usize].load(Ordering::Acquire) && run_unit(t);
                        if watching {
                            // hb: inflight-publish
                            inflight[w].store(0, Ordering::Release);
                            // Success must be AcqRel: the winner's claim
                            // publishes the unit's result to whoever
                            // observes the DONE state (the model checker
                            // catches a Relaxed downgrade here).
                            if unit_state[t as usize]
                                .compare_exchange(
                                    UNIT_PENDING,
                                    UNIT_DONE,
                                    Ordering::AcqRel, // hb: unit-claim
                                    Ordering::Acquire,
                                )
                                .is_err()
                            {
                                // The watchdog claimed this unit stalled
                                // and already did its bookkeeping; the
                                // late result is discarded.
                                continue;
                            }
                        }
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
                    batch.finished += 1;
                    batch.tasks += graph.members(t).len();
                    if batch.tasks >= chunk_size {
                        batch.flush(dep, &local, completed);
                    }
                }
                // One shared RMW per worker per run, not one per unit.
                dispatches.fetch_add(dispatched, Ordering::Relaxed);
                if let Some(watchdog) = watchdog {
                    watchdog.unpark();
                }
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
        // A chain makes admission order deterministic; a slow payload
        // guarantees the deadline trips mid-run.
        let n = 32;
        let tdg = chain(n);
        let ran = parking_lot::Mutex::new(Vec::new());
        let work = |t: TaskId, _a: u32| -> Result<(), TaskError> {
            std::thread::sleep(Duration::from_millis(2));
            ran.lock().push(t.0);
            Ok(())
        };
        let outcome = Executor::new(1).run_tdg_recovering_bounded(
            &tdg,
            &work,
            &RetryPolicy::no_retries(),
            &RunBudget::unbounded().with_deadline(Duration::from_millis(10)),
        );
        assert_eq!(outcome.stop, StopCause::DeadlineExpired);
        let executed = ran.into_inner();
        assert!(!executed.is_empty(), "some prefix ran");
        assert!(executed.len() < n, "the deadline tripped mid-run");
        // Executed tasks are exactly the chain prefix; unfinished is the
        // forward closure of the first unadmitted task.
        let first_unadmitted = executed.len() as u32;
        assert_eq!(
            outcome.unfinished_tasks,
            closure_of(&tdg, &[first_unadmitted])
        );
        assert_eq!(outcome.salvaged_tasks, executed.len());
        // Partition: salvage ∪ unfinished = task set, poison empty.
        assert!(outcome.poisoned_tasks.is_empty());
        assert_eq!(outcome.salvaged_tasks + outcome.unfinished_tasks.len(), n);
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
    fn watchdog_claims_a_hung_unit_and_the_run_completes() {
        // The hung task sleeps far beyond the stall window; the watchdog
        // must quarantine it (and its closure) while the rest completes.
        // The first worker to reach the injector runs task 1 and then
        // task 0, so with task 0 hung it enters the hang holding task 1's
        // decrements: only a batch flushed *before* admission lets the
        // other worker run tasks 4 and 6 while it is still hung.
        let tdg = layered(4, 4);
        let window = Duration::from_millis(5);
        for hung in [1u32, 0] {
            let started = Instant::now();
            let finished = parking_lot::Mutex::new(vec![None; tdg.num_tasks()]);
            let work = |t: TaskId, _a: u32| -> Result<(), TaskError> {
                if t.0 == hung {
                    std::thread::sleep(Duration::from_millis(60));
                }
                finished.lock()[t.index()] = Some(started.elapsed());
                Ok(())
            };
            let outcome = Executor::new(2)
                .with_stall_window(window)
                .run_tdg_recovering_bounded(
                    &tdg,
                    &work,
                    &RetryPolicy::no_retries(),
                    &RunBudget::unbounded(),
                );
            assert_eq!(outcome.stop, StopCause::Completed, "the run must not hang");
            assert_eq!(outcome.failures.len(), 1);
            assert_eq!(outcome.failures[0].unit, hung);
            assert!(
                matches!(outcome.failures[0].error, TaskError::Stalled(_)),
                "got {:?}",
                outcome.failures[0].error
            );
            assert_eq!(outcome.poisoned_tasks, closure_of(&tdg, &[hung]));
            assert_eq!(
                outcome.salvaged_tasks,
                tdg.num_tasks() - outcome.poisoned_tasks.len()
            );
            // Everything outside the hung task's closure ran while its
            // worker was still hung — including units readied by that
            // worker's own earlier completions.
            let finished = finished.into_inner();
            let hang_returned = finished[hung as usize].expect("the hung payload returns");
            for t in (0..tdg.num_tasks()).filter(|&t| !outcome.poisoned_tasks.contains(&(t as u32)))
            {
                let at = finished[t].expect("salvaged tasks ran");
                assert!(
                    at < hang_returned,
                    "hung={hung}: task {t} finished at {at:?}, after the hang returned at {hang_returned:?}"
                );
            }
            // Detection latency: the stall must be claimed well before the
            // sleeping payload returns on its own. The run still joins the
            // sleeping thread (~60 ms), so bound the *claim*, not the join:
            // the claim happened iff the failure record exists, and the
            // whole run is bounded by the payload sleep plus slack.
            assert!(
                started.elapsed() < Duration::from_millis(500),
                "run took {:?}",
                started.elapsed()
            );
        }
    }

    #[test]
    fn watchdog_with_one_worker_still_detects_stalls() {
        let tdg = chain(6);
        let work = |t: TaskId, _a: u32| -> Result<(), TaskError> {
            if t.0 == 2 {
                std::thread::sleep(Duration::from_millis(40));
            }
            Ok(())
        };
        let outcome = Executor::new(1)
            .with_stall_window(Duration::from_millis(4))
            .run_tdg_recovering_bounded(
                &tdg,
                &work,
                &RetryPolicy::no_retries(),
                &RunBudget::unbounded(),
            );
        assert_eq!(outcome.stop, StopCause::Completed);
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].unit, 2);
        assert!(matches!(outcome.failures[0].error, TaskError::Stalled(_)));
        assert_eq!(outcome.poisoned_tasks, closure_of(&tdg, &[2]));
    }

    #[test]
    fn fast_payloads_never_trip_the_watchdog() {
        let tdg = layered(16, 8);
        let work = |_t: TaskId, _a: u32| -> Result<(), TaskError> { Ok(()) };
        let outcome = Executor::new(4)
            .with_stall_window(Duration::from_millis(200))
            .run_tdg_recovering_bounded(
                &tdg,
                &work,
                &RetryPolicy::no_retries(),
                &RunBudget::unbounded(),
            );
        assert!(outcome.is_clean(), "got {:?}", outcome.failures);
    }

    /// The watchdog polls at a quarter of its window (here ~9 minutes); a
    /// run that completes must wake it rather than wait out that sleep.
    #[test]
    fn a_long_stall_window_does_not_outlive_the_run() {
        let tdg = layered(16, 8);
        let work = |_t: TaskId, _a: u32| -> Result<(), TaskError> {
            std::thread::sleep(Duration::from_millis(1));
            Ok(())
        };
        let started = Instant::now();
        let outcome = Executor::new(2)
            .with_stall_window(Duration::from_secs(3_600))
            .run_tdg_recovering_bounded(
                &tdg,
                &work,
                &RetryPolicy::no_retries(),
                &RunBudget::unbounded(),
            );
        assert!(outcome.is_clean(), "got {:?}", outcome.failures);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "run took {:?}",
            started.elapsed()
        );
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
