//! An in-tree exhaustive interleaving explorer — a "mini-loom" for the
//! repo's hand-rolled lock-free protocols.
//!
//! # What it does
//!
//! [`explore`] runs a closure (the *harness body*) once per schedule,
//! enumerating by depth-first search every way the bounded instance can
//! execute:
//!
//! * **Thread interleavings.** Inside the body, [`run_threads`] executes a
//!   fixed set of virtual threads under a turn-taking scheduler: exactly one
//!   thread runs at a time and yields at every synchronisation operation
//!   (atomic access, mutex op, tracked-cell access). At each yield the
//!   scheduler's pick of the next runnable thread is a DFS decision point,
//!   optionally pruned by a *preemption bound* (iterative context bounding:
//!   schedules with more than `preemption_bound` switches away from a
//!   still-runnable thread are not explored).
//! * **Weak-memory value choices.** Atomic loads do not simply return the
//!   latest store. Each atomic location keeps its full modification order;
//!   each thread keeps a *view* (a per-location floor into that order) plus
//!   a happens-before vector clock. `Release` stores attach a message
//!   (view + clock) to the store; `Acquire` loads that read such a store
//!   merge the message. A load may read **any** store at or above the
//!   thread's floor — which store it reads is another DFS decision point.
//!   A `Relaxed` load the algorithm relies on for ordering therefore shows
//!   up concretely: some schedule reads the stale value and an assertion or
//!   race check fails, with a replayable trace.
//! * **Race detection on plain data.** [`sync::TrackedCell`] models
//!   non-atomic shared memory. Accesses are checked against the vector
//!   clocks: an unordered write/write or read/write pair is reported as a
//!   data race even if the explored schedule happened to execute them in a
//!   benign order.
//!
//! # Model simplifications (documented, deliberate)
//!
//! * Stores append to a single total modification order per location
//!   (no store-store reordering), as in loom.
//! * RMW operations always read the latest store (true of hardware RMWs;
//!   C11 additionally lets *failed* CAS loads read older values — we do
//!   not model that).
//! * `compare_exchange_weak` never fails spuriously.
//! * `SeqCst` is modelled as `AcqRel` plus merging through one global
//!   view — slightly stronger than C11's SC order. The workspace lint
//!   bans `SeqCst` anyway, so nothing in-tree depends on the difference.
//! * Fences merge through the same global view (over-synchronises;
//!   harnesses must not rely on fence-based protocols).
//!
//! Exploration is *exhaustive relative to the pinned bounds* in
//! [`Bounds`]: every schedule within the preemption bound and schedule cap
//! is visited, and [`Report::exhausted`] says whether the DFS frontier was
//! fully drained.
//!
//! # Replay
//!
//! Every violation carries the decision script that produced it;
//! [`replay`] re-executes exactly that schedule, so a counterexample is a
//! reproducible artifact, not a flaky observation.
//!
//! # Seeded mutations
//!
//! A harness body that calls [`seed`] runs that schedule with one named
//! [`crate::mutant!`] site of the production code swapped for its mutant,
//! so the mutation gate weakens the code that ships, not a copy of it.

pub mod sync;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Sentinel panic payload used to unwind virtual threads on abort. Caught
/// and swallowed by the explorer; never escapes to the caller.
struct ModelAbort;

/// Exploration bounds. Exploration is exhaustive *relative to these*: the
/// report says whether the DFS drained within them.
#[derive(Debug, Clone)]
pub struct Bounds {
    /// Hard cap on explored schedules; hitting it clears
    /// [`Report::exhausted`].
    pub max_schedules: u64,
    /// Per-schedule step cap. Exceeding it is reported as a violation
    /// (`step bound exceeded`) — harness bodies must not contain unbounded
    /// spin loops.
    pub max_steps: u32,
    /// Iterative context bounding: maximum number of switches away from a
    /// still-runnable thread per schedule. `None` explores all
    /// interleavings.
    pub preemption_bound: Option<u32>,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds {
            max_schedules: 1_000_000,
            max_steps: 10_000,
            preemption_bound: None,
        }
    }
}

/// A counterexample: the failed property plus the exact schedule that
/// produced it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What failed (assertion text, race description, or deadlock).
    pub message: String,
    /// The decision script; feed to [`replay`] to reproduce.
    pub decisions: Vec<u32>,
    /// Human-readable event log of the failing schedule.
    pub trace: Vec<String>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "violation: {}", self.message)?;
        writeln!(f, "decisions: {:?}", self.decisions)?;
        writeln!(f, "trace:")?;
        for line in &self.trace {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// Result of an exploration.
#[derive(Debug)]
pub struct Report {
    /// Number of schedules executed.
    pub schedules: u64,
    /// Whether the DFS frontier was fully drained within the bounds (always
    /// `false` when a violation was found — exploration stops at the first
    /// counterexample).
    pub exhausted: bool,
    /// First counterexample found, if any.
    pub violation: Option<Violation>,
    /// Harness coverage counters (see [`count`]), aggregated over all
    /// schedules — lets tests assert that exploration actually reached both
    /// sides of a branch.
    pub counters: BTreeMap<&'static str, u64>,
}

/// One recorded DFS decision.
#[derive(Debug, Clone, Copy)]
struct Decision {
    chosen: u32,
    options: u32,
}

/// Virtual thread run state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Blocked,
    Finished,
}

/// A release message: the publishing thread's view + vector clock at the
/// store.
#[derive(Debug, Clone, Default)]
struct Msg {
    view: Vec<u32>,
    vc: Vec<u64>,
}

fn merge_view(dst: &mut Vec<u32>, src: &[u32]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = (*d).max(s);
    }
}

fn merge_vc(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = (*d).max(s);
    }
}

#[derive(Debug, Clone)]
struct StoreRec {
    value: u64,
    msg: Option<Msg>,
}

#[derive(Debug, Clone, Copy)]
struct Access {
    thread: usize,
    stamp: u64,
}

#[derive(Debug)]
enum Location {
    Atomic {
        name: &'static str,
        stores: Vec<StoreRec>,
    },
    Mutex {
        name: &'static str,
        locked_by: Option<usize>,
        last_msg: Option<Msg>,
    },
    Plain {
        name: &'static str,
        last_write: Option<Access>,
        reads: Vec<Access>,
    },
}

#[derive(Debug)]
struct ThreadState {
    view: Vec<u32>,
    vc: Vec<u64>,
    status: Status,
}

/// Shared exploration state: one instance per [`explore`] call, reset
/// between schedules.
struct Shared {
    // --- per-exploration ---
    script: Vec<u32>,
    counters: BTreeMap<&'static str, u64>,
    max_steps: u32,
    preemption_bound: Option<u32>,
    // --- per-schedule ---
    cursor: usize,
    decisions: Vec<Decision>,
    locations: Vec<Location>,
    threads: Vec<ThreadState>,
    active: Option<usize>,
    prev_active: Option<usize>,
    preemptions: u32,
    in_run: bool,
    steps: u32,
    trace: Vec<String>,
    violation: Option<String>,
    abort: bool,
    /// Global SC view: `SeqCst` operations (and fences) merge through this,
    /// modelling SC as AcqRel-plus-total-order (slightly stronger than C11).
    sc: Msg,
    /// The mutation this schedule was seeded with ([`seed`]).
    mutant: Option<&'static str>,
}

impl Shared {
    fn reset_schedule(&mut self, script: Vec<u32>) {
        self.script = script;
        self.cursor = 0;
        self.decisions.clear();
        self.locations.clear();
        self.threads.clear();
        self.threads.push(ThreadState {
            view: Vec::new(),
            vc: vec![0],
            status: Status::Runnable,
        });
        self.active = None;
        self.prev_active = None;
        self.preemptions = 0;
        self.in_run = false;
        self.steps = 0;
        self.trace.clear();
        self.violation = None;
        self.abort = false;
        self.sc = Msg::default();
        self.mutant = None;
    }

    /// Resolve one DFS decision point with `options` alternatives. Single-
    /// option points are not recorded (they cannot branch).
    fn choose(&mut self, options: usize) -> usize {
        debug_assert!(options >= 1);
        if options == 1 {
            return 0;
        }
        let mut idx = if self.cursor < self.script.len() {
            self.script[self.cursor] as usize
        } else {
            0
        };
        if idx >= options {
            // Only reachable via `replay` with a script that does not match
            // the body; surface it as a violation rather than a panic (a
            // panic here would unwind while holding the explorer lock).
            self.violate(format!(
                "replay script mismatch: decision {} chose {idx} of {options} options",
                self.cursor
            ));
            idx = 0;
        }
        self.cursor += 1;
        self.decisions.push(Decision {
            chosen: idx as u32,
            options: options as u32,
        });
        idx
    }

    fn violate(&mut self, message: String) {
        if self.violation.is_none() {
            self.trace.push(format!("!! {message}"));
            self.violation = Some(message);
        }
        self.abort = true;
    }
}

struct Exploration {
    shared: Mutex<Shared>,
    cv: Condvar,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<(Arc<Exploration>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

fn ctx() -> (Arc<Exploration>, usize) {
    CTX.with(|c| {
        c.borrow()
            .clone()
            .expect("model sync primitive used outside explore()/replay()")
    })
}

struct CtxGuard;

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| *c.borrow_mut() = None);
    }
}

fn set_ctx(e: Arc<Exploration>, vtid: usize) -> CtxGuard {
    CTX.with(|c| *c.borrow_mut() = Some((e, vtid)));
    CtxGuard
}

impl Exploration {
    /// Take the global explorer lock, tolerating poisoning: a panicking
    /// virtual thread must surface as one recorded violation, not cascade
    /// a `PoisonError` into every later lock site and wedge the scope join.
    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Poison-tolerant condvar wait (see [`Self::lock`]).
    fn wait<'a>(&self, guard: MutexGuard<'a, Shared>) -> MutexGuard<'a, Shared> {
        self.cv.wait(guard).unwrap_or_else(|e| e.into_inner())
    }

    /// Run one synchronisation operation for virtual thread `me`: wait for
    /// the turn token, apply `f` under the global lock, release the token.
    fn sync_op<R>(&self, me: usize, f: impl FnOnce(&mut Shared, usize) -> R) -> R {
        let mut shared = self.lock();
        while shared.in_run && shared.active != Some(me) && !shared.abort {
            shared = self.wait(shared);
        }
        if shared.abort {
            drop(shared);
            std::panic::panic_any(ModelAbort);
        }
        shared.steps += 1;
        if shared.steps > shared.max_steps {
            shared.violate("step bound exceeded — unbounded loop in the harness body?".to_string());
        }
        let r = f(&mut shared, me);
        let aborted = shared.abort;
        if shared.active == Some(me) {
            shared.active = None;
        }
        drop(shared);
        self.cv.notify_all();
        if aborted {
            std::panic::panic_any(ModelAbort);
        }
        r
    }

    /// [`Self::sync_op`] for destructors: still turn-gated (so unwinding
    /// from a genuine panic keeps the schedule deterministic) but never
    /// raises [`ModelAbort`] — a panic from a `Drop` impl that runs during
    /// unwinding is a double panic and an immediate process abort. On abort
    /// the operation is skipped; post-abort model state does not matter.
    fn sync_op_in_drop(&self, me: usize, f: impl FnOnce(&mut Shared, usize)) {
        let mut shared = self.lock();
        while shared.in_run && shared.active != Some(me) && !shared.abort {
            shared = self.wait(shared);
        }
        if !shared.abort {
            shared.steps += 1;
            if shared.steps > shared.max_steps {
                shared.violate(
                    "step bound exceeded — unbounded loop in the harness body?".to_string(),
                );
            } else {
                f(&mut shared, me);
            }
        }
        if shared.active == Some(me) {
            shared.active = None;
        }
        drop(shared);
        self.cv.notify_all();
    }

    /// Like [`sync_op`] but retried until `f` reports the thread unblocked
    /// (mutex acquisition).
    fn blocking_op(&self, me: usize, mut f: impl FnMut(&mut Shared, usize) -> bool) {
        loop {
            let acquired = self.sync_op(me, |shared, me| {
                if f(shared, me) {
                    true
                } else {
                    shared.threads[me].status = Status::Blocked;
                    false
                }
            });
            if acquired {
                return;
            }
            // Wait until the scheduler hands us the turn again (we are only
            // made Runnable by the corresponding unlock).
            let mut shared = self.lock();
            while !(shared.abort
                || (shared.active == Some(me) && shared.threads[me].status == Status::Runnable))
            {
                shared = self.wait(shared);
            }
            if shared.abort {
                drop(shared);
                std::panic::panic_any(ModelAbort);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Public harness API
// ---------------------------------------------------------------------------

/// Record a named coverage event; totals across all schedules end up in
/// [`Report::counters`]. Use it to prove exploration reached both sides of
/// a branch (e.g. "consumer admitted the unit" vs "consumer ran early").
pub fn count(name: &'static str) {
    let (e, me) = ctx();
    e.sync_op(me, |shared, _| {
        if shared.violation.is_none() {
            *shared.counters.entry(name).or_insert(0) += 1;
        }
    });
}

/// Model-checked assertion: on failure the current schedule is recorded as
/// a counterexample (message + decisions + trace) and exploration stops.
pub fn check(cond: bool, message: &str) {
    if cond {
        return;
    }
    let (e, me) = ctx();
    e.sync_op(me, |shared, _| {
        shared.violate(format!("assertion failed: {message}"));
    });
}

/// Seed the current schedule with the mutation `name`: from here on,
/// every [`crate::mutant!`] site of that name runs its mutant instead of
/// the shipped code. Call it from the harness body, before
/// [`run_threads`]; each schedule starts unseeded.
pub fn seed(name: &'static str) {
    let (e, _) = ctx();
    e.lock().mutant = Some(name);
}

/// Whether the current schedule was seeded with the mutation `name`
/// ([`seed`]). Not a scheduling point.
pub fn seeded(name: &str) -> bool {
    let (e, _) = ctx();
    let mutant = e.lock().mutant;
    mutant == Some(name)
}

/// Run `bodies` as virtual threads to completion under the exploring
/// scheduler. Must be called from the harness body (virtual thread 0);
/// blocks until every virtual thread finished. Panics (model abort) if the
/// schedule hit a violation, unwinding the harness body.
pub fn run_threads(bodies: Vec<Box<dyn FnOnce() + Send + '_>>) {
    let (e, me) = ctx();
    assert_eq!(me, 0, "run_threads must be called from the harness body");
    let n = bodies.len();
    let first;
    {
        let mut shared = e.lock();
        assert!(!shared.in_run, "nested run_threads is not supported");
        first = shared.threads.len();
        let (view, mut vc) = {
            let t0 = &shared.threads[0];
            (t0.view.clone(), t0.vc.clone())
        };
        vc.resize(first + n, 0);
        shared.threads[0].vc = vc.clone();
        for _ in 0..n {
            shared.threads.push(ThreadState {
                view: view.clone(),
                vc: vc.clone(),
                status: Status::Runnable,
            });
        }
        shared.in_run = true;
    }
    std::thread::scope(|scope| {
        for (i, body) in bodies.into_iter().enumerate() {
            let vtid = first + i;
            let e = Arc::clone(&e);
            scope.spawn(move || {
                let _guard = set_ctx(Arc::clone(&e), vtid);
                let result = catch_unwind(AssertUnwindSafe(body));
                // Exiting is itself a scheduled event: hold out for the turn
                // token so the Finished transition lands at a deterministic
                // point in the decision sequence. Without this the runnable
                // set at later decisions depends on OS timing and recorded
                // scripts do not replay.
                let mut shared = e.lock();
                while shared.active != Some(vtid) && !shared.abort {
                    shared = e.wait(shared);
                }
                if let Err(payload) = result {
                    if !payload.is::<ModelAbort>() {
                        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                            (*s).to_string()
                        } else if let Some(s) = payload.downcast_ref::<String>() {
                            s.clone()
                        } else {
                            "virtual thread panicked".to_string()
                        };
                        shared.violate(format!("thread t{vtid} panicked: {msg}"));
                    }
                }
                shared.threads[vtid].status = Status::Finished;
                if shared.active == Some(vtid) {
                    shared.active = None;
                }
                drop(shared);
                e.cv.notify_all();
            });
        }

        // Coordinator: pick the next thread at every quantum boundary.
        loop {
            let mut shared = e.lock();
            while shared.active.is_some() && !shared.abort {
                shared = e.wait(shared);
            }
            if shared.abort {
                e.cv.notify_all();
                break;
            }
            let runnable: Vec<usize> = (first..first + n)
                .filter(|&t| shared.threads[t].status == Status::Runnable)
                .collect();
            if runnable.is_empty() {
                let unfinished = (first..first + n)
                    .filter(|&t| shared.threads[t].status != Status::Finished)
                    .count();
                if unfinished > 0 {
                    shared.violate(format!("deadlock: {unfinished} thread(s) blocked forever"));
                    e.cv.notify_all();
                }
                break;
            }
            let options: Vec<usize> = match (shared.preemption_bound, shared.prev_active) {
                (Some(bound), Some(prev))
                    if shared.preemptions >= bound && runnable.contains(&prev) =>
                {
                    vec![prev]
                }
                _ => runnable.clone(),
            };
            let tid = options[shared.choose(options.len())];
            if shared.abort {
                e.cv.notify_all();
                break;
            }
            if let Some(prev) = shared.prev_active {
                if prev != tid && runnable.contains(&prev) {
                    shared.preemptions += 1;
                }
            }
            shared.prev_active = Some(tid);
            shared.active = Some(tid);
            drop(shared);
            e.cv.notify_all();
        }
    });
    // Join edge: merge every child's final knowledge into the body thread.
    let mut shared = e.lock();
    for i in first..first + n {
        let (view, vc) = {
            let t = &shared.threads[i];
            (t.view.clone(), t.vc.clone())
        };
        merge_view(&mut shared.threads[0].view, &view);
        merge_vc(&mut shared.threads[0].vc, &vc);
    }
    shared.in_run = false;
    let aborted = shared.abort;
    drop(shared);
    if aborted {
        std::panic::panic_any(ModelAbort);
    }
}

fn run_one_schedule(e: &Arc<Exploration>, script: Vec<u32>, body: &mut dyn FnMut()) {
    e.lock().reset_schedule(script);
    let _guard = set_ctx(Arc::clone(e), 0);
    let result = catch_unwind(AssertUnwindSafe(&mut *body));
    if let Err(payload) = result {
        if !payload.is::<ModelAbort>() {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "harness body panicked".to_string()
            };
            let mut shared = e.lock();
            shared.violate(format!("harness body panicked: {msg}"));
        }
    }
}

fn make_exploration(bounds: &Bounds) -> Arc<Exploration> {
    Arc::new(Exploration {
        shared: Mutex::new(Shared {
            script: Vec::new(),
            counters: BTreeMap::new(),
            max_steps: bounds.max_steps,
            preemption_bound: bounds.preemption_bound,
            cursor: 0,
            decisions: Vec::new(),
            locations: Vec::new(),
            threads: Vec::new(),
            active: None,
            prev_active: None,
            preemptions: 0,
            in_run: false,
            steps: 0,
            trace: Vec::new(),
            violation: None,
            abort: false,
            sc: Msg::default(),
            mutant: None,
        }),
        cv: Condvar::new(),
    })
}

fn harvest(e: &Arc<Exploration>) -> (Option<Violation>, Vec<Decision>) {
    let shared = e.lock();
    let violation = shared.violation.as_ref().map(|message| Violation {
        message: message.clone(),
        decisions: shared.decisions.iter().map(|d| d.chosen).collect(),
        trace: shared.trace.clone(),
    });
    (violation, shared.decisions.clone())
}

/// Explore every schedule of `body` within `bounds` by depth-first search.
///
/// `body` is re-executed once per schedule and must be deterministic given
/// the explorer's decisions (no wall-clock, no OS randomness). Exploration
/// stops at the first violation.
pub fn explore<F: FnMut()>(bounds: &Bounds, mut body: F) -> Report {
    let e = make_exploration(bounds);
    let mut script: Vec<u32> = Vec::new();
    let mut schedules = 0u64;
    let mut exhausted = false;
    let mut violation = None;
    loop {
        run_one_schedule(&e, script.clone(), &mut body);
        schedules += 1;
        let (v, decisions) = harvest(&e);
        if v.is_some() {
            violation = v;
            break;
        }
        // Advance the DFS frontier: bump the deepest unexhausted decision.
        match decisions.iter().rposition(|d| d.chosen + 1 < d.options) {
            Some(i) => {
                script = decisions[..i].iter().map(|d| d.chosen).collect();
                script.push(decisions[i].chosen + 1);
            }
            None => {
                exhausted = true;
                break;
            }
        }
        if schedules >= bounds.max_schedules {
            break;
        }
    }
    let counters = e.lock().counters.clone();
    Report {
        schedules,
        exhausted,
        violation,
        counters,
    }
}

/// The bounds every in-tree harness is explored under: each instance is
/// small enough that these exhaust it.
pub const HARNESS_BOUNDS: Bounds = Bounds {
    max_schedules: 400_000,
    max_steps: 2_000,
    preemption_bound: None,
};

/// Harness assertion: `report` drained its frontier with no violation,
/// and every coverage counter in `reached` fired in some schedule. Prints
/// the schedule count to stderr (shown with `--nocapture`).
///
/// # Panics
///
/// On a violation, a frontier left undrained, or a counter never reached.
pub fn assert_exhausted(report: &Report, reached: &[&str]) {
    eprintln!(
        "explored {} schedule(s), exhausted: {}",
        report.schedules, report.exhausted
    );
    if let Some(v) = &report.violation {
        panic!("unexpected violation:\n{v}");
    }
    assert!(report.exhausted, "must drain the DFS frontier");
    for key in reached {
        assert!(
            report.counters.contains_key(key),
            "{key} never reached: {:?}",
            report.counters
        );
    }
}

/// Mutation-gate assertion: `report` holds a counterexample with a trace,
/// whose message names one of `expected` (any, if empty), and replaying
/// its decisions against `once` reproduces it exactly. Prints the
/// counterexample's message and decision script to stderr.
///
/// # Panics
///
/// When the mutation went uncaught, the message names none of `expected`,
/// or the replay does not reproduce the violation.
pub fn assert_caught(report: Report, expected: &[&str], once: impl FnMut()) {
    let Some(v) = report.violation else {
        panic!("the mutation must yield a counterexample");
    };
    eprintln!(
        "caught after {} schedule(s): {} (decisions {:?})",
        report.schedules, v.message, v.decisions
    );
    assert!(!v.trace.is_empty(), "counterexample carries a trace");
    assert!(
        expected.is_empty() || expected.iter().any(|e| v.message.contains(e)),
        "counterexample should name one of {expected:?}: {}",
        v.message
    );
    let Some(rv) = replay(&v.decisions, once).violation else {
        panic!("replay must reproduce the violation:\n{v}");
    };
    assert_eq!(rv.message, v.message, "replay is deterministic");
}

/// Re-execute exactly one schedule of `body` from a recorded decision
/// script (see [`Violation::decisions`]); returns the violation it
/// reproduces, if any.
pub fn replay<F: FnMut()>(decisions: &[u32], mut body: F) -> Report {
    let bounds = Bounds::default();
    let e = make_exploration(&bounds);
    run_one_schedule(&e, decisions.to_vec(), &mut body);
    let (violation, _) = harvest(&e);
    let counters = e.lock().counters.clone();
    Report {
        schedules: 1,
        exhausted: false,
        violation,
        counters,
    }
}
