//! Running an update, and degrading it gracefully: a dirty cone in id order
//! under a deadline and cancel token — a whole design level by level on
//! owned slabs of a few threads, anything else on the calling thread — or
//! an update through the recovering executor; salvage every timing value
//! outside the poisoned or unfinished region, mark that region unknown, and
//! optionally *heal* — re-run just that region sequentially to converge to
//! the bit-identical fault-free answer.
//!
//! The recovery contract leans on two properties of the engine:
//!
//! * the poisoned task set returned by the executor is the exact forward
//!   closure of the permanently failed tasks, so every salvaged task's
//!   inputs were produced by salvaged tasks — salvaged values are exactly
//!   the fault-free values;
//! * `fprop`/`bprop` fully overwrite everything they produce from upstream
//!   state, so re-running the poisoned tasks in topological order (after
//!   the salvage) converges to the same bits a fault-free run produces.

use crate::analysis::TimingData;
use crate::graph::{bit_is_set, set_bit, NodeId, TimingGraph};
use crate::report::EndpointSummary;
use crate::timer::{ConeBits, DirtyCone, TaskKind, TimingUpdateTdg};
use gpasta_check::mutant;
use gpasta_check::sync::{AtomicU32, AtomicUsize, Mutex, Ordering};
use gpasta_sched::{
    BudgetClock, Executor, FaultPlan, FaultyWork, RetryPolicy, RunBudget, RunOutcome, RunReport,
    StopCause,
};
use gpasta_tdg::{QuotientTdg, TaskId};
use std::ops::Range;
use std::panic::resume_unwind;
use std::thread::{self, Thread};
use std::time::Instant;

/// Result of a recovering timing update: the executor's [`RunOutcome`]
/// plus its projection onto the timing graph.
#[derive(Debug, Clone)]
pub struct RecoveredUpdate {
    /// The executor-level outcome (salvaged/poisoned/unfinished tasks,
    /// failures, retries, stop cause, scheduling report).
    pub outcome: RunOutcome,
    /// Nodes whose forward state (arrival/slew) is poisoned: their fprop
    /// task is in the quarantine. Sorted by node id.
    pub poisoned_fprop_nodes: Vec<NodeId>,
    /// Nodes whose required times are poisoned: their bprop task is in the
    /// quarantine. Sorted by node id.
    pub poisoned_bprop_nodes: Vec<NodeId>,
    /// Endpoints whose slack cannot be trusted (their fprop or bprop task
    /// is poisoned). Sorted, deduplicated.
    pub poisoned_endpoints: Vec<NodeId>,
    /// Nodes whose fprop task was never admitted because the run stopped
    /// early (deadline or cancellation). Disjoint from the poisoned set.
    /// Sorted by node id.
    pub unfinished_fprop_nodes: Vec<NodeId>,
    /// Nodes whose bprop task was never admitted. Sorted by node id.
    pub unfinished_bprop_nodes: Vec<NodeId>,
    /// Endpoints whose slack is stale because a task feeding it was never
    /// admitted. Sorted, deduplicated.
    pub unfinished_endpoints: Vec<NodeId>,
}

impl RecoveredUpdate {
    /// `true` when nothing failed *and* the run ran to completion: every
    /// value is the fault-free value.
    pub fn is_clean(&self) -> bool {
        self.outcome.is_clean()
    }
}

/// Project an executor outcome onto the timing graph: split the poisoned
/// and unfinished task sets by propagation direction and collect the
/// affected endpoints. `decode` names a task's `(kind, node)` in whichever
/// id space the run was dispatched in.
fn project(
    graph: &TimingGraph,
    outcome: RunOutcome,
    decode: impl Fn(u32) -> (TaskKind, NodeId),
) -> RecoveredUpdate {
    let split = |tasks: &[u32]| {
        let mut fprop = Vec::new();
        let mut bprop = Vec::new();
        let mut endpoints = Vec::new();
        for &t in tasks {
            let (kind, v) = decode(t);
            match kind {
                TaskKind::Fprop => fprop.push(v),
                TaskKind::Bprop => bprop.push(v),
            }
            if graph.is_endpoint(v) {
                endpoints.push(v);
            }
        }
        fprop.sort_unstable_by_key(|v| v.0);
        bprop.sort_unstable_by_key(|v| v.0);
        endpoints.sort_unstable_by_key(|v| v.0);
        endpoints.dedup();
        (fprop, bprop, endpoints)
    };
    let (poisoned_fprop_nodes, poisoned_bprop_nodes, poisoned_endpoints) =
        split(&outcome.poisoned_tasks);
    let (unfinished_fprop_nodes, unfinished_bprop_nodes, unfinished_endpoints) =
        split(&outcome.unfinished_tasks);
    RecoveredUpdate {
        outcome,
        poisoned_fprop_nodes,
        poisoned_bprop_nodes,
        poisoned_endpoints,
        unfinished_fprop_nodes,
        unfinished_bprop_nodes,
        unfinished_endpoints,
    }
}

/// Store NaN into every poisoned *and unfinished* value of `rec`: arrival
/// and slew for affected fprop nodes, required times for affected bprop
/// nodes. Salvaged values are untouched.
fn mark_unknown(data: &TimingData, rec: &RecoveredUpdate) {
    for nodes in [&rec.poisoned_fprop_nodes, &rec.unfinished_fprop_nodes] {
        for &v in nodes {
            data.mark_arrival_unknown(v);
        }
    }
    for nodes in [&rec.poisoned_bprop_nodes, &rec.unfinished_bprop_nodes] {
        for &v in nodes {
            data.mark_required_unknown(v);
        }
    }
}

/// An in-order run polls its budget before every `POLL`-th task it
/// executes: at 110–150 ns a task, one clock read per ≈ 30 µs of work, and
/// a stop that comes about that soon after it is due.
const POLL: usize = 256;

/// Why an in-order run stopped early, and the first task (by full-space
/// id) it did not finish.
type Stop = Option<(StopCause, u32)>;

/// Whether an in-order run that has executed `executed` tasks may run task
/// `id` next. Once the budget has tripped, `stop` holds why and where.
#[inline]
fn admit(clock: &BudgetClock, executed: usize, id: u32, stop: &mut Stop) -> bool {
    if stop.is_none() && executed.is_multiple_of(POLL) {
        *stop = clock.poll().map(|cause| (cause, id));
    }
    stop.is_none()
}

/// Run `cone` through `payload` under `budget`'s deadline and cancel token:
/// a whole-design cone by [`sweep_levels`] on `threads` threads (on one,
/// front to back on the calling thread), a partial one by [`run_changed`].
/// A run that stops before task `t` leaves the cone's ids `≥ t` unfinished
/// and every other task exact; that suffix is successor-closed, because
/// every dependency goes up in id. A payload panic unwinds through here.
fn run_in_order(
    cone: &DirtyCone<'_>,
    payload: impl Fn(TaskId) + Sync,
    threads: usize,
    budget: &RunBudget,
) -> RecoveredUpdate {
    let start = Instant::now();
    let clock = budget.start();
    let mut bits = cone.bits.lock();
    let partial = !bits.seeds.is_empty();
    let threads = if cone.whole { threads.max(1) } else { 1 };
    let (executed, stop) = if partial {
        run_changed(cone, &mut bits, &payload, &clock)
    } else if threads > 1 {
        sweep_levels(cone.graph(), &payload, threads, &clock)
    } else {
        // The whole design's ids, or none.
        let (ids, mut ran, mut stop) = (0..cone.num_tasks() as u32, 0, None);
        for lo in ids.clone().step_by(POLL) {
            if let Some(cause) = clock.poll() {
                stop = Some((cause, lo));
                break;
            }
            let chunk = lo..ids.end.min(lo + POLL as u32);
            ran += chunk.len();
            chunk.for_each(|id| payload(TaskId(id)));
        }
        (ran, stop)
    };
    drop(bits);
    // The referee of every skip: the whole cone stores the bits it finds.
    if partial && stop.is_none() && cfg!(debug_assertions) {
        let settled = cone.snapshot();
        cone.ids().iter().for_each(|&id| payload(TaskId(id)));
        debug_assert!(settled == cone.snapshot(), "a skipped task was due");
    }
    let (stop, unfinished) = match stop {
        None => (StopCause::Completed, Vec::new()),
        Some((cause, t)) if cone.whole => (cause, (t..cone.num_tasks() as u32).collect()),
        Some((cause, t)) => {
            let ids = cone.ids();
            (cause, ids[ids.partition_point(|&id| id < t)..].to_vec())
        }
    };
    let outcome = RunOutcome {
        report: RunReport {
            elapsed: start.elapsed(),
            tasks_executed: executed,
            dispatches: 0,
            num_workers: threads,
        },
        salvaged_tasks: cone.num_tasks() - unfinished.len(),
        poisoned_tasks: Vec::new(),
        poisoned_units: Vec::new(),
        unfinished_units: unfinished.clone(),
        unfinished_tasks: unfinished,
        failures: Vec::new(),
        retries: 0,
        stop,
    };
    project(cone.graph(), outcome, |id| cone.decode(id))
}

/// Run the whole design of `graph` on `threads` threads, level by level:
/// the fprop levels ascending, then the bprop levels descending. Each is
/// one contiguous range of task ids, and together they run in the order of
/// the one-thread loop; no arc joins two nodes of a level, so a level's
/// tasks are independent. Each level is cut into `threads` owned slabs
/// `[lo + len·k/T, lo + len·(k+1)/T)`; the caller runs slab 0 and `T − 1`
/// scoped helpers the others, with a [`LevelBarrier`] between levels. The
/// caller polls the budget once per level and publishes a stop through the
/// barrier, so a run stopped before level `i` has run exactly the ids below
/// its first. The bits are those of the one-thread loop: every task reads
/// only what earlier levels wrote.
///
/// A panicking slab latches the barrier's stop, so no thread waits for it;
/// the caller joins the helpers and re-raises a helper's panic, so the
/// payload's panic reaches the caller as it does from the one-thread loop.
fn sweep_levels(
    graph: &TimingGraph,
    payload: &(impl Fn(TaskId) + Sync),
    threads: usize,
    clock: &BudgetClock,
) -> (usize, Stop) {
    let off = graph.level_offsets();
    let (depth, top) = (off.len() - 1, 2 * graph.num_nodes() as u32);
    // Level `i` as task ids: fprop level `i`, then bprop level `2·depth − 1 − i`.
    let level = |i: usize| match i.checked_sub(depth) {
        None => off[i]..off[i + 1],
        Some(j) => top - off[depth - j]..top - off[depth - 1 - j],
    };
    let slab = |k: usize, i: usize| {
        let ids = level(i);
        let cut = |k: usize| ids.start + (ids.len() * k / threads) as u32;
        cut(k)..cut(k + 1)
    };
    let run = |ids: Range<u32>| ids.for_each(|id| payload(TaskId(id)));
    if let Some(cause) = clock.poll() {
        return (0, Some((cause, 0)));
    }
    let barrier = LevelBarrier::new(threads);
    // Slab `k` of every level; the caller's (`k == 0`) polls the budget.
    let part = |k: usize| {
        let _latch = barrier.enter();
        let mut stop = None;
        for i in 0..2 * depth {
            if i > 0 {
                if let Some(cause) = (k == 0).then(|| clock.poll()).flatten() {
                    stop = Some((cause, level(i).start));
                    barrier.stop_before(i);
                }
                if barrier.wait(i) {
                    break;
                }
            }
            run(slab(k, i));
        }
        stop
    };
    thread::scope(|scope| {
        let part = &part;
        let helpers: Vec<_> = (1..threads).map(|k| scope.spawn(move || part(k))).collect();
        let stop = part(0);
        for helper in helpers {
            if let Err(panic) = helper.join() {
                resume_unwind(panic);
            }
        }
        let executed = stop.map_or(top, |(_, t)| t) as usize;
        (executed, stop)
    })
}

/// How many times a thread at a [`LevelBarrier`] spins before it parks: a
/// few microseconds, about what slabs of one level differ by, and short
/// enough that a waiter whose partner was descheduled gives its core back.
const SPINS: u32 = 256;

/// The barrier between the levels of a [`sweep_levels`] run, on the
/// `gpasta_check::sync` atomics: each thread counts itself in; the last to
/// arrive resets the count, advances the generation (`Release`) and
/// unparks the others, which spin briefly on the generation (`Acquire`) and
/// then park. A stop names the first level no thread starts — the caller's
/// budget stop the next one, an unwinding thread level 0 — and releases
/// every thread waiting to start that level or a later one.
struct LevelBarrier {
    threads: usize,
    arrived: AtomicUsize,
    generation: AtomicU32,
    /// The first level not to start; `u32::MAX` while the run goes on.
    stop_at: AtomicU32,
    /// The threads that may park here, to unpark.
    waiters: Mutex<Vec<Thread>>,
}

/// A thread's stake in a [`LevelBarrier`]: latches its stop if the thread
/// unwinds, so no other thread waits for it forever.
struct Latch<'b>(&'b LevelBarrier);

impl Drop for Latch<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.stop_before(0);
        }
    }
}

impl LevelBarrier {
    fn new(threads: usize) -> Self {
        LevelBarrier {
            threads,
            arrived: AtomicUsize::new(0),
            generation: AtomicU32::new(0),
            stop_at: AtomicU32::new(u32::MAX),
            waiters: Mutex::new(Vec::with_capacity(threads)),
        }
    }

    /// Register the calling thread before it first waits: a release that
    /// takes the list after this sees the thread, and one that took it
    /// before happened before this, so the thread's own check sees it.
    fn enter(&self) -> Latch<'_> {
        self.waiters.lock().push(thread::current());
        Latch(self)
    }

    /// Count the calling thread in: `None` if it was the last and released
    /// the others, else the generation to wait past. Everything a thread
    /// did before it arrived happens before everything any thread does
    /// after it is released.
    fn arrive(&self) -> Option<u32> {
        // This round cannot end before this thread arrives: the generation
        // read here is the round's.
        let generation = self.generation.load(Ordering::Relaxed);
        // hb: level-barrier
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 < self.threads {
            return Some(generation);
        }
        self.arrived.store(0, Ordering::Relaxed);
        // hb: level-barrier
        let order = mutant!(
            "level-release-relaxed",
            Ordering::Release,
            Ordering::Relaxed
        );
        self.generation.store(generation.wrapping_add(1), order);
        None
    }

    /// Whether the run stops before `level`.
    fn stops_before(&self, level: usize) -> bool {
        self.stop_at.load(Ordering::Acquire) as usize <= level // hb: sweep-stop
    }

    /// Whether a thread waiting past `generation` to start `level` may go
    /// on: the round ended, or the run stops before `level`.
    fn released(&self, generation: u32, level: usize) -> bool {
        self.generation.load(Ordering::Acquire) != generation // hb: level-barrier
            || self.stops_before(level)
    }

    /// Wait until every thread has finished the level before `level`, or
    /// the run stops before `level`; returns whether it does.
    fn wait(&self, level: usize) -> bool {
        match self.arrive() {
            None => self.unpark_others(),
            Some(generation) => {
                let mut spins = 0;
                while !self.released(generation, level) {
                    if spins < SPINS {
                        spins += 1;
                        std::hint::spin_loop();
                    } else {
                        thread::park();
                    }
                }
            }
        }
        self.stops_before(level)
    }

    /// Start no level from `level` on (an earlier stop stands), and release
    /// every waiter.
    fn stop_before(&self, level: usize) {
        let level = level.min(u32::MAX as usize) as u32;
        self.stop_at.fetch_min(level, Ordering::Release); // hb: sweep-stop
        self.unpark_others();
    }

    fn unpark_others(&self) {
        let me = thread::current().id();
        for waiter in self.waiters.lock().iter().filter(|t| t.id() != me) {
            waiter.unpark();
        }
    }
}

/// Exhaustive model-check harness for the [`LevelBarrier`]'s arrive and
/// release step, driving the shipped functions. Run with
/// `RUSTFLAGS="--cfg gpasta_model_check" cargo test -p gpasta-sta --lib
/// model_check`.
#[cfg(all(test, gpasta_model_check))]
mod model_check {
    use super::*;
    use gpasta_check::model::sync::TrackedCell;
    use gpasta_check::model::{
        assert_caught, assert_exhausted, check, count, explore, run_threads, seed, Report,
        HARNESS_BOUNDS,
    };

    /// One thread's part of a level of two slabs: write its slab, arrive,
    /// and once released — by arriving last, or by finding the generation
    /// moved on its one look — read what the other slab wrote.
    fn slab(barrier: &LevelBarrier, mine: &TrackedCell<u32>, other: &TrackedCell<u32>, id: u32) {
        mine.write(id);
        let released = match barrier.arrive() {
            None => {
                count("arrived-last");
                true
            }
            Some(generation) => barrier.released(generation, 1),
        };
        if released {
            count("released");
            check(
                other.read() == 1 - id,
                "a slab of the next level reads what the last level wrote",
            );
        }
    }

    /// One execution of the two-slab instance. `mutant` seeds a production
    /// mutation.
    fn level_once(mutant: Option<&'static str>) {
        if let Some(name) = mutant {
            seed(name);
        }
        let barrier = LevelBarrier::new(2);
        let slab0 = TrackedCell::named("slab0", u32::MAX);
        let slab1 = TrackedCell::named("slab1", u32::MAX);
        let (b, s0, s1) = (&barrier, &slab0, &slab1);
        run_threads(vec![
            Box::new(move || slab(b, s0, s1, 0)),
            Box::new(move || slab(b, s1, s0, 1)),
        ]);
        check(
            barrier.arrived.load(Ordering::Relaxed) == 0,
            "the last arrival resets the count for the next level",
        );
    }

    fn level(mutant: Option<&'static str>) -> Report {
        explore(&HARNESS_BOUNDS, || level_once(mutant))
    }

    #[test]
    fn level_barrier_exhaustive_no_violation() {
        assert_exhausted(&level(None), &["arrived-last", "released"]);
    }

    #[test]
    fn level_release_mutation_caught_with_replayable_trace() {
        assert_caught(level(Some("level-release-relaxed")), &["race"], || {
            level_once(Some("level-release-relaxed"))
        });
    }
}

/// Run only what changed: the two sweeps of cone discovery, reaching a
/// task's neighbours only if it stored a different bit than it found. So a
/// task runs if its node is a seed or an input of it changed — for fprop a
/// fan-in's arrival or slew; for bprop a fan-out's required time, or a
/// fan-out's fprop having changed its arrival, its slew or a delay it
/// caches on its fan-in arcs. A seed counts as changed whatever it stores:
/// what the edit wrote (a net's delay and load, a drive, a port constraint)
/// is read by the seed's tasks *and its neighbours'*, and is not a value
/// compared here. Sound because, on entry, every other node's stored
/// values are the function of its stored inputs (DESIGN.md §8). Bit
/// patterns compare: an unknown (NaN) equals itself, `-0.0` is not `0.0`.
///
/// Every endpoint whose fprop ran is noted in `bits.endpoints`, for
/// [`DirtyCone::point_update`] to re-read: ran, not changed — the slack is
/// compared there, once, instead of eight stored values here. The forward
/// sweep's note covers the backward sweep: an endpoint has no fan-out, so its
/// bprop runs only as a seed, and a seed's fprop runs too. Mutation
/// `fed-if-stored` (note an endpoint only `if found != data.fprop_bits(v)`)
/// fails `an_output_delay_alone_reruns_the_backward_cone`.
///
/// Returns the number of tasks executed and where the budget stopped the
/// run, if it did; either way both sweep bitsets are left all zero.
fn run_changed(
    cone: &DirtyCone<'_>,
    bits: &mut ConeBits,
    payload: &impl Fn(TaskId),
    clock: &BudgetClock,
) -> (usize, Stop) {
    let ConeBits {
        seeds,
        f,
        b,
        arcs,
        endpoints,
    } = bits;
    endpoints.clear();
    let (graph, data) = (cone.graph(), cone.data());
    let soa = cone.arc_soa();
    let is_seed = |v| bit_is_set(seeds, v);
    let delays = |v| graph.fanin(v).map(|a| data.arc_delay_bits(a));
    f.copy_from_slice(seeds);
    b.copy_from_slice(seeds);
    let (mut executed, mut stop) = (0, None);
    graph.sweep::<true>(soa, f, |id| {
        if !admit(clock, executed, id, &mut stop) {
            return false;
        }
        let v = NodeId(id);
        let found = data.fprop_bits(v);
        arcs.clear();
        arcs.extend(delays(v));
        payload(TaskId(id));
        executed += 1;
        endpoints.extend(graph.endpoint_index(v));
        let moved = is_seed(id) || found != data.fprop_bits(v);
        if moved || delays(v).ne(arcs.iter().copied()) {
            graph.preds(soa, v).iter().for_each(|&u| set_bit(b, u));
        }
        moved
    });
    if stop.is_some() {
        // The backward sweep never starts: clear what the forward one set.
        b.fill(0);
        return (executed, stop);
    }
    let top = 2 * graph.num_nodes() as u32 - 1;
    graph.sweep::<false>(soa, b, |id| {
        if !admit(clock, executed, top - id, &mut stop) {
            return false;
        }
        let v = NodeId(id);
        let found = data.required_bits(v);
        payload(TaskId(top - id));
        executed += 1;
        is_seed(id) || found != data.required_bits(v)
    });
    (executed, stop)
}

impl DirtyCone<'_> {
    /// Run this cone unscheduled, on the calling thread, in ascending
    /// full-space id — a topological order of the cone (see [`DirtyCone`]),
    /// so no dependency graph, quotient or executor is involved — and
    /// return the number of tasks executed: all
    /// [`num_tasks`](DirtyCone::num_tasks) of a whole-design cone, and of a
    /// partial one only the tasks a changed value reaches, which assumes
    /// the timing state was consistent before the edits (as it is after any
    /// completed update or restore). Bit-identical to any scheduled run of
    /// the same cone; debug builds then run every task and assert that.
    ///
    /// # Panics
    ///
    /// A payload panic unwinds to the caller with the tasks after it not
    /// run. The timing values are then those of a half-run update, which no
    /// dirty set describes: the timer is to be discarded, as a `Session`
    /// is by crash-only recovery.
    pub fn run_in_order(&self) -> usize {
        let rec = self.run_bounded(1, &RunBudget::unbounded());
        rec.outcome.report.tasks_executed
    }

    /// [`run_in_order`](DirtyCone::run_in_order) under `budget`'s deadline
    /// and cancel token, with a whole-design cone on `threads` threads. On
    /// the calling thread — a partial cone, or `threads ≤ 1` — the budget
    /// is polled before every 256th task executed. A whole design on more
    /// threads runs level by level: each fprop level, then each bprop
    /// level, cut into `threads` owned slabs with a barrier between levels,
    /// bit-identical to the one-thread run, polled once per level. A run
    /// that stops before the cone task `t` reports the cone's ids `≥ t` as
    /// unfinished: a successor-closed set, since every dependency goes up
    /// in id, and every value outside it is exact. Nothing is ever
    /// poisoned, `outcome.report.tasks_executed` counts the tasks whose
    /// payload ran, and `outcome.report.num_workers` the threads. Panics
    /// like [`run_in_order`](DirtyCone::run_in_order), once every thread
    /// has stopped.
    pub fn run_bounded(&self, threads: usize, budget: &RunBudget) -> RecoveredUpdate {
        run_in_order(self, self.task_fn(), threads, budget)
    }

    /// After a [`run_in_order`](DirtyCone::run_in_order) that completed:
    /// bring `summary` — the late-mode summary of the design as it
    /// stood before that run — up to date by re-reading the slack of the
    /// endpoints a task ran on (nothing else writes an endpoint's arrival or
    /// required time) and
    /// [`set`](EndpointSummary::set)ting those that moved. Returns `false`,
    /// with `summary` untouched, if the run was of a whole-design cone and
    /// kept no such list: every endpoint may have moved.
    pub fn point_update(&self, summary: &mut EndpointSummary) -> bool {
        let bits = self.bits.lock();
        if bits.seeds.is_empty() {
            return false;
        }
        for &i in &bits.endpoints {
            let v = NodeId(self.graph().endpoints()[i as usize]);
            summary.set(i as usize, self.data().slack_late(v));
        }
        true
    }

    /// Whether both sweep bitsets are all zero, as discovery and every run
    /// leave them.
    #[doc(hidden)]
    pub fn sweep_bits_are_zero(&self) -> bool {
        let bits = self.bits.lock();
        bits.f.iter().chain(&bits.b).all(|&w| w == 0)
    }

    /// Run this cone through the recovering executor, dispatching the nodes
    /// of `quotient` — a quotient whose members are this cone's full-space
    /// ids, i.e. one built over the full-space TDG restricted to
    /// [`ids`](DirtyCone::ids). Faults, budget and the returned
    /// [`RecoveredUpdate`] are exactly as for
    /// [`TimingUpdateTdg::run_partitioned_recovering_bounded`].
    pub fn run_partitioned_recovering_bounded(
        &self,
        exec: &Executor,
        quotient: &QuotientTdg,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        budget: &RunBudget,
    ) -> RecoveredUpdate {
        let payload = self.task_fn();
        let work = FaultyWork::new(&payload, plan);
        let outcome = exec.run_partitioned_recovering_bounded(quotient, &work, policy, budget);
        project(self.graph(), outcome, |id| self.decode(id))
    }

    /// Degrade explicitly, as [`TimingUpdateTdg::mark_unknown`].
    pub fn mark_unknown(&self, rec: &RecoveredUpdate) {
        mark_unknown(self.data(), rec);
    }
}

impl<'a> TimingUpdateTdg<'a> {
    /// Run this update through the recovering executor with faults drawn
    /// from `plan` (use [`FaultPlan::none`] in production for a
    /// fault-transparent run) under `budget` (use [`RunBudget::unbounded`]
    /// to run to completion). Never unwinds: failures are contained to
    /// their forward closure and reported in the returned
    /// [`RecoveredUpdate`]; when `budget` expires (deadline or
    /// cancellation) the run stops admitting tasks and the forward closure
    /// of everything unadmitted is reported as *unfinished*. Every other
    /// timing value is salvaged — it carries its exact fault-free value, so
    /// a later [`heal`](TimingUpdateTdg::heal) converges to the
    /// bit-identical complete answer.
    pub fn run_recovering_bounded(
        &self,
        exec: &Executor,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        budget: &RunBudget,
    ) -> RecoveredUpdate {
        let payload = self.task_fn();
        let work = FaultyWork::new(&payload, plan);
        let outcome = exec.run_tdg_recovering_bounded(self.tdg(), &work, policy, budget);
        self.project(outcome)
    }

    /// Partitioned variant of
    /// [`run_recovering_bounded`](TimingUpdateTdg::run_recovering_bounded):
    /// dispatches `quotient` nodes, so a failure quarantines the whole
    /// partition plus its quotient-graph forward closure, and the budget is
    /// polled at partition boundaries (the stop latency is one partition's
    /// worth of propagation work). `quotient` must be built over this
    /// update's TDG.
    pub fn run_partitioned_recovering_bounded(
        &self,
        exec: &Executor,
        quotient: &QuotientTdg,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        budget: &RunBudget,
    ) -> RecoveredUpdate {
        let payload = self.task_fn();
        let work = FaultyWork::new(&payload, plan);
        let outcome = exec.run_partitioned_recovering_bounded(quotient, &work, policy, budget);
        self.project(outcome)
    }

    fn project(&self, outcome: RunOutcome) -> RecoveredUpdate {
        project(self.graph(), outcome, |t| {
            (self.kind(TaskId(t)), self.node(TaskId(t)))
        })
    }

    /// Degrade explicitly: store NaN into every poisoned *and unfinished*
    /// value so reports show *unknown* instead of a stale-but-plausible
    /// number. Arrival and slew are marked for affected fprop nodes,
    /// required times for affected bprop nodes. Salvaged values are
    /// untouched.
    ///
    /// A subsequent [`heal`](TimingUpdateTdg::heal) overwrites the NaNs
    /// with the converged values.
    pub fn mark_unknown(&self, rec: &RecoveredUpdate) {
        mark_unknown(self.data(), rec);
    }

    /// Re-run exactly the degraded region — the poisoned cone plus the
    /// unfinished closure of an early-stopped run — sequentially
    /// (fault-free), in topological order, converging the whole design to
    /// the bit-identical fault-free answer: the salvaged region is already
    /// exact, and propagation tasks rebuild everything they produce from
    /// upstream state. Returns the number of tasks re-executed.
    pub fn heal(&self, rec: &RecoveredUpdate) -> usize {
        if rec.outcome.poisoned_tasks.is_empty() && rec.outcome.unfinished_tasks.is_empty() {
            return 0;
        }
        let mut rerun = vec![false; self.tdg().num_tasks()];
        for &t in rec
            .outcome
            .poisoned_tasks
            .iter()
            .chain(&rec.outcome.unfinished_tasks)
        {
            rerun[t as usize] = true;
        }
        let mut healed = 0usize;
        for &t in self.tdg().levels().order() {
            if rerun[t as usize] {
                self.execute_task(TaskId(t));
                healed += 1;
            }
        }
        healed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{CellKind, CellLibrary};
    use crate::netlist::NetlistBuilder;
    use crate::timer::Timer;
    use gpasta_sched::FaultKind;
    use proptest::prelude::prop_assert;
    use proptest::prop_assert_eq;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    /// How many tasks an unbounded in-order run of `cone` executes.
    fn executed(cone: &DirtyCone<'_>, payload: impl Fn(TaskId) + Sync) -> usize {
        let rec = run_in_order(cone, payload, 1, &RunBudget::unbounded());
        rec.outcome.report.tasks_executed
    }

    /// A small multi-cone design: two mostly-independent chains sharing
    /// the input stage, so one cone can be poisoned while the other is
    /// salvaged.
    fn two_cone_timer() -> Timer {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let b = nb.add_primary_input("b");
        let y0 = nb.add_primary_output("y0");
        let y1 = nb.add_primary_output("y1");
        let mut prev0 = None;
        let mut prev1 = None;
        for i in 0..4 {
            let g0 = nb.add_gate(format!("u0_{i}"), CellKind::Inv);
            let g1 = nb.add_gate(format!("u1_{i}"), CellKind::Buf);
            match prev0 {
                None => nb.connect_to_gate(a, g0, 0).expect("valid"),
                Some(p) => nb.connect_gates(p, g0, 0).expect("valid"),
            }
            match prev1 {
                None => nb.connect_to_gate(b, g1, 0).expect("valid"),
                Some(p) => nb.connect_gates(p, g1, 0).expect("valid"),
            }
            prev0 = Some(g0);
            prev1 = Some(g1);
        }
        nb.connect_to_output(prev0.expect("built"), y0)
            .expect("valid");
        nb.connect_to_output(prev1.expect("built"), y1)
            .expect("valid");
        Timer::new(nb.build().expect("well-formed"), CellLibrary::typical())
    }

    /// Bit-exact snapshot of every endpoint's late slack.
    fn slack_bits(timer: &Timer) -> Vec<u32> {
        timer
            .graph()
            .endpoints()
            .iter()
            .map(|&v| timer.data().slack_late(NodeId(v)).to_bits())
            .collect()
    }

    #[test]
    fn clean_plan_recovers_everything() {
        let mut timer = two_cone_timer();
        let update = timer.update_timing();
        let rec = update.run_recovering_bounded(
            &Executor::new(2),
            &FaultPlan::none(),
            &RetryPolicy::default(),
            &RunBudget::unbounded(),
        );
        assert!(rec.is_clean());
        assert_eq!(rec.outcome.salvaged_tasks, update.tdg().num_tasks());
        assert!(rec.poisoned_endpoints.is_empty());
        drop(update);
        assert!(timer.report(1).wns_ps.is_finite());
    }

    #[test]
    fn poisoned_cone_is_contained_and_marked_unknown() {
        // Reference: fault-free run.
        let mut ref_timer = two_cone_timer();
        let ref_update = ref_timer.update_timing();
        ref_update.run_sequential();
        drop(ref_update);
        let reference = slack_bits(&ref_timer);

        let mut timer = two_cone_timer();
        let update = timer.update_timing();
        // Poison the fprop of the first cone's second gate output — found
        // by walking tasks for a node on cone 0.
        let seed_task = (0..update.num_fprop_tasks() as u32)
            .map(TaskId)
            .find(|&t| {
                !update.graph().fanin(update.node(t)).is_empty()
                    && !update.graph().is_endpoint(update.node(t))
            })
            .expect("an interior fprop task exists");
        let plan = FaultPlan::none().inject(seed_task.0, 0, FaultKind::WrongResult);
        let rec = update.run_recovering_bounded(
            &Executor::new(2),
            &plan,
            &RetryPolicy::no_retries(),
            &RunBudget::unbounded(),
        );
        assert!(!rec.is_clean());
        assert!(!rec.poisoned_endpoints.is_empty(), "cone reaches endpoints");
        assert!(
            rec.poisoned_endpoints.len() < update.graph().endpoints().len(),
            "the other cone's endpoints are salvaged"
        );
        update.mark_unknown(&rec);
        let data = update.data();
        for &v in &rec.poisoned_fprop_nodes {
            assert!(data.is_unknown(v), "poisoned node {v:?} must read unknown");
        }
        drop(update);
        // Salvaged endpoints carry the bit-exact fault-free slack.
        let damaged = slack_bits(&timer);
        let poisoned: Vec<u32> = rec.poisoned_endpoints.iter().map(|v| v.0).collect();
        for (i, &v) in timer.graph().endpoints().iter().enumerate() {
            if poisoned.contains(&v) {
                assert!(
                    f32::from_bits(damaged[i]).is_nan(),
                    "poisoned endpoint {v} must be unknown"
                );
            } else {
                assert_eq!(damaged[i], reference[i], "salvaged endpoint {v}");
            }
        }
    }

    #[test]
    fn in_order_run_of_a_cone_matches_the_sequential_run() {
        let mut ref_timer = two_cone_timer();
        let mut timer = two_cone_timer();
        for t in [&mut ref_timer, &mut timer] {
            t.update_timing().run_sequential();
            t.repower_gate(crate::GateId(2), 4.0);
        }
        ref_timer.update_timing().run_sequential();
        let cone = timer.dirty_cone();
        assert!(cone.num_tasks() < 2 * cone.graph().num_nodes(), "a cone");
        let executed = cone.run_in_order();
        assert!(0 < executed && executed <= cone.num_tasks());
        assert!(cone.sweep_bits_are_zero());
        drop(cone);
        assert!(timer.snapshot() == ref_timer.snapshot());
    }

    /// Settle `make()` and a twin, apply `edit` to both, run the twin's
    /// update TDG sequentially and the timer's cone in order: the same bits
    /// everywhere, and the settled design's endpoint summary, point-updated
    /// by the cone, is the summary of the new values. Returns the timer and
    /// `(executed, structural)`.
    fn in_order_against_a_twin(
        make: fn() -> Timer,
        edit: impl Fn(&mut Timer),
    ) -> (Timer, usize, usize) {
        let (mut timer, mut twin) = (make(), make());
        for t in [&mut timer, &mut twin] {
            t.update_timing().run_sequential();
            edit(t);
        }
        twin.update_timing().run_sequential();
        let mut summary = timer.endpoint_summary();
        let cone = timer.dirty_cone();
        let structural = cone.num_tasks();
        let executed = cone.run_in_order();
        assert!(cone.sweep_bits_are_zero());
        assert!(cone.point_update(&mut summary), "a partial cone");
        drop(cone);
        assert!(
            timer.snapshot() == twin.snapshot(),
            "a skipped task was due"
        );
        assert!(
            summary == twin.endpoint_summary(),
            "an endpoint that moved was not re-read"
        );
        (timer, executed, structural)
    }

    /// The net driven by `pin`.
    fn net_of(timer: &Timer, pin: crate::PinRef) -> u32 {
        let nets = timer.netlist().nets();
        nets.iter().position(|n| n.driver == pin).expect("driven") as u32
    }

    // Mutation `seed-compared` (a seed's stored bits decide like any other
    // task's: drop `is_seed(r) ||` from both sweeps) fails this test.
    #[test]
    fn a_net_edit_on_a_primary_input_reaches_the_sinks_of_the_net() {
        let a = crate::PortId(0);
        let (timer, executed, structural) = in_order_against_a_twin(two_cone_timer, |t| {
            t.set_net_cap(net_of(t, crate::PinRef::PrimaryInput(a)), 35.0)
        });
        assert!(executed < structural, "{executed} of {structural}");
        assert!(
            structural < 2 * timer.graph().num_nodes(),
            "one cone of two"
        );
        // The premise: the input's own arrival and slew did not move.
        let mut settled = two_cone_timer();
        settled.update_timing().run_sequential();
        let port = timer.graph().input_node(a);
        assert_eq!(
            timer.data().fprop_bits(port),
            settled.data().fprop_bits(port)
        );
    }

    // Mutation `seed-forward-only` (`b` starts empty instead of as a copy
    // of the seeds) fails this test. The slack that moves here moves with a
    // required time alone; the output is re-read because its fprop, a
    // seed's, ran — storing what it found.
    #[test]
    fn an_output_delay_alone_reruns_the_backward_cone() {
        let (mut timer, executed, structural) = in_order_against_a_twin(two_cone_timer, |t| {
            t.set_output_delay(crate::PortId(1), 120.0)
        });
        // fprop of the output stores what it found; every bprop up its
        // chain stores a new required time.
        let chain = structural - 1;
        assert_eq!(executed, structural, "1 fprop + {chain} bprop tasks");
        let before = timer.report(1);
        timer.set_output_delay(crate::PortId(1), 0.0);
        timer.dirty_cone().run_in_order();
        assert!(timer.report(1).wns_ps > before.wns_ps, "the margin is back");
    }

    /// `long`, `mid` and `short` paths into one NAND3: with the wire caps
    /// set below, pin 0 carries the latest and slowest edge, pin 2 the
    /// earliest and sharpest, in every corner.
    fn dominated_pin_timer() -> Timer {
        let mut nb = NetlistBuilder::new();
        let y = nb.add_primary_output("y");
        let nand = nb.add_gate("nand", CellKind::Nand3);
        for (pin, len) in [4, 2, 0].into_iter().enumerate() {
            let port = nb.add_primary_input(format!("i{pin}"));
            let mut prev = None;
            for i in 0..len {
                let g = nb.add_gate(format!("u{pin}_{i}"), CellKind::Buf);
                match prev {
                    None => nb.connect_to_gate(port, g, 0).expect("valid"),
                    Some(p) => nb.connect_gates(p, g, 0).expect("valid"),
                }
                prev = Some(g);
            }
            match prev {
                None => nb.connect_to_gate(port, nand, pin as u8),
                Some(p) => nb.connect_gates(p, nand, pin as u8),
            }
            .expect("valid");
        }
        nb.connect_to_output(nand, y).expect("valid");
        let mut timer = Timer::new(nb.build().expect("well-formed"), CellLibrary::typical());
        let nand = crate::GateId(0);
        for (pin, cap_ff) in [(0, 40.0), (1, 20.0)] {
            let driver = timer.graph().gate_input_node(nand, pin);
            let driver = timer.graph().arc(timer.graph().fanin(driver).start).from;
            let crate::NodeKind::GateOutput(g) = timer.graph().node_kind(driver) else {
                unreachable!("pins 0 and 1 hang off buffers");
            };
            let net = net_of(&timer, crate::PinRef::GateOutput(crate::GateId(g)));
            timer.set_net_cap(net, cap_ff);
        }
        timer
    }

    // Mutation `arc-delays-unseen` (drop the `delays(v)` comparison:
    // `if moved {`) fails this test.
    #[test]
    fn a_dominated_fan_in_still_reruns_the_bprop_behind_its_arc() {
        let nand = crate::GateId(0);
        let mid_net = |t: &Timer| {
            let pin = t.graph().gate_input_node(nand, 1);
            let from = t.graph().arc(t.graph().fanin(pin).start).from;
            let crate::NodeKind::GateOutput(g) = t.graph().node_kind(from) else {
                unreachable!("pin 1 hangs off a buffer");
            };
            net_of(t, crate::PinRef::GateOutput(crate::GateId(g)))
        };
        let settled = {
            let mut t = dominated_pin_timer();
            t.update_timing().run_sequential();
            t
        };
        let (timer, executed, structural) =
            in_order_against_a_twin(dominated_pin_timer, |t| t.set_net_cap(mid_net(t), 21.0));
        assert!(executed < structural, "{executed} of {structural}");

        // The premise: the NAND's output holds its merged bits, the cached
        // delay of the arc from pin 1 moved, and so did pin 1's required time.
        let (graph, was, now) = (timer.graph(), settled.data(), timer.data());
        let out = graph.gate_output_node(nand);
        assert_eq!(now.fprop_bits(out), was.fprop_bits(out), "dominated");
        let arc = graph.fanin(out).start + 1;
        assert_eq!(graph.arc(arc).from, graph.gate_input_node(nand, 1));
        assert_ne!(now.arc_delay_bits(arc), was.arc_delay_bits(arc));
        let pin = graph.gate_input_node(nand, 1);
        assert_ne!(now.required_bits(pin), was.required_bits(pin));
    }

    #[test]
    fn an_edit_to_the_value_already_there_runs_the_seeds_and_their_neighbours() {
        let edit = |t: &mut Timer| t.repower_gate(crate::GateId(2), 4.0);
        let (mut timer, _, structural) = in_order_against_a_twin(two_cone_timer, edit);
        let settled = timer.snapshot();
        edit(&mut timer);
        let cone = timer.dirty_cone();
        assert_eq!(cone.num_tasks(), structural, "the same structural cone");
        // A shared driver is dirtied once per pin it feeds: count nodes.
        let (graph, soa) = (cone.graph(), cone.arc_soa());
        let seeds: std::collections::BTreeSet<u32> = {
            let bits = cone.bits.lock();
            let n = cone.graph().num_nodes() as u32;
            (0..n).filter(|&r| bit_is_set(&bits.seeds, r)).collect()
        };
        let with = |neighbours: Vec<u32>| {
            let mut all = seeds.clone();
            all.extend(neighbours);
            all.len()
        };
        let succ = seeds.iter().flat_map(|&v| graph.succs(NodeId(v)));
        let pred = seeds.iter().flat_map(|&v| graph.preds(soa, NodeId(v)));
        let want = with(succ.copied().collect()) + with(pred.copied().collect());
        assert_eq!(cone.run_in_order(), want, "seeds and neighbours");
        assert!(want < structural);
        drop(cone);
        assert!(timer.snapshot() == settled, "no bit changed");
    }

    #[test]
    fn stored_values_compare_as_bit_patterns() {
        // Edits to the value already there, and payloads that store what
        // they find: only the seed counts as changed.
        let mut timer = two_cone_timer();
        timer.update_timing().run_sequential();
        let (a, y0) = (crate::PortId(0), crate::PortId(0));

        // An unknown mark equals itself. Seed: input `a`; its fprop, the
        // fprop of its one sink, its bprop. NaN != NaN would run one more.
        let graph = timer.graph();
        let sink = graph.arc(graph.fanout(graph.input_node(a))[0]).to;
        timer.data().mark_arrival_unknown(sink);
        timer.set_input_delay(a, 0.0);
        let cone = timer.dirty_cone();
        assert_eq!(executed(&cone, |_| {}), 3);
        drop(cone);

        // -0.0 is not 0.0. Seed: output `y0`; its fprop, its bprop, the
        // bprop of its driver — which turns one zero into the other the
        // first time, and so reaches *its* fan-in, and not the second time.
        let graph = timer.graph();
        let n = graph.num_nodes() as u32;
        let driver = graph.arc(graph.fanin(graph.output_node(y0)).start).from;
        let bprop_of_driver = 2 * n - 1 - driver.0;
        timer
            .data()
            .set_required_bits(driver, [0.0f32.to_bits(); 4]);
        for want in [4, 3] {
            timer.set_output_delay(y0, 0.0);
            let cone = timer.dirty_cone();
            let minus_zero = |t: TaskId| {
                if t.0 == bprop_of_driver {
                    let bits = [(-0.0f32).to_bits(); 4];
                    cone.data().set_required_bits(driver, bits);
                }
            };
            assert_eq!(executed(&cone, minus_zero), want);
        }
    }

    /// Run the whole design of `cone` on `threads` threads with a payload
    /// that panics at task `k`: the panic's text, and how many tasks ran.
    fn panic_at(cone: &DirtyCone<'_>, k: u32, threads: usize) -> (String, usize) {
        let ran = AtomicUsize::new(0);
        let payload = |t: TaskId| {
            assert!(t.0 != k, "task {k} exploded");
            ran.fetch_add(1, Relaxed);
        };
        let unbounded = RunBudget::unbounded();
        let panic = catch_unwind(AssertUnwindSafe(|| {
            run_in_order(cone, payload, threads, &unbounded)
        }))
        .expect_err("task k panics");
        let text = gpasta_sched::panic_message(panic.as_ref());
        (text, ran.load(Relaxed))
    }

    #[test]
    fn an_in_order_panic_unwinds_with_the_tasks_after_it_not_run() {
        let mut timer = two_cone_timer();
        let cone = timer.dirty_cone();
        let k = cone.num_tasks() as u32 / 2;
        let (text, ran) = panic_at(&cone, k, 1);
        assert_eq!(text, format!("task {k} exploded"));
        assert_eq!(ran, k as usize, "nothing after task k ran");
    }

    // Mutation `no-latch` (drop the `stop()` from `Latch::drop`) hangs this
    // test on a thread that waits for the one that unwound.
    #[test]
    fn a_panic_in_any_slab_of_the_sweep_reaches_the_caller() {
        let mut timer = two_cone_timer();
        let cone = timer.dirty_cone();
        // The first level of two or more nodes: its first task is slab 0's,
        // its last slab 1's.
        let off = cone.graph().level_offsets();
        let level = off
            .windows(2)
            .find(|w| w[1] - w[0] >= 2)
            .expect("a wide level");
        for (k, slab) in [(level[1] - 1, "slab 1"), (level[0], "slab 0")] {
            let (text, ran) = panic_at(&cone, k, 2);
            assert_eq!(text, format!("task {k} exploded"), "{slab}");
            assert!(ran < level[1] as usize, "{slab}: no later level ran");
        }
    }

    /// A random design of `gates` gates: every input pin hangs off a
    /// primary input or an earlier gate, and every gate nothing reads drives
    /// a primary output.
    fn random_timer(gates: usize, seed: u64) -> Timer {
        const CELLS: [CellKind; 4] = [
            CellKind::Inv,
            CellKind::Buf,
            CellKind::Nand2,
            CellKind::Nand3,
        ];
        let mut state = seed;
        let mut draw = |below: usize| {
            state = gpasta_sched::splitmix64(state);
            (state % below as u64) as usize
        };
        let mut nb = NetlistBuilder::new();
        let inputs: Vec<_> = (0..4)
            .map(|i| nb.add_primary_input(format!("i{i}")))
            .collect();
        let mut read = vec![false; gates];
        for g in 0..gates {
            let cell = CELLS[draw(CELLS.len())];
            let gate = nb.add_gate(format!("u{g}"), cell);
            for pin in 0..cell.num_inputs() as u8 {
                let from = draw(inputs.len() + g);
                match from.checked_sub(inputs.len()) {
                    None => nb.connect_to_gate(inputs[from], gate, pin),
                    Some(d) => {
                        read[d] = true;
                        nb.connect_gates(crate::GateId(d as u32), gate, pin)
                    }
                }
                .expect("valid");
            }
        }
        for g in (0..gates).filter(|&g| !read[g]) {
            let y = nb.add_primary_output(format!("y{g}"));
            nb.connect_to_output(crate::GateId(g as u32), y)
                .expect("valid");
        }
        Timer::new(nb.build().expect("well-formed"), CellLibrary::typical())
    }

    /// Where each level of a sweep of `graph`'s whole design ends, as task
    /// ids: the fprop levels ascending, then the bprop levels descending.
    fn level_ends(graph: &TimingGraph) -> Vec<usize> {
        let off = graph.level_offsets();
        let top = 2 * graph.num_nodes() as u32;
        let fprop = off[1..].iter().copied();
        let bprop = off.iter().rev().skip(1).map(|&o| top - o);
        fprop.chain(bprop).map(|end| end as usize).collect()
    }

    /// Settle `make()` whole on one thread, and on one to four threads by
    /// the level sweep; then change the clock and do it again. Every sweep
    /// leaves the one-thread run's bits.
    fn assert_sweeps_match_the_in_order_run(make: impl Fn() -> Timer) {
        let settle = |timer: &mut Timer, threads: usize| {
            let rec = timer
                .dirty_cone()
                .run_bounded(threads, &RunBudget::unbounded());
            assert!(rec.is_clean());
            assert_eq!(rec.outcome.report.num_workers, threads);
            let n = timer.graph().num_nodes();
            assert_eq!(rec.outcome.report.tasks_executed, 2 * n);
            timer.snapshot()
        };
        let mut oracle = make();
        let want = [settle(&mut oracle, 1), {
            oracle.set_clock_period(97.0);
            settle(&mut oracle, 1)
        }];
        for threads in 1..=4 {
            let mut timer = make();
            assert!(settle(&mut timer, threads) == want[0], "{threads} threads");
            timer.set_clock_period(97.0);
            assert!(
                settle(&mut timer, threads) == want[1],
                "{threads} threads, new clock"
            );
        }
    }

    #[test]
    fn level_sweep_of_the_paper_circuits_matches_the_in_order_run() {
        // Two nodes a level: narrower than three and four threads.
        assert_sweeps_match_the_in_order_run(two_cone_timer);
        for &circuit in gpasta_circuits::PaperCircuit::all() {
            // The generator builds this crate's netlist as a dependency's
            // type: carry it over through its serialised form.
            let value = serde::Serialize::to_value(&circuit.build(0.004));
            let netlist: crate::Netlist = serde::Deserialize::from_value(&value).expect("one type");
            assert_sweeps_match_the_in_order_run(|| {
                Timer::new(netlist.clone(), CellLibrary::typical())
            });
        }
    }

    fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(24)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(cases()))]

        /// The level sweep of a random design equals the one-thread run, bit
        /// for bit; a design of a few gates has levels narrower than the
        /// threads, some slabs of which are empty.
        #[test]
        fn level_sweep_of_random_designs_matches_the_in_order_run(
            gates in 1usize..200,
            seed in proptest::prelude::any::<u64>(),
        ) {
            assert_sweeps_match_the_in_order_run(|| random_timer(gates, seed));
        }

        /// Stop an in-order run of a whole design, on one to four threads,
        /// or of the cone of a few repowers, by a cancel after any number of
        /// tasks or by an expired deadline: it stops at the next poll — on
        /// one thread after a multiple of 256 tasks, in a sweep at a level's
        /// first id. Salvaged ⊎ unfinished is the cone and nothing is
        /// poisoned; the unfinished set is the cone's suffix from the stop
        /// and successor-closed in the full-space TDG; every value outside it
        /// holds the completed update's bits and every value in it reads
        /// unknown; and a later update of the whole design converges to the
        /// completed update bit for bit. Mutation `stop-task-salvaged`
        /// (`partition_point(|&id| id <= t)`), mutation `backward-bits-kept`
        /// (drop `b.fill(0)`), mutation `stop-level-salvaged` (the sweep
        /// reports `level(i).end` as its stop) and mutation `stop-any-level`
        /// (`stops_before` ignores its level, so a thread released late
        /// skips the level before the stop) fail it.
        #[test]
        fn a_stopped_in_order_run_leaves_a_successor_closed_suffix_and_converges(
            gates in 40usize..300,
            seed in proptest::prelude::any::<u64>(),
            edits in proptest::collection::vec((proptest::prelude::any::<u32>(), 0.5f32..4.0), 0..4),
            expired in proptest::prelude::any::<bool>(),
            cancel_after in 0usize..1_500,
            threads in 1usize..5,
        ) {
            let (mut timer, mut oracle) = (random_timer(gates, seed), random_timer(gates, seed));
            let full = oracle.update_timing();
            let tdg = full.tdg().clone();
            full.run_sequential();
            drop(full);
            if !edits.is_empty() {
                timer.dirty_cone().run_in_order();
                for &(g, drive) in &edits {
                    let g = crate::GateId(g % gates as u32);
                    timer.repower_gate(g, drive);
                    oracle.repower_gate(g, drive);
                }
                oracle.update_timing().run_sequential();
            }

            let cone = timer.dirty_cone();
            let token = gpasta_sched::CancelToken::new();
            let budget = if expired {
                RunBudget::unbounded().with_deadline(std::time::Duration::ZERO)
            } else {
                RunBudget::unbounded().with_cancel(token.clone())
            };
            let calls = AtomicUsize::new(0);
            let payload = |t: TaskId| {
                if calls.fetch_add(1, Relaxed) == cancel_after {
                    token.cancel();
                }
                cone.execute_task(t);
            };
            let rec = run_in_order(&cone, payload, threads, &budget);
            let outcome = &rec.outcome;
            let executed = outcome.report.tasks_executed;
            // The polls a cancel after `cancel_after` tasks can land on: on
            // one thread the next multiple of 256; in a sweep the end of the
            // cancelling task's level, or — when a helper cancelled after the
            // caller polled — of the level after it.
            let polls: Vec<usize> = if cone.whole && threads > 1 {
                let ends = level_ends(cone.graph());
                let next = ends.partition_point(|&end| end <= cancel_after);
                ends[next..].iter().take(2).copied().collect()
            } else {
                vec![(cancel_after / POLL + 1) * POLL]
            };
            prop_assert_eq!(outcome.report.num_workers, if cone.whole { threads } else { 1 });
            match outcome.stop {
                StopCause::Completed => {
                    prop_assert!(expired || polls.last().is_none_or(|&p| executed <= p))
                }
                StopCause::DeadlineExpired => prop_assert!(expired && executed == 0),
                StopCause::Cancelled => prop_assert!(polls.contains(&executed), "{} at {:?}", executed, polls),
            }
            prop_assert!(outcome.poisoned_tasks.is_empty() && outcome.failures.is_empty());
            let ids = cone.ids();
            prop_assert_eq!(outcome.salvaged_tasks + outcome.unfinished_tasks.len(), ids.len());
            prop_assert_eq!(&outcome.unfinished_tasks[..], &ids[outcome.salvaged_tasks..]);
            prop_assert_eq!(outcome.stop == StopCause::Completed, outcome.unfinished_tasks.is_empty());
            let mut unfinished = vec![false; tdg.num_tasks()];
            for &t in &outcome.unfinished_tasks {
                unfinished[t as usize] = true;
            }
            for &t in &outcome.unfinished_tasks {
                for &s in tdg.successors(TaskId(t)) {
                    prop_assert!(unfinished[s as usize], "{} -> {} leaves the suffix", t, s);
                }
            }

            cone.mark_unknown(&rec);
            let n = cone.graph().num_nodes() as u32;
            let (data, want) = (cone.data(), oracle.data());
            for id in 0..2 * n {
                let (kind, v) = cone.decode(id);
                let (got, exact) = match kind {
                    TaskKind::Fprop => (data.fprop_bits(v).to_vec(), want.fprop_bits(v).to_vec()),
                    TaskKind::Bprop => (data.required_bits(v).to_vec(), want.required_bits(v).to_vec()),
                };
                if unfinished[id as usize] {
                    prop_assert!(got.iter().all(|&b| f32::from_bits(b).is_nan()), "task {} reads unknown", id);
                } else {
                    prop_assert_eq!(got, exact, "task {} is exact", id);
                }
            }
            prop_assert!(cone.sweep_bits_are_zero());
            drop(cone);
            timer.invalidate_all();
            timer.dirty_cone().run_in_order();
            prop_assert!(timer.snapshot() == oracle.snapshot(), "converged");
        }
    }

    #[test]
    fn pre_expired_deadline_yields_a_fully_unknown_partial_report() {
        use std::time::Duration;
        let mut timer = two_cone_timer();
        let update = timer.update_timing();
        let budget = RunBudget::default().with_deadline(Duration::ZERO);
        let rec = update.run_recovering_bounded(
            &Executor::new(2),
            &FaultPlan::none(),
            &RetryPolicy::no_retries(),
            &budget,
        );
        assert!(!rec.is_clean());
        assert_eq!(rec.outcome.stop, gpasta_sched::StopCause::DeadlineExpired);
        assert_eq!(
            rec.outcome.unfinished_tasks.len(),
            update.tdg().num_tasks(),
            "nothing was admitted"
        );
        assert_eq!(
            rec.unfinished_endpoints.len(),
            update.graph().endpoints().len()
        );
        // Degraded projection: every endpoint reads unknown, not stale.
        update.mark_unknown(&rec);
        drop(update);
        for bits in slack_bits(&timer) {
            assert!(f32::from_bits(bits).is_nan(), "endpoint must be unknown");
        }
    }

    #[test]
    fn heal_after_deadline_expiry_converges_bit_identically() {
        use std::time::Duration;
        let mut ref_timer = two_cone_timer();
        let ref_update = ref_timer.update_timing();
        ref_update.run_sequential();
        drop(ref_update);
        let reference = slack_bits(&ref_timer);

        let mut timer = two_cone_timer();
        let update = timer.update_timing();
        let budget = RunBudget::default().with_deadline(Duration::ZERO);
        let rec = update.run_recovering_bounded(
            &Executor::new(2),
            &FaultPlan::none(),
            &RetryPolicy::no_retries(),
            &budget,
        );
        update.mark_unknown(&rec);
        // Heal with no budget pressure: re-runs exactly the unfinished
        // closure (the poisoned set is empty on a fault-free plan).
        assert!(rec.outcome.poisoned_tasks.is_empty());
        let healed = update.heal(&rec);
        assert_eq!(healed, rec.outcome.unfinished_tasks.len());
        drop(update);
        assert_eq!(
            slack_bits(&timer),
            reference,
            "healed partial run must be bit-identical to the complete run"
        );
    }

    #[test]
    fn deadline_expired_partitioned_run_reports_unfinished_and_heals() {
        use gpasta_core::{Partitioner, PartitionerOptions, SeqGPasta};
        use std::time::Duration;

        let mut ref_timer = two_cone_timer();
        let ref_update = ref_timer.update_timing();
        ref_update.run_sequential();
        drop(ref_update);
        let reference = slack_bits(&ref_timer);

        let mut timer = two_cone_timer();
        let update = timer.update_timing();
        let p = SeqGPasta::new()
            .partition(update.tdg(), &PartitionerOptions::default())
            .expect("valid options");
        let quotient = gpasta_tdg::QuotientTdg::build(update.tdg(), &p).expect("acyclic");
        let budget = RunBudget::default().with_deadline(Duration::ZERO);
        let rec = update.run_partitioned_recovering_bounded(
            &Executor::new(2),
            &quotient,
            &FaultPlan::none(),
            &RetryPolicy::no_retries(),
            &budget,
        );
        assert_eq!(rec.outcome.stop, gpasta_sched::StopCause::DeadlineExpired);
        assert!(!rec.is_clean());
        assert_eq!(
            rec.outcome.unfinished_tasks.len(),
            update.tdg().num_tasks(),
            "a pre-expired deadline admits no partition"
        );
        update.mark_unknown(&rec);
        update.heal(&rec);
        drop(update);
        assert_eq!(slack_bits(&timer), reference);
    }

    #[test]
    fn heal_converges_to_bit_identical_results() {
        let mut ref_timer = two_cone_timer();
        let ref_update = ref_timer.update_timing();
        ref_update.run_sequential();
        drop(ref_update);
        let reference = slack_bits(&ref_timer);

        let mut timer = two_cone_timer();
        let update = timer.update_timing();
        let kinds = [
            FaultKind::Panic,
            FaultKind::Transient,
            FaultKind::WrongResult,
        ];
        let plan = FaultPlan::random(0xBEEF, 0.08, &kinds);
        let rec = update.run_recovering_bounded(
            &Executor::new(2),
            &plan,
            &RetryPolicy {
                max_retries: 1,
                base_backoff: std::time::Duration::ZERO,
                max_backoff: std::time::Duration::ZERO,
            },
            &RunBudget::unbounded(),
        );
        update.mark_unknown(&rec);
        let healed = update.heal(&rec);
        assert_eq!(healed, rec.outcome.poisoned_tasks.len());
        drop(update);
        assert_eq!(
            slack_bits(&timer),
            reference,
            "healed results must be bit-identical to the fault-free run"
        );
    }
}
