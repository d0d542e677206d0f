//! The work-stealing TDG executor: the [`Executor`] handle and its plain
//! wavefront (chunked dependency decrements, payload panics re-raised on
//! the caller). The recovering wavefront (`bounded.rs`) is deliberately a
//! separate loop: this one is the oracle the differential suites compare
//! it against.

use crate::report::RunReport;
use crossbeam_deque::{Injector, Stealer, Worker};
use crossbeam_utils::Backoff;
use gpasta_check::sync::{AtomicU32, AtomicU64, AtomicUsize, Mutex, Ordering};
use gpasta_tdg::{PartitionId, QuotientTdg, TaskId, Tdg};
use std::fmt;
use std::time::Instant;

/// Typed construction error for [`Executor::try_new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecutorError {
    /// Zero worker threads were requested.
    ZeroWorkers,
}

impl fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutorError::ZeroWorkers => {
                write!(f, "an executor needs at least one worker (got 0)")
            }
        }
    }
}

impl std::error::Error for ExecutorError {}

/// A task payload: the work performed when the scheduler dispatches a task.
///
/// Implemented for all `Fn(TaskId) + Sync` closures. The STA engine
/// implements it with its forward/backward propagation steps.
pub trait TaskWork: Sync {
    /// Execute the payload of `task`.
    fn execute(&self, task: TaskId);
}

impl<F: Fn(TaskId) + Sync> TaskWork for F {
    #[inline]
    fn execute(&self, task: TaskId) {
        self(task)
    }
}

/// A Taskflow-like work-stealing executor.
///
/// Each [`run_tdg`](Executor::run_tdg) call spawns `num_workers` scoped
/// worker threads, seeds the ready queue with the TDG's source tasks, and
/// counts down fan-in dependencies as tasks complete — the same dynamic
/// scheduling model as OpenTimer's Taskflow backend. Every dispatch of a
/// task to a worker incurs real queue traffic; that per-task cost is what
/// partitioning reduces.
///
/// With `num_workers == 1` the executor runs on the calling thread with a
/// plain ready queue (still paying per-task queue operations, so scheduling
/// cost remains observable on single-core hosts).
#[derive(Debug, Clone)]
pub struct Executor {
    num_workers: usize,
    chunk_size: usize,
}

/// Default dependency-decrement batch: how many tasks a worker executes
/// before publishing the accumulated fan-out decrements (see
/// [`Executor::with_chunk_size`]). Swept by the bench autotuner.
pub const DEFAULT_CHUNK_SIZE: usize = 16;

impl Executor {
    /// Create an executor with `num_workers` worker threads, clamping a
    /// zero request to one worker. Use [`try_new`](Executor::try_new) to
    /// surface the invalid request instead (the CLI does, so a bad
    /// `--workers 0` is an error message, not a silent clamp).
    pub fn new(num_workers: usize) -> Self {
        Executor {
            num_workers: num_workers.max(1),
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }

    /// Create an executor with `num_workers` worker threads, rejecting
    /// `num_workers == 0` with a typed error.
    pub fn try_new(num_workers: usize) -> Result<Self, ExecutorError> {
        if num_workers == 0 {
            Err(ExecutorError::ZeroWorkers)
        } else {
            Ok(Executor {
                num_workers,
                chunk_size: DEFAULT_CHUNK_SIZE,
            })
        }
    }

    /// Set the dependency-decrement batch size (clamping zero to one).
    ///
    /// Workers accumulate the fan-out decrements of up to `chunk_size`
    /// executed tasks locally and publish them with **one atomic
    /// `fetch_sub` per distinct successor** instead of one per edge —
    /// GRAPHOPT-style batching that trades a bounded release delay
    /// (at most `chunk_size` tasks, and always flushed before the worker
    /// steals or parks) for far less cross-core contention on hot
    /// fan-in counters. `1` restores the per-edge behaviour.
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// The dependency-decrement batch size used by multi-worker runs.
    #[inline]
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Create an executor sized to the host's available parallelism.
    pub fn host_parallel() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Executor::new(n)
    }

    /// Number of worker threads used per run.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Execute every task of `tdg` exactly once, respecting dependencies.
    ///
    /// Returns a [`RunReport`] with the wall-clock time and the number of
    /// scheduling operations (task dispatches) performed.
    pub fn run_tdg<W: TaskWork>(&self, tdg: &Tdg, work: &W) -> RunReport {
        let n = tdg.num_tasks();
        let start = Instant::now();
        let dispatches = if self.num_workers == 1 {
            run_sequential(
                n,
                &tdg.in_degrees(),
                |t| tdg.successors(TaskId(t)),
                |t| work.execute(TaskId(t)),
            )
        } else {
            run_stealing(
                self.num_workers,
                n,
                &tdg.in_degrees(),
                &|t| tdg.successors(TaskId(t)),
                &|t| work.execute(TaskId(t)),
                self.chunk_size,
            )
        };
        RunReport {
            elapsed: start.elapsed(),
            tasks_executed: n,
            dispatches,
            num_workers: self.num_workers,
        }
    }

    /// Execute a *partitioned* TDG: each quotient node is dispatched once
    /// and runs its member tasks sequentially in topological order.
    ///
    /// The underlying task payloads are identical to
    /// [`run_tdg`](Executor::run_tdg); only the scheduling granularity
    /// changes, so results must be bit-identical (a property the test suite
    /// checks).
    pub fn run_partitioned<W: TaskWork>(&self, quotient: &QuotientTdg, work: &W) -> RunReport {
        let q = quotient.graph();
        let np = q.num_tasks();
        let total_tasks = quotient.num_tasks();
        let start = Instant::now();
        let run_members = |p: u32| {
            for &t in quotient.execution_order(PartitionId(p)) {
                work.execute(TaskId(t));
            }
        };
        let dispatches = if self.num_workers == 1 {
            run_sequential(
                np,
                &q.in_degrees(),
                |p| q.successors(TaskId(p)),
                run_members,
            )
        } else {
            run_stealing(
                self.num_workers,
                np,
                &q.in_degrees(),
                &|p| q.successors(TaskId(p)),
                &run_members,
                self.chunk_size,
            )
        };
        RunReport {
            elapsed: start.elapsed(),
            tasks_executed: total_tasks,
            dispatches,
            num_workers: self.num_workers,
        }
    }
}

/// Single-threaded execution through an explicit ready queue. Returns the
/// number of dispatches.
fn run_sequential<'a, S, E>(n: usize, in_degrees: &[u32], successors: S, execute: E) -> u64
where
    S: Fn(u32) -> &'a [u32],
    E: Fn(u32),
{
    let mut dep: Vec<u32> = in_degrees.to_vec();
    let mut ready: Vec<u32> = (0..n as u32).filter(|&t| dep[t as usize] == 0).collect();
    let mut dispatches = 0u64;
    while let Some(t) = ready.pop() {
        dispatches += 1;
        execute(t);
        for &s in successors(t) {
            dep[s as usize] -= 1;
            if dep[s as usize] == 0 {
                ready.push(s);
            }
        }
    }
    debug_assert_eq!(dispatches as usize, n, "every task runs exactly once");
    dispatches
}

/// Work-stealing execution across `workers` scoped threads. Returns the
/// number of dispatches.
///
/// Panics in task payloads are caught on the worker, drain the pool, and
/// re-raise on the calling thread — otherwise a dead task would never add
/// to the completion count and the remaining workers would spin forever.
fn run_stealing<'a>(
    workers: usize,
    n: usize,
    in_degrees: &[u32],
    successors: &(dyn Fn(u32) -> &'a [u32] + Sync),
    execute: &(dyn Fn(u32) + Sync),
    chunk_size: usize,
) -> u64 {
    use gpasta_check::sync::AtomicBool;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    if n == 0 {
        return 0;
    }
    let chunk_size = chunk_size.max(1);
    let dep: Vec<AtomicU32> = in_degrees.iter().map(|&d| AtomicU32::new(d)).collect();
    let injector = Injector::new();
    for t in 0..n as u32 {
        if dep[t as usize].load(Ordering::Relaxed) == 0 {
            injector.push(t);
        }
    }
    let completed = AtomicUsize::new(0);
    let dispatches = AtomicU64::new(0);
    let panicked = AtomicBool::new(false);
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    let locals: Vec<Worker<u32>> = (0..workers).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<u32>> = locals.iter().map(Worker::stealer).collect();

    // Worker-local batch of dependency decrements: `(successor, count)`
    // pairs accumulated across up to `chunk_size` executed tasks, published
    // with one `fetch_sub(count)` per *distinct* successor instead of one
    // per edge. A flush also publishes the executed-task count, so the
    // global `completed` counter only moves once per batch. Correctness
    // hinges on exactly one worker observing the counter cross zero: the
    // `fetch_sub` that returns its own operand is that worker's claim.
    struct DecrementBatch {
        pending: Vec<(u32, u32)>,
        executed: usize,
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
            if self.executed > 0 {
                completed.fetch_add(self.executed, Ordering::Release); // hb: run-complete
                self.executed = 0;
            }
        }
    }

    std::thread::scope(|scope| {
        for (w, local) in locals.into_iter().enumerate() {
            let dep = &dep;
            let injector = &injector;
            let stealers = &stealers;
            let completed = &completed;
            let dispatches = &dispatches;
            let panicked = &panicked;
            let panic_payload = &panic_payload;
            scope.spawn(move || {
                let backoff = Backoff::new();
                let mut batch = DecrementBatch {
                    pending: Vec::with_capacity(chunk_size.min(n) * 2),
                    executed: 0,
                };
                loop {
                    let task = local.pop().or_else(|| {
                        // Publish pending decrements before going looking
                        // for work elsewhere: a batched edge may be the
                        // only thing standing between the pool and either
                        // new ready tasks or the termination condition.
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
                    match task {
                        Some(t) => {
                            backoff.reset();
                            dispatches.fetch_add(1, Ordering::Relaxed);
                            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| execute(t))) {
                                *panic_payload.lock() = Some(payload);
                                // The payload travels through the mutex
                                // above; the flag's Release pairs with the
                                // Acquire loads below, so a worker that sees
                                // it set also sees the stored payload. The
                                // batch is deliberately *not* flushed: every
                                // worker aborts on the flag, so the run never
                                // waits on the stranded decrements.
                                panicked.store(true, Ordering::Release); // hb: panic-flag
                                break;
                            }
                            for &s in successors(t) {
                                batch.note(s);
                            }
                            batch.executed += 1;
                            if batch.executed >= chunk_size {
                                batch.flush(dep, &local, completed);
                            }
                            // hb: panic-flag
                            if panicked.load(Ordering::Acquire) {
                                break;
                            }
                        }
                        None => {
                            // The batch was flushed before the steal above,
                            // so `completed` reflects this worker fully.
                            let all_done = completed.load(Ordering::Acquire) == n; // hb: run-complete
                            let aborted = panicked.load(Ordering::Acquire); // hb: panic-flag
                            if all_done || aborted {
                                break;
                            }
                            backoff.snooze();
                        }
                    }
                }
            });
        }
    });

    if let Some(payload) = panic_payload.into_inner() {
        resume_unwind(payload);
    }
    dispatches.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpasta_tdg::TdgBuilder;
    use std::sync::atomic::AtomicU64 as StdAtomicU64;
    use std::sync::Mutex;

    fn diamond() -> Tdg {
        let mut b = TdgBuilder::new(4);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(0), TaskId(2));
        b.add_edge(TaskId(1), TaskId(3));
        b.add_edge(TaskId(2), TaskId(3));
        b.build().expect("diamond DAG")
    }

    /// A random-ish layered DAG for stress tests.
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

    #[test]
    fn sequential_runs_every_task_once() {
        let tdg = diamond();
        let count = StdAtomicU64::new(0);
        let exec = Executor::new(1);
        let report = exec.run_tdg(&tdg, &|_t: TaskId| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
        assert_eq!(report.tasks_executed, 4);
        assert_eq!(report.dispatches, 4);
    }

    #[test]
    fn parallel_runs_every_task_once() {
        let tdg = layered(64, 20);
        let count = StdAtomicU64::new(0);
        let exec = Executor::new(4);
        let report = exec.run_tdg(&tdg, &|_t: TaskId| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed) as usize, tdg.num_tasks());
        assert_eq!(report.dispatches as usize, tdg.num_tasks());
    }

    #[test]
    fn execution_respects_dependencies() {
        // Record completion order; every edge must be ordered.
        let tdg = layered(16, 8);
        let order = Mutex::new(Vec::new());
        let exec = Executor::new(4);
        exec.run_tdg(&tdg, &|t: TaskId| {
            order.lock().expect("poisoned").push(t.0);
        });
        let order = order.into_inner().expect("poisoned");
        let mut pos = vec![usize::MAX; tdg.num_tasks()];
        for (i, &t) in order.iter().enumerate() {
            pos[t as usize] = i;
        }
        for (u, v) in tdg.edges() {
            assert!(
                pos[u.index()] < pos[v.index()],
                "dependency {u}->{v} violated"
            );
        }
    }

    #[test]
    fn chunked_decrements_respect_dependencies_at_every_chunk_size() {
        // chunk 1 restores per-edge decrements; 4096 exceeds the whole
        // graph so every batch is flushed only on local-queue exhaustion.
        let tdg = layered(16, 8);
        for chunk in [1usize, 2, DEFAULT_CHUNK_SIZE, 4096] {
            let order = Mutex::new(Vec::new());
            let exec = Executor::new(4).with_chunk_size(chunk);
            let report = exec.run_tdg(&tdg, &|t: TaskId| {
                order.lock().expect("poisoned").push(t.0);
            });
            assert_eq!(
                report.dispatches as usize,
                tdg.num_tasks(),
                "chunk {chunk}: every task dispatched once"
            );
            let order = order.into_inner().expect("poisoned");
            let mut pos = vec![usize::MAX; tdg.num_tasks()];
            for (i, &t) in order.iter().enumerate() {
                pos[t as usize] = i;
            }
            for (u, v) in tdg.edges() {
                assert!(
                    pos[u.index()] < pos[v.index()],
                    "chunk {chunk}: dependency {u}->{v} violated"
                );
            }
        }
    }

    #[test]
    fn with_chunk_size_clamps_zero_to_one() {
        let exec = Executor::new(2).with_chunk_size(0);
        assert_eq!(exec.chunk_size(), 1);
        let tdg = diamond();
        let count = StdAtomicU64::new(0);
        exec.run_tdg(&tdg, &|_t: TaskId| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn chunked_panic_still_propagates_and_drains() {
        // A panic mid-batch must abort the pool without waiting on the
        // stranded (unflushed) decrements of other workers.
        let tdg = layered(32, 10);
        let exec = Executor::new(4).with_chunk_size(64);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.run_tdg(&tdg, &|t: TaskId| {
                if t.0 == 150 {
                    panic!("payload failure in task {t}");
                }
            });
        }));
        assert!(result.is_err(), "the payload panic reaches the caller");
    }

    #[test]
    fn partitioned_run_matches_plain_run() {
        use gpasta_tdg::Partition;
        let tdg = diamond();
        let p = Partition::new(vec![0, 1, 1, 2]);
        let q = QuotientTdg::build(&tdg, &p).expect("valid partition");

        let sum_plain = StdAtomicU64::new(0);
        let sum_part = StdAtomicU64::new(0);
        let exec = Executor::new(2);
        exec.run_tdg(&tdg, &|t: TaskId| {
            sum_plain.fetch_add(u64::from(t.0) + 1, Ordering::Relaxed);
        });
        let report = exec.run_partitioned(&q, &|t: TaskId| {
            sum_part.fetch_add(u64::from(t.0) + 1, Ordering::Relaxed);
        });
        assert_eq!(
            sum_plain.load(Ordering::Relaxed),
            sum_part.load(Ordering::Relaxed)
        );
        assert_eq!(report.tasks_executed, 4, "all member tasks ran");
        assert_eq!(report.dispatches, 3, "only partitions are dispatched");
    }

    #[test]
    fn partitioned_respects_cross_partition_dependencies() {
        use gpasta_tdg::Partition;
        let tdg = layered(16, 8);
        // Group pairs within each level (level-local grouping is valid).
        let levels = tdg.levels();
        let mut assignment = vec![0u32; tdg.num_tasks()];
        let mut pid = 0u32;
        for l in 0..levels.depth() {
            for pair in levels.tasks_at(l).chunks(2) {
                for &t in pair {
                    assignment[t as usize] = pid;
                }
                pid += 1;
            }
        }
        let p = Partition::new(assignment);
        let q = QuotientTdg::build(&tdg, &p).expect("level-local grouping is valid");

        let order = Mutex::new(Vec::new());
        let exec = Executor::new(4);
        exec.run_partitioned(&q, &|t: TaskId| {
            order.lock().expect("poisoned").push(t.0);
        });
        let order = order.into_inner().expect("poisoned");
        assert_eq!(order.len(), tdg.num_tasks());
        let mut pos = vec![usize::MAX; tdg.num_tasks()];
        for (i, &t) in order.iter().enumerate() {
            pos[t as usize] = i;
        }
        for (u, v) in tdg.edges() {
            assert!(pos[u.index()] < pos[v.index()]);
        }
    }

    #[test]
    fn empty_graph_runs_without_dispatches() {
        let tdg = TdgBuilder::new(0).build().expect("empty DAG");
        let exec = Executor::new(2);
        let report = exec.run_tdg(&tdg, &|_t: TaskId| {});
        assert_eq!(report.tasks_executed, 0);
        assert_eq!(report.dispatches, 0);
    }

    #[test]
    fn single_task_graph() {
        let tdg = TdgBuilder::new(1).build().expect("one node");
        let ran = StdAtomicU64::new(0);
        for workers in [1, 3] {
            let exec = Executor::new(workers);
            exec.run_tdg(&tdg, &|_t: TaskId| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(ran.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn zero_workers_clamps_in_new_and_errors_in_try_new() {
        assert_eq!(Executor::new(0).num_workers(), 1, "new clamps");
        assert_eq!(
            Executor::try_new(0).map(|e| e.num_workers()),
            Err(ExecutorError::ZeroWorkers)
        );
        assert_eq!(Executor::try_new(3).map(|e| e.num_workers()), Ok(3));
        let msg = ExecutorError::ZeroWorkers.to_string();
        assert!(msg.contains("at least one worker"), "got: {msg}");
    }

    #[test]
    fn payload_panic_propagates_to_the_caller() {
        // A panicking task must not hang the executor or get swallowed:
        // scoped workers re-raise at join.
        let tdg = layered(8, 4);
        for workers in [1usize, 3] {
            let exec = Executor::new(workers);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                exec.run_tdg(&tdg, &|t: TaskId| {
                    assert!(t.0 != 7, "payload failure on task 7");
                });
            }));
            assert!(result.is_err(), "workers={workers}: panic must propagate");
        }
    }

    #[test]
    fn executor_is_reusable_across_many_runs() {
        let tdg = layered(16, 6);
        let exec = Executor::new(2);
        let count = StdAtomicU64::new(0);
        for _ in 0..25 {
            exec.run_tdg(&tdg, &|_t: TaskId| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(count.load(Ordering::Relaxed) as usize, 25 * tdg.num_tasks());
    }

    #[test]
    fn report_records_worker_count() {
        let exec = Executor::new(3);
        assert_eq!(exec.num_workers(), 3);
        let report = exec.run_tdg(&diamond(), &|_t: TaskId| {});
        assert_eq!(report.num_workers, 3);
    }
}
