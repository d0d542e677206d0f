//! The [`Executor`] handle: worker count, decrement chunk size, and the
//! [`TaskWork`] payload hook. The `run_*` entry points and the one
//! wavefront behind them live in `bounded.rs`.

use gpasta_tdg::TaskId;
use std::fmt;

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
/// Each `run_*` call spawns `num_workers` scoped worker threads, seeds the
/// ready queue with the graph's source units, and counts down fan-in
/// dependencies as units complete — the same dynamic scheduling model as
/// OpenTimer's Taskflow backend. Every dispatch of a unit to a worker
/// incurs real queue traffic; that per-dispatch cost is what partitioning
/// reduces.
///
/// With `num_workers == 1` the executor runs on the calling thread with a
/// plain ready queue (still paying per-unit queue operations, so
/// scheduling cost remains observable on single-core hosts).
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
            Ok(Executor::new(num_workers))
        }
    }

    /// Set the dependency-decrement batch size (clamping zero to one).
    ///
    /// On every multi-worker run path, workers accumulate the fan-out
    /// decrements of finished dispatch units (run, poisoned or drained
    /// alike) until those units hold `chunk_size` member tasks, then
    /// publish them with **one atomic `fetch_sub` per distinct
    /// successor** instead of one per edge — GRAPHOPT-style batching that
    /// trades a bounded release delay (at most `chunk_size` tasks of work,
    /// always flushed before the worker steals or parks) for far less
    /// cross-core contention on hot fan-in counters. A partition already
    /// amortises its dispatch over its members, so partitioned runs hold
    /// back few units; `1` publishes after every unit.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RetryPolicy, RunBudget, TaskError};
    use gpasta_check::sync::Ordering;
    use gpasta_tdg::{QuotientTdg, Tdg, TdgBuilder};
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
        // chunk 1 publishes after every task; 4096 exceeds the whole graph
        // so every batch is flushed only on local-queue exhaustion. Both
        // entry points share the loop, so both are driven.
        let tdg = layered(16, 8);
        for chunk in [1usize, 2, DEFAULT_CHUNK_SIZE, 4096] {
            for recovering in [false, true] {
                let order = Mutex::new(Vec::new());
                let exec = Executor::new(4).with_chunk_size(chunk);
                let record = |t: TaskId| order.lock().expect("poisoned").push(t.0);
                let report = if recovering {
                    let outcome = exec.run_tdg_recovering_bounded(
                        &tdg,
                        &|t: TaskId, _a: u32| -> Result<(), TaskError> {
                            record(t);
                            Ok(())
                        },
                        &RetryPolicy::no_retries(),
                        &RunBudget::unbounded(),
                    );
                    assert!(outcome.is_clean(), "chunk {chunk}");
                    outcome.report
                } else {
                    exec.run_tdg(&tdg, &record)
                };
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
        // A panic mid-batch must neither hang the pool nor strand another
        // worker's unflushed decrements: the wavefront drains (everything
        // outside the panicking task's forward closure runs), and only
        // then does the plain entry point re-raise.
        let tdg = layered(32, 10);
        let exec = Executor::new(4).with_chunk_size(64);
        let ran = StdAtomicU64::new(0);
        let payload = |t: TaskId| {
            if t.0 == 150 {
                panic!("payload failure in task {t}");
            }
            ran.fetch_add(1, Ordering::Relaxed);
        };
        let outcome = exec.run_tdg_recovering_bounded(
            &tdg,
            &|t: TaskId, _a: u32| -> Result<(), TaskError> {
                payload(t);
                Ok(())
            },
            &RetryPolicy::no_retries(),
            &RunBudget::unbounded(),
        );
        assert_eq!(outcome.failures.len(), 1, "contained, not propagated");
        assert_eq!(outcome.failures[0].task, 150);
        let salvaged = ran.swap(0, Ordering::Relaxed) as usize;
        assert_eq!(salvaged, outcome.salvaged_tasks);
        assert_eq!(salvaged + outcome.poisoned_tasks.len(), tdg.num_tasks());

        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.run_tdg(&tdg, &payload);
        }));
        assert!(result.is_err(), "the payload panic reaches the caller");
        assert_eq!(
            ran.load(Ordering::Relaxed) as usize,
            salvaged,
            "the plain run drains the same salvage set before re-raising"
        );
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
        // A panicking task must not hang the executor or get swallowed,
        // and which panic surfaces must not depend on the schedule: tasks
        // 5 and 7 are both sources, so both always run and fail, and the
        // re-raised message names the lower one.
        let tdg = layered(8, 4);
        for workers in [1usize, 3] {
            let exec = Executor::new(workers);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                exec.run_tdg(&tdg, &|t: TaskId| {
                    assert!(t.0 != 5 && t.0 != 7, "payload failure on task {}", t.0);
                });
            }));
            let payload = result.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .expect("re-raised with a formatted message");
            assert_eq!(
                msg, "task 5 (unit 5) fatal: payload failure on task 5",
                "workers={workers}"
            );
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
