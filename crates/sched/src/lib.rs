//! Taskflow-like task-graph executor for the G-PASTA reproduction.
//!
//! OpenTimer delegates its timing-propagation TDG to the Taskflow
//! work-stealing scheduler; the per-task scheduling cost of that executor
//! (0.2–3 µs per task, §1 of the paper) is what TDG partitioning amortises.
//! This crate reproduces that execution environment:
//!
//! * [`Executor`] — a work-stealing executor that runs a
//!   [`Tdg`](gpasta_tdg::Tdg) by counting down dependencies and dispatching
//!   ready tasks to workers ([`Executor::run_tdg`]), or runs a *partitioned*
//!   TDG by dispatching whole partitions whose member tasks execute
//!   sequentially in topological order ([`Executor::run_partitioned`]);
//! * [`TaskWork`] — the task payload hook (implemented by the STA engine's
//!   propagation closures);
//! * [`Taskflow`] — the graph-*construction* cost model: one heap-allocated
//!   node per schedulable unit, which is the "building the TDG" share of
//!   the paper's Figure 1(a) and the cost that shrinks when the scheduler
//!   receives partitions instead of tasks;
//! * [`RunReport`] — wall-clock plus scheduling-op counts, so benchmarks can
//!   attribute time to scheduling vs. payload;
//! * the wavefront — one sequential and one work-stealing dispatch body
//!   (chunked dependency decrements, flushed before a worker steals or
//!   parks) behind all four entry points. The plain ones lift an
//!   infallible payload and re-raise a contained panic on the caller;
//!   [`Executor::run_tdg_recovering_bounded`] /
//!   [`Executor::run_partitioned_recovering_bounded`] contain payload
//!   failures instead of unwinding: per-attempt `catch_unwind`, bounded
//!   retry with exponential backoff ([`RetryPolicy`]), and partition
//!   quarantine (a permanent failure poisons its dispatch unit's forward
//!   closure while everything else is salvaged). Every run takes a
//!   [`RunBudget`] (wall-clock deadline, [`CancelToken`] cooperative
//!   cancellation; [`RunBudget::unbounded`] sets neither) and reports an
//!   early stop as a structured partial [`RunOutcome`] whose *unfinished*
//!   set is the exact forward closure of the unadmitted units
//!   ([`StopCause`]); a run polls its budget through a [`BudgetClock`]
//!   ([`RunBudget::start`]), which an unscheduled loop can poll just the
//!   same;
//! * [`FaultPlan`] / [`FaultyWork`] — deterministic fault injection keyed
//!   by `(task, attempt)`, the test oracle for the recovering path;
//! * [`sim`] — a deterministic Graham list-scheduling simulator for
//!   reproducing multi-worker makespans on any host.
//!
//! # Example
//!
//! ```
//! use gpasta_sched::Executor;
//! use gpasta_tdg::{TdgBuilder, TaskId};
//! use gpasta_check::sync::{AtomicU32, Ordering};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = TdgBuilder::new(3);
//! b.add_edge(TaskId(0), TaskId(1));
//! b.add_edge(TaskId(1), TaskId(2));
//! let tdg = b.build()?;
//!
//! let sum = AtomicU32::new(0);
//! let exec = Executor::new(2);
//! let report = exec.run_tdg(&tdg, &|t: TaskId| {
//!     sum.fetch_add(t.0, Ordering::Relaxed);
//! });
//! assert_eq!(report.tasks_executed, 3);
//! assert_eq!(sum.load(Ordering::Relaxed), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounded;
mod executor;
mod fault;
mod outcome;
mod report;
pub mod sim;
mod taskflow;

pub use bounded::{panic_message, BudgetClock, RunBudget};
pub use executor::{Executor, ExecutorError, TaskWork, DEFAULT_CHUNK_SIZE};
pub use fault::{fault_hash, splitmix64, FaultKind, FaultPlan, FaultyWork};
pub use gpasta_tdg::{CancelObserver, CancelToken};
pub use outcome::{FailureRecord, RecoverableWork, RetryPolicy, RunOutcome, StopCause, TaskError};
pub use report::RunReport;
pub use sim::{simulate_makespan, SimReport};
pub use taskflow::Taskflow;
