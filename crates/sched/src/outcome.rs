//! The recovering execution model: typed task errors, retry policy, and the
//! structured [`RunOutcome`] the fault-tolerant runners return instead of
//! resuming an unwind.

use crate::report::RunReport;
use gpasta_tdg::TaskId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// Why a single payload attempt failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskError {
    /// Retryable: a later attempt may succeed (lost launch, spurious
    /// allocation failure). The executor retries with backoff up to
    /// [`RetryPolicy::max_retries`].
    Transient(String),
    /// Permanent: retrying cannot help (detected corruption, payload
    /// panic). The task's dispatch unit is quarantined immediately.
    Fatal(String),
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::Transient(msg) => write!(f, "transient: {msg}"),
            TaskError::Fatal(msg) => write!(f, "fatal: {msg}"),
        }
    }
}

impl std::error::Error for TaskError {}

/// A fallible task payload for the recovering runners.
///
/// `attempt` starts at 0 and increments on every retry of the same task, so
/// deterministic fault plans keyed by `(task, attempt)` replay exactly.
/// Implemented for all `Fn(TaskId, u32) -> Result<(), TaskError> + Sync`
/// closures; infallible [`TaskWork`](crate::TaskWork) payloads lift via
/// [`FaultyWork`](crate::FaultyWork) (with [`FaultPlan::none`]
/// (crate::FaultPlan::none) for a pure pass-through) or a trivial closure.
pub trait RecoverableWork: Sync {
    /// Run attempt `attempt` of `task`.
    fn execute(&self, task: TaskId, attempt: u32) -> Result<(), TaskError>;
}

impl<F: Fn(TaskId, u32) -> Result<(), TaskError> + Sync> RecoverableWork for F {
    #[inline]
    fn execute(&self, task: TaskId, attempt: u32) -> Result<(), TaskError> {
        self(task, attempt)
    }
}

/// Bounded-retry policy for transient failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (so a task runs at most
    /// `max_retries + 1` times).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_micros(20),
            max_backoff: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// Fail permanently on the first error: no retries, no sleeps.
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// Exponential backoff before retrying after failed attempt `attempt`
    /// (0-based): `base * 2^attempt`, capped at `max_backoff`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base_backoff
            .checked_mul(factor)
            .map_or(self.max_backoff, |d| d.min(self.max_backoff))
    }
}

/// One permanently failed task, as recorded in a [`RunOutcome`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureRecord {
    /// The dispatch unit that was quarantined: the task id on plain runs,
    /// the partition id on partitioned runs.
    pub unit: u32,
    /// The underlying task whose payload failed (equals `unit` on plain
    /// runs).
    pub task: u32,
    /// Attempts made before giving up (1 + retries).
    pub attempts: u32,
    /// The final error.
    pub error: TaskError,
}

/// Why a bounded run stopped admitting dispatch units.
///
/// Unbounded runs always report [`StopCause::Completed`]; the bounded
/// runners additionally report deadline expiry and cooperative
/// cancellation, in which case the unadmitted forward closure lands in
/// [`RunOutcome::unfinished_tasks`] rather than the poison sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopCause {
    /// Every dispatch unit was admitted (salvaged or poisoned); nothing is
    /// unfinished.
    Completed,
    /// The wall-clock budget expired; admission stopped early.
    DeadlineExpired,
    /// A [`CancelToken`](gpasta_tdg::CancelToken) fired; admission stopped
    /// early.
    Cancelled,
}

impl fmt::Display for StopCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopCause::Completed => write!(f, "completed"),
            StopCause::DeadlineExpired => write!(f, "deadline expired"),
            StopCause::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Structured result of a recovering run.
///
/// The run never aborts: every dispatch unit is either *salvaged* (its
/// payload completed), *poisoned* (it failed permanently, or depends —
/// directly or transitively — on a unit that did), or — on bounded runs
/// that stop early — *unfinished* (never admitted because the deadline
/// expired or the run was cancelled; its inputs may be incomplete but no
/// fault occurred in its cone). The three sets are disjoint and their
/// union is the whole task set, so the salvaged set is the exact
/// complement of poisoned ∪ unfinished.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Scheduling report; `tasks_executed` counts salvaged tasks only.
    pub report: RunReport,
    /// Underlying tasks whose payload completed successfully.
    pub salvaged_tasks: usize,
    /// Underlying tasks in the quarantine (sorted, ascending).
    pub poisoned_tasks: Vec<u32>,
    /// Poisoned dispatch units (sorted, ascending): task ids on plain runs,
    /// partition ids on partitioned runs.
    pub poisoned_units: Vec<u32>,
    /// Underlying tasks never admitted because the run stopped early
    /// (sorted, ascending). Disjoint from the poison sets; empty when
    /// [`stop`](RunOutcome::stop) is [`StopCause::Completed`].
    pub unfinished_tasks: Vec<u32>,
    /// Unadmitted dispatch units (sorted, ascending): task ids on plain
    /// runs, partition ids on partitioned runs.
    pub unfinished_units: Vec<u32>,
    /// Permanently failed units, in the order they failed.
    pub failures: Vec<FailureRecord>,
    /// Total retry sleeps performed across all tasks.
    pub retries: u64,
    /// Why admission stopped.
    pub stop: StopCause,
}

impl RunOutcome {
    /// `true` when nothing failed and nothing was left behind: every task
    /// salvaged and the run ran to completion.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
            && self.poisoned_tasks.is_empty()
            && self.unfinished_tasks.is_empty()
            && self.stop == StopCause::Completed
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} salvaged / {} poisoned / {} unfinished tasks ({} failed units, {} retries, {}) in {:.3} ms on {} workers",
            self.salvaged_tasks,
            self.poisoned_tasks.len(),
            self.unfinished_tasks.len(),
            self.failures.len(),
            self.retries,
            self.stop,
            self.report.elapsed.as_secs_f64() * 1e3,
            self.report.num_workers,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(350),
        };
        assert_eq!(p.backoff(0), Duration::from_micros(100));
        assert_eq!(p.backoff(1), Duration::from_micros(200));
        assert_eq!(p.backoff(2), Duration::from_micros(350), "capped");
        assert_eq!(p.backoff(31), Duration::from_micros(350));
        assert_eq!(p.backoff(63), Duration::from_micros(350), "shift overflow");
    }

    #[test]
    fn no_retries_policy_never_sleeps() {
        let p = RetryPolicy::no_retries();
        assert_eq!(p.max_retries, 0);
        assert_eq!(p.backoff(0), Duration::ZERO);
    }

    #[test]
    fn closures_are_recoverable_work() {
        let w = |t: TaskId, attempt: u32| -> Result<(), TaskError> {
            if t.0 == 1 && attempt == 0 {
                Err(TaskError::Transient("flaky".into()))
            } else {
                Ok(())
            }
        };
        assert!(RecoverableWork::execute(&w, TaskId(0), 0).is_ok());
        assert!(RecoverableWork::execute(&w, TaskId(1), 0).is_err());
        assert!(RecoverableWork::execute(&w, TaskId(1), 1).is_ok());
    }

    #[test]
    fn outcome_display_and_cleanliness() {
        let outcome = RunOutcome {
            report: RunReport {
                elapsed: Duration::from_millis(1),
                tasks_executed: 3,
                dispatches: 4,
                num_workers: 2,
            },
            salvaged_tasks: 3,
            poisoned_tasks: vec![2],
            poisoned_units: vec![2],
            unfinished_tasks: vec![],
            unfinished_units: vec![],
            failures: vec![FailureRecord {
                unit: 2,
                task: 2,
                attempts: 4,
                error: TaskError::Fatal("boom".into()),
            }],
            retries: 3,
            stop: StopCause::Completed,
        };
        assert!(!outcome.is_clean());
        let s = outcome.to_string();
        assert!(s.contains("3 salvaged"));
        assert!(s.contains("1 poisoned"));
        let clean = RunOutcome {
            poisoned_tasks: vec![],
            failures: vec![],
            ..outcome
        };
        assert!(clean.is_clean());
    }

    #[test]
    fn deadline_stopped_outcome_is_not_clean() {
        let outcome = RunOutcome {
            report: RunReport {
                elapsed: Duration::from_millis(1),
                tasks_executed: 1,
                dispatches: 1,
                num_workers: 1,
            },
            salvaged_tasks: 1,
            poisoned_tasks: vec![],
            poisoned_units: vec![],
            unfinished_tasks: vec![1, 2],
            unfinished_units: vec![1, 2],
            failures: vec![],
            retries: 0,
            stop: StopCause::DeadlineExpired,
        };
        assert!(!outcome.is_clean(), "unfinished work is not clean");
        let s = outcome.to_string();
        assert!(s.contains("2 unfinished"));
        assert!(s.contains("deadline expired"));
    }

    #[test]
    fn outcome_serde_round_trips() {
        use serde::{Deserialize as _, Serialize as _};
        let outcome = RunOutcome {
            report: RunReport {
                elapsed: Duration::new(3, 141_592_653),
                tasks_executed: 7,
                dispatches: 9,
                num_workers: 4,
            },
            salvaged_tasks: 7,
            poisoned_tasks: vec![8, 9],
            poisoned_units: vec![8],
            unfinished_tasks: vec![10, 11],
            unfinished_units: vec![10, 11],
            failures: vec![
                FailureRecord {
                    unit: 8,
                    task: 9,
                    attempts: 2,
                    error: TaskError::Transient("lost launch".into()),
                },
                FailureRecord {
                    unit: 3,
                    task: 3,
                    attempts: 1,
                    error: TaskError::Fatal("boom".into()),
                },
            ],
            retries: 5,
            stop: StopCause::Cancelled,
        };
        let v = outcome.to_value();
        let back = RunOutcome::from_value(&v).expect("round trip");
        assert_eq!(back, outcome);
    }

    #[test]
    fn task_error_serde_round_trips_all_variants() {
        use serde::{Deserialize as _, Serialize as _};
        for err in [
            TaskError::Transient("t".into()),
            TaskError::Fatal("f".into()),
        ] {
            let back = TaskError::from_value(&err.to_value()).expect("round trip");
            assert_eq!(back, err);
        }
    }

    #[test]
    fn stop_cause_serde_round_trips() {
        use serde::{Deserialize as _, Serialize as _};
        for cause in [
            StopCause::Completed,
            StopCause::DeadlineExpired,
            StopCause::Cancelled,
        ] {
            let back = StopCause::from_value(&cause.to_value()).expect("round trip");
            assert_eq!(back, cause);
        }
    }
}
