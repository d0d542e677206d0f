//! Error types for TDG construction and partition validation.

use std::error::Error;
use std::fmt;

/// Error returned by [`TdgBuilder::build`](crate::TdgBuilder::build).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildTdgError {
    /// An edge endpoint is `>= num_tasks`.
    TaskOutOfRange {
        /// The offending task id.
        task: u32,
        /// Number of tasks declared when the builder was created.
        num_tasks: u32,
    },
    /// An edge connects a task to itself.
    SelfLoop {
        /// The task with the self-loop.
        task: u32,
    },
    /// The edge set contains a directed cycle, so the graph is not a DAG.
    Cycle {
        /// A task known to participate in (or be downstream of) a cycle.
        witness: u32,
    },
    /// More than `u32::MAX` tasks were requested.
    TooManyTasks {
        /// Requested task count.
        requested: usize,
    },
}

impl fmt::Display for BuildTdgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BuildTdgError::TaskOutOfRange { task, num_tasks } => {
                write!(
                    f,
                    "task id {task} out of range (graph has {num_tasks} tasks)"
                )
            }
            BuildTdgError::SelfLoop { task } => write!(f, "self-loop on task {task}"),
            BuildTdgError::Cycle { witness } => {
                write!(
                    f,
                    "dependency cycle detected (task {witness} never becomes ready)"
                )
            }
            BuildTdgError::TooManyTasks { requested } => {
                write!(
                    f,
                    "requested {requested} tasks, which exceeds the u32 task-id space"
                )
            }
        }
    }
}

impl Error for BuildTdgError {}

/// Error returned by the validators in [`validate`](crate::validate).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValidatePartitionError {
    /// The partition assignment vector length differs from the task count.
    LengthMismatch {
        /// Tasks in the TDG.
        num_tasks: usize,
        /// Entries in the partition assignment.
        assignment_len: usize,
    },
    /// A task was assigned a partition id `>= num_partitions`.
    PartitionOutOfRange {
        /// The offending task.
        task: u32,
        /// Its (invalid) partition id.
        pid: u32,
        /// Declared number of partitions.
        num_partitions: u32,
    },
    /// A partition id in `0..num_partitions` has no member tasks.
    EmptyPartition {
        /// The empty partition id.
        pid: u32,
    },
    /// The quotient graph induced by the partition contains a cycle, i.e. the
    /// partitioned TDG cannot be scheduled (Figure 2(a) in the paper).
    QuotientCycle {
        /// A partition participating in (or downstream of) the cycle.
        witness_pid: u32,
    },
    /// A partition is not convex: a path leaves the partition and re-enters
    /// it (Figure 5(a) in the paper).
    NotConvex {
        /// The non-convex partition.
        pid: u32,
        /// A task outside `pid` that lies on a path between two members.
        via_task: u32,
    },
    /// A raw partition assignment decreases along a TDG edge, breaking the
    /// §3.2 ordering certificate (monotone ids imply an acyclic quotient
    /// and convex partitions; see `validate::check_edge_monotone`).
    NotMonotone {
        /// Source task of the offending edge.
        from: u32,
        /// Destination task of the offending edge.
        to: u32,
    },
    /// A partition holds more tasks than the configured maximum size `Ps`.
    PartitionTooLarge {
        /// The oversized partition.
        pid: u32,
        /// Its member count.
        size: usize,
        /// The configured maximum.
        max_size: usize,
    },
}

impl fmt::Display for ValidatePartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ValidatePartitionError::LengthMismatch { num_tasks, assignment_len } => write!(
                f,
                "partition assignment has {assignment_len} entries but the TDG has {num_tasks} tasks"
            ),
            ValidatePartitionError::PartitionOutOfRange { task, pid, num_partitions } => write!(
                f,
                "task {task} assigned to partition {pid}, but only {num_partitions} partitions exist"
            ),
            ValidatePartitionError::EmptyPartition { pid } => {
                write!(f, "partition {pid} has no member tasks")
            }
            ValidatePartitionError::QuotientCycle { witness_pid } => write!(
                f,
                "partitioned TDG contains a cyclic dependency (through partition {witness_pid})"
            ),
            ValidatePartitionError::NotConvex { pid, via_task } => write!(
                f,
                "partition {pid} is not convex: a path between two members passes through outside task {via_task}"
            ),
            ValidatePartitionError::NotMonotone { from, to } => write!(
                f,
                "partition id decreases along edge {from} -> {to}, violating the monotone-id ordering"
            ),
            ValidatePartitionError::PartitionTooLarge { pid, size, max_size } => write!(
                f,
                "partition {pid} has {size} tasks, exceeding the maximum partition size {max_size}"
            ),
        }
    }
}

impl Error for ValidatePartitionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = BuildTdgError::SelfLoop { task: 7 };
        assert_eq!(e.to_string(), "self-loop on task 7");
        let e = BuildTdgError::Cycle { witness: 3 };
        assert!(e.to_string().contains("cycle"));
        let e = ValidatePartitionError::QuotientCycle { witness_pid: 2 };
        assert!(e.to_string().contains("partition 2"));
        let e = ValidatePartitionError::NotConvex {
            pid: 1,
            via_task: 9,
        };
        assert!(e.to_string().contains("convex"));
    }

    #[test]
    fn errors_are_error_trait_objects() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<BuildTdgError>();
        assert_err::<ValidatePartitionError>();
    }
}
