//! # G-PASTA — GPU-Accelerated Partitioning Algorithm for Static Timing Analysis
//!
//! Facade crate for the G-PASTA (DAC 2024) reproduction. Re-exports every
//! workspace crate under one roof so examples and downstream users need a
//! single dependency:
//!
//! * [`tdg`] — task-dependency-graph substrate (CSR DAGs, levels, partitions,
//!   quotient graphs, validation);
//! * [`gpu`] — software GPU-device simulation (bulk-synchronous kernels,
//!   atomics, Thrust-style primitives);
//! * [`sched`] — Taskflow-like work-stealing executor for plain and
//!   partitioned TDGs;
//! * [`sta`] — OpenTimer-like static timing analysis engine that emits the
//!   TDGs the paper partitions;
//! * [`circuits`] — synthetic designs calibrated to the paper's benchmark
//!   suite;
//! * [`core`] — the partitioners themselves: G-PASTA, deter-G-PASTA,
//!   seq-G-PASTA, and the GDCA / Sarkar baselines;
//! * [`checkpoint`] — crash-safe checkpoint/resume for the incremental
//!   timing-update flow (`gpasta update`);
//! * [`session`] — the owned `Session` unit: a loaded design and its
//!   timer, movable across threads and evictable to a checkpoint;
//! * [`scheduled`] — `ScheduledTimer`, the paper's update path: a timer
//!   whose cones run on a seq-G-PASTA partition, through the executor;
//! * [`serve`] — `gpasta serve`: an HTTP/JSON daemon (and JSON-RPC
//!   stdio mode) hosting warm concurrent sessions;
//! * [`shard`] — `gpasta shard`: sharded multi-process execution with a
//!   kill-tolerant shard supervisor, boundary-value hand-off, and
//!   checkpointed supervisor recovery;
//! * [`errors`] — shared error types for every process boundary.
//!
//! # Quickstart
//!
//! ```
//! use gpasta::core::{GPasta, Partitioner, PartitionerOptions};
//! use gpasta::tdg::{TdgBuilder, TaskId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build a small TDG and partition it with G-PASTA defaults
//! // (partition size = TDG size; the algorithm converges on its own).
//! let mut b = TdgBuilder::new(4);
//! b.add_edge(TaskId(0), TaskId(1));
//! b.add_edge(TaskId(0), TaskId(2));
//! b.add_edge(TaskId(1), TaskId(3));
//! b.add_edge(TaskId(2), TaskId(3));
//! let tdg = b.build()?;
//!
//! let partition = GPasta::new().partition(&tdg, &PartitionerOptions::default())?;
//! gpasta::tdg::validate::check_all(&tdg, &partition)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod errors;
mod record;
pub mod scheduled;
pub mod serve;
pub mod session;
pub mod shard;

pub use gpasta_circuits as circuits;
pub use gpasta_core as core;
pub use gpasta_gpu as gpu;
pub use gpasta_sched as sched;
pub use gpasta_sta as sta;
pub use gpasta_tdg as tdg;
