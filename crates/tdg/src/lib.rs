//! Task-dependency-graph (TDG) substrate for the G-PASTA reproduction.
//!
//! A TDG is a directed acyclic graph whose nodes are *tasks* (e.g. a forward
//! timing-propagation step on one circuit node) and whose edges are
//! *dependencies* (task `u` must finish before task `v` starts). This crate
//! provides:
//!
//! * [`Tdg`] — an immutable, validated DAG in compressed-sparse-row form with
//!   both forward (successor) and reverse (predecessor) adjacency. One build
//!   body makes every `Tdg`: [`TdgBuilder`] runs it once, [`TdgArena`] on
//!   recycled buffers (checked, or trusted for edges that are valid by
//!   construction), and the quotient builder on the arena it owns;
//! * [`Levels`] — BFS levelisation (the backbone of every partitioner in the
//!   paper; its `order()` is a topological order, its `depth()` the
//!   critical path in tasks) and [`ParallelismProfile`];
//! * [`Partition`] — a clustering of tasks into partitions, the output type
//!   of every partitioner, plus [`PartitionStats`];
//! * [`quotient`] — construction of the *partitioned TDG*
//!   (quotient graph) that the scheduler actually runs, and its
//!   restriction to the tasks of one update;
//! * [`shard`] — a cut of a topologically numbered TDG's task ids into
//!   contiguous, acyclic shards ([`ShardPlan`]), the unit of multi-process
//!   distribution;
//! * [`Checksum`] — the one 64-bit checksum behind every fingerprint,
//!   checkpoint and shard frame;
//! * [`validate`] — the paper's validity conditions:
//!   acyclic quotient, convex partitions, bounded partition size;
//! * [`io`] — plain-text edge-list interchange.
//!
//! # Example
//!
//! ```
//! use gpasta_tdg::{TdgBuilder, TaskId};
//!
//! # fn main() -> Result<(), gpasta_tdg::BuildTdgError> {
//! // The diamond 0 -> {1,2} -> 3.
//! let mut b = TdgBuilder::new(4);
//! b.add_edge(TaskId(0), TaskId(1));
//! b.add_edge(TaskId(0), TaskId(2));
//! b.add_edge(TaskId(1), TaskId(3));
//! b.add_edge(TaskId(2), TaskId(3));
//! let tdg = b.build()?;
//! assert_eq!(tdg.num_tasks(), 4);
//! assert_eq!(tdg.num_deps(), 4);
//! assert_eq!(tdg.levels().depth(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod checksum;
pub mod csr;
mod dot;
mod error;
mod graph;
pub mod io;
mod level;
mod partition;
pub mod quotient;
mod recycle;
pub mod shard;
mod topo;
pub mod validate;

pub use cancel::{CancelObserver, CancelToken};
pub use checksum::{checksum, Checksum};
pub use csr::CsrTdg;
pub use dot::partition_to_dot;
pub use error::{BuildTdgError, ValidatePartitionError};
pub use graph::{TaskId, Tdg, TdgBuilder};
pub use io::{parse_edge_list, write_edge_list, ParseEdgeListError};
pub use level::Levels;
pub use partition::{Partition, PartitionId, PartitionStats};
pub use quotient::{QuotientArena, QuotientTdg};
pub use recycle::{ArenaTdgBuilder, TdgArena};
pub use shard::{ShardPlan, ShardPlanError, TaskSuccessors};
pub use topo::ParallelismProfile;
