//! G-PASTA core: parallelism-aware, cycle-free TDG partitioners.
//!
//! This crate implements the paper's contribution and its baselines behind
//! one [`Partitioner`] trait:
//!
//! * [`GPasta`] — Algorithm 1: the parallelism-aware partitioning kernel on
//!   the simulated GPU device. Clusters tasks *between adjacent BFS levels*
//!   by propagating a desired partition id (`d_pid`) from parent to child
//!   and committing it into a final partition id (`f_pid`) while the
//!   partition has room. The cycle-free clustering rule (§3.2) is one
//!   `atomicMax`: a task joins the parent partition with the **largest**
//!   id, which keeps every partition convex and the quotient acyclic
//!   (Theorem 1) and guarantees a lower bound on the number of partitions —
//!   so `Ps` needs no tuning (the default resolves to the converged
//!   granularity; see [`PartitionerOptions`]).
//! * [`DeterGPasta`] — Algorithm 2: the deterministic kernel. Replaces the
//!   racy first-come-first-served partition filling with
//!   sort-by-key → reduce-by-key → scan → binary-search, so the result is
//!   identical for any worker count and any run.
//! * [`SeqGPasta`] — the single-threaded CPU variant (same clustering
//!   rule, no device).
//! * [`Gdca`] — the state-of-the-art CPU baseline [Bramas & Ketterlin
//!   2020]: BFS levelisation plus *within-level* greedy clustering, which
//!   is cycle-free by construction but erodes TDG parallelism (Figure 3(a)).
//! * [`Sarkar`] — the classic macro-dataflow partitioner [Sarkar &
//!   Hennessy 1986]: iterative edge-zeroing with explicit cycle checking —
//!   quadratic, included for the Figure 1(b) growth curve.
//!
//! Every partitioner returns a [`Partition`] whose quotient is acyclic;
//! the property-based test suite validates convexity and acyclicity for
//! all of them on random DAGs.
//!
//! # Example
//!
//! ```
//! use gpasta_core::{GPasta, Gdca, Partitioner, PartitionerOptions};
//! use gpasta_tdg::{validate, TdgBuilder, TaskId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = TdgBuilder::new(6);
//! for (u, v) in [(0, 2), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)] {
//!     b.add_edge(TaskId(u), TaskId(v));
//! }
//! let tdg = b.build()?;
//!
//! // G-PASTA needs no tuned partition size: the default is the TDG size.
//! let p = GPasta::new().partition(&tdg, &PartitionerOptions::default())?;
//! validate::check_all(&tdg, &p)?;
//!
//! // GDCA requires an explicit size.
//! let opts = PartitionerOptions::with_max_size(3);
//! let p = Gdca::new().partition(&tdg, &opts)?;
//! validate::check_all(&tdg, &p)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deter;
mod gdca;
mod gpasta;
pub mod incremental;
pub mod refine;
pub mod sanitize;
mod sarkar;
mod seq;

pub use deter::DeterGPasta;
pub use gdca::Gdca;
pub use gpasta::GPasta;
pub use incremental::{forward_closure, IncrementalError, IncrementalPartitioner, RepairStats};
pub use refine::merge_chains;
pub use sarkar::Sarkar;
pub use seq::SeqGPasta;

use gpasta_tdg::{Partition, Tdg};
use std::error::Error;
use std::fmt;

/// Options shared by every partitioner.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartitionerOptions {
    /// Maximum number of tasks per partition (the paper's `Ps`).
    ///
    /// `None` selects the *auto* granularity `⌈tasks / sources⌉`: the
    /// cycle-free clustering rule bounds the partition count from below by
    /// the source count (§3.2), so this is the per-partition size the
    /// algorithm converges to — e.g. the paper observes leon2 saturating
    /// around 15 tasks per partition, which is its TDG-size-to-source
    /// ratio. (The paper phrases the default as "use the TDG size"; on
    /// paper-scale designs the two behave alike because one source's cone
    /// is negligible against `work / threads`, but on scaled-down graphs a
    /// literal `Ps = |V|` lets the largest-id source serialise its whole
    /// forward cone, so this library uses the converged size directly.)
    /// GDCA's quality depends on tuning this value (Figure 8).
    pub max_partition_size: Option<usize>,
}

impl PartitionerOptions {
    /// Options with an explicit maximum partition size.
    ///
    /// # Example
    ///
    /// ```
    /// use gpasta_core::PartitionerOptions;
    /// let opts = PartitionerOptions::with_max_size(16);
    /// assert_eq!(opts.max_partition_size, Some(16));
    /// ```
    pub fn with_max_size(ps: usize) -> Self {
        PartitionerOptions {
            max_partition_size: Some(ps),
        }
    }

    /// The cap on the auto partition size. Figure 8 shows TDG runtime
    /// saturating by partition size ~15–60 on every circuit; capping the
    /// auto granularity there protects source-poor TDGs (e.g. the
    /// single-source cone graphs of incremental updates) from degenerating
    /// into one serial mega-partition.
    pub const AUTO_PS_CAP: usize = 32;

    /// Resolve `Ps` against a TDG: the explicit value, or the auto
    /// granularity `min(⌈tasks / sources⌉, AUTO_PS_CAP)` (at least 1).
    pub fn resolve_ps(&self, tdg: &Tdg) -> usize {
        self.max_partition_size.unwrap_or_else(|| {
            let n = tdg.num_tasks().max(1);
            let sources = tdg.sources().len().max(1);
            n.div_ceil(sources).min(Self::AUTO_PS_CAP)
        })
    }
}

/// Error returned by [`Partitioner::partition`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PartitionError {
    /// `max_partition_size` was zero.
    ZeroPartitionSize,
    /// A [`CancelToken`](gpasta_tdg::CancelToken) fired during a
    /// cancellable partitioning run; no partition was produced.
    Cancelled,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::ZeroPartitionSize => {
                f.write_str("maximum partition size must be at least 1")
            }
            PartitionError::Cancelled => f.write_str("partitioning was cancelled"),
        }
    }
}

impl Error for PartitionError {}

/// A TDG partitioner: clusters the tasks of a DAG into convex partitions
/// whose quotient graph is acyclic, trading per-task scheduling cost for
/// granularity.
pub trait Partitioner {
    /// Short display name (matches the paper's tables).
    fn name(&self) -> &'static str;

    /// Partition `tdg` under `opts`.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::ZeroPartitionSize`] if
    /// `opts.max_partition_size == Some(0)`.
    fn partition(&self, tdg: &Tdg, opts: &PartitionerOptions) -> Result<Partition, PartitionError>;

    /// Cancellable variant of [`partition`](Partitioner::partition): checks
    /// `cancel` at least on entry and returns
    /// [`PartitionError::Cancelled`] if the observer has tripped.
    ///
    /// The default implementation polls once and delegates, which bounds
    /// cancellation latency by one full partitioning run; partitioners with
    /// natural internal boundaries (BFS levels, wavefront passes) override it
    /// to poll per boundary (see [`SeqGPasta`]).
    fn partition_cancellable(
        &self,
        tdg: &Tdg,
        opts: &PartitionerOptions,
        cancel: &gpasta_tdg::CancelObserver,
    ) -> Result<Partition, PartitionError> {
        if cancel.is_cancelled() {
            return Err(PartitionError::Cancelled);
        }
        self.partition(tdg, opts)
    }
}

impl<P: Partitioner + ?Sized> Partitioner for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn partition(&self, tdg: &Tdg, opts: &PartitionerOptions) -> Result<Partition, PartitionError> {
        (**self).partition(tdg, opts)
    }

    fn partition_cancellable(
        &self,
        tdg: &Tdg,
        opts: &PartitionerOptions,
        cancel: &gpasta_tdg::CancelObserver,
    ) -> Result<Partition, PartitionError> {
        (**self).partition_cancellable(tdg, opts, cancel)
    }
}

pub(crate) fn check_opts(opts: &PartitionerOptions) -> Result<(), PartitionError> {
    if opts.max_partition_size == Some(0) {
        return Err(PartitionError::ZeroPartitionSize);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_default_is_tasks_per_source() {
        // Edgeless: 7 tasks, 7 sources -> auto Ps = 1.
        let tdg = gpasta_tdg::TdgBuilder::new(7)
            .build()
            .expect("edgeless DAG");
        assert_eq!(PartitionerOptions::default().resolve_ps(&tdg), 1);
        assert_eq!(PartitionerOptions::with_max_size(3).resolve_ps(&tdg), 3);

        // The paper's Figure 4 graph: 7 tasks, 3 sources -> auto Ps = 3,
        // exactly the walkthrough's partition size.
        let mut b = gpasta_tdg::TdgBuilder::new(7);
        use gpasta_tdg::TaskId;
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(2), TaskId(3));
        b.add_edge(TaskId(4), TaskId(5));
        b.add_edge(TaskId(1), TaskId(6));
        b.add_edge(TaskId(3), TaskId(6));
        b.add_edge(TaskId(5), TaskId(6));
        let fig4 = b.build().expect("figure 4 graph");
        assert_eq!(PartitionerOptions::default().resolve_ps(&fig4), 3);
    }

    #[test]
    fn zero_ps_is_rejected() {
        let opts = PartitionerOptions::with_max_size(0);
        assert_eq!(check_opts(&opts), Err(PartitionError::ZeroPartitionSize));
        assert!(PartitionError::ZeroPartitionSize
            .to_string()
            .contains("at least 1"));
    }

    #[test]
    fn empty_graph_resolves_ps_to_one() {
        let tdg = gpasta_tdg::TdgBuilder::new(0).build().expect("empty DAG");
        assert_eq!(PartitionerOptions::default().resolve_ps(&tdg), 1);
    }

    #[test]
    fn default_cancellable_partition_checks_on_entry() {
        use gpasta_tdg::CancelToken;
        let mut b = gpasta_tdg::TdgBuilder::new(3);
        b.add_edge(gpasta_tdg::TaskId(0), gpasta_tdg::TaskId(1));
        b.add_edge(gpasta_tdg::TaskId(1), gpasta_tdg::TaskId(2));
        let tdg = b.build().expect("chain DAG");
        let token = CancelToken::new();
        // Gdca does not override the default method, so this exercises the
        // trait-level entry check (and the Box forwarding impl).
        let algo: Box<dyn Partitioner> = Box::new(Gdca::new());
        let obs = token.observe();
        assert!(algo
            .partition_cancellable(&tdg, &PartitionerOptions::default(), &obs)
            .is_ok());
        token.cancel();
        assert_eq!(
            algo.partition_cancellable(&tdg, &PartitionerOptions::default(), &obs),
            Err(PartitionError::Cancelled)
        );
    }
}
