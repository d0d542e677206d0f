//! The immutable CSR task-dependency graph and its builder.

use crate::checksum::Checksum;
use crate::csr::CsrTdg;
use crate::error::BuildTdgError;
use crate::level::Levels;
use crate::recycle::{check_edges, TdgArena};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a task (a node of the [`Tdg`]).
///
/// Task ids are dense: a graph with `n` tasks uses ids `0..n`. The id space
/// is `u32` because the paper's largest TDG (leon2, 4.3 M tasks) fits
/// comfortably and the GPU kernels pack ids into 64-bit sort keys
/// (Algorithm 2, line 3).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u32> for TaskId {
    fn from(v: u32) -> Self {
        TaskId(v)
    }
}

/// An immutable task dependency graph in compressed-sparse-row form.
///
/// Both forward (successor) and reverse (predecessor) adjacency are stored,
/// because the partitioners traverse forward (frontier expansion, Algorithm 1
/// step 2) while dependency release counts come from fan-in degrees, and the
/// STA engine propagates backward as well.
///
/// Every `Tdg` is built by one body ([`TdgBuilder`], [`TdgArena`] and the
/// quotient share it) behind a proof that the graph is a DAG — a cycle
/// check, or a caller's construction or certificate; the invariant holds
/// for the lifetime of the value.
#[derive(Debug, Clone)]
pub struct Tdg {
    num_edges: usize,
    fwd_off: Vec<u32>,
    fwd_adj: Vec<u32>,
    rev_off: Vec<u32>,
    rev_adj: Vec<u32>,
    /// Estimated execution cost of each task in nanoseconds. Used by cost-
    /// aware baselines (Sarkar) and by statistics; the schedulers measure
    /// real time instead.
    weights: Vec<f32>,
    /// Lazily built level-ordered view (see [`Tdg::csr`]). Excluded from
    /// equality: it is derived state, and two equal graphs must compare
    /// equal whether or not either has built it.
    csr: OnceLock<CsrTdg>,
}

impl PartialEq for Tdg {
    fn eq(&self, other: &Self) -> bool {
        self.num_edges == other.num_edges
            && self.fwd_off == other.fwd_off
            && self.fwd_adj == other.fwd_adj
            && self.rev_off == other.rev_off
            && self.rev_adj == other.rev_adj
            && self.weights == other.weights
    }
}

/// The five owned CSR buffers of a [`Tdg`] — `(fwd_off, fwd_adj,
/// rev_off, rev_adj, weights)`, the argument order of `from_csr`.
pub(crate) type CsrBuffers = (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>, Vec<f32>);

impl Tdg {
    /// Assemble a `Tdg` from pre-built CSR arrays: the last step of
    /// [`TdgArena::finish_build`](crate::TdgArena), the one build body,
    /// whose callers establish that the edge set is acyclic.
    pub(crate) fn from_csr(
        fwd_off: Vec<u32>,
        fwd_adj: Vec<u32>,
        rev_off: Vec<u32>,
        rev_adj: Vec<u32>,
        weights: Vec<f32>,
    ) -> Self {
        debug_assert_eq!(fwd_off.len(), rev_off.len());
        debug_assert_eq!(fwd_adj.len(), rev_adj.len());
        debug_assert_eq!(weights.len() + 1, fwd_off.len());
        Tdg {
            num_edges: fwd_adj.len(),
            fwd_off,
            fwd_adj,
            rev_off,
            rev_adj,
            weights,
            csr: OnceLock::new(),
        }
    }

    /// Disassemble into the five owned CSR buffers, for recycling through
    /// a [`TdgArena`](crate::TdgArena). The cached level-ordered view, if
    /// any, is dropped — it is derived state.
    pub(crate) fn into_buffers(self) -> CsrBuffers {
        (
            self.fwd_off,
            self.fwd_adj,
            self.rev_off,
            self.rev_adj,
            self.weights,
        )
    }

    /// The level-ordered flat CSR view of this graph, built on first use
    /// and cached for the graph's lifetime. All wavefront partitioners
    /// run on this view, so one levelisation is shared across every
    /// partition call on the same graph.
    pub fn csr(&self) -> &CsrTdg {
        self.csr.get_or_init(|| CsrTdg::build(self))
    }

    /// Number of tasks (nodes).
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.fwd_off.len() - 1
    }

    /// Number of dependencies (edges).
    #[inline]
    pub fn num_deps(&self) -> usize {
        self.num_edges
    }

    /// Successors (fan-out dependents) of `t`.
    #[inline]
    pub fn successors(&self, t: TaskId) -> &[u32] {
        let i = t.index();
        &self.fwd_adj[self.fwd_off[i] as usize..self.fwd_off[i + 1] as usize]
    }

    /// Predecessors (fan-in dependencies) of `t`.
    #[inline]
    pub fn predecessors(&self, t: TaskId) -> &[u32] {
        let i = t.index();
        &self.rev_adj[self.rev_off[i] as usize..self.rev_off[i + 1] as usize]
    }

    /// Fan-in degree of `t` — the initial value of the paper's `dep_cnt`.
    #[inline]
    pub fn in_degree(&self, t: TaskId) -> u32 {
        let i = t.index();
        self.rev_off[i + 1] - self.rev_off[i]
    }

    /// Fan-out degree of `t`.
    #[inline]
    pub fn out_degree(&self, t: TaskId) -> u32 {
        let i = t.index();
        self.fwd_off[i + 1] - self.fwd_off[i]
    }

    /// Estimated execution cost of `t` in nanoseconds.
    #[inline]
    pub fn weight(&self, t: TaskId) -> f32 {
        self.weights[t.index()]
    }

    /// All estimated task costs, indexed by task id.
    #[inline]
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Tasks with no predecessors, in ascending id order.
    ///
    /// These seed the BFS frontier of every partitioner (`H` in Figure 4).
    pub fn sources(&self) -> Vec<TaskId> {
        (0..self.num_tasks() as u32)
            .filter(|&v| self.in_degree(TaskId(v)) == 0)
            .map(TaskId)
            .collect()
    }

    /// Tasks with no successors, in ascending id order.
    pub fn sinks(&self) -> Vec<TaskId> {
        (0..self.num_tasks() as u32)
            .filter(|&v| self.out_degree(TaskId(v)) == 0)
            .map(TaskId)
            .collect()
    }

    /// Fan-in degrees of every task, indexed by task id.
    ///
    /// This is the `dep_cnt` array that both Algorithm 1 and the scheduler
    /// initialise before traversal.
    pub fn in_degrees(&self) -> Vec<u32> {
        (0..self.num_tasks())
            .map(|i| self.rev_off[i + 1] - self.rev_off[i])
            .collect()
    }

    /// BFS levelisation of the graph. Level 0 contains the sources.
    pub fn levels(&self) -> Levels {
        Levels::new(self)
    }

    /// A 64-bit structural fingerprint of the graph (the [`Checksum`] of
    /// the task count and the forward CSR arrays, as little-endian `u32`s).
    ///
    /// Two graphs with the same task ids and edge set share a fingerprint;
    /// weights are deliberately excluded, so re-weighting a TDG (as
    /// incremental timing updates do) does not invalidate caches keyed on
    /// the structure. This is the epoch key used by
    /// `gpasta-core`'s incremental partition cache.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Checksum::default();
        h.update_words(&[self.num_tasks() as u32]);
        h.update_words(&self.fwd_off);
        h.update_words(&self.fwd_adj);
        h.finish()
    }

    /// Iterate over all edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (TaskId, TaskId)> + '_ {
        (0..self.num_tasks() as u32).flat_map(move |u| {
            self.successors(TaskId(u))
                .iter()
                .map(move |&v| (TaskId(u), TaskId(v)))
        })
    }
}

/// Incremental builder for a [`Tdg`].
///
/// Duplicate edges are merged; [`build`](TdgBuilder::build) verifies the
/// graph is acyclic.
///
/// # Example
///
/// ```
/// use gpasta_tdg::{TdgBuilder, TaskId};
/// # fn main() -> Result<(), gpasta_tdg::BuildTdgError> {
/// let mut b = TdgBuilder::new(3);
/// b.add_edge(TaskId(0), TaskId(1));
/// b.add_edge(TaskId(1), TaskId(2));
/// b.add_edge(TaskId(0), TaskId(1)); // duplicate, merged away
/// let tdg = b.build()?;
/// assert_eq!(tdg.num_deps(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct TdgBuilder {
    num_tasks: usize,
    edges: Vec<(u32, u32)>,
    weights: Vec<f32>,
}

/// Default estimated task cost (ns) when none is provided: in the middle of
/// the paper's observed 0.5–50 µs backward-propagation range.
pub(crate) const DEFAULT_WEIGHT_NS: f32 = 1_000.0;

impl TdgBuilder {
    /// Create a builder for a graph with `num_tasks` tasks and no edges yet.
    pub fn new(num_tasks: usize) -> Self {
        TdgBuilder {
            num_tasks,
            edges: Vec::new(),
            weights: vec![DEFAULT_WEIGHT_NS; num_tasks],
        }
    }

    /// Create a builder and pre-allocate room for `num_edges` edges.
    pub fn with_capacity(num_tasks: usize, num_edges: usize) -> Self {
        TdgBuilder {
            num_tasks,
            edges: Vec::with_capacity(num_edges),
            weights: vec![DEFAULT_WEIGHT_NS; num_tasks],
        }
    }

    /// Number of tasks the built graph will have.
    pub fn num_tasks(&self) -> usize {
        self.num_tasks
    }

    /// Number of edges added so far (duplicates included).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Add a dependency edge `from -> to` (`to` waits for `from`).
    ///
    /// Range and self-loop violations are reported by
    /// [`build`](TdgBuilder::build), keeping this hot path branch-light.
    #[inline]
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) -> &mut Self {
        self.edges.push((from.0, to.0));
        self
    }

    /// Set the estimated execution cost of `t` in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn set_weight(&mut self, t: TaskId, weight_ns: f32) -> &mut Self {
        self.weights[t.index()] = weight_ns;
        self
    }

    /// Finalise into an immutable [`Tdg`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildTdgError::TooManyTasks`] if the task count does not
    /// fit the `u32` id space, [`BuildTdgError::TaskOutOfRange`] or
    /// [`BuildTdgError::SelfLoop`] for the first malformed edge in
    /// insertion order, and [`BuildTdgError::Cycle`] if the edge set is
    /// not acyclic.
    pub fn build(self) -> Result<Tdg, BuildTdgError> {
        check_edges(self.num_tasks, &self.edges)?;
        let mut arena = TdgArena::new();
        arena.edges = self.edges;
        arena.weights = self.weights;
        arena.finish_checked(self.num_tasks)
    }
}

impl Extend<(TaskId, TaskId)> for TdgBuilder {
    fn extend<I: IntoIterator<Item = (TaskId, TaskId)>>(&mut self, iter: I) {
        for (u, v) in iter {
            self.add_edge(u, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Tdg {
        let mut b = TdgBuilder::new(4);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(0), TaskId(2));
        b.add_edge(TaskId(1), TaskId(3));
        b.add_edge(TaskId(2), TaskId(3));
        b.build().expect("diamond is a DAG")
    }

    #[test]
    fn diamond_shape() {
        let g = diamond();
        assert_eq!(g.num_tasks(), 4);
        assert_eq!(g.num_deps(), 4);
        assert_eq!(g.successors(TaskId(0)), &[1, 2]);
        assert_eq!(g.predecessors(TaskId(3)), &[1, 2]);
        assert_eq!(g.in_degree(TaskId(0)), 0);
        assert_eq!(g.in_degree(TaskId(3)), 2);
        assert_eq!(g.out_degree(TaskId(0)), 2);
        assert_eq!(g.sources(), vec![TaskId(0)]);
        assert_eq!(g.sinks(), vec![TaskId(3)]);
    }

    #[test]
    fn empty_graph() {
        let g = TdgBuilder::new(0).build().expect("empty graph is a DAG");
        assert_eq!(g.num_tasks(), 0);
        assert_eq!(g.num_deps(), 0);
        assert!(g.sources().is_empty());
    }

    #[test]
    fn edgeless_graph_is_all_sources_and_sinks() {
        let g = TdgBuilder::new(3).build().expect("edgeless graph is a DAG");
        assert_eq!(g.sources().len(), 3);
        assert_eq!(g.sinks().len(), 3);
        assert_eq!(g.in_degrees(), vec![0, 0, 0]);
    }

    #[test]
    fn duplicate_edges_merge() {
        let mut b = TdgBuilder::new(2);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(0), TaskId(1));
        let g = b.build().expect("duplicates collapse into a DAG");
        assert_eq!(g.num_deps(), 1);
        assert_eq!(g.in_degree(TaskId(1)), 1);
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let mut b = TdgBuilder::new(2);
        b.add_edge(TaskId(0), TaskId(5));
        assert_eq!(
            b.build()
                .expect_err("edge to task 5 exceeds the task range"),
            BuildTdgError::TaskOutOfRange {
                task: 5,
                num_tasks: 2
            }
        );
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = TdgBuilder::new(2);
        b.add_edge(TaskId(1), TaskId(1));
        assert_eq!(
            b.build().expect_err("self-loop must be rejected"),
            BuildTdgError::SelfLoop { task: 1 }
        );
    }

    #[test]
    fn two_cycle_rejected() {
        let mut b = TdgBuilder::new(2);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(1), TaskId(0));
        assert!(matches!(
            b.build().expect_err("2-cycle must be rejected"),
            BuildTdgError::Cycle { .. }
        ));
    }

    #[test]
    fn long_cycle_rejected_but_dag_prefix_ok() {
        // 0 -> 1 -> 2 -> 3 -> 1 has a cycle {1,2,3}.
        let mut b = TdgBuilder::new(4);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(1), TaskId(2));
        b.add_edge(TaskId(2), TaskId(3));
        b.add_edge(TaskId(3), TaskId(1));
        assert!(matches!(
            b.build().expect_err("3-cycle must be rejected"),
            BuildTdgError::Cycle { .. }
        ));
    }

    #[test]
    fn weights_default_and_override() {
        let mut b = TdgBuilder::new(2);
        b.add_edge(TaskId(0), TaskId(1));
        b.set_weight(TaskId(1), 42.5);
        let g = b.build().expect("chain is a DAG");
        assert_eq!(g.weight(TaskId(0)), DEFAULT_WEIGHT_NS);
        assert_eq!(g.weight(TaskId(1)), 42.5);
    }

    #[test]
    fn edges_iterator_round_trips() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                (TaskId(0), TaskId(1)),
                (TaskId(0), TaskId(2)),
                (TaskId(1), TaskId(3)),
                (TaskId(2), TaskId(3)),
            ]
        );
    }

    #[test]
    fn extend_trait_adds_edges() {
        let mut b = TdgBuilder::new(3);
        b.extend([(TaskId(0), TaskId(1)), (TaskId(1), TaskId(2))]);
        let g = b.build().expect("chain is a DAG");
        assert_eq!(g.num_deps(), 2);
    }

    #[test]
    fn fingerprint_tracks_structure_not_weights() {
        let g1 = diamond();
        let g2 = diamond();
        assert_eq!(g1.fingerprint(), g2.fingerprint());

        // Same shape, different weights: structure-only key is unchanged.
        let mut b = TdgBuilder::new(4);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(0), TaskId(2));
        b.add_edge(TaskId(1), TaskId(3));
        b.add_edge(TaskId(2), TaskId(3));
        b.set_weight(TaskId(2), 9.0);
        let reweighted = b.build().expect("diamond is a DAG");
        assert_eq!(g1.fingerprint(), reweighted.fingerprint());

        // One edge fewer: different key.
        let mut b = TdgBuilder::new(4);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(0), TaskId(2));
        b.add_edge(TaskId(1), TaskId(3));
        let smaller = b.build().expect("DAG");
        assert_ne!(g1.fingerprint(), smaller.fingerprint());

        // Same edge count, different endpoints: different key.
        let empty3 = TdgBuilder::new(3).build().expect("DAG");
        let empty4 = TdgBuilder::new(4).build().expect("DAG");
        assert_ne!(empty3.fingerprint(), empty4.fingerprint());
    }

    #[test]
    fn task_id_display_and_conversions() {
        let t = TaskId::from(9u32);
        assert_eq!(t.to_string(), "t9");
        assert_eq!(t.index(), 9);
    }
}
