//! The one place a [`Tdg`] is built.
//!
//! Every graph in this crate comes out of [`TdgArena::finish_build`]: a
//! [`TdgBuilder`](crate::TdgBuilder) runs it on an arena made from its own
//! vectors, an [`ArenaTdgBuilder`] on recycled buffers, and the quotient
//! builder on the [`TdgArena`] its [`QuotientArena`](crate::QuotientArena)
//! owns. The checked paths put [`check_edges`] in front of it and
//! [`kahn_drain`] behind it; the quotient proves acyclicity its own way
//! and falls back to the same drain.
//!
//! `Timer::update_timing` builds a fresh TDG every incremental iteration —
//! the 59 %-of-update "task graph construction" slice of the paper's
//! Figure 1(a). [`TdgArena`] owns every buffer that construction needs
//! (edge staging, CSR arrays, cycle-check scratch) and takes finished
//! graphs back via [`TdgArena::recycle`], so steady-state rebuilds touch
//! the allocator only while a new high-water mark is being established.
//! DESIGN.md §13.4 documents the contract.
//!
//! Edge ordering uses two stable counting sorts (by target, then by
//! source) — O(E + V), and it yields exactly the `(from, to)`-sorted,
//! deduplicated adjacency `sort_unstable` + `dedup` would.

use crate::error::BuildTdgError;
use crate::graph::{TaskId, Tdg};

/// Reusable buffers for repeated [`Tdg`] construction.
///
/// # Lifecycle
///
/// ```text
/// arena.builder(n) -> add_edge*/set_weight* -> build() -> Tdg
///        ^                                                  |
///        +---------------- arena.recycle(tdg) <-------------+
/// ```
///
/// `build` moves the arena's CSR buffers into the returned [`Tdg`];
/// `recycle` takes them back. Skipping `recycle` is safe — the next
/// `build` simply allocates fresh output buffers.
#[derive(Debug, Default)]
pub struct TdgArena {
    /// Edge staging area (also the final sorted buffer).
    pub(crate) edges: Vec<(u32, u32)>,
    /// Scratch for the first counting-sort pass.
    tmp: Vec<(u32, u32)>,
    /// Counting-sort bucket cursors; the cycle check's pop order.
    counts: Vec<u32>,
    /// Cycle-check residual in-degrees.
    pub(crate) indeg: Vec<u32>,
    /// Cycle-check ready stack.
    pub(crate) stack: Vec<u32>,
    /// CSR output buffers, recycled once a graph has been returned.
    pub(crate) fwd_off: Vec<u32>,
    pub(crate) fwd_adj: Vec<u32>,
    pub(crate) rev_off: Vec<u32>,
    pub(crate) rev_adj: Vec<u32>,
    /// Staged task weights, moved into the built graph.
    pub(crate) weights: Vec<f32>,
}

impl TdgArena {
    /// An empty arena; buffers grow to the workload's high-water mark and
    /// are reused from then on.
    pub fn new() -> Self {
        TdgArena::default()
    }

    /// Start building a graph with `num_tasks` tasks, reusing every buffer.
    pub fn builder(&mut self, num_tasks: usize) -> ArenaTdgBuilder<'_> {
        self.edges.clear();
        self.weights.clear();
        self.weights
            .resize(num_tasks, crate::graph::DEFAULT_WEIGHT_NS);
        ArenaTdgBuilder {
            arena: self,
            num_tasks,
        }
    }

    /// Take a finished graph's buffers back for the next build.
    pub fn recycle(&mut self, tdg: Tdg) {
        let (fwd_off, fwd_adj, rev_off, rev_adj, weights) = tdg.into_buffers();
        self.fwd_off = fwd_off;
        self.fwd_adj = fwd_adj;
        self.rev_off = rev_off;
        self.rev_adj = rev_adj;
        // `weights` was moved into the Tdg at build time; reclaim the
        // larger of the two capacities.
        if weights.capacity() > self.weights.capacity() {
            self.weights = weights;
        }
    }

    /// The one build body: sort and deduplicate the staged edges (a
    /// parallel edge would double-count a `dep_cnt` release), fill the
    /// forward and reverse CSR from them, and move the staged weights in.
    /// Proves nothing about the edges; [`finish_checked`](Self::finish_checked)
    /// adds the cycle check.
    pub(crate) fn finish_build(&mut self, num_tasks: usize) -> Tdg {
        sort_and_dedup_edges(num_tasks, &mut self.edges, &mut self.tmp, &mut self.counts);
        let num_edges = self.edges.len();

        // Forward CSR: edges are sorted by (from, to), so one linear scan
        // fills offsets and adjacency in order.
        let fwd_off = &mut self.fwd_off;
        let fwd_adj = &mut self.fwd_adj;
        fwd_off.clear();
        fwd_off.resize(num_tasks + 1, 0);
        fwd_adj.clear();
        fwd_adj.reserve(num_edges);
        for &(u, v) in &self.edges {
            fwd_off[u as usize + 1] += 1;
            fwd_adj.push(v);
        }
        for i in 0..num_tasks {
            fwd_off[i + 1] += fwd_off[i];
        }

        // Reverse CSR via counting sort over `to`; iterating the
        // (from, to)-sorted edges keeps each predecessor list ascending.
        let rev_off = &mut self.rev_off;
        let rev_adj = &mut self.rev_adj;
        rev_off.clear();
        rev_off.resize(num_tasks + 1, 0);
        rev_adj.clear();
        rev_adj.resize(num_edges, 0);
        for &(_, v) in &self.edges {
            rev_off[v as usize + 1] += 1;
        }
        for i in 0..num_tasks {
            rev_off[i + 1] += rev_off[i];
        }
        self.counts.clear();
        self.counts.extend_from_slice(&rev_off[..num_tasks]);
        for &(u, v) in &self.edges {
            let c = &mut self.counts[v as usize];
            rev_adj[*c as usize] = u;
            *c += 1;
        }

        Tdg::from_csr(
            std::mem::take(fwd_off),
            std::mem::take(fwd_adj),
            std::mem::take(rev_off),
            std::mem::take(rev_adj),
            std::mem::take(&mut self.weights),
        )
    }

    /// [`finish_build`](Self::finish_build), then the cycle check: a graph
    /// that does not drain goes back to the arena and the drain's witness
    /// comes out as [`BuildTdgError::Cycle`].
    pub(crate) fn finish_checked(&mut self, num_tasks: usize) -> Result<Tdg, BuildTdgError> {
        let tdg = self.finish_build(num_tasks);
        match kahn_drain(&tdg, &mut self.indeg, &mut self.stack, &mut self.counts) {
            Ok(()) => Ok(tdg),
            Err(witness) => {
                self.recycle(tdg);
                Err(BuildTdgError::Cycle { witness })
            }
        }
    }
}

/// An in-progress arena build; see [`TdgArena::builder`].
#[derive(Debug)]
pub struct ArenaTdgBuilder<'a> {
    arena: &'a mut TdgArena,
    num_tasks: usize,
}

impl ArenaTdgBuilder<'_> {
    /// Number of tasks the built graph will have.
    pub fn num_tasks(&self) -> usize {
        self.num_tasks
    }

    /// Number of edges added so far (duplicates included).
    pub fn num_edges(&self) -> usize {
        self.arena.edges.len()
    }

    /// Add a dependency edge `from -> to` (`to` waits for `from`).
    #[inline]
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) -> &mut Self {
        self.arena.edges.push((from.0, to.0));
        self
    }

    /// Set the estimated execution cost of `t` in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn set_weight(&mut self, t: TaskId, weight_ns: f32) -> &mut Self {
        self.arena.weights[t.index()] = weight_ns;
        self
    }

    /// Finalise into an immutable [`Tdg`], performing the same validation
    /// as [`TdgBuilder::build`](crate::TdgBuilder::build) and producing a
    /// bit-identical graph.
    ///
    /// # Errors
    ///
    /// Exactly as [`TdgBuilder::build`](crate::TdgBuilder::build).
    pub fn build(self) -> Result<Tdg, BuildTdgError> {
        check_edges(self.num_tasks, &self.arena.edges)?;
        self.arena.finish_checked(self.num_tasks)
    }

    /// [`build`](Self::build) for callers whose edges are valid and
    /// acyclic *by construction* — `Timer::update_timing` derives its
    /// edges from an already-validated timing DAG, so re-proving range,
    /// self-loop freedom, and acyclicity on every incremental iteration
    /// is pure per-update overhead. The O(E) validation pass and the
    /// Kahn drain run only under `debug_assertions`; the produced graph
    /// is bit-identical to what `build` returns on the same input.
    ///
    /// # Panics
    ///
    /// Debug builds panic where [`build`](Self::build) would have
    /// returned an error. Release builds trust the caller: an invalid
    /// edge set panics on an out-of-bounds index inside construction
    /// instead of reporting a typed error.
    pub fn build_trusted(self) -> Tdg {
        if !cfg!(debug_assertions) {
            return self.arena.finish_build(self.num_tasks);
        }
        match self.build() {
            Ok(tdg) => tdg,
            Err(e) => panic!("build_trusted on an invalid edge set: {e}"),
        }
    }
}

/// `num_tasks` as a task-id bound, or [`BuildTdgError::TooManyTasks`] if
/// ids `0..num_tasks` do not fit a `u32`.
pub(crate) fn check_task_count(num_tasks: usize) -> Result<u32, BuildTdgError> {
    u32::try_from(num_tasks).map_err(|_| BuildTdgError::TooManyTasks {
        requested: num_tasks,
    })
}

/// The edge check of every checked build: the task count fits the id
/// space, and each edge, in order, names two distinct tasks below it.
pub(crate) fn check_edges(num_tasks: usize, edges: &[(u32, u32)]) -> Result<(), BuildTdgError> {
    let n = check_task_count(num_tasks)?;
    for &(u, v) in edges {
        if u >= n || v >= n {
            let task = if u >= n { u } else { v };
            return Err(BuildTdgError::TaskOutOfRange { task, num_tasks: n });
        }
        if u == v {
            return Err(BuildTdgError::SelfLoop { task: u });
        }
    }
    Ok(())
}

/// LIFO Kahn drain of `graph` on recycled scratch: writes the pop order to
/// `order`, leaving the residual in-degrees in `indeg`. A drain that meets
/// a cycle strands some nodes; the witness is the lowest id left with a
/// positive residual in-degree (a node on, or downstream of, a cycle).
pub(crate) fn kahn_drain(
    graph: &Tdg,
    indeg: &mut Vec<u32>,
    stack: &mut Vec<u32>,
    order: &mut Vec<u32>,
) -> Result<(), u32> {
    let n = graph.num_tasks() as u32;
    indeg.clear();
    indeg.extend((0..n).map(|t| graph.in_degree(TaskId(t))));
    stack.clear();
    stack.extend((0..n).filter(|&t| indeg[t as usize] == 0));
    order.clear();
    while let Some(t) = stack.pop() {
        order.push(t);
        for &s in graph.successors(TaskId(t)) {
            indeg[s as usize] -= 1;
            if indeg[s as usize] == 0 {
                stack.push(s);
            }
        }
    }
    if order.len() == n as usize {
        return Ok(());
    }
    let witness = indeg
        .iter()
        .position(|&d| d > 0)
        .expect("unvisited task must have positive residual in-degree");
    Err(witness as u32)
}

/// Sort `edges` by `(from, to)` and remove duplicates, using two stable
/// counting-sort passes (by `to`, then by `from`) — O(E + V), allocation-
/// free once the scratch buffers reach capacity. Produces exactly the
/// order `edges.sort_unstable(); edges.dedup()` would.
fn sort_and_dedup_edges(
    num_tasks: usize,
    edges: &mut Vec<(u32, u32)>,
    tmp: &mut Vec<(u32, u32)>,
    counts: &mut Vec<u32>,
) {
    if edges.len() <= 1 {
        return;
    }
    // Pass 1: stable counting sort by target into `tmp`.
    counts.clear();
    counts.resize(num_tasks + 1, 0);
    for &(_, v) in edges.iter() {
        counts[v as usize + 1] += 1;
    }
    for i in 0..num_tasks {
        counts[i + 1] += counts[i];
    }
    tmp.clear();
    tmp.resize(edges.len(), (0, 0));
    for &(u, v) in edges.iter() {
        let c = &mut counts[v as usize];
        tmp[*c as usize] = (u, v);
        *c += 1;
    }
    // Pass 2: stable counting sort by source back into `edges`; stability
    // preserves the target order within each source bucket.
    counts.clear();
    counts.resize(num_tasks + 1, 0);
    for &(u, _) in tmp.iter() {
        counts[u as usize + 1] += 1;
    }
    for i in 0..num_tasks {
        counts[i + 1] += counts[i];
    }
    for &(u, v) in tmp.iter() {
        let c = &mut counts[u as usize];
        edges[*c as usize] = (u, v);
        *c += 1;
    }
    edges.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_edges(seed: u64, n: u32, m: usize) -> Vec<(u32, u32)> {
        // Deterministic LCG; only forward edges (u < v) so the graph is a DAG.
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        (0..m)
            .map(|_| {
                let a = next() % n;
                let b = next() % n;
                if a < b {
                    (a, b)
                } else if b < a {
                    (b, a)
                } else {
                    (a, (a + 1) % n.max(2))
                }
            })
            .filter(|&(u, v)| u != v)
            .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect()
    }

    #[test]
    fn counting_sort_matches_comparison_sort() {
        for seed in 0..8u64 {
            let mut a = random_edges(seed, 50, 300);
            let mut b = a.clone();
            a.sort_unstable();
            a.dedup();
            let (mut tmp, mut counts) = (Vec::new(), Vec::new());
            sort_and_dedup_edges(50, &mut b, &mut tmp, &mut counts);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn steady_state_rebuild_reuses_capacity() {
        let edges = random_edges(1, 64, 400);
        let mut arena = TdgArena::new();
        let build = |arena: &mut TdgArena, edges: &[(u32, u32)]| {
            let mut b = arena.builder(64);
            for &(u, v) in edges {
                b.add_edge(TaskId(u), TaskId(v));
            }
            b.build().expect("DAG")
        };
        let g1 = build(&mut arena, &edges);
        arena.recycle(g1);
        let caps = |a: &TdgArena| {
            (
                a.edges.capacity(),
                a.tmp.capacity(),
                a.fwd_off.capacity(),
                a.fwd_adj.capacity(),
                a.rev_off.capacity(),
                a.rev_adj.capacity(),
                a.weights.capacity(),
            )
        };
        let before = caps(&arena);
        let g2 = build(&mut arena, &edges);
        arena.recycle(g2);
        assert_eq!(
            before,
            caps(&arena),
            "no buffer grew on a same-size rebuild"
        );
    }

    #[test]
    fn validation_matches_builder() {
        let mut arena = TdgArena::new();
        let mut b = arena.builder(2);
        b.add_edge(TaskId(0), TaskId(5));
        assert_eq!(
            b.build().expect_err("out of range"),
            BuildTdgError::TaskOutOfRange {
                task: 5,
                num_tasks: 2
            }
        );

        let mut b = arena.builder(2);
        b.add_edge(TaskId(1), TaskId(1));
        assert_eq!(
            b.build().expect_err("self loop"),
            BuildTdgError::SelfLoop { task: 1 }
        );

        let mut b = arena.builder(2);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(1), TaskId(0));
        assert!(matches!(
            b.build().expect_err("cycle"),
            BuildTdgError::Cycle { .. }
        ));

        // The arena is reusable after every rejection.
        let mut b = arena.builder(2);
        b.add_edge(TaskId(0), TaskId(1));
        assert_eq!(b.build().expect("DAG").num_deps(), 1);
    }

    #[test]
    fn empty_and_edgeless_builds() {
        let mut arena = TdgArena::new();
        let g = arena.builder(0).build().expect("empty");
        assert_eq!(g.num_tasks(), 0);
        arena.recycle(g);
        let g = arena.builder(3).build().expect("edgeless");
        assert_eq!(g.num_tasks(), 3);
        assert_eq!(g.num_deps(), 0);
    }
}
