//! Recycled [`Tdg`] construction: build the same validated graph the
//! [`TdgBuilder`](crate::TdgBuilder) produces, without the per-build
//! allocations and without the comparison sort.
//!
//! `Timer::update_timing` builds a fresh TDG every incremental iteration —
//! the 59 %-of-update "task graph construction" slice of the paper's
//! Figure 1(a). [`TdgArena`] owns every buffer that construction needs
//! (edge staging, CSR arrays, cycle-check scratch) and takes finished
//! graphs back via [`TdgArena::recycle`], so steady-state rebuilds touch
//! the allocator only while a new high-water mark is being established.
//! DESIGN.md §13 documents the contract.
//!
//! Edge ordering uses two stable counting sorts (by target, then by
//! source) instead of `sort_unstable` — O(E) instead of O(E log E), and
//! it yields exactly the `(from, to)`-sorted, deduplicated adjacency the
//! legacy builder produces, so arena-built graphs are bit-identical to
//! builder-built ones.

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
    edges: Vec<(u32, u32)>,
    /// Scratch for the first counting-sort pass.
    tmp: Vec<(u32, u32)>,
    /// Counting-sort bucket cursors.
    counts: Vec<u32>,
    /// Cycle-check residual in-degrees.
    indeg: Vec<u32>,
    /// Cycle-check ready queue.
    queue: Vec<u32>,
    /// Recycled CSR output buffers, if a graph has been returned.
    fwd_off: Vec<u32>,
    fwd_adj: Vec<u32>,
    rev_off: Vec<u32>,
    rev_adj: Vec<u32>,
    weights: Vec<f32>,
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
    /// Returns [`BuildTdgError::TaskOutOfRange`],
    /// [`BuildTdgError::SelfLoop`], or [`BuildTdgError::Cycle`] exactly as
    /// the plain builder does.
    pub fn build(self) -> Result<Tdg, BuildTdgError> {
        let ArenaTdgBuilder { arena, num_tasks } = self;
        if num_tasks > u32::MAX as usize {
            return Err(BuildTdgError::TooManyTasks {
                requested: num_tasks,
            });
        }
        let n32 = num_tasks as u32;
        for &(u, v) in &arena.edges {
            if u >= n32 {
                return Err(BuildTdgError::TaskOutOfRange {
                    task: u,
                    num_tasks: n32,
                });
            }
            if v >= n32 {
                return Err(BuildTdgError::TaskOutOfRange {
                    task: v,
                    num_tasks: n32,
                });
            }
            if u == v {
                return Err(BuildTdgError::SelfLoop { task: u });
            }
        }
        finish_build(arena, num_tasks, true)
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
        let ArenaTdgBuilder { arena, num_tasks } = self;
        #[cfg(debug_assertions)]
        {
            let n32 = num_tasks as u32;
            for &(u, v) in &arena.edges {
                debug_assert!(u < n32 && v < n32, "edge ({u}, {v}) out of range {n32}");
                debug_assert!(u != v, "self loop on task {u}");
            }
        }
        match finish_build(arena, num_tasks, cfg!(debug_assertions)) {
            Ok(tdg) => tdg,
            Err(e) => panic!("build_trusted on an invalid edge set: {e}"),
        }
    }
}

/// Shared tail of [`ArenaTdgBuilder::build`] and
/// [`ArenaTdgBuilder::build_trusted`]: sort + dedup, CSR construction,
/// and (when `check_cycles`) the Kahn drain.
fn finish_build(
    arena: &mut TdgArena,
    num_tasks: usize,
    check_cycles: bool,
) -> Result<Tdg, BuildTdgError> {
    sort_and_dedup_edges(
        num_tasks,
        &mut arena.edges,
        &mut arena.tmp,
        &mut arena.counts,
    );
    {
        let num_edges = arena.edges.len();

        // Forward CSR: edges are sorted by (from, to), so one linear scan
        // fills offsets and adjacency in order.
        let fwd_off = &mut arena.fwd_off;
        let fwd_adj = &mut arena.fwd_adj;
        fwd_off.clear();
        fwd_off.resize(num_tasks + 1, 0);
        fwd_adj.clear();
        fwd_adj.reserve(num_edges);
        for &(u, v) in &arena.edges {
            fwd_off[u as usize + 1] += 1;
            fwd_adj.push(v);
        }
        for i in 0..num_tasks {
            fwd_off[i + 1] += fwd_off[i];
        }

        // Reverse CSR via counting sort over `to`; iterating the
        // (from, to)-sorted edges keeps each predecessor list ascending.
        let rev_off = &mut arena.rev_off;
        let rev_adj = &mut arena.rev_adj;
        rev_off.clear();
        rev_off.resize(num_tasks + 1, 0);
        rev_adj.clear();
        rev_adj.resize(num_edges, 0);
        for &(_, v) in &arena.edges {
            rev_off[v as usize + 1] += 1;
        }
        for i in 0..num_tasks {
            rev_off[i + 1] += rev_off[i];
        }
        arena.counts.clear();
        arena.counts.extend_from_slice(&rev_off[..num_tasks]);
        for &(u, v) in &arena.edges {
            let c = &mut arena.counts[v as usize];
            rev_adj[*c as usize] = u;
            *c += 1;
        }

        let tdg = Tdg::from_csr(
            std::mem::take(fwd_off),
            std::mem::take(fwd_adj),
            std::mem::take(rev_off),
            std::mem::take(rev_adj),
            std::mem::take(&mut arena.weights),
        );

        // Kahn's algorithm on recycled scratch: all tasks must drain.
        // Trusted builds skip this in release (DAG by construction).
        if check_cycles {
            arena.indeg.clear();
            arena
                .indeg
                .extend((0..num_tasks).map(|i| tdg.in_degree(TaskId(i as u32))));
            arena.queue.clear();
            arena
                .queue
                .extend((0..num_tasks as u32).filter(|&v| arena.indeg[v as usize] == 0));
            let mut visited = 0usize;
            while let Some(u) = arena.queue.pop() {
                visited += 1;
                for &v in tdg.successors(TaskId(u)) {
                    arena.indeg[v as usize] -= 1;
                    if arena.indeg[v as usize] == 0 {
                        arena.queue.push(v);
                    }
                }
            }
            if visited != num_tasks {
                let witness = arena
                    .indeg
                    .iter()
                    .position(|&d| d > 0)
                    .expect("unvisited task must have positive residual in-degree")
                    as u32;
                // Reclaim the rejected graph's buffers before bailing.
                arena.recycle(tdg);
                return Err(BuildTdgError::Cycle { witness });
            }
        }

        Ok(tdg)
    }
}

/// Sort `edges` by `(from, to)` and remove duplicates, using two stable
/// counting-sort passes (by `to`, then by `from`) — O(E + V), allocation-
/// free once the scratch buffers reach capacity. Produces exactly the
/// order `edges.sort_unstable(); edges.dedup()` would.
pub(crate) fn sort_and_dedup_edges(
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
    use crate::graph::TdgBuilder;

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
    fn arena_build_is_bit_identical_to_builder() {
        for seed in 0..4u64 {
            let edges = random_edges(seed, 64, 400);
            let mut legacy = TdgBuilder::new(64);
            for &(u, v) in &edges {
                legacy.add_edge(TaskId(u), TaskId(v));
            }
            legacy.set_weight(TaskId(7), 99.0);
            let legacy = legacy.build().expect("DAG");

            let mut arena = TdgArena::new();
            let mut b = arena.builder(64);
            for &(u, v) in &edges {
                b.add_edge(TaskId(u), TaskId(v));
            }
            b.set_weight(TaskId(7), 99.0);
            let fresh = b.build().expect("DAG");
            assert_eq!(legacy, fresh, "seed {seed}");
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
