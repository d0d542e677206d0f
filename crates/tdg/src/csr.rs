//! Flat, level-ordered CSR view of a [`Tdg`] — the hot-path storage the
//! wavefront partitioners consume.
//!
//! The partitioners traverse the TDG one BFS level at a time, but the
//! original task-id space scatters each level across the whole id range:
//! every frontier touch of `d_pid` / `dep_cnt` / `f_pid` is a random
//! access. [`CsrTdg`] renumbers tasks by `(level, original id)` so a
//! wavefront step reads and writes *contiguous* array ranges (the CUDA
//! coalescing rule applied to CPU cache lines), and packs both adjacency
//! directions into flat offset + adjacency arrays with no `TaskId`
//! indirection.
//!
//! # Invariants (the memory-layout contract, DESIGN.md §13)
//!
//! 1. **Permutation**: `perm` (CSR → original) and `rank` (original → CSR)
//!    are inverse bijections over `0..num_tasks`.
//! 2. **Level order**: CSR ids are assigned level-major; `level_off[l] ..
//!    level_off[l+1]` is exactly level `l`. Within a level, CSR order is
//!    ascending original id (inherited from [`Levels`]), so CSR id order
//!    and original id order agree on any same-level set — this is what
//!    makes the partitioners' sorted-key passes permutation-invariant.
//! 3. **Topology**: every CSR-space edge points to a strictly later level,
//!    hence `u < v` for every edge `(u, v)` in CSR space.
//! 4. **Adjacency order**: `successors(u)` / `predecessors(u)` list
//!    neighbours in the *original* graph's adjacency order (ascending
//!    original id), mapped through `rank`. Wavefront discovery order is
//!    therefore identical to the original-space traversal, which keeps the
//!    sequential and device partitioners bit-identical to their legacy
//!    paths.
//! 5. **Edge multiset**: mapping every CSR edge through `perm` recovers
//!    the original edge multiset exactly.

use crate::graph::{TaskId, Tdg};
use crate::level::Levels;

/// Level-ordered flat CSR view of a [`Tdg`].
///
/// Obtain one with [`Tdg::csr`], which computes the view once and caches
/// it for the graph's lifetime (the fig8 sweep issues 40 partition calls
/// per graph; the view is shared by all of them).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrTdg {
    /// CSR id → original task id (the levelised topological order).
    perm: Vec<u32>,
    /// Original task id → CSR id (inverse of `perm`).
    rank: Vec<u32>,
    /// `level_off[l]..level_off[l+1]` is the CSR id range of level `l`.
    level_off: Vec<u32>,
    /// Forward adjacency offsets in CSR space.
    fwd_off: Vec<u32>,
    /// Packed successor lists (CSR ids, original adjacency order).
    fwd_adj: Vec<u32>,
    /// Reverse adjacency offsets in CSR space.
    rev_off: Vec<u32>,
    /// Packed predecessor lists (CSR ids, original adjacency order).
    rev_adj: Vec<u32>,
}

impl CsrTdg {
    /// Build the level-ordered view of `tdg`. Prefer [`Tdg::csr`], which
    /// amortises this over every consumer of the same graph.
    pub fn build(tdg: &Tdg) -> Self {
        let levels = tdg.levels();
        Self::from_levels(tdg, &levels)
    }

    /// Build from a precomputed levelisation (avoids recomputing it when
    /// the caller already holds one).
    pub fn from_levels(tdg: &Tdg, levels: &Levels) -> Self {
        let n = tdg.num_tasks();
        let perm = levels.order().to_vec();
        let mut rank = vec![0u32; n];
        for (new, &old) in perm.iter().enumerate() {
            rank[old as usize] = new as u32;
        }
        let mut level_off = Vec::with_capacity(levels.depth() + 1);
        level_off.push(0u32);
        for l in 0..levels.depth() {
            level_off.push(level_off[l] + levels.width(l) as u32);
        }

        let num_edges = tdg.num_deps();
        let mut fwd_off = Vec::with_capacity(n + 1);
        let mut fwd_adj = Vec::with_capacity(num_edges);
        let mut rev_off = Vec::with_capacity(n + 1);
        let mut rev_adj = Vec::with_capacity(num_edges);
        fwd_off.push(0u32);
        rev_off.push(0u32);
        for &old in &perm {
            for &s in tdg.successors(TaskId(old)) {
                fwd_adj.push(rank[s as usize]);
            }
            fwd_off.push(fwd_adj.len() as u32);
            for &p in tdg.predecessors(TaskId(old)) {
                rev_adj.push(rank[p as usize]);
            }
            rev_off.push(rev_adj.len() as u32);
        }

        CsrTdg {
            perm,
            rank,
            level_off,
            fwd_off,
            fwd_adj,
            rev_off,
            rev_adj,
        }
    }

    /// Number of tasks.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.perm.len()
    }

    /// Number of edges.
    #[inline]
    pub fn num_deps(&self) -> usize {
        self.fwd_adj.len()
    }

    /// Number of BFS levels.
    #[inline]
    pub fn depth(&self) -> usize {
        self.level_off.len() - 1
    }

    /// CSR id range of level `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= depth()`.
    #[inline]
    pub fn level_range(&self, l: usize) -> std::ops::Range<usize> {
        self.level_off[l] as usize..self.level_off[l + 1] as usize
    }

    /// Number of sources (the width of level 0); zero for an empty graph.
    #[inline]
    pub fn num_sources(&self) -> usize {
        if self.depth() == 0 {
            0
        } else {
            self.level_off[1] as usize
        }
    }

    /// CSR id → original task id.
    #[inline]
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// Original task id → CSR id.
    #[inline]
    pub fn rank(&self) -> &[u32] {
        &self.rank
    }

    /// Level offsets (`depth() + 1` entries).
    #[inline]
    pub fn level_offsets(&self) -> &[u32] {
        &self.level_off
    }

    /// Successors of CSR id `u`, in the original graph's adjacency order.
    #[inline]
    pub fn successors(&self, u: u32) -> &[u32] {
        let i = u as usize;
        &self.fwd_adj[self.fwd_off[i] as usize..self.fwd_off[i + 1] as usize]
    }

    /// Predecessors of CSR id `u`, in the original graph's adjacency order.
    #[inline]
    pub fn predecessors(&self, u: u32) -> &[u32] {
        let i = u as usize;
        &self.rev_adj[self.rev_off[i] as usize..self.rev_off[i + 1] as usize]
    }

    /// Fan-in degree of CSR id `u`.
    #[inline]
    pub fn in_degree(&self, u: u32) -> u32 {
        let i = u as usize;
        self.rev_off[i + 1] - self.rev_off[i]
    }

    /// Fill `out` with the fan-in degree of every CSR id (the initial
    /// `dep_cnt` array), reusing `out`'s capacity.
    pub fn fill_in_degrees(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(
            self.rev_off
                .windows(2)
                .map(|w| w[1] - w[0])
                .take(self.num_tasks()),
        );
    }

    /// Scatter a CSR-indexed value array back to original task ids:
    /// `out[perm[i]] = csr_vals[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `csr_vals.len() != num_tasks()`.
    pub fn scatter_to_original(&self, csr_vals: &[u32]) -> Vec<u32> {
        assert_eq!(csr_vals.len(), self.num_tasks(), "length mismatch");
        let mut out = vec![0u32; csr_vals.len()];
        for (i, &v) in csr_vals.iter().enumerate() {
            out[self.perm[i] as usize] = v;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TdgBuilder;

    fn diamond() -> Tdg {
        let mut b = TdgBuilder::new(4);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(0), TaskId(2));
        b.add_edge(TaskId(1), TaskId(3));
        b.add_edge(TaskId(2), TaskId(3));
        b.build().expect("diamond DAG")
    }

    /// 5 -> {3, 1}, 3 -> 0; sources {5, 4, 2, 1, 0}? No: compute levels.
    fn scrambled() -> Tdg {
        let mut b = TdgBuilder::new(6);
        b.add_edge(TaskId(5), TaskId(3));
        b.add_edge(TaskId(5), TaskId(1));
        b.add_edge(TaskId(3), TaskId(0));
        b.add_edge(TaskId(4), TaskId(0));
        b.build().expect("DAG")
    }

    #[test]
    fn diamond_layout() {
        let g = diamond();
        let c = g.csr();
        assert_eq!(c.num_tasks(), 4);
        assert_eq!(c.num_deps(), 4);
        assert_eq!(c.depth(), 3);
        assert_eq!(c.perm(), &[0, 1, 2, 3]);
        assert_eq!(c.level_offsets(), &[0, 1, 3, 4]);
        assert_eq!(c.successors(0), &[1, 2]);
        assert_eq!(c.predecessors(3), &[1, 2]);
        assert_eq!(c.num_sources(), 1);
    }

    #[test]
    fn permutation_is_level_major_ascending_within_level() {
        let g = scrambled();
        let c = g.csr();
        // Levels: {2, 4, 5} sources, {1, 3}, {0}.
        assert_eq!(c.perm(), &[2, 4, 5, 1, 3, 0]);
        assert_eq!(c.level_offsets(), &[0, 3, 5, 6]);
        for (new, &old) in c.perm().iter().enumerate() {
            assert_eq!(c.rank()[old as usize] as usize, new);
        }
    }

    #[test]
    fn all_csr_edges_point_forward() {
        for g in [diamond(), scrambled()] {
            let c = g.csr();
            for u in 0..c.num_tasks() as u32 {
                for &v in c.successors(u) {
                    assert!(u < v, "CSR edge {u} -> {v} must point forward");
                }
                for &p in c.predecessors(u) {
                    assert!(p < u, "CSR predecessor {p} of {u} must be earlier");
                }
            }
        }
    }

    #[test]
    fn adjacency_preserves_original_order() {
        let g = scrambled();
        let c = g.csr();
        // Successors of original task 5 (csr id 2) are originals [1, 3]
        // (ascending original id) mapped through rank.
        let u = c.rank()[5];
        let succ: Vec<u32> = c
            .successors(u)
            .iter()
            .map(|&v| c.perm()[v as usize])
            .collect();
        assert_eq!(succ, vec![1, 3]);
        // Predecessors of original 0 are [3, 4] in original order.
        let z = c.rank()[0];
        let pred: Vec<u32> = c
            .predecessors(z)
            .iter()
            .map(|&v| c.perm()[v as usize])
            .collect();
        assert_eq!(pred, vec![3, 4]);
    }

    #[test]
    fn edge_multiset_round_trips() {
        let g = scrambled();
        let c = g.csr();
        let mut orig: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u.0, v.0)).collect();
        let mut mapped: Vec<(u32, u32)> = (0..c.num_tasks() as u32)
            .flat_map(|u| {
                c.successors(u)
                    .iter()
                    .map(move |&v| (c.perm()[u as usize], c.perm()[v as usize]))
                    .collect::<Vec<_>>()
            })
            .collect();
        orig.sort_unstable();
        mapped.sort_unstable();
        assert_eq!(orig, mapped);
    }

    #[test]
    fn in_degrees_and_scatter() {
        let g = diamond();
        let c = g.csr();
        let mut deg = Vec::new();
        c.fill_in_degrees(&mut deg);
        assert_eq!(deg, vec![0, 1, 1, 2]);
        let back = c.scatter_to_original(&[10, 11, 12, 13]);
        assert_eq!(back, vec![10, 11, 12, 13]); // identity perm on the diamond
        let s = scrambled();
        let cs = s.csr();
        let vals: Vec<u32> = (0..6).collect();
        let back = cs.scatter_to_original(&vals);
        for (new, &old) in cs.perm().iter().enumerate() {
            assert_eq!(back[old as usize], vals[new]);
        }
    }

    #[test]
    fn empty_graph() {
        let g = TdgBuilder::new(0).build().expect("empty");
        let c = g.csr();
        assert_eq!(c.num_tasks(), 0);
        assert_eq!(c.depth(), 0);
        assert_eq!(c.num_sources(), 0);
        assert_eq!(c.level_offsets(), &[0]);
    }

    #[test]
    fn cached_view_is_shared() {
        let g = diamond();
        let a = g.csr() as *const CsrTdg;
        let b = g.csr() as *const CsrTdg;
        assert_eq!(a, b, "Tdg::csr caches the view");
    }
}
