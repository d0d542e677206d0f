//! BFS levelisation of a TDG.
//!
//! Every partitioner in the paper traverses the TDG level by level: GDCA
//! clusters *within* a level, G-PASTA clusters *between adjacent* levels.
//! [`Levels`] computes the levelised topological order once and exposes the
//! per-level slices.

use crate::graph::{TaskId, Tdg};
use serde::{Deserialize, Serialize};

/// The BFS levelisation of a [`Tdg`].
///
/// Level `l` of a task is `0` for sources and `1 + max(level of
/// predecessors)` otherwise, i.e. the earliest wave in which the task can
/// run under unit task cost. This equals the order in which the paper's
/// `handle` array fills up (Figure 4).
///
/// # Example
///
/// ```
/// use gpasta_tdg::{TdgBuilder, TaskId};
/// # fn main() -> Result<(), gpasta_tdg::BuildTdgError> {
/// let mut b = TdgBuilder::new(4);
/// b.add_edge(TaskId(0), TaskId(1));
/// b.add_edge(TaskId(0), TaskId(2));
/// b.add_edge(TaskId(1), TaskId(3));
/// b.add_edge(TaskId(2), TaskId(3));
/// let levels = b.build()?.levels();
/// assert_eq!(levels.depth(), 3);
/// assert_eq!(levels.level_of(TaskId(3)), 2);
/// assert_eq!(levels.tasks_at(1), &[1, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Levels {
    /// Level of each task, indexed by task id.
    level_of: Vec<u32>,
    /// Task ids sorted by (level, id); together with `offsets` this is a CSR
    /// over levels — and it is exactly the final contents of the paper's
    /// `handle` array `H`.
    order: Vec<u32>,
    /// `offsets[l]..offsets[l+1]` indexes `order` for level `l`.
    offsets: Vec<u32>,
}

impl Levels {
    /// Compute the levelisation of `tdg`.
    pub(crate) fn new(tdg: &Tdg) -> Self {
        let n = tdg.num_tasks();
        let mut level_of = vec![0u32; n];
        let mut indeg = tdg.in_degrees();
        let mut frontier: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        frontier.sort_unstable();

        let mut order = Vec::with_capacity(n);
        let mut offsets = vec![0u32];
        let mut next = Vec::new();
        let mut level = 0u32;
        while !frontier.is_empty() {
            for &u in &frontier {
                level_of[u as usize] = level;
                order.push(u);
            }
            offsets.push(order.len() as u32);
            for &u in &frontier {
                for &v in tdg.successors(TaskId(u)) {
                    indeg[v as usize] -= 1;
                    if indeg[v as usize] == 0 {
                        next.push(v);
                    }
                }
            }
            next.sort_unstable();
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
            level += 1;
        }
        debug_assert_eq!(order.len(), n, "Tdg invariant guarantees acyclicity");

        Levels {
            level_of,
            order,
            offsets,
        }
    }

    /// Number of levels (the depth of the TDG). Zero for an empty graph.
    #[inline]
    pub fn depth(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The level of task `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[inline]
    pub fn level_of(&self, t: TaskId) -> u32 {
        self.level_of[t.index()]
    }

    /// Task ids at level `l`, in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `l >= depth()`.
    #[inline]
    pub fn tasks_at(&self, l: usize) -> &[u32] {
        &self.order[self.offsets[l] as usize..self.offsets[l + 1] as usize]
    }

    /// Number of tasks at level `l` — the *width* of the level.
    #[inline]
    pub fn width(&self, l: usize) -> usize {
        (self.offsets[l + 1] - self.offsets[l]) as usize
    }

    /// The widest level's width: the TDG's peak structural parallelism.
    pub fn max_width(&self) -> usize {
        (0..self.depth()).map(|l| self.width(l)).max().unwrap_or(0)
    }

    /// The complete levelised topological order (all levels concatenated).
    ///
    /// This equals the final contents of the paper's `handle` array after
    /// the BFS finishes.
    #[inline]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Iterate over levels as slices of task ids.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.depth()).map(move |l| self.tasks_at(l))
    }
}

#[cfg(test)]
mod tests {
    use crate::graph::{TaskId, TdgBuilder};

    /// The running example of the paper's Figure 4:
    /// sources 0, 2, 4; 0->1, 2->3, 4->5; 1->6, 3->6, 5->6.
    fn figure4() -> crate::Tdg {
        let mut b = TdgBuilder::new(7);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(2), TaskId(3));
        b.add_edge(TaskId(4), TaskId(5));
        b.add_edge(TaskId(1), TaskId(6));
        b.add_edge(TaskId(3), TaskId(6));
        b.add_edge(TaskId(5), TaskId(6));
        b.build().expect("figure 4 graph is a DAG")
    }

    #[test]
    fn figure4_levels() {
        let levels = figure4().levels();
        assert_eq!(levels.depth(), 3);
        assert_eq!(levels.tasks_at(0), &[0, 2, 4]);
        assert_eq!(levels.tasks_at(1), &[1, 3, 5]);
        assert_eq!(levels.tasks_at(2), &[6]);
        assert_eq!(levels.width(0), 3);
        assert_eq!(levels.max_width(), 3);
        assert_eq!(levels.order(), &[0, 2, 4, 1, 3, 5, 6]);
    }

    #[test]
    fn level_is_longest_path_from_sources() {
        // 0 -> 1 -> 3, 0 -> 3: task 3 is at level 2 (longest path), not 1.
        let mut b = TdgBuilder::new(4);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(1), TaskId(3));
        b.add_edge(TaskId(0), TaskId(3));
        b.add_edge(TaskId(0), TaskId(2));
        let levels = b.build().expect("DAG").levels();
        assert_eq!(levels.level_of(TaskId(3)), 2);
        assert_eq!(levels.level_of(TaskId(2)), 1);
    }

    #[test]
    fn empty_graph_has_no_levels() {
        let levels = TdgBuilder::new(0).build().expect("empty DAG").levels();
        assert_eq!(levels.depth(), 0);
        assert_eq!(levels.max_width(), 0);
        assert!(levels.order().is_empty());
    }

    #[test]
    fn edgeless_graph_is_one_wide_level() {
        let levels = TdgBuilder::new(5).build().expect("edgeless DAG").levels();
        assert_eq!(levels.depth(), 1);
        assert_eq!(levels.width(0), 5);
        assert_eq!(levels.tasks_at(0), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn chain_is_one_task_per_level() {
        let mut b = TdgBuilder::new(4);
        for i in 0..3u32 {
            b.add_edge(TaskId(i), TaskId(i + 1));
        }
        let levels = b.build().expect("chain DAG").levels();
        assert_eq!(levels.depth(), 4);
        for l in 0..4 {
            assert_eq!(levels.width(l), 1);
            assert_eq!(levels.tasks_at(l), &[l as u32]);
        }
    }

    #[test]
    fn iter_yields_every_level() {
        let levels = figure4().levels();
        let collected: Vec<Vec<u32>> = levels.iter().map(|s| s.to_vec()).collect();
        assert_eq!(collected, vec![vec![0, 2, 4], vec![1, 3, 5], vec![6]]);
    }

    #[test]
    fn order_is_topological() {
        let g = figure4();
        let levels = g.levels();
        let pos: std::collections::HashMap<u32, usize> = levels
            .order()
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i))
            .collect();
        for (u, v) in g.edges() {
            assert!(pos[&u.0] < pos[&v.0], "edge {u}->{v} violates topo order");
        }
    }
}
