//! Parallelism profiles.
//!
//! The paper frames TDG partitioning as a trade-off between scheduling cost
//! and *TDG parallelism*. [`ParallelismProfile`] quantifies the latter so
//! tests and benchmarks can verify that G-PASTA preserves more parallelism
//! than level-by-level clustering (Figure 3).

use crate::graph::{TaskId, Tdg};
use serde::{Deserialize, Serialize};

/// Structural parallelism metrics of a TDG.
///
/// *Average parallelism* is the classic `work / span` ratio under unit task
/// cost: `num_tasks / depth`. A partitioned TDG with average parallelism at
/// or above the worker count schedules without starvation; one that collapses
/// towards 1.0 has been serialised (the failure mode of GDCA in Figure 3(a)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParallelismProfile {
    /// Total number of tasks (work, under unit cost).
    pub num_tasks: usize,
    /// Depth of the TDG (span, under unit cost).
    pub depth: usize,
    /// Width of the widest level.
    pub max_width: usize,
    /// `num_tasks / depth`; zero for an empty graph.
    pub avg_parallelism: f64,
    /// Same ratio but weighted by estimated task cost:
    /// `total_weight / critical_path_weight`.
    pub weighted_parallelism: f64,
}

impl ParallelismProfile {
    /// Compute the profile of `tdg`.
    pub fn of(tdg: &Tdg) -> Self {
        let levels = tdg.levels();
        let depth = levels.depth();
        let num_tasks = tdg.num_tasks();
        let max_width = levels.max_width();
        let avg_parallelism = if depth == 0 {
            0.0
        } else {
            num_tasks as f64 / depth as f64
        };

        // Weighted span: longest path under task weights, via one pass over
        // the levelised order.
        let mut dist = vec![0.0f64; num_tasks];
        let mut span = 0.0f64;
        let mut work = 0.0f64;
        for &u in levels.order() {
            let t = TaskId(u);
            let w = f64::from(tdg.weight(t));
            work += w;
            let d = dist[u as usize] + w;
            span = span.max(d);
            for &v in tdg.successors(t) {
                if dist[v as usize] < d {
                    dist[v as usize] = d;
                }
            }
        }
        let weighted_parallelism = if span == 0.0 { 0.0 } else { work / span };

        ParallelismProfile {
            num_tasks,
            depth,
            max_width,
            avg_parallelism,
            weighted_parallelism,
        }
    }
}

impl std::fmt::Display for ParallelismProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} tasks, depth {}, max width {}, avg parallelism {:.2}",
            self.num_tasks, self.depth, self.max_width, self.avg_parallelism
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TdgBuilder;

    #[test]
    fn chain_profile() {
        let mut b = TdgBuilder::new(5);
        for i in 0..4u32 {
            b.add_edge(TaskId(i), TaskId(i + 1));
        }
        let p = ParallelismProfile::of(&b.build().expect("chain DAG"));
        assert_eq!(p.depth, 5);
        assert_eq!(p.max_width, 1);
        assert!((p.avg_parallelism - 1.0).abs() < 1e-12);
        assert!((p.weighted_parallelism - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wide_profile() {
        let b = TdgBuilder::new(8);
        let p = ParallelismProfile::of(&b.build().expect("edgeless DAG"));
        assert_eq!(p.depth, 1);
        assert_eq!(p.max_width, 8);
        assert!((p.avg_parallelism - 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_is_zero() {
        let p = ParallelismProfile::of(&TdgBuilder::new(0).build().expect("empty DAG"));
        assert_eq!(p.num_tasks, 0);
        assert_eq!(p.avg_parallelism, 0.0);
        assert_eq!(p.weighted_parallelism, 0.0);
    }

    #[test]
    fn weighted_parallelism_tracks_heavy_chain() {
        // Two parallel chains of 2; one chain is 10x heavier. Unit-cost
        // parallelism is 2.0 but weighted parallelism is dominated by the
        // heavy chain: work=22, span=20 -> 1.1.
        let mut b = TdgBuilder::new(4);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(2), TaskId(3));
        b.set_weight(TaskId(0), 10.0);
        b.set_weight(TaskId(1), 10.0);
        b.set_weight(TaskId(2), 1.0);
        b.set_weight(TaskId(3), 1.0);
        let p = ParallelismProfile::of(&b.build().expect("two chains"));
        assert!((p.avg_parallelism - 2.0).abs() < 1e-12);
        assert!((p.weighted_parallelism - 1.1).abs() < 1e-9);
    }

    #[test]
    fn topo_order_respects_edges() {
        let mut b = TdgBuilder::new(6);
        b.add_edge(TaskId(5), TaskId(0));
        b.add_edge(TaskId(0), TaskId(3));
        b.add_edge(TaskId(3), TaskId(1));
        let g = b.build().expect("DAG");
        let order = g.levels().order().to_vec();
        let pos: Vec<usize> = {
            let mut p = vec![0; 6];
            for (i, &t) in order.iter().enumerate() {
                p[t as usize] = i;
            }
            p
        };
        for (u, v) in g.edges() {
            assert!(pos[u.index()] < pos[v.index()]);
        }
    }

    #[test]
    fn critical_path_of_figure4_graph() {
        let mut b = TdgBuilder::new(7);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(2), TaskId(3));
        b.add_edge(TaskId(4), TaskId(5));
        b.add_edge(TaskId(1), TaskId(6));
        b.add_edge(TaskId(3), TaskId(6));
        b.add_edge(TaskId(5), TaskId(6));
        assert_eq!(b.build().expect("DAG").levels().depth(), 3);
    }

    #[test]
    fn display_mentions_tasks_and_depth() {
        let p = ParallelismProfile::of(&TdgBuilder::new(3).build().expect("DAG"));
        let s = p.to_string();
        assert!(s.contains("3 tasks"));
        assert!(s.contains("depth 1"));
    }
}
