//! Graphviz DOT export for partitioned TDGs (debugging aid).

use crate::graph::Tdg;
use crate::partition::Partition;
use std::fmt::Write as _;

/// Render `tdg` grouped into clusters by `partition` (one Graphviz
/// `subgraph cluster_*` per partition).
///
/// # Panics
///
/// Panics if the partition does not cover the TDG's tasks.
pub fn partition_to_dot(tdg: &Tdg, partition: &Partition) -> String {
    assert_eq!(
        partition.num_tasks(),
        tdg.num_tasks(),
        "partition/TDG task count mismatch"
    );
    let mut out =
        String::from("digraph partitioned_tdg {\n  rankdir=TB;\n  node [shape=circle];\n");
    for (pid, members) in partition.members().iter().enumerate() {
        let _ = writeln!(out, "  subgraph cluster_{pid} {{");
        let _ = writeln!(out, "    label=\"P{pid}\";");
        for &t in members {
            let _ = writeln!(out, "    t{t};");
        }
        out.push_str("  }\n");
    }
    for (u, v) in tdg.edges() {
        let style = if partition.pid_of(u) == partition.pid_of(v) {
            ""
        } else {
            " [style=bold]"
        };
        let _ = writeln!(out, "  {u} -> {v}{style};");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{TaskId, TdgBuilder};

    fn diamond() -> Tdg {
        let mut b = TdgBuilder::new(4);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(0), TaskId(2));
        b.add_edge(TaskId(1), TaskId(3));
        b.add_edge(TaskId(2), TaskId(3));
        b.build().expect("diamond DAG")
    }

    #[test]
    fn partition_dot_has_clusters_and_bold_cross_edges() {
        let tdg = diamond();
        let p = Partition::new(vec![0, 1, 1, 2]);
        let dot = partition_to_dot(&tdg, &p);
        assert!(dot.contains("subgraph cluster_0"));
        assert!(dot.contains("subgraph cluster_2"));
        // 0 -> 1 crosses P0 -> P1: bold.
        assert!(dot.contains("t0 -> t1 [style=bold];"));
        // 1 and 2 share P1, but there is no edge between them; 1 -> 3 crosses.
        assert!(dot.contains("t1 -> t3 [style=bold];"));
    }
}
