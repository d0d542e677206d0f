//! Validity checks for partitioning results.
//!
//! A valid TDG partitioning (§2 of the paper) must be *cycle-free*: the
//! quotient graph over partitions must be a DAG, otherwise the partitioned
//! TDG cannot be scheduled (Figure 2). G-PASTA's clustering rule further
//! guarantees every partition is *convex* (§3.2, Theorem 1); the convexity
//! checker here verifies that claim directly in tests.

use crate::error::ValidatePartitionError;
use crate::graph::{TaskId, Tdg};
use crate::partition::Partition;

/// Check basic well-formedness: assignment covers the TDG and ids are dense.
///
/// # Errors
///
/// Returns [`ValidatePartitionError::LengthMismatch`],
/// [`ValidatePartitionError::PartitionOutOfRange`] or
/// [`ValidatePartitionError::EmptyPartition`].
pub fn check_well_formed(tdg: &Tdg, p: &Partition) -> Result<(), ValidatePartitionError> {
    if p.num_tasks() != tdg.num_tasks() {
        return Err(ValidatePartitionError::LengthMismatch {
            num_tasks: tdg.num_tasks(),
            assignment_len: p.num_tasks(),
        });
    }
    let np = p.num_partitions() as u32;
    let mut seen = vec![false; np as usize];
    for (t, &pid) in p.assignment().iter().enumerate() {
        if pid >= np {
            return Err(ValidatePartitionError::PartitionOutOfRange {
                task: t as u32,
                pid,
                num_partitions: np,
            });
        }
        seen[pid as usize] = true;
    }
    if let Some(pid) = seen.iter().position(|&s| !s) {
        return Err(ValidatePartitionError::EmptyPartition { pid: pid as u32 });
    }
    Ok(())
}

/// Check that the quotient graph is acyclic (the paper's scheduling-validity
/// condition).
///
/// # Errors
///
/// Returns [`ValidatePartitionError::QuotientCycle`] if any partition
/// participates in a cyclic dependency, and propagates well-formedness
/// errors from quotient construction.
pub fn check_acyclic(tdg: &Tdg, p: &Partition) -> Result<(), ValidatePartitionError> {
    crate::quotient::QuotientTdg::build(tdg, p).map(|_| ())
}

/// Check that every partition is convex: for any two members `u`, `w` of a
/// partition and any path `u -> … -> w` in the TDG, all intermediate tasks
/// belong to the same partition (Figure 5(a) shows a violation).
///
/// Runs in `O(P_max · (V + E))` where `P_max` is the largest partition size
/// bound on the reachability frontier; intended for tests and debugging on
/// small-to-medium graphs, not for the hot path.
///
/// # Errors
///
/// Returns [`ValidatePartitionError::NotConvex`] with a witness task.
pub fn check_convex(tdg: &Tdg, p: &Partition) -> Result<(), ValidatePartitionError> {
    check_well_formed(tdg, p)?;
    let assignment = p.assignment();
    let n = tdg.num_tasks();

    // For each task u, DFS forward through *foreign* tasks only; if we can
    // re-enter u's partition via a foreign intermediate, the partition is
    // not convex. Each DFS is bounded by marking visited per-start.
    let mut visited = vec![u32::MAX; n];
    for u in 0..n as u32 {
        let pu = assignment[u as usize];
        let mut stack: Vec<u32> = Vec::new();
        // Seed with foreign successors of u.
        for &v in tdg.successors(TaskId(u)) {
            if assignment[v as usize] != pu {
                stack.push(v);
            }
        }
        while let Some(v) = stack.pop() {
            if visited[v as usize] == u {
                continue;
            }
            visited[v as usize] = u;
            for &w in tdg.successors(TaskId(v)) {
                if assignment[w as usize] == pu {
                    // Path u -> … -> v -> w with v outside the partition.
                    return Err(ValidatePartitionError::NotConvex {
                        pid: pu,
                        via_task: v,
                    });
                }
                if visited[w as usize] != u {
                    stack.push(w);
                }
            }
        }
    }
    Ok(())
}

/// Check that no partition exceeds `max_size` tasks.
///
/// # Errors
///
/// Returns [`ValidatePartitionError::PartitionTooLarge`].
pub fn check_size_bound(p: &Partition, max_size: usize) -> Result<(), ValidatePartitionError> {
    for (pid, &size) in p.sizes().iter().enumerate() {
        if size as usize > max_size {
            return Err(ValidatePartitionError::PartitionTooLarge {
                pid: pid as u32,
                size: size as usize,
                max_size,
            });
        }
    }
    Ok(())
}

/// Run every validity check applicable to a scheduling-ready partition:
/// well-formedness, quotient acyclicity, and convexity.
///
/// # Errors
///
/// Returns the first failing check's error.
pub fn check_all(tdg: &Tdg, p: &Partition) -> Result<(), ValidatePartitionError> {
    check_well_formed(tdg, p)?;
    check_acyclic(tdg, p)?;
    check_convex(tdg, p)
}

/// Check the §3.2 ordering certificate on a raw (possibly sparse) partition
/// assignment: ids never decrease along any TDG edge.
///
/// Monotone ids *prove* both scheduling-validity conditions in one `O(E)`
/// pass: a cross-partition edge strictly increases the id, so every
/// quotient edge points from a smaller id to a larger one (no cycle is
/// possible), and on any path between two tasks with the same id every
/// intermediate id is squeezed to that same value (convexity). G-PASTA's
/// `atomicMax` rule produces monotone ids by construction.
///
/// The certificate is sufficient, not necessary: a valid partition whose
/// ids were permuted can fail this check while passing [`check_all`].
///
/// # Errors
///
/// Returns [`ValidatePartitionError::LengthMismatch`] if `assignment` does
/// not cover the TDG, and [`ValidatePartitionError::NotMonotone`] with the
/// offending edge otherwise.
pub fn check_edge_monotone(tdg: &Tdg, assignment: &[u32]) -> Result<(), ValidatePartitionError> {
    if assignment.len() != tdg.num_tasks() {
        return Err(ValidatePartitionError::LengthMismatch {
            num_tasks: tdg.num_tasks(),
            assignment_len: assignment.len(),
        });
    }
    for u in 0..tdg.num_tasks() as u32 {
        let pu = assignment[u as usize];
        for &v in tdg.successors(TaskId(u)) {
            if assignment[v as usize] < pu {
                return Err(ValidatePartitionError::NotMonotone { from: u, to: v });
            }
        }
    }
    Ok(())
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

    /// Figure 5(a): chain 0 -> 1 -> 2 with P0 = {0, 2}, P1 = {1}.
    fn figure5a() -> (Tdg, Partition) {
        let mut b = TdgBuilder::new(3);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(1), TaskId(2));
        (b.build().expect("chain DAG"), Partition::new(vec![0, 1, 0]))
    }

    #[test]
    fn figure5a_is_not_convex() {
        let (tdg, p) = figure5a();
        let err = check_convex(&tdg, &p).expect_err("figure 5(a) violates convexity");
        assert_eq!(
            err,
            ValidatePartitionError::NotConvex {
                pid: 0,
                via_task: 1
            }
        );
    }

    #[test]
    fn figure5a_is_also_cyclic() {
        // Non-convexity along a chain also produces a quotient cycle.
        let (tdg, p) = figure5a();
        assert!(matches!(
            check_acyclic(&tdg, &p).expect_err("quotient P0<->P1 is cyclic"),
            ValidatePartitionError::QuotientCycle { .. }
        ));
    }

    #[test]
    fn valid_partition_passes_everything() {
        let tdg = diamond();
        let p = Partition::new(vec![0, 1, 1, 2]);
        check_all(&tdg, &p).expect("figure 2(b) partition is fully valid");
    }

    #[test]
    fn monotone_certificate_accepts_and_rejects() {
        let tdg = diamond();
        // Monotone (sparse ids allowed): 2 -> {5, 5} -> 9.
        check_edge_monotone(&tdg, &[2, 5, 5, 9]).expect("monotone along all edges");
        // Constant assignments are trivially monotone.
        check_edge_monotone(&tdg, &[7, 7, 7, 7]).expect("constant is monotone");
        // Decreasing edge 0 -> 1.
        assert_eq!(
            check_edge_monotone(&tdg, &[3, 1, 3, 3]).expect_err("0 -> 1 decreases"),
            ValidatePartitionError::NotMonotone { from: 0, to: 1 }
        );
        // Wrong coverage.
        assert!(matches!(
            check_edge_monotone(&tdg, &[0, 1]).expect_err("short assignment"),
            ValidatePartitionError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn monotone_certificate_implies_full_validity() {
        // The theorem the certificate rests on, spot-checked: a monotone
        // raw assignment compacts to a partition that passes check_all.
        let tdg = diamond();
        let raw = vec![2u32, 5, 5, 9];
        check_edge_monotone(&tdg, &raw).expect("monotone");
        check_all(&tdg, &Partition::new(raw)).expect("monotone implies valid");
    }

    #[test]
    fn singletons_always_valid() {
        let tdg = diamond();
        check_all(&tdg, &Partition::singletons(4)).expect("singletons are valid");
    }

    #[test]
    fn one_partition_always_valid() {
        let tdg = diamond();
        check_all(&tdg, &Partition::new(vec![0; 4])).expect("one partition is valid");
    }

    #[test]
    fn size_bound_violation_detected() {
        let p = Partition::new(vec![0, 0, 0, 1]);
        check_size_bound(&p, 3).expect("3 <= 3 is fine");
        let err = check_size_bound(&p, 2).expect_err("partition 0 has 3 > 2 tasks");
        assert_eq!(
            err,
            ValidatePartitionError::PartitionTooLarge {
                pid: 0,
                size: 3,
                max_size: 2
            }
        );
    }

    #[test]
    fn well_formed_rejects_length_mismatch() {
        let tdg = diamond();
        let p = Partition::new(vec![0, 0]);
        assert!(matches!(
            check_well_formed(&tdg, &p),
            Err(ValidatePartitionError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn convexity_allows_disjoint_antichain_partition() {
        // Tasks 1 and 2 of the diamond are incomparable; clustering them is
        // convex (no path between them at all).
        let tdg = diamond();
        check_convex(&tdg, &Partition::new(vec![0, 1, 1, 2])).expect("antichain cluster is convex");
    }

    #[test]
    fn non_convex_via_long_foreign_path() {
        // 0 -> 1 -> 2 -> 3, P0 = {0, 3}: the foreign path 1 -> 2 connects
        // two members.
        let mut b = TdgBuilder::new(4);
        for i in 0..3u32 {
            b.add_edge(TaskId(i), TaskId(i + 1));
        }
        let tdg = b.build().expect("chain DAG");
        let err = check_convex(&tdg, &Partition::new(vec![0, 1, 2, 0]))
            .expect_err("P0 = {0,3} is not convex");
        assert!(matches!(
            err,
            ValidatePartitionError::NotConvex { pid: 0, .. }
        ));
    }

    #[test]
    fn convex_but_checks_run_on_empty_graph() {
        let tdg = TdgBuilder::new(0).build().expect("empty DAG");
        let p = Partition::new(vec![]);
        check_all(&tdg, &p).expect("empty partition of empty graph is valid");
    }
}
