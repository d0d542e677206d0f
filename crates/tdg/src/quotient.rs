//! The partitioned TDG (quotient graph) that the scheduler runs.
//!
//! After partitioning, the scheduler no longer dispatches individual tasks;
//! it dispatches *partitions*, each of which runs its member tasks
//! sequentially in topological order (§1 of the paper). The quotient graph
//! has one node per partition and a deduplicated edge `P -> Q` whenever some
//! task in `P` precedes some task in `Q`.
//!
//! The quotient graph is a [`Tdg`] built by the same body as every other:
//! the cross pairs and the summed member weights are staged in the
//! [`TdgArena`] a [`QuotientArena`] owns, and the body sorts and
//! deduplicates the pairs and fills both CSR directions. Only the proof of
//! acyclicity is the quotient's own.
//!
//! # Certificates
//!
//! [`QuotientTdg::build_in`] has to establish two orders: that the quotient
//! is acyclic, and a topological order of each partition's members. Both
//! can be derived with a Kahn drain, and both are usually already a
//! property of the numbering, so the one scan that touches every edge also
//! checks, with one comparison each:
//!
//! * **pids rise along every cross edge** (`pid(u) < pid(v)` whenever they
//!   differ). Then ascending pid is a topological order of the quotient,
//!   which is therefore acyclic. This is what §3.2's rule
//!   `pid(i) = max{pid(j) | j ∈ PRE(i)}` produces. *Fallback:* the Kahn
//!   drain every checked build uses, over the quotient, which decides
//!   acyclicity for any numbering and names the same witness a
//!   [`TdgBuilder`](crate::TdgBuilder) over the cross pairs would.
//! * **task ids rise along every edge** (`u < v`). Then ascending task id
//!   is a topological order of the TDG, and the member order is a
//!   sequential counting sort of `0..n` by partition. This is how
//!   `Timer::update_timing` numbers its tasks. *Fallback:* the Kahn drain
//!   over the whole TDG, scattered by partition.
//!
//! A certificate is recomputed on every call and never carried over or
//! taken from the caller; an input that fails one (a CLI edge list, GDCA or
//! Sarkar ids, Figure 2(a)) gets exactly the drain, result and typed error
//! it would get without them.
//!
//! # Restriction
//!
//! [`QuotientTdg::restrict_in`] derives, from a quotient that already
//! exists, the quotient that schedules a subset of its tasks — no edge of
//! the TDG is read. The partitions holding a member stay, renumbered in
//! ascending pid order; the edges between them stay; each keeps the members
//! it holds. A `ScheduledTimer` runs an update this way, off the one
//! full-space quotient its partition cache keeps: a full update *is* that
//! quotient (borrowed, not copied), a dirty cone is a restriction of it.
//!
//! The restricted edge set is a **superset** of the exact one — what
//! [`build_in`](QuotientTdg::build_in) gives on the extracted subgraph: an
//! edge between two surviving partitions that only non-members carried
//! survives too. Every dependency between members is still there (both
//! ends of a member edge sit in surviving partitions), the restriction is
//! a subgraph of an acyclic graph, and a member order that is a subsequence
//! of the full one is still topological — so every execution the
//! restriction admits is one the exact quotient admits, and the results
//! are the same; the schedule is at most as parallel.
//!
//! Renumbering the survivors in ascending order keeps what the full
//! quotient's numbering had — rows of the forward CSR stay sorted and
//! deduplicated, pids that rose along every edge still rise, ascending
//! members stay ascending — but the restriction leans on none of it: a
//! subgraph of a DAG needs no acyclicity proof, and each surviving
//! partition's ascending members are checked to be a subsequence of the
//! order the full quotient runs that partition in (one pass over the
//! survivors), with that order, filtered down, as the fallback.

use crate::error::ValidatePartitionError;
use crate::graph::{TaskId, Tdg};
use crate::partition::{Partition, PartitionId};
use crate::recycle::{kahn_drain, TdgArena};
use std::borrow::Cow;

/// A quotient TDG: the coarse graph over partitions, plus the sequential
/// member order of every partition.
#[derive(Debug, Clone, PartialEq)]
pub struct QuotientTdg {
    graph: Tdg,
    /// Member tasks of every partition in *original-TDG topological
    /// order*, flattened: partition `p` owns
    /// `exec_flat[exec_off[p]..exec_off[p+1]]`.
    exec_flat: Vec<u32>,
    exec_off: Vec<u32>,
}

/// Reusable buffers for repeated [`QuotientTdg`] construction — the
/// [`TdgArena`] lifecycle applied to the quotient. Incremental flows
/// rebuild the quotient every iteration; the arena owns the
/// [`TdgArena`] the quotient graph is built on (edge staging, CSR, Kahn
/// scratch) and the execution-order buffers, so steady-state rebuilds
/// touch the allocator only while a new high-water mark is being
/// established.
///
/// ```text
/// QuotientTdg::build_in(&tdg, &part, &mut arena) -> QuotientTdg
///        ^                                            |
///        +------------- arena.recycle(q) <------------+
/// ```
///
/// Skipping `recycle` is safe — the next build simply allocates fresh
/// output buffers. Arena-built quotients are bit-identical to
/// [`QuotientTdg::build`] output (which delegates here).
#[derive(Debug, Default)]
pub struct QuotientArena {
    /// The quotient graph's build: cross pairs and summed weights are
    /// staged here and [`TdgArena::finish_build`] turns them into CSR.
    graph: TdgArena,
    /// Scatter cursors of the member orders.
    cursor: Vec<u32>,
    /// The surviving partitions of a restriction.
    survivors: Vec<u32>,
    /// Global topological order of the original TDG.
    topo: Vec<u32>,
    /// Per partition of the quotient being restricted: its member count,
    /// then its new id plus one. All zero between restrictions.
    kept: Vec<u32>,
    /// Recycled member-order buffers, if a quotient has been returned.
    exec_flat: Vec<u32>,
    exec_off: Vec<u32>,
}

impl QuotientArena {
    /// An empty arena; buffers grow to the workload's high-water mark and
    /// are reused from then on.
    pub fn new() -> Self {
        QuotientArena::default()
    }

    /// Take a finished quotient's buffers back for the next build.
    pub fn recycle(&mut self, quotient: QuotientTdg) {
        self.graph.recycle(quotient.graph);
        self.exec_flat = quotient.exec_flat;
        self.exec_off = quotient.exec_off;
    }
}

impl QuotientTdg {
    /// Build the quotient of `tdg` under `partition`.
    ///
    /// Member execution order within each partition follows one
    /// topological order of the original TDG (ascending task id when that
    /// is one, see the [module docs](self)), which is always consistent
    /// for convex partitions.
    ///
    /// # Errors
    ///
    /// Returns [`ValidatePartitionError::LengthMismatch`] if the partition
    /// does not cover the TDG, and [`ValidatePartitionError::QuotientCycle`]
    /// if the induced quotient has a cycle (an invalid partitioning like
    /// Figure 2(a)).
    pub fn build(tdg: &Tdg, partition: &Partition) -> Result<Self, ValidatePartitionError> {
        Self::build_in(tdg, partition, &mut QuotientArena::new())
    }

    /// [`build`](Self::build) on recycled buffers: identical validation,
    /// bit-identical output, but every scratch and output allocation comes
    /// from (and can return to, via [`QuotientArena::recycle`]) `arena`.
    ///
    /// # Errors
    ///
    /// Exactly as [`build`](Self::build).
    pub fn build_in(
        tdg: &Tdg,
        partition: &Partition,
        arena: &mut QuotientArena,
    ) -> Result<Self, ValidatePartitionError> {
        if partition.num_tasks() != tdg.num_tasks() {
            return Err(ValidatePartitionError::LengthMismatch {
                num_tasks: tdg.num_tasks(),
                assignment_len: partition.num_tasks(),
            });
        }
        let n = tdg.num_tasks();
        let np = partition.num_partitions();
        let assignment = partition.assignment();

        // Cross-partition pairs and summed member weights, built into the
        // quotient graph by the one build body, which sorts and
        // deduplicates the pairs. The scan also checks the two
        // certificates of the module docs.
        let staged = &mut arena.graph;
        staged.edges.clear();
        let mut ids_rise = true;
        let mut pids_rise = true;
        for u in 0..n as u32 {
            let pu = assignment[u as usize];
            for &v in tdg.successors(TaskId(u)) {
                ids_rise &= u < v;
                let pv = assignment[v as usize];
                if pu != pv {
                    pids_rise &= pu < pv;
                    staged.edges.push((pu, pv));
                }
            }
        }
        staged.weights.clear();
        staged.weights.resize(np, 0.0);
        for (t, &p) in assignment.iter().enumerate() {
            staged.weights[p as usize] += tdg.weight(TaskId(t as u32));
        }
        let graph = staged.finish_build(np);

        // Acyclicity: rising pids are a topological order of the quotient;
        // any other numbering is decided by a drain.
        if !pids_rise {
            let g = &mut arena.graph;
            if let Err(witness) = kahn_drain(&graph, &mut g.indeg, &mut g.stack, &mut arena.topo) {
                g.recycle(graph);
                return Err(ValidatePartitionError::QuotientCycle {
                    witness_pid: witness,
                });
            }
        }

        // Member execution order: a counting sort by partition of one
        // topological order of the original TDG keeps that order within
        // each partition, which is all a worker needs. Rising ids make
        // `0..n` such an order; otherwise one sort-free Kahn pass yields
        // it (deterministic for a given graph). Flattened storage avoids
        // one Vec per partition.
        let mut exec_off = std::mem::take(&mut arena.exec_off);
        exec_off.clear();
        exec_off.resize(np + 1, 0);
        for &p in assignment {
            exec_off[p as usize + 1] += 1;
        }
        for p in 0..np {
            exec_off[p + 1] += exec_off[p];
        }
        let mut exec_flat = std::mem::take(&mut arena.exec_flat);
        exec_flat.clear();
        exec_flat.resize(n, 0);
        let cursor = &mut arena.cursor;
        cursor.clear();
        cursor.extend_from_slice(&exec_off);
        let place = |t: u32| {
            let c = &mut cursor[assignment[t as usize] as usize];
            exec_flat[*c as usize] = t;
            *c += 1;
        };
        if ids_rise {
            (0..n as u32).for_each(place);
        } else {
            let g = &mut arena.graph;
            let drained = kahn_drain(tdg, &mut g.indeg, &mut g.stack, &mut arena.topo);
            debug_assert!(drained.is_ok(), "a Tdg is acyclic");
            arena.topo.iter().copied().for_each(place);
        }

        Ok(QuotientTdg {
            graph,
            exec_flat,
            exec_off,
        })
    }

    /// The quotient that schedules `members` alone, derived from `self` —
    /// which must be the quotient of `tdg` under `partition` — without
    /// reading an edge of `tdg` (see the [module docs](self)). The
    /// partitions holding a member survive, renumbered in ascending pid
    /// order, with the edges `self` has between them; each runs the members
    /// it holds, in the order `self` runs them, and weighs their sum.
    /// Members keep their task ids, as in `self`.
    ///
    /// Against [`build_in`](Self::build_in) on the subgraph `members`
    /// induce (task `i` = `members[i]`): the same partitions, weights and —
    /// whenever `self` runs every surviving partition in ascending id
    /// order — member orders; an edge set that contains the exact one and
    /// is contained in `self`'s. Whether running `members` alone is
    /// meaningful is the caller's concern: a successor-closed set (a dirty
    /// cone) depends on nothing outside itself.
    ///
    /// When every task is a member the restriction is `self`, borrowed.
    /// Otherwise it costs `O(members + a log a + tasks and edges of the a
    /// surviving partitions)` on `arena`'s buffers, and the owned result
    /// can go back to [`QuotientArena::recycle`].
    ///
    /// # Panics
    ///
    /// Panics if `tdg` and `partition` do not have `self`'s task and
    /// partition counts, or if `members` is not a strictly ascending list
    /// of task ids.
    pub fn restrict_in<'q>(
        &'q self,
        tdg: &Tdg,
        partition: &Partition,
        members: &[u32],
        arena: &mut QuotientArena,
    ) -> Cow<'q, QuotientTdg> {
        let n = self.num_tasks();
        assert!(
            tdg.num_tasks() == n
                && partition.num_tasks() == n
                && partition.num_partitions() == self.num_partitions(),
            "restriction needs the TDG and partition the quotient was built from"
        );
        assert!(
            members.windows(2).all(|w| w[0] < w[1])
                && members.last().is_none_or(|&t| (t as usize) < n),
            "members must be strictly ascending task ids"
        );
        if members.len() == n {
            return Cow::Borrowed(self);
        }
        let pid_of = partition.assignment();

        // The surviving partitions, ascending, and how many members each
        // holds.
        let mut kept = std::mem::take(&mut arena.kept);
        if kept.len() < self.num_partitions() {
            kept.resize(self.num_partitions(), 0);
        }
        let mut survivors = std::mem::take(&mut arena.survivors);
        survivors.clear();
        for &t in members {
            let p = pid_of[t as usize];
            if kept[p as usize] == 0 {
                survivors.push(p);
            }
            kept[p as usize] += 1;
        }
        survivors.sort_unstable();
        let np = survivors.len();
        let mut exec_off = std::mem::take(&mut arena.exec_off);
        exec_off.clear();
        exec_off.push(0);
        for (new, &p) in survivors.iter().enumerate() {
            exec_off.push(exec_off[new] + kept[p as usize]);
            kept[p as usize] = new as u32 + 1;
        }

        // A surviving row of the full quotient, filtered to survivors and
        // renumbered, is still sorted and deduplicated: the new ids ascend
        // with the old ones.
        let staged = &mut arena.graph;
        staged.edges.clear();
        for (new, &p) in survivors.iter().enumerate() {
            for &s in self.graph.successors(TaskId(p)) {
                if let Some(s) = kept[s as usize].checked_sub(1) {
                    staged.edges.push((new as u32, s));
                }
            }
        }

        // Members and weights: the counting sort of `build_in`, over the
        // ascending members.
        staged.weights.clear();
        staged.weights.resize(np, 0.0);
        let mut exec_flat = std::mem::take(&mut arena.exec_flat);
        exec_flat.clear();
        exec_flat.resize(members.len(), 0);
        let cursor = &mut arena.cursor;
        cursor.clear();
        cursor.extend_from_slice(&exec_off);
        for &t in members {
            let new = (kept[pid_of[t as usize] as usize] - 1) as usize;
            staged.weights[new] += tdg.weight(TaskId(t));
            exec_flat[cursor[new] as usize] = t;
            cursor[new] += 1;
        }

        // Ascending members are a valid order of a partition when they are
        // a subsequence of the full quotient's order of it (always, where
        // that order ascends); otherwise the full order, filtered, is.
        for (new, &p) in survivors.iter().enumerate() {
            let full = self.execution_order(PartitionId(p));
            let mine = &mut exec_flat[exec_off[new] as usize..exec_off[new + 1] as usize];
            let mut matched = 0;
            for &t in full {
                matched += usize::from(mine.get(matched) == Some(&t));
            }
            if matched != mine.len() {
                let in_order = full.iter().filter(|t| mine.binary_search(t).is_ok());
                arena.topo.clear();
                arena.topo.extend(in_order);
                mine.copy_from_slice(&arena.topo);
            }
            kept[p as usize] = 0;
        }
        arena.kept = kept;
        arena.survivors = survivors;

        let graph = arena.graph.finish_build(np);
        Cow::Owned(QuotientTdg {
            graph,
            exec_flat,
            exec_off,
        })
    }
    /// The coarse DAG over partitions. Node ids are [`PartitionId`] values
    /// reinterpreted as task ids of this graph.
    #[inline]
    pub fn graph(&self) -> &Tdg {
        &self.graph
    }

    /// Number of partitions.
    #[inline]
    pub fn num_partitions(&self) -> usize {
        self.graph.num_tasks()
    }

    /// Total member tasks across all partitions (the original TDG's task
    /// count).
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.exec_flat.len()
    }

    /// The member tasks of partition `p` in required execution order.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn execution_order(&self, p: PartitionId) -> &[u32] {
        &self.exec_flat[self.exec_off[p.index()] as usize..self.exec_off[p.index() + 1] as usize]
    }

    /// Iterate over every partition's execution order.
    pub fn execution_orders(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.num_partitions()).map(move |p| self.execution_order(PartitionId(p as u32)))
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

    #[test]
    fn figure2b_valid_quotient() {
        // P0={0}, P1={1,2}, P2={3}: valid (Figure 2(b)).
        let q = QuotientTdg::build(&diamond(), &Partition::new(vec![0, 1, 1, 2]))
            .expect("figure 2(b) partition is valid");
        assert_eq!(q.num_partitions(), 3);
        assert_eq!(q.graph().num_deps(), 2);
        // Tasks 1 and 2 are incomparable, so any order of the pair is a
        // valid execution order.
        let mut members = q.execution_order(PartitionId(1)).to_vec();
        members.sort_unstable();
        assert_eq!(members, vec![1, 2]);
    }

    #[test]
    fn figure2a_cyclic_quotient_rejected() {
        // P0={0,3}, P1={1,2}: P0 -> P1 (0->1) and P1 -> P0 (1->3) — cyclic
        // (Figure 2(a)).
        let err = QuotientTdg::build(&diamond(), &Partition::new(vec![0, 1, 1, 0]))
            .expect_err("figure 2(a) partition is cyclic");
        assert!(matches!(err, ValidatePartitionError::QuotientCycle { .. }));
    }

    #[test]
    fn singleton_quotient_is_isomorphic() {
        let tdg = diamond();
        let q = QuotientTdg::build(&tdg, &Partition::singletons(4)).expect("identity is valid");
        assert_eq!(q.num_partitions(), 4);
        assert_eq!(q.graph().num_deps(), tdg.num_deps());
    }

    #[test]
    fn whole_graph_in_one_partition() {
        let q = QuotientTdg::build(&diamond(), &Partition::new(vec![0, 0, 0, 0]))
            .expect("one big partition is trivially valid");
        assert_eq!(q.num_partitions(), 1);
        assert_eq!(q.graph().num_deps(), 0);
        // Execution order must be topological: 0 first, 3 last.
        let order = q.execution_order(PartitionId(0));
        assert_eq!(order[0], 0);
        assert_eq!(order[3], 3);
    }

    #[test]
    fn length_mismatch_rejected() {
        let err = QuotientTdg::build(&diamond(), &Partition::new(vec![0, 0]))
            .expect_err("short assignment must be rejected");
        assert_eq!(
            err,
            ValidatePartitionError::LengthMismatch {
                num_tasks: 4,
                assignment_len: 2
            }
        );
    }

    #[test]
    fn parallel_cross_edges_dedup() {
        // Two tasks in P0 both feeding two tasks in P1 -> one quotient edge.
        let mut b = TdgBuilder::new(4);
        b.add_edge(TaskId(0), TaskId(2));
        b.add_edge(TaskId(0), TaskId(3));
        b.add_edge(TaskId(1), TaskId(2));
        b.add_edge(TaskId(1), TaskId(3));
        let tdg = b.build().expect("bipartite DAG");
        let q = QuotientTdg::build(&tdg, &Partition::new(vec![0, 0, 1, 1]))
            .expect("bipartite split is valid");
        assert_eq!(q.graph().num_deps(), 1);
    }

    #[test]
    fn quotient_weights_sum_members() {
        let mut b = TdgBuilder::new(3);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(1), TaskId(2));
        b.set_weight(TaskId(0), 1.0);
        b.set_weight(TaskId(1), 2.0);
        b.set_weight(TaskId(2), 4.0);
        let tdg = b.build().expect("chain DAG");
        let q = QuotientTdg::build(&tdg, &Partition::new(vec![0, 0, 1])).expect("prefix partition");
        assert_eq!(q.graph().weight(TaskId(0)), 3.0);
        assert_eq!(q.graph().weight(TaskId(1)), 4.0);
    }

    #[test]
    fn arena_build_is_bit_identical_and_reuses_capacity() {
        let tdg = diamond();
        let part = Partition::new(vec![0, 1, 1, 2]);
        let fresh = QuotientTdg::build(&tdg, &part).expect("valid");
        let mut arena = QuotientArena::new();
        let first = QuotientTdg::build_in(&tdg, &part, &mut arena).expect("valid");
        assert_eq!(fresh, first, "arena path must be bit-identical");
        arena.recycle(first);
        let caps = |a: &QuotientArena| {
            (
                a.graph.edges.capacity(),
                a.cursor.capacity(),
                a.topo.capacity(),
                a.graph.fwd_off.capacity(),
                a.graph.fwd_adj.capacity(),
                a.graph.rev_off.capacity(),
                a.graph.rev_adj.capacity(),
                a.exec_flat.capacity(),
                a.exec_off.capacity(),
            )
        };
        let before = caps(&arena);
        let second = QuotientTdg::build_in(&tdg, &part, &mut arena).expect("valid");
        assert_eq!(fresh, second, "recycled rebuild must be bit-identical");
        arena.recycle(second);
        assert_eq!(
            before,
            caps(&arena),
            "no buffer grew on a same-size rebuild"
        );
    }

    #[test]
    fn arena_survives_a_rejected_build() {
        let tdg = diamond();
        let mut arena = QuotientArena::new();
        let err = QuotientTdg::build_in(&tdg, &Partition::new(vec![0, 1, 1, 0]), &mut arena)
            .expect_err("cyclic quotient");
        assert!(matches!(err, ValidatePartitionError::QuotientCycle { .. }));
        let q = QuotientTdg::build_in(&tdg, &Partition::new(vec![0, 1, 1, 2]), &mut arena)
            .expect("arena is reusable after a rejection");
        assert_eq!(q.num_partitions(), 3);
    }

    #[test]
    fn restriction_keeps_task_ids_and_borrows_the_whole() {
        // {0} | {1, 2} | {3} restricted to the successor-closed {1, 2, 3}.
        let tdg = diamond();
        let part = Partition::new(vec![0, 1, 1, 2]);
        let full = QuotientTdg::build(&tdg, &part).expect("valid");
        let mut arena = QuotientArena::new();
        let cone = full.restrict_in(&tdg, &part, &[1, 2, 3], &mut arena);
        assert!(matches!(cone, Cow::Owned(_)));
        assert_eq!(cone.num_partitions(), 2);
        assert_eq!(cone.num_tasks(), 3);
        assert_eq!(cone.graph().num_deps(), 1, "P1 -> P2 survives, P0 is gone");
        assert_eq!(cone.execution_order(PartitionId(0)), &[1, 2]);
        assert_eq!(cone.execution_order(PartitionId(1)), &[3]);
        assert_eq!(
            cone.graph().weight(TaskId(0)),
            tdg.weight(TaskId(1)) + tdg.weight(TaskId(2))
        );

        // An edge only non-members carry survives: with the single
        // dependency 0 -> 2 and {0, 1} | {2, 3}, the closed set {1, 3} has
        // no dependency at all, and its restriction still orders P0 -> P1.
        let mut b = TdgBuilder::new(4);
        b.add_edge(TaskId(0), TaskId(2));
        let loose = b.build().expect("one-edge DAG");
        let halves = Partition::new(vec![0, 0, 1, 1]);
        let q = QuotientTdg::build(&loose, &halves).expect("valid");
        let extra = q.restrict_in(&loose, &halves, &[1, 3], &mut arena);
        assert_eq!(extra.graph().successors(TaskId(0)), &[1]);
        assert_eq!(extra.execution_order(PartitionId(0)), &[1]);
        assert_eq!(extra.execution_order(PartitionId(1)), &[3]);

        // Every task a member: the quotient itself, not a copy, and the
        // arena is clean again.
        let all = full.restrict_in(&tdg, &part, &[0, 1, 2, 3], &mut arena);
        assert!(matches!(all, Cow::Borrowed(q) if std::ptr::eq(q, &full)));
        assert!(arena.kept.iter().all(|&k| k == 0));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn restriction_refuses_members_that_do_not_ascend() {
        let tdg = diamond();
        let part = Partition::new(vec![0, 1, 1, 2]);
        let full = QuotientTdg::build(&tdg, &part).expect("valid");
        let _ = full.restrict_in(&tdg, &part, &[3, 1], &mut QuotientArena::new());
    }

    #[test]
    fn execution_order_is_topological_within_partition() {
        // Chain 0->1->2->3 all in one partition: order must be 0,1,2,3.
        let mut b = TdgBuilder::new(4);
        for i in 0..3u32 {
            b.add_edge(TaskId(i), TaskId(i + 1));
        }
        let tdg = b.build().expect("chain DAG");
        let q = QuotientTdg::build(&tdg, &Partition::new(vec![0; 4])).expect("valid");
        assert_eq!(q.execution_order(PartitionId(0)), &[0, 1, 2, 3]);
    }
}
