//! The partitioned TDG (quotient graph) that the scheduler runs.
//!
//! After partitioning, the scheduler no longer dispatches individual tasks;
//! it dispatches *partitions*, each of which runs its member tasks
//! sequentially in topological order (§1 of the paper). The quotient graph
//! has one node per partition and a deduplicated edge `P -> Q` whenever some
//! task in `P` precedes some task in `Q`.
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
//!   `pid(i) = max{pid(j) | j ∈ PRE(i)}` produces and what
//!   `IncrementalPartitioner` maintains. *Fallback:* the Kahn drain over
//!   the quotient, which decides acyclicity for any numbering.
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
//! # Induced quotients
//!
//! [`QuotientTdg::build_induced_in`] builds the quotient of the subgraph a
//! task subset *induces* in a larger TDG, without extracting that
//! subgraph. The subset must be **successor-closed** (every successor of a
//! member is a member), which makes the construction exact: the edges of
//! the induced subgraph are then precisely the out-edges of the members,
//! so the same scan over `tdg.successors(member)` sees every edge once and
//! no edge that is not there. The result is the quotient
//! [`build_in`](QuotientTdg::build_in) would give on the extracted
//! subgraph, except that members keep their ids in the larger graph — a
//! warm `Session` runs an update this way, straight off the full-space TDG
//! its partition cache was installed on. `build_in` is the same scan with
//! every task a member.

use crate::error::ValidatePartitionError;
use crate::graph::{TaskId, Tdg};
use crate::partition::{Partition, PartitionId};
use serde::{Deserialize, Serialize};

/// A quotient TDG: the coarse graph over partitions, plus the sequential
/// member order of every partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuotientTdg {
    graph: Tdg,
    /// Member tasks of every partition in *original-TDG topological
    /// order*, flattened: partition `p` owns
    /// `exec_flat[exec_off[p]..exec_off[p+1]]`.
    exec_flat: Vec<u32>,
    exec_off: Vec<u32>,
}

/// Reusable buffers for repeated [`QuotientTdg`] construction — the
/// [`crate::TdgArena`] lifecycle applied to the quotient. Incremental
/// flows rebuild the quotient every iteration; the arena owns the edge
/// staging, CSR, Kahn scratch, and execution-order buffers so
/// steady-state rebuilds touch the allocator only while a new high-water
/// mark is being established.
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
    /// Cross-partition edge staging.
    cross: Vec<(u32, u32)>,
    /// Counting-sort / scatter cursors (reused across all passes).
    cursor: Vec<u32>,
    /// Pre-dedup forward offsets.
    raw_off: Vec<u32>,
    /// Kahn residual in-degrees.
    indeg: Vec<u32>,
    /// Kahn ready stack.
    stack: Vec<u32>,
    /// Global topological order of the original TDG.
    topo: Vec<u32>,
    /// Partition id of every member of an induced build, by task id of the
    /// larger graph; [`NOT_A_MEMBER`] everywhere between builds.
    slot: Vec<u32>,
    /// Recycled output buffers, if a quotient has been returned.
    fwd_off: Vec<u32>,
    fwd_adj: Vec<u32>,
    rev_off: Vec<u32>,
    rev_adj: Vec<u32>,
    weights: Vec<f32>,
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
        let QuotientTdg {
            graph,
            exec_flat,
            exec_off,
        } = quotient;
        self.recycle_graph(graph);
        self.exec_flat = exec_flat;
        self.exec_off = exec_off;
    }

    fn recycle_graph(&mut self, graph: Tdg) {
        let (fwd_off, fwd_adj, rev_off, rev_adj, weights) = graph.into_buffers();
        self.fwd_off = fwd_off;
        self.fwd_adj = fwd_adj;
        self.rev_off = rev_off;
        self.rev_adj = rev_adj;
        if weights.capacity() > self.weights.capacity() {
            self.weights = weights;
        }
    }
}

/// [`QuotientArena::slot`] value of a task outside the member set.
const NOT_A_MEMBER: u32 = u32::MAX;

/// LIFO Kahn drain, on recycled scratch, of the subgraph `nodes` induce in
/// `graph`; `nodes` must be successor-closed and `in_degree` count a node's
/// predecessors among them. Appends the pop order to `order`, which holds
/// every node iff the drain met no cycle, and leaves the residual
/// in-degrees in `indeg` (indexed by `graph` id).
fn kahn_drain(
    graph: &Tdg,
    nodes: impl Iterator<Item = u32> + Clone,
    in_degree: impl Fn(u32) -> u32,
    indeg: &mut Vec<u32>,
    stack: &mut Vec<u32>,
    order: &mut Vec<u32>,
) {
    indeg.clear();
    indeg.resize(graph.num_tasks(), 0);
    stack.clear();
    for t in nodes {
        indeg[t as usize] = in_degree(t);
        if indeg[t as usize] == 0 {
            stack.push(t);
        }
    }
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
        // Every task is a member: the identity embedding of the scan.
        Self::scan(
            tdg,
            0..tdg.num_tasks() as u32,
            true,
            partition.assignment(),
            partition.num_partitions(),
            arena,
        )
    }

    /// Build the quotient of the subgraph that `members` induce in `tdg`,
    /// under `partition` — `partition.pid_of(i)` is the partition of
    /// `members[i]` — without extracting the subgraph (see the
    /// [module docs](self)). `members` must be duplicate-free and
    /// successor-closed in `tdg`.
    ///
    /// The result equals [`build_in`](Self::build_in) on the extracted
    /// subgraph (task `i` = `members[i]`) with every member `i` of every
    /// execution order replaced by `members[i]`: same partitions, same
    /// deduplicated edges, same weights, and — when `members` ascend and
    /// task ids rise along every edge of `tdg` — the same member order.
    /// Both certificates and both Kahn fallbacks apply unchanged; members
    /// that do not ascend take the member-order fallback.
    ///
    /// # Errors
    ///
    /// [`ValidatePartitionError::LengthMismatch`] if the partition does not
    /// cover `members`; [`MemberOutOfRange`], [`DuplicateMember`] and
    /// [`MembersNotClosed`] if `members` is not a duplicate-free
    /// successor-closed subset of `tdg`'s tasks; and
    /// [`ValidatePartitionError::QuotientCycle`] as [`build`](Self::build).
    ///
    /// [`MemberOutOfRange`]: ValidatePartitionError::MemberOutOfRange
    /// [`DuplicateMember`]: ValidatePartitionError::DuplicateMember
    /// [`MembersNotClosed`]: ValidatePartitionError::MembersNotClosed
    pub fn build_induced_in(
        tdg: &Tdg,
        members: &[u32],
        partition: &Partition,
        arena: &mut QuotientArena,
    ) -> Result<Self, ValidatePartitionError> {
        if partition.num_tasks() != members.len() {
            return Err(ValidatePartitionError::LengthMismatch {
                num_tasks: members.len(),
                assignment_len: partition.num_tasks(),
            });
        }
        let n = tdg.num_tasks();
        let mut slot = std::mem::take(&mut arena.slot);
        if slot.len() < n {
            slot.resize(n, NOT_A_MEMBER);
        }
        // Scatter the pids to the members' own ids, so the scan reads the
        // pid of a successor — or that it is no member — in one load.
        let mut placed = 0;
        let mut rejected = None;
        for (&t, &pid) in members.iter().zip(partition.assignment()) {
            if t as usize >= n {
                rejected = Some(ValidatePartitionError::MemberOutOfRange {
                    task: t,
                    num_tasks: n,
                });
                break;
            }
            if slot[t as usize] != NOT_A_MEMBER {
                rejected = Some(ValidatePartitionError::DuplicateMember { task: t });
                break;
            }
            slot[t as usize] = pid;
            placed += 1;
        }
        let built = match rejected {
            Some(err) => Err(err),
            None => Self::scan(
                tdg,
                members.iter().copied(),
                members.windows(2).all(|w| w[0] < w[1]),
                &slot,
                partition.num_partitions(),
                arena,
            ),
        };
        for &t in &members[..placed] {
            slot[t as usize] = NOT_A_MEMBER;
        }
        arena.slot = slot;
        built
    }

    /// The one quotient scan: the quotient of the subgraph `members` induce
    /// in `tdg`, with `pid_of[t]` the dense partition id (below `np`) of
    /// member `t` and [`NOT_A_MEMBER`] for any other task a member's edge
    /// can reach. `members_ascend` says the iterator yields ascending ids.
    fn scan(
        tdg: &Tdg,
        members: impl Iterator<Item = u32> + Clone,
        members_ascend: bool,
        pid_of: &[u32],
        np: usize,
        arena: &mut QuotientArena,
    ) -> Result<Self, ValidatePartitionError> {
        // Forward CSR over cross-partition edges via counting sort by
        // source partition, then per-bucket sort + dedup (buckets are
        // small, so this beats one global edge sort on large TDGs). The
        // scan also checks the two certificates of the module docs, and
        // that no edge leaves the member set.
        let cross = &mut arena.cross;
        cross.clear();
        let mut ids_rise = members_ascend;
        let mut pids_rise = true;
        for u in members.clone() {
            let pu = pid_of[u as usize];
            for &v in tdg.successors(TaskId(u)) {
                ids_rise &= u < v;
                let pv = pid_of[v as usize];
                if pu != pv {
                    if pv == NOT_A_MEMBER {
                        return Err(ValidatePartitionError::MembersNotClosed {
                            task: u,
                            successor: v,
                        });
                    }
                    pids_rise &= pu < pv;
                    cross.push((pu, pv));
                }
            }
        }
        let raw_off = &mut arena.raw_off;
        raw_off.clear();
        raw_off.resize(np + 1, 0);
        for &(pu, _) in cross.iter() {
            raw_off[pu as usize + 1] += 1;
        }
        for p in 0..np {
            raw_off[p + 1] += raw_off[p];
        }
        let mut fwd_adj = std::mem::take(&mut arena.fwd_adj);
        fwd_adj.clear();
        fwd_adj.resize(cross.len(), 0);
        {
            let cursor = &mut arena.cursor;
            cursor.clear();
            cursor.extend_from_slice(raw_off);
            for &(pu, pv) in cross.iter() {
                let c = &mut cursor[pu as usize];
                fwd_adj[*c as usize] = pv;
                *c += 1;
            }
        }
        // Per-bucket sort + in-place dedup, compacting the arrays.
        let mut fwd_off = std::mem::take(&mut arena.fwd_off);
        fwd_off.clear();
        fwd_off.resize(np + 1, 0);
        let mut write = 0usize;
        for p in 0..np {
            let (lo, hi) = (raw_off[p] as usize, raw_off[p + 1] as usize);
            fwd_adj[lo..hi].sort_unstable();
            let mut prev = u32::MAX;
            for i in lo..hi {
                let v = fwd_adj[i];
                if v != prev {
                    fwd_adj[write] = v;
                    write += 1;
                    prev = v;
                }
            }
            fwd_off[p + 1] = write as u32;
        }
        fwd_adj.truncate(write);

        // Reverse CSR from the deduplicated forward CSR.
        let mut rev_off = std::mem::take(&mut arena.rev_off);
        rev_off.clear();
        rev_off.resize(np + 1, 0);
        for &v in &fwd_adj {
            rev_off[v as usize + 1] += 1;
        }
        for p in 0..np {
            rev_off[p + 1] += rev_off[p];
        }
        let mut rev_adj = std::mem::take(&mut arena.rev_adj);
        rev_adj.clear();
        rev_adj.resize(fwd_adj.len(), 0);
        {
            let cursor = &mut arena.cursor;
            cursor.clear();
            cursor.extend_from_slice(&rev_off);
            for p in 0..np as u32 {
                let (lo, hi) = (
                    fwd_off[p as usize] as usize,
                    fwd_off[p as usize + 1] as usize,
                );
                for &v in &fwd_adj[lo..hi] {
                    rev_adj[cursor[v as usize] as usize] = p;
                    cursor[v as usize] += 1;
                }
            }
        }

        // Partition weights (sum of member task weights, in member order)
        // and sizes.
        let mut weights = std::mem::take(&mut arena.weights);
        weights.clear();
        weights.resize(np, 0.0);
        let mut exec_off = std::mem::take(&mut arena.exec_off);
        exec_off.clear();
        exec_off.resize(np + 1, 0);
        for t in members.clone() {
            let p = pid_of[t as usize] as usize;
            weights[p] += tdg.weight(TaskId(t));
            exec_off[p + 1] += 1;
        }

        let graph = Tdg::from_csr(fwd_off, fwd_adj, rev_off, rev_adj, weights);

        // Acyclicity: rising pids are a topological order of the quotient;
        // any other numbering is decided by a drain.
        if !pids_rise {
            kahn_drain(
                &graph,
                0..np as u32,
                |p| graph.in_degree(TaskId(p)),
                &mut arena.indeg,
                &mut arena.stack,
                &mut arena.topo,
            );
            if arena.topo.len() != np {
                let witness = arena.indeg.iter().position(|&d| d > 0).unwrap_or(0) as u32;
                arena.recycle_graph(graph);
                arena.exec_off = exec_off;
                return Err(ValidatePartitionError::QuotientCycle {
                    witness_pid: witness,
                });
            }
        }

        // Member execution order: a counting sort by partition of one
        // topological order of the members keeps that order within each
        // partition, which is all a worker needs. Rising ids make the
        // ascending members such an order; otherwise one sort-free Kahn
        // pass yields it (deterministic for a given graph). Flattened
        // storage avoids one Vec per partition.
        for p in 0..np {
            exec_off[p + 1] += exec_off[p];
        }
        let mut exec_flat = std::mem::take(&mut arena.exec_flat);
        exec_flat.clear();
        exec_flat.resize(exec_off[np] as usize, 0);
        let cursor = &mut arena.cursor;
        cursor.clear();
        cursor.extend_from_slice(&exec_off);
        let place = |t: u32| {
            let c = &mut cursor[pid_of[t as usize] as usize];
            exec_flat[*c as usize] = t;
            *c += 1;
        };
        if ids_rise {
            members.for_each(place);
        } else {
            // Successor-closed members: a member's induced in-degree counts
            // its member predecessors — all of them when every task is one.
            let all_members = exec_off[np] as usize == tdg.num_tasks();
            let member_preds = |t: u32| {
                if all_members {
                    return tdg.in_degree(TaskId(t));
                }
                let preds = tdg.predecessors(TaskId(t)).iter();
                preds
                    .filter(|&&u| pid_of[u as usize] != NOT_A_MEMBER)
                    .count() as u32
            };
            kahn_drain(
                tdg,
                members,
                member_preds,
                &mut arena.indeg,
                &mut arena.stack,
                &mut arena.topo,
            );
            arena.topo.iter().copied().for_each(place);
        }

        Ok(QuotientTdg {
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
                a.cross.capacity(),
                a.cursor.capacity(),
                a.topo.capacity(),
                a.fwd_off.capacity(),
                a.fwd_adj.capacity(),
                a.rev_off.capacity(),
                a.rev_adj.capacity(),
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
    fn induced_quotient_keeps_the_larger_graph_ids() {
        // Tasks {1, 2, 3} of the diamond are successor-closed; {1, 2} | {3}.
        let tdg = diamond();
        let mut arena = QuotientArena::new();
        let part = Partition::new(vec![0, 0, 1]);
        let q = QuotientTdg::build_induced_in(&tdg, &[1, 2, 3], &part, &mut arena)
            .expect("closed subset, valid partition");
        assert_eq!(q.num_partitions(), 2);
        assert_eq!(q.num_tasks(), 3);
        assert_eq!(q.graph().num_deps(), 1, "1 -> 3 and 2 -> 3 are one edge");
        assert_eq!(q.execution_order(PartitionId(0)), &[1, 2]);
        assert_eq!(q.execution_order(PartitionId(1)), &[3]);

        // {0, 1, 3} is not closed: 0 -> 2 leaves it.
        let err = QuotientTdg::build_induced_in(&tdg, &[0, 1, 3], &part, &mut arena)
            .expect_err("open subset");
        assert_eq!(
            err,
            ValidatePartitionError::MembersNotClosed {
                task: 0,
                successor: 2
            }
        );
        // Every task a member is `build_in`, and the arena is clean again.
        let all = Partition::new(vec![0, 1, 1, 2]);
        assert_eq!(
            QuotientTdg::build_induced_in(&tdg, &[0, 1, 2, 3], &all, &mut arena).expect("valid"),
            QuotientTdg::build(&tdg, &all).expect("valid")
        );
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
