//! Boundary projection of timing state for multi-process (sharded)
//! execution.
//!
//! A shard worker executes a subset of an update's fprop/bprop tasks in
//! its own process. Before it can start, it needs exactly the timing
//! values its tasks *read* but do not *compute* — the shard's boundary
//! inputs; after it finishes, the supervisor needs exactly the values its
//! tasks *wrote* — the shard's delta. [`ValueSet`] names such a set of
//! storage cells, and [`BoundaryValues`] pairs a set with the raw bit
//! patterns, so a value that crossed a process boundary is bit-identical
//! to one computed locally.
//!
//! # Read/write sets (the projection rules)
//!
//! From the propagation semantics in [`crate::analysis`]:
//!
//! * `fprop(v)` **writes** `arrival[v]`, `slew[v]`, and `arc_delay[a]` for
//!   every fanin arc `a` of `v`; it **reads** `arrival[u]`, `slew[u]` for
//!   every fanin from-node `u` (plus static electrical state that both
//!   processes recompute deterministically from the design).
//! * `bprop(v)` **writes** `required[v]`; it **reads** `required[w]` for
//!   every fanout to-node `w` *and* `arc_delay[a]` for every fanout arc
//!   `a` (cached by `fprop(w)`).
//!
//! The arc-delay read is the subtle one: `fprop(w)` is only a
//! *transitive* TDG predecessor of `bprop(v)` (via `bprop(w)`), so a
//! boundary computed from direct task-graph predecessors alone would
//! miss it. These functions therefore work from the pin-level
//! [`TimingGraph`] read sets, never from TDG adjacency.

use crate::analysis::TimingData;
use crate::graph::{NodeId, TimingGraph};
use crate::timer::{DirtyCone, TaskKind};
use std::ops::Range;

/// A sorted, deduplicated set of timing-storage cells: forward state
/// (arrival + slew) per node, required times per node, and cached delays
/// per arc.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValueSet {
    /// Nodes whose arrival/slew corners are in the set (sorted).
    pub fprop_nodes: Vec<u32>,
    /// Nodes whose required corners are in the set (sorted).
    pub req_nodes: Vec<u32>,
    /// Arcs whose cached delay corners are in the set (sorted).
    pub arcs: Vec<u32>,
}

fn sort_dedup(v: &mut Vec<u32>) {
    v.sort_unstable();
    v.dedup();
}

impl ValueSet {
    /// The cells written by executing the tasks with full-space ids `ids`
    /// of `cone`.
    pub fn writes_of(cone: &DirtyCone<'_>, ids: &[u32]) -> Self {
        let graph = cone.graph();
        let mut set = ValueSet::default();
        for &id in ids {
            match cone.decode(id) {
                (TaskKind::Fprop, v) => {
                    set.fprop_nodes.push(v.0);
                    set.arcs.extend(graph.fanin(v));
                }
                (TaskKind::Bprop, v) => set.req_nodes.push(v.0),
            }
        }
        set.normalise();
        set
    }

    /// The cells read by executing the tasks with full-space ids `ids` of
    /// `cone` (static electrical state excluded — both sides recompute it
    /// from the design).
    pub fn reads_of(cone: &DirtyCone<'_>, ids: &[u32]) -> Self {
        let graph = cone.graph();
        let mut set = ValueSet::default();
        for &id in ids {
            match cone.decode(id) {
                (TaskKind::Fprop, v) => {
                    for a in graph.fanin(v) {
                        set.fprop_nodes.push(graph.arc(a).from.0);
                    }
                }
                (TaskKind::Bprop, v) => {
                    for &a in graph.fanout(v) {
                        set.req_nodes.push(graph.arc(a).to.0);
                        set.arcs.push(a);
                    }
                }
            }
        }
        set.normalise();
        set
    }

    /// For each shard `s` of the whole design cut into `runs` of its full
    /// task space (fprop `v` at `v`, bprop at `2n - 1 - v`; shard `s` owns
    /// `runs[s]`, as [`ShardPlan::cut`](gpasta_tdg::ShardPlan::cut) makes
    /// them), what [`writes_of`](Self::writes_of) and
    /// `reads_of(..).minus(writes)` (the references) give for its tasks,
    /// read straight off the graph's arrays and the runs: a shard's fprop
    /// tasks, its bprop tasks and the arcs its fprop tasks write are each
    /// one run of ids, and one ascending pass over the fan-in ranges finds
    /// every boundary without a table per node, every set sorted.
    ///
    /// # Panics
    ///
    /// Panics unless `runs` cut the `2n` tasks of `graph` in order.
    pub fn per_range(graph: &TimingGraph, runs: &[Range<u32>]) -> Vec<(Self, Self)> {
        let n = graph.num_nodes() as u32;
        assert!(
            runs.windows(2).all(|w| w[0].end == w[1].start)
                && runs.first().map_or(0, |r| r.start) == 0
                && runs.last().map_or(0, |r| r.end) == 2 * n,
            "a cut of the whole design"
        );
        let shard_of = |task: u32| runs.partition_point(|r| r.end <= task);
        let mut out: Vec<(Self, Self)> = runs
            .iter()
            .map(|r| {
                let fwd = r.start.min(n)..r.end.min(n);
                let arcs = match fwd.is_empty() {
                    true => 0..0,
                    false => {
                        graph.fanin(NodeId(fwd.start)).start..graph.fanin(NodeId(fwd.end - 1)).end
                    }
                };
                let writes = ValueSet {
                    fprop_nodes: fwd.collect(),
                    req_nodes: (2 * n - r.end.max(n)..2 * n - r.start.max(n)).collect(),
                    arcs: arcs.collect(),
                };
                (writes, ValueSet::default())
            })
            .collect();
        // The last node each shard's required boundary took.
        let mut last_r = vec![u32::MAX; runs.len()];
        let top = (2 * n).wrapping_sub(1);
        // The shards of v's fprop and bprop, which rise and fall with v.
        let (mut fv, mut bv) = (0, runs.len().saturating_sub(1));
        for v in 0..n {
            while runs[fv].end <= v {
                fv += 1;
            }
            while runs[bv].start > top - v {
                bv -= 1;
            }
            // Where their runs of nodes start: a tail below the start lies
            // in another shard.
            let (f_lo, b_lo) = (runs[fv].start, 2 * n - runs[bv].end);
            for a in graph.fanin(NodeId(v)) {
                let u = graph.arc(a).from.0;
                // fprop(v) reads u's forward state.
                if u < f_lo {
                    out[fv].1.fprop_nodes.push(u);
                }
                // bprop(u) reads v's required time and a's delay.
                let r = if u < b_lo { shard_of(top - u) } else { bv };
                if r != bv && last_r[r] != v {
                    last_r[r] = v;
                    out[r].1.req_nodes.push(v);
                }
                if r != fv {
                    out[r].1.arcs.push(a);
                }
            }
        }
        for (_, needed) in &mut out {
            sort_dedup(&mut needed.fprop_nodes);
        }
        out
    }

    /// Set difference `self \ other` (all three components).
    pub fn minus(&self, other: &ValueSet) -> ValueSet {
        fn diff(a: &[u32], b: &[u32]) -> Vec<u32> {
            // Both sides are sorted; a linear merge keeps this O(n).
            let mut out = Vec::new();
            let mut j = 0;
            for &x in a {
                while j < b.len() && b[j] < x {
                    j += 1;
                }
                if j >= b.len() || b[j] != x {
                    out.push(x);
                }
            }
            out
        }
        ValueSet {
            fprop_nodes: diff(&self.fprop_nodes, &other.fprop_nodes),
            req_nodes: diff(&self.req_nodes, &other.req_nodes),
            arcs: diff(&self.arcs, &other.arcs),
        }
    }

    /// Total number of cells named (nodes count once per component).
    pub fn len(&self) -> usize {
        self.fprop_nodes.len() + self.req_nodes.len() + self.arcs.len()
    }

    /// Whether the set names no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn normalise(&mut self) {
        sort_dedup(&mut self.fprop_nodes);
        sort_dedup(&mut self.req_nodes);
        sort_dedup(&mut self.arcs);
    }

    /// Every id must be in range for `graph`.
    pub fn in_range_of(&self, graph: &TimingGraph) -> bool {
        let n = graph.num_nodes() as u32;
        let m = graph.num_arcs() as u32;
        self.fprop_nodes.iter().all(|&v| v < n)
            && self.req_nodes.iter().all(|&v| v < n)
            && self.arcs.iter().all(|&a| a < m)
    }
}

/// A [`ValueSet`] plus the raw bit patterns of every named cell — the
/// payload a shard boundary ships between processes.
///
/// Layout: 8 words per fprop node (four arrival corners then four slew
/// corners), 4 words per required node, 4 words per arc, in the set's
/// sorted id order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryValues {
    /// `clock_period_ps` bits — required times depend on it, so both
    /// sides must agree before exchanging values.
    pub clock_period_bits: u32,
    /// The cells these values belong to.
    pub set: ValueSet,
    /// 8 words per `set.fprop_nodes` entry.
    pub fprop_bits: Vec<u32>,
    /// 4 words per `set.req_nodes` entry.
    pub req_bits: Vec<u32>,
    /// 4 words per `set.arcs` entry.
    pub arc_bits: Vec<u32>,
}

impl BoundaryValues {
    /// Capture the bit patterns of every cell in `set` from `data`.
    pub fn export(data: &TimingData, set: ValueSet) -> Self {
        let mut fprop_bits = Vec::with_capacity(set.fprop_nodes.len() * 8);
        for &v in &set.fprop_nodes {
            fprop_bits.extend_from_slice(&data.fprop_bits(NodeId(v)));
        }
        let mut req_bits = Vec::with_capacity(set.req_nodes.len() * 4);
        for &v in &set.req_nodes {
            req_bits.extend_from_slice(&data.required_bits(NodeId(v)));
        }
        let mut arc_bits = Vec::with_capacity(set.arcs.len() * 4);
        for &a in &set.arcs {
            arc_bits.extend_from_slice(&data.arc_delay_bits(a));
        }
        BoundaryValues {
            clock_period_bits: data.clock_period_ps.to_bits(),
            set,
            fprop_bits,
            req_bits,
            arc_bits,
        }
    }

    /// Store every captured bit pattern into `data`.
    ///
    /// # Panics
    ///
    /// Panics if the value arrays disagree with the set's cell counts
    /// (a malformed frame must never half-apply) or if any id is out of
    /// range for `data`.
    pub fn apply(&self, data: &TimingData) {
        assert_eq!(
            self.fprop_bits.len(),
            self.set.fprop_nodes.len() * 8,
            "fprop payload length mismatch"
        );
        assert_eq!(
            self.req_bits.len(),
            self.set.req_nodes.len() * 4,
            "required payload length mismatch"
        );
        assert_eq!(
            self.arc_bits.len(),
            self.set.arcs.len() * 4,
            "arc payload length mismatch"
        );
        for (i, &v) in self.set.fprop_nodes.iter().enumerate() {
            let w: [u32; 8] = self.fprop_bits[i * 8..i * 8 + 8]
                .try_into()
                .expect("chunk of 8");
            data.set_fprop_bits(NodeId(v), w);
        }
        for (i, &v) in self.set.req_nodes.iter().enumerate() {
            let w: [u32; 4] = self.req_bits[i * 4..i * 4 + 4]
                .try_into()
                .expect("chunk of 4");
            data.set_required_bits(NodeId(v), w);
        }
        for (i, &a) in self.set.arcs.iter().enumerate() {
            let w: [u32; 4] = self.arc_bits[i * 4..i * 4 + 4]
                .try_into()
                .expect("chunk of 4");
            data.set_arc_delay_bits(a, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::CellKind;
    use crate::netlist::NetlistBuilder;
    use crate::timer::Timer;
    use crate::CellLibrary;

    fn small_timer() -> Timer {
        // a -> u0 -> u1 -> u2 -> y, an inverter chain.
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let y = nb.add_primary_output("y");
        let mut prev = None;
        for i in 0..3 {
            let g = nb.add_gate(format!("u{i}"), CellKind::Inv);
            match prev {
                None => nb.connect_to_gate(a, g, 0).expect("valid"),
                Some(p) => nb.connect_gates(p, g, 0).expect("valid"),
            }
            prev = Some(g);
        }
        nb.connect_to_output(prev.expect("nonempty"), y)
            .expect("valid");
        Timer::new(nb.build().expect("well-formed"), CellLibrary::typical())
    }

    #[test]
    fn writes_and_reads_project_the_semantics() {
        let mut timer = small_timer();
        let cone = timer.dirty_cone();
        let all = cone.ids().to_vec();
        let writes = ValueSet::writes_of(&cone, &all);
        let reads = ValueSet::reads_of(&cone, &all);
        let graph = cone.graph();
        assert!(writes.in_range_of(graph));
        assert!(reads.in_range_of(graph));
        // A full update writes the forward state of every fprop node and
        // the required time of every bprop node; its external reads are
        // empty (a full run is self-contained).
        assert_eq!(writes.fprop_nodes.len(), graph.num_nodes());
        assert_eq!(writes.req_nodes.len(), graph.num_nodes());
        assert!(reads.minus(&writes).is_empty(), "full run needs no inputs");
    }

    #[test]
    fn bprop_reads_include_fanout_arc_delays() {
        let mut timer = small_timer();
        let cone = timer.dirty_cone();
        // Pick any bprop task of a node with fanout; its read set must
        // name every fanout arc (cached by the far side's fprop).
        let graph = cone.graph();
        let (id, v) = cone
            .ids()
            .iter()
            .map(|&id| (id, cone.decode(id)))
            .find_map(|(id, (kind, v))| {
                (kind == TaskKind::Bprop && !graph.fanout(v).is_empty()).then_some((id, v))
            })
            .expect("some bprop task has fanout");
        let reads = ValueSet::reads_of(&cone, &[id]);
        for &a in graph.fanout(v) {
            assert!(reads.arcs.contains(&a), "fanout arc {a} must be read");
        }
    }

    #[test]
    fn export_apply_round_trips_bit_exactly() {
        let mut timer = small_timer();
        let cone = timer.dirty_cone();
        cone.run_in_order();
        let all = cone.ids().to_vec();
        let writes = ValueSet::writes_of(&cone, &all);
        let values = BoundaryValues::export(cone.data(), writes.clone());
        drop(cone);
        let before = timer.snapshot();

        // Scramble every cell the set names, then apply the export: the
        // snapshot must come back bit-identical.
        for &v in &writes.fprop_nodes {
            timer.data().set_fprop_bits(NodeId(v), [0x7fc0_0001; 8]);
        }
        for &v in &writes.req_nodes {
            timer.data().set_required_bits(NodeId(v), [0x7fc0_0001; 4]);
        }
        for &a in &writes.arcs {
            timer.data().set_arc_delay_bits(a, [0x7fc0_0001; 4]);
        }
        assert_ne!(before, timer.snapshot(), "scramble must change state");
        values.apply(timer.data());
        assert_eq!(before, timer.snapshot(), "apply must restore every bit");
    }

    #[test]
    fn minus_is_a_set_difference() {
        let a = ValueSet {
            fprop_nodes: vec![1, 2, 3, 5],
            req_nodes: vec![0, 4],
            arcs: vec![7, 9],
        };
        let b = ValueSet {
            fprop_nodes: vec![2, 5],
            req_nodes: vec![4],
            arcs: vec![],
        };
        let d = a.minus(&b);
        assert_eq!(d.fprop_nodes, vec![1, 3]);
        assert_eq!(d.req_nodes, vec![0]);
        assert_eq!(d.arcs, vec![7, 9]);
        assert_eq!(d.len(), 5);
    }
}
