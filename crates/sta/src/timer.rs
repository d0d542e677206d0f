//! The timing engine: full and incremental `update_timing`.
//!
//! `update_timing` mirrors OpenTimer's core method: it determines the
//! affected region of the timing graph, then *builds a task dependency
//! graph* with one forward-propagation task and one backward-propagation
//! task per affected node. Running that TDG (sequentially, through the
//! scheduler crate, or partitioned by G-PASTA) brings all timing values up
//! to date. The TDG is exactly the workload the paper's partitioners
//! consume.

use crate::analysis::{TimingData, TimingPropagator, TimingSnapshot};
use crate::graph::{set_bit, ArcSoa, NodeId, TimingGraph};
use crate::library::CellLibrary;
use crate::netlist::{GateId, Netlist};
use crate::report::{EndpointSlack, EndpointSummary, TimingReport};
use gpasta_check::sync::Mutex;
use gpasta_tdg::{TaskId, TaskSuccessors, Tdg, TdgArena};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// What cone discovery found: the cone's ascending full-space ids, `None`
/// for the whole design; how many are fprop tasks; the cone's bitsets.
type Found = (Option<Vec<u32>>, usize, ConeBits);

/// What a task of the `update_timing` TDG does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Forward propagation (delay calculation, arrival/slew merge).
    Fprop,
    /// Backward propagation (required-arrival-time update).
    Bprop,
}

/// The static timing analysis engine.
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct Timer {
    netlist: Netlist,
    library: CellLibrary,
    graph: TimingGraph,
    data: TimingData,
    /// Nodes whose fan-out cone must be re-propagated.
    dirty: Vec<u32>,
    /// When set, the next update re-propagates the whole design.
    full_dirty: bool,
    /// Recycled TDG buffers: steady-state `update_timing` calls build the
    /// task graph into the previous update's allocations.
    arena: TdgArena,
    /// Buffers handed out to in-flight [`DirtyCone`]s and
    /// [`TimingUpdateTdg`]s come back here when they drop (shared so the
    /// update can outlive `&mut self`).
    bin: Arc<Mutex<RecycleBin>>,
    /// Task maps reused across updates.
    scratch: UpdateScratch,
}

/// Buffers returned by dropped [`DirtyCone`]s and [`TimingUpdateTdg`]s,
/// awaiting reuse by the next update.
#[derive(Debug, Default)]
struct RecycleBin {
    tdgs: Vec<Tdg>,
    task_nodes: Vec<Vec<u32>>,
    cone_ids: Vec<Vec<u32>>,
    cone_bits: Vec<ConeBits>,
}

/// The node bitsets of a cone, `n.div_ceil(64)` words each, one bit per
/// node. They travel with the [`DirtyCone`] —
/// discovery sweeps `f` and `b`, and so does a
/// [`run_in_order`](DirtyCone::run_in_order) of a partial cone — and come
/// back through the [`RecycleBin`].
#[derive(Debug, Default)]
pub(crate) struct ConeBits {
    /// The nodes the edits dirtied. Empty unless the cone is partial: a
    /// whole-design update has no seeds, every task of it runs.
    pub(crate) seeds: Vec<u64>,
    /// Sweep state, all zero between sweeps: a sweep zeroes every word as
    /// it reads it.
    pub(crate) f: Vec<u64>,
    pub(crate) b: Vec<u64>,
    /// The cached fan-in arc delays a forward task found, to compare with
    /// what it left.
    pub(crate) arcs: Vec<[u32; 4]>,
    /// Where in [`TimingGraph::endpoints`] each endpoint is whose fprop the
    /// last value-aware run executed: the only ones whose slack it can have
    /// moved.
    pub(crate) endpoints: Vec<u32>,
}

/// Scratch buffers for `update_timing`; they grow to the design's
/// high-water mark once, after which updates allocate nothing.
#[derive(Debug, Default)]
struct UpdateScratch {
    f_task: Vec<u32>,
    b_task: Vec<u32>,
}

impl Timer {
    /// Create a timer over `netlist` with `library`, with the whole design
    /// marked dirty (the first [`update_timing`](Timer::update_timing) is a
    /// full analysis).
    ///
    /// # Panics
    ///
    /// Panics if the netlist contains a combinational loop. Use
    /// [`TimingGraph::build`] directly to handle that case gracefully.
    pub fn new(netlist: Netlist, library: CellLibrary) -> Self {
        Timer::try_new(netlist, library).expect("netlist contains a combinational loop")
    }

    /// Fallible constructor: returns the timing-graph build error instead
    /// of panicking on combinational loops.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTdgError::Cycle`](gpasta_tdg::BuildTdgError::Cycle)
    /// when the combinational logic loops.
    pub fn try_new(
        netlist: Netlist,
        library: CellLibrary,
    ) -> Result<Self, gpasta_tdg::BuildTdgError> {
        let graph = TimingGraph::build(&netlist, &library)?;
        let data = TimingData::new(&graph, &netlist, &library);
        Ok(Timer {
            netlist,
            library,
            graph,
            data,
            dirty: Vec::new(),
            full_dirty: true,
            arena: TdgArena::new(),
            bin: Arc::new(Mutex::new(RecycleBin::default())),
            scratch: UpdateScratch::default(),
        })
    }

    /// The pin-level timing graph.
    pub fn graph(&self) -> &TimingGraph {
        &self.graph
    }

    /// The design.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The shared timing state (arrivals, requireds, slews, slacks).
    pub fn data(&self) -> &TimingData {
        &self.data
    }

    /// Set the clock period (ps) used for endpoint constraints and mark the
    /// design dirty (constraints affect every required time).
    pub fn set_clock_period(&mut self, period_ps: f32) {
        self.data.clock_period_ps = period_ps;
        self.full_dirty = true;
    }

    /// Repower gate `g` to drive strength `drive` (a multiplier: 2.0 is a
    /// 2× stronger, faster cell with proportionally larger input pins).
    ///
    /// Marks the affected region dirty: the gate's own delay changes, the
    /// nets feeding it get heavier, and the gates driving those nets see a
    /// larger load.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range or `drive` is not positive.
    pub fn repower_gate(&mut self, g: GateId, drive: f32) {
        assert!(drive > 0.0, "drive strength must be positive");
        assert!(
            g.index() < self.netlist.num_gates(),
            "gate {g} out of range"
        );
        self.data.set_drive(self.graph.gate_output_node(g), drive);

        // Recompute electrical state of every net feeding g, and mark the
        // drivers of those nets dirty (their cell delay depends on the
        // load we just changed).
        let num_inputs = self.netlist.gates()[g.index()].cell.num_inputs() as u8;
        for pin in 0..num_inputs {
            let node = self.graph.gate_input_node(g, pin);
            for a in self.graph.fanin(node) {
                let arc = *self.graph.arc(a);
                if let crate::graph::ArcKind::Net { net } = arc.kind {
                    let (graph, netlist) = (&self.graph, &self.netlist);
                    self.data.recompute_net(net, graph, netlist, &self.library);
                    self.dirty.push(arc.from.0);
                }
            }
        }
        // The gate's own arcs re-evaluate during fprop of its output node.
        self.dirty.push(self.graph.gate_output_node(g).0);
    }

    /// Set the wire capacitance of net `net` to `cap_ff` and mark its
    /// driver dirty.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn set_net_cap(&mut self, net: u32, cap_ff: f32) {
        let n = &mut self.netlist.nets[net as usize];
        n.wire_cap_ff = cap_ff;
        let driver = n.driver;
        self.data
            .recompute_net(net, &self.graph, &self.netlist, &self.library);
        self.dirty.push(self.graph.pin_ref_node(driver).0);
    }

    /// Constrain primary input `port`: external logic delivers the signal
    /// `delay_ps` after the clock edge (SDC `set_input_delay`).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn set_input_delay(&mut self, port: crate::PortId, delay_ps: f32) {
        assert!(
            port.index() < self.netlist.num_inputs(),
            "input port out of range"
        );
        self.data.set_input_delay(port.0, delay_ps);
        self.dirty.push(self.graph.input_node(port).0);
    }

    /// Constrain primary output `port`: external logic needs the signal
    /// `delay_ps` before the clock edge (SDC `set_output_delay`).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn set_output_delay(&mut self, port: crate::PortId, delay_ps: f32) {
        assert!(
            port.index() < self.netlist.num_outputs(),
            "output port out of range"
        );
        self.data.set_output_delay(port.0, delay_ps);
        // Dirtying the PO node regenerates the backward cone's required
        // times (its forward cone is empty).
        self.dirty.push(self.graph.output_node(port).0);
    }

    /// Whether any modifier is pending.
    pub fn has_pending_changes(&self) -> bool {
        self.full_dirty || !self.dirty.is_empty()
    }

    /// Mark the whole design dirty so the next
    /// [`update_timing`](Timer::update_timing) is a full re-analysis.
    /// Benchmarks use this to measure repeated full updates on one design.
    pub fn invalidate_all(&mut self) {
        self.full_dirty = true;
    }

    /// Capture the complete mutable timing state bit-exactly (see
    /// [`TimingData::snapshot`]). Together with the design identity this is
    /// everything a checkpoint needs: the graph, netlist, and library are
    /// deterministic functions of the design inputs.
    pub fn snapshot(&self) -> crate::analysis::TimingSnapshot {
        self.data.snapshot(&self.graph, &self.netlist)
    }

    /// Restore the timing state captured by [`snapshot`](Timer::snapshot)
    /// and clear the dirty set: the restored values are, by the snapshot
    /// contract, exactly the values the design had when the snapshot was
    /// taken, so nothing is pending afterwards.
    ///
    /// # Errors
    ///
    /// [`SnapshotMismatch`](crate::analysis::SnapshotMismatch) when the
    /// snapshot was taken against a differently shaped design; the timer is
    /// unchanged in that case.
    pub fn restore_snapshot(
        &mut self,
        snap: &crate::analysis::TimingSnapshot,
    ) -> Result<(), crate::analysis::SnapshotMismatch> {
        self.data.restore(snap, &self.graph, &self.netlist)?;
        self.dirty.clear();
        self.full_dirty = false;
        Ok(())
    }

    /// The edits made so far, as the values they wrote (see
    /// [`EditState`](crate::analysis::EditState)), pending ones included.
    pub fn edit_state(&self) -> crate::analysis::EditState {
        self.data.edit_state(&self.graph, &self.netlist)
    }

    /// Put `state` in place of this design's edit state — drives, delays
    /// and the clock into the timing data, wire caps into the netlist —
    /// recompute every net, and mark the whole design dirty: the next
    /// update derives every other value from them.
    ///
    /// # Errors
    ///
    /// [`SnapshotMismatch`](crate::analysis::SnapshotMismatch) when an
    /// array's length does not fit this design; the timer is unchanged in
    /// that case.
    pub fn set_edit_state(
        &mut self,
        state: &crate::analysis::EditState,
    ) -> Result<(), crate::analysis::SnapshotMismatch> {
        self.data
            .set_edit_state(state, &self.graph, &mut self.netlist, &self.library)?;
        self.dirty.clear();
        self.full_dirty = true;
        Ok(())
    }

    /// The one cone-discovery body: the dirty cone as ascending full-space
    /// task ids (see [`DirtyCone`]) — `None` for the whole design, whose ids
    /// are `0..2n` and need no list —, how many of them are fprop tasks, and
    /// the cone's bitsets with the dirty nodes kept as `seeds`. F is the
    /// forward closure of the dirty nodes, B ⊇ F the backward closure of F.
    /// Clears the dirty set.
    ///
    /// Both closures are one [sweep](TimingGraph::sweep) over the node ids:
    /// an arc goes up the ids, so by the time an ascending sweep reaches a
    /// node every fan-in that could put it in F has been visited, and
    /// likewise descending for B. No stack, no visited array, no sort — and
    /// the task ids come out ascending, because fprop ids rise and bprop ids
    /// fall with the node id.
    fn discover_cone(&mut self) -> Found {
        let n = self.graph.num_nodes();
        let mut bits = self.bin.lock().cone_bits.pop().unwrap_or_default();
        bits.seeds.clear();
        if std::mem::take(&mut self.full_dirty) {
            self.dirty.clear();
            return (None, n, bits);
        }
        let mut ids = self.bin.lock().cone_ids.pop().unwrap_or_default();
        ids.clear();
        if self.dirty.is_empty() {
            return (Some(ids), 0, bits);
        }

        let (graph, soa) = (&self.graph, self.graph.arc_soa(&self.netlist));
        let ConeBits { seeds, f, b, .. } = &mut bits;
        for set in [&mut *seeds, &mut *f, &mut *b] {
            set.resize(n.div_ceil(64), 0);
        }
        // A bitset, not the list: an edit may dirty a node more than once.
        for v in self.dirty.drain(..) {
            set_bit(seeds, v);
        }
        f.copy_from_slice(seeds);

        // F, ascending: the fprop task of node `v` is `v`. F ⊆ B.
        graph.sweep::<true>(soa, f, |v| {
            ids.push(v);
            set_bit(b, v);
            true
        });
        let num_fprop = ids.len();
        // B, descending: the bprop task of node `v` is `2n - 1 - v`.
        let top = 2 * n as u32 - 1;
        graph.sweep::<false>(soa, b, |v| {
            ids.push(top - v);
            true
        });
        (Some(ids), num_fprop, bits)
    }

    fn cone(&self, (ids, num_fprop, bits): Found) -> DirtyCone<'_> {
        DirtyCone {
            whole: ids.is_none(),
            ids: ids.map_or_else(OnceLock::new, OnceLock::from),
            num_fprop,
            bits: Mutex::new(bits),
            prop: self.propagator(),
            bin: Arc::clone(&self.bin),
        }
    }

    /// The propagation engine over this timer's design and state.
    pub(crate) fn propagator(&self) -> TimingPropagator<'_> {
        TimingPropagator {
            graph: &self.graph,
            netlist: &self.netlist,
            library: &self.library,
            data: &self.data,
        }
    }

    /// Stage one of an update, on its own: discover the dirty cone and
    /// clear the dirty set. The returned [`DirtyCone`] names and executes
    /// its tasks by *full-space* id, so a caller that already holds a
    /// partition of the full task space over the full-space TDG (a
    /// `ScheduledTimer`) can schedule the cone without the per-update [`Tdg`] that
    /// [`update_timing`](Timer::update_timing) materialises on top of it.
    /// *The timing values are not updated until the cone's tasks run.*
    pub fn dirty_cone(&mut self) -> DirtyCone<'_> {
        let found = self.discover_cone();
        self.cone(found)
    }

    /// Build the task dependency graph that brings timing up to date —
    /// OpenTimer's `update_timing`: the [dirty cone](Timer::dirty_cone),
    /// its tasks renumbered `0..num_tasks` in full-space id order, and
    /// their dependencies materialised as a [`Tdg`].
    ///
    /// Returns a [`TimingUpdateTdg`]; *the timing values are not updated
    /// until it runs* (sequentially via
    /// [`run_sequential`](TimingUpdateTdg::run_sequential) or through an
    /// executor, optionally after partitioning). Clears the dirty set.
    pub fn update_timing(&mut self) -> TimingUpdateTdg<'_> {
        let build_start = Instant::now();

        // Reclaim buffers from updates that have since dropped: their TDG
        // storage seeds the arena, their task maps seed `task_node`.
        let mut task_node = {
            let mut bin = self.bin.lock();
            for tdg in bin.tdgs.drain(..) {
                self.arena.recycle(tdg);
            }
            bin.task_nodes.pop().unwrap_or_default()
        };

        let (ids, num_fprop, bits) = self.discover_cone();
        let ids = ids.unwrap_or_else(|| all_ids(&self.bin, self.graph.num_nodes()));
        let tdg = build_tdg(
            &self.graph,
            &ids,
            num_fprop,
            &mut task_node,
            &mut self.scratch,
            &mut self.arena,
        );
        let build_time = build_start.elapsed();

        TimingUpdateTdg {
            cone: self.cone((Some(ids), num_fprop, bits)),
            tdg: Some(tdg),
            task_node,
            build_time,
        }
    }

    /// The full-space TDG: the graph [`update_timing`](Timer::update_timing)
    /// builds for a whole-design update (after
    /// [`invalidate_all`](Timer::invalidate_all)), same edges, weights and
    /// fingerprint, built from the timing graph alone. The dirty set, the
    /// timing values and the recycled update buffers are left as they are,
    /// so an owner can partition the full task space (a `ScheduledTimer`,
    /// once) without consuming pending edits.
    pub fn full_space_tdg(&self) -> Tdg {
        let n = self.graph.num_nodes();
        let ids: Vec<u32> = (0..2 * n as u32).collect();
        build_tdg(
            &self.graph,
            &ids,
            n,
            &mut Vec::new(),
            &mut UpdateScratch::default(),
            &mut TdgArena::new(),
        )
    }

    /// Summarise setup (late-mode) endpoint slacks after an update has
    /// run: worst (WNS) and total (TNS) negative slack plus the `k` worst
    /// endpoints. A pure function of the timing values: the
    /// [`EndpointSummary`] is built afresh and read, nothing is cached. TNS
    /// is that tree's pairwise sum in endpoint order
    /// ([`TimingReport::tns_ps`]).
    pub fn report(&self, k: usize) -> TimingReport {
        self.report_from(&self.endpoint_summary(), k)
    }

    /// Summarise hold (early-mode) endpoint slacks: the earliest arrivals
    /// checked against the hold window.
    pub fn report_hold(&self, k: usize) -> TimingReport {
        self.report_from(&self.summary_of(|v| self.data.slack_early(v)), k)
    }

    /// The late-mode summary [`report`](Timer::report) reads, for an owner
    /// that keeps it up to date across updates (a `Session`).
    pub fn endpoint_summary(&self) -> EndpointSummary {
        self.summary_of(|v| self.data.slack_late(v))
    }

    fn summary_of(&self, slack_of: impl Fn(NodeId) -> f32) -> EndpointSummary {
        EndpointSummary::build(self.graph.endpoints().iter().map(|&v| slack_of(NodeId(v))))
    }

    /// The read half of [`report`](Timer::report): name the `k` worst
    /// endpoints of `summary`, a summary over this timer's endpoints.
    pub fn report_from(&self, summary: &EndpointSummary, k: usize) -> TimingReport {
        let worst = summary
            .worst(k)
            .into_iter()
            .map(|(slack_ps, i)| {
                let node = NodeId(self.graph.endpoints()[i as usize]);
                EndpointSlack {
                    node,
                    name: self.endpoint_name(node),
                    slack_ps,
                }
            })
            .collect();
        TimingReport {
            wns_ps: summary.wns_ps(),
            tns_ps: summary.tns_ps(),
            num_endpoints: summary.num_endpoints(),
            worst,
        }
    }

    /// The report as it was first written — every endpoint named, the
    /// named structs sorted stably by slack, then truncated to `k`: the
    /// oracle [`report_from`](Timer::report_from) is diffed against. TNS is
    /// summed by [`halved`], in endpoint order.
    #[cfg(test)]
    fn report_mode_oracle(&self, k: usize, slack_of: impl Fn(NodeId) -> f32) -> TimingReport {
        let mut endpoints: Vec<EndpointSlack> = self
            .graph
            .endpoints()
            .iter()
            .map(|&v| {
                let node = NodeId(v);
                EndpointSlack {
                    node,
                    name: self.endpoint_name(node),
                    slack_ps: slack_of(node),
                }
            })
            .collect();
        let tns_ps = halved(&endpoints.iter().map(|e| e.slack_ps).collect::<Vec<f32>>());
        endpoints.sort_by(|a, b| a.slack_ps.total_cmp(&b.slack_ps));
        let wns_ps = endpoints.first().map_or(f32::INFINITY, |e| e.slack_ps);
        let num_endpoints = endpoints.len();
        endpoints.truncate(k);
        TimingReport {
            wns_ps,
            tns_ps,
            num_endpoints,
            worst: endpoints,
        }
    }

    fn endpoint_name(&self, v: NodeId) -> String {
        match self.graph.node_kind(v) {
            crate::graph::NodeKind::PrimaryOutput(p) => {
                self.netlist.output_names()[p as usize].clone()
            }
            crate::graph::NodeKind::GateInput(g, pin) => {
                format!("{}/D{}", self.netlist.gates()[g as usize].name, pin)
            }
            other => format!("{other:?}"),
        }
    }
}

/// Total negative slack the naive way: pad `slacks` with zeros to a power of
/// two, then add the sum of the first half to the sum of the second.
#[cfg(test)]
fn halved(slacks: &[f32]) -> f32 {
    fn sum(padded: &[f32]) -> f32 {
        match padded {
            [x] => *x,
            _ => {
                let (lo, hi) = padded.split_at(padded.len() / 2);
                sum(lo) + sum(hi)
            }
        }
    }
    let mut padded: Vec<f32> = slacks
        .iter()
        .map(|&s| if s < 0.0 { s } else { 0.0 })
        .collect();
    padded.resize(slacks.len().next_power_of_two(), 0.0);
    sum(&padded)
}

/// The one task-graph body, of [`Timer::update_timing`] and
/// [`Timer::full_space_tdg`]: number the tasks of `ids` — ascending
/// full-space ids of a successor-closed set, the first `num_fprop` of them
/// fprop tasks — `0..ids.len()`, put their nodes in `task_node`, and build
/// their dependencies and estimated costs into `arena`.
fn build_tdg(
    graph: &TimingGraph,
    ids: &[u32],
    num_fprop: usize,
    task_node: &mut Vec<u32>,
    scratch: &mut UpdateScratch,
    arena: &mut TdgArena,
) -> Tdg {
    let n = graph.num_nodes();
    // Task numbering: task `t` is the set's `t`-th full-space id — fprop
    // tasks in node order, then bprop tasks against it. An arc goes up the
    // node ids, fprop follows arcs, bprop runs against them and after its
    // own fprop, so every TDG edge has `u < v`.
    const NONE: u32 = u32::MAX;
    let UpdateScratch { f_task, b_task } = scratch;
    for map in [&mut *f_task, &mut *b_task] {
        map.clear();
        map.resize(n, NONE);
    }
    task_node.clear();
    for (t, &id) in ids.iter().enumerate() {
        let (kind, v) = decode(graph, id);
        match kind {
            TaskKind::Fprop => f_task[v.index()] = t as u32,
            TaskKind::Bprop => b_task[v.index()] = t as u32,
        }
        task_node.push(v.0);
    }

    let mut builder = arena.builder(task_node.len());
    // Cone-local edge discovery: F is forward-closed (a fanout arc of an F
    // node lands in F) and B is backward-closed (a fanin arc of a B node
    // starts in B), so walking only the members' own adjacency —
    // `task_node` holds exactly F then B — visits exactly the arcs an
    // all-arcs scan would keep. The builder's canonicalising sort makes
    // insertion order irrelevant; an incremental update costs O(cone)
    // instead of O(graph) here.
    for (t, &v) in task_node.iter().enumerate().take(num_fprop) {
        for &a in graph.fanout(NodeId(v)) {
            let w = graph.arc(a).to.0 as usize;
            builder.add_edge(TaskId(t as u32), TaskId(f_task[w]));
        }
        // bprop(v) consumes the arc delays cached by fprop(v)'s level;
        // anchor it after its own fprop.
        builder.add_edge(TaskId(t as u32), TaskId(b_task[v as usize]));
    }
    for (t, &v) in task_node.iter().enumerate().skip(num_fprop) {
        for a in graph.fanin(NodeId(v)) {
            // bprop runs against the arc direction.
            let u = graph.arc(a).from.0 as usize;
            builder.add_edge(TaskId(t as u32), TaskId(b_task[u]));
        }
    }
    // Estimated cost: table lookups scale with fan-in/fan-out degree.
    for (t, &v) in task_node.iter().enumerate() {
        let node = NodeId(v);
        let degree = if t < num_fprop {
            graph.fanin(node).len()
        } else {
            graph.fanout(node).len()
        };
        builder.set_weight(TaskId(t as u32), 200.0 + 300.0 * degree as f32);
    }

    // Trusted build: the edges above are derived from the validated timing
    // DAG (range, self-loop freedom, acyclicity all hold by construction),
    // so release builds skip re-proving them on every incremental
    // iteration.
    builder.build_trusted()
}

/// The full task space of an `n`-node graph, `0..2n`, in a buffer from
/// `bin`: a dropped cone hands every list back, so each list taken here
/// keeps the bin from growing.
fn all_ids(bin: &Mutex<RecycleBin>, n: usize) -> Vec<u32> {
    let mut ids = bin.lock().cone_ids.pop().unwrap_or_default();
    ids.clear();
    ids.extend(0..2 * n as u32);
    ids
}

/// The `(kind, node)` behind full-space task id `id`: in an `n`-node graph
/// the fprop task of node `v` is `v` and its bprop task `2n - 1 - v`.
fn decode(graph: &TimingGraph, id: u32) -> (TaskKind, NodeId) {
    let n = graph.num_nodes() as u32;
    if id < n {
        (TaskKind::Fprop, NodeId(id))
    } else {
        assert!(id < 2 * n, "task {id} is outside the full task space");
        (TaskKind::Bprop, NodeId(2 * n - 1 - id))
    }
}

/// A timing graph's full task space as a dependency list: what a shard
/// plan of a whole-design cone is cut along. Its edge walk reads each
/// fan-in as one arc-id range and each arc once, for its fprop and its
/// bprop edge, then each node's fprop → bprop edge.
impl TaskSuccessors for TimingGraph {
    fn num_tasks(&self) -> usize {
        2 * self.num_nodes()
    }

    fn for_each_edge(&self, mut edge: impl FnMut(u32, u32)) {
        let n = self.num_nodes() as u32;
        let top = (2 * n).wrapping_sub(1);
        for w in 0..n {
            for a in self.fanin(NodeId(w)) {
                let u = self.arc(a).from.0;
                edge(u, w);
                edge(top - w, top - u);
            }
        }
        for v in 0..n {
            edge(v, top - v);
        }
    }
}

/// The product of [`Timer::dirty_cone`]: the tasks an update has to run,
/// and the context needed to execute them — without their dependency graph.
///
/// # The full task space
///
/// Every timing-graph node has one fprop and one bprop task, and the *full
/// task space* numbers all `2n` of them the way a full update does: the
/// fprop task of node `v` is `v` and its bprop task is `2n - 1 - v`. A
/// timing arc goes up the node ids (see [`TimingGraph`]), fprop tasks
/// depend along arcs, and a bprop task depends on its node's fprop task
/// and against arcs, so every dependency goes from a lower id to a higher
/// one. Full-space ids are stable across updates, which is what lets a
/// partition cached over the full-space TDG serve every later update.
///
/// A cone is *successor-closed* in that space: F is forward-closed and
/// B ⊇ F backward-closed, so every task depending on a cone task is in the
/// cone. The dependencies among the cone's tasks are therefore exactly the
/// out-edges of those tasks in the full-space TDG — the cone's own TDG is
/// an induced subgraph that never has to be built to be scheduled.
#[derive(Debug)]
pub struct DirtyCone<'a> {
    /// Ascending full-space ids: `num_fprop` fprop tasks, then bprop tasks.
    /// Set at discovery, except for a whole-design cone, whose ids are
    /// `0..2n`: its runs walk id ranges, and the list is built only if
    /// [`ids`](DirtyCone::ids) asks for it.
    ids: OnceLock<Vec<u32>>,
    /// Whether discovery found the whole design and built no list: then a
    /// run walks the id ranges, and may sweep them on several threads.
    pub(crate) whole: bool,
    num_fprop: usize,
    /// Behind a lock only because a run takes `&self`.
    pub(crate) bits: Mutex<ConeBits>,
    prop: TimingPropagator<'a>,
    bin: Arc<Mutex<RecycleBin>>,
}

impl Drop for DirtyCone<'_> {
    fn drop(&mut self) {
        let mut bin = self.bin.lock();
        bin.cone_ids.extend(self.ids.take());
        bin.cone_bits.push(std::mem::take(self.bits.get_mut()));
    }
}

impl<'a> DirtyCone<'a> {
    /// The cone's tasks as ascending full-space ids — the dirty set to feed
    /// an incremental partition cache, and the members of the quotient that
    /// schedules this cone. A whole-design cone builds its list, `0..2n`,
    /// on the first call.
    pub fn ids(&self) -> &[u32] {
        let n = self.prop.graph.num_nodes();
        self.ids.get_or_init(|| all_ids(&self.bin, n))
    }

    /// Number of tasks in the cone (0 when nothing was dirty): the closure
    /// of the edits, of which [`run_in_order`](DirtyCone::run_in_order)
    /// executes only those a changed value reaches.
    pub fn num_tasks(&self) -> usize {
        if self.whole {
            2 * self.prop.graph.num_nodes()
        } else {
            self.ids().len()
        }
    }

    /// The pin-level timing graph this update propagates over.
    pub fn graph(&self) -> &'a TimingGraph {
        self.prop.graph
    }

    /// The shared timing state this update writes into.
    pub fn data(&self) -> &'a TimingData {
        self.prop.data
    }

    /// [`Timer::snapshot`] of the timer this cone updates.
    pub fn snapshot(&self) -> TimingSnapshot {
        let prop = &self.prop;
        prop.data.snapshot(prop.graph, prop.netlist)
    }

    /// The graph's flat arc view, which its sweeps read fan-ins from.
    pub(crate) fn arc_soa(&self) -> &'a ArcSoa {
        self.prop.graph.arc_soa(self.prop.netlist)
    }

    /// What the task with full-space id `id` does, and on which node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the full task space.
    pub fn decode(&self, id: u32) -> (TaskKind, NodeId) {
        decode(self.prop.graph, id)
    }

    /// The full-space ids of the tasks that depend on task `id`, read off
    /// the timing graph: fprop `v` → the fprop of each fan-out head and
    /// bprop `v`; bprop `v` → the bprop of each fan-in tail. These are the
    /// out-edges of the full-space TDG, and a cone is successor-closed, so
    /// they all lie in the cone.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the full task space.
    pub fn successors(&self, id: u32) -> impl Iterator<Item = u32> + 'a {
        let graph = self.prop.graph;
        let top = 2 * graph.num_nodes() as u32 - 1;
        let (fanout, anchor, fanin) = match decode(graph, id) {
            (TaskKind::Fprop, v) => (graph.fanout(v), Some(top - v.0), 0..0),
            (TaskKind::Bprop, v) => (&[][..], None, graph.fanin(v)),
        };
        let heads = fanout.iter().map(move |&a| graph.arc(a).to.0);
        let tails = fanin.map(move |a| top - graph.arc(a).from.0);
        heads.chain(anchor).chain(tails)
    }

    /// Execute the task with full-space id `id` (the payload the scheduler
    /// dispatches).
    pub fn execute_task(&self, id: TaskId) {
        match decode(self.prop.graph, id.0) {
            (TaskKind::Fprop, v) => self.prop.fprop(v),
            (TaskKind::Bprop, v) => self.prop.bprop(v),
        }
    }

    /// Borrow the payload as a closure suitable for
    /// `gpasta_sched::Executor`.
    pub fn task_fn(&self) -> impl Fn(TaskId) + Sync + '_ {
        move |id| self.execute_task(id)
    }

    /// Whether the cone is successor-closed: it holds the
    /// [`successors`](Self::successors) of each of its tasks — the three
    /// kinds of dependency of the full-space TDG, checked without building
    /// it. A referee for debug builds and tests; O(graph).
    #[doc(hidden)]
    pub fn is_successor_closed(&self) -> bool {
        if self.whole {
            return true;
        }
        let mut member = vec![false; 2 * self.prop.graph.num_nodes()];
        for &id in self.ids() {
            member[id as usize] = true;
        }
        self.ids()
            .iter()
            .all(|&id| self.successors(id).all(|s| member[s as usize]))
    }
}

/// The product of [`Timer::update_timing`]: a [`DirtyCone`] with its tasks
/// renumbered `0..num_tasks` and their task dependency graph materialised.
///
/// # Task numbering
///
/// Task `t` is the cone's `t`-th full-space id (see [`DirtyCone`]): ids
/// `0..num_fprop_tasks` are forward-propagation tasks, in ascending node
/// id; the rest are backward-propagation tasks, in descending node id.
/// So **every edge `(u, v)` of every update TDG, full or cone, has
/// `u < v`**: ascending task id is a topological order, which
/// [`QuotientTdg::build_in`](gpasta_tdg::QuotientTdg::build_in) checks and
/// then uses in place of a graph traversal.
///
/// The struct implements the task payload via
/// [`execute_task`](TimingUpdateTdg::execute_task); adapt it to the
/// scheduler with [`task_fn`](TimingUpdateTdg::task_fn).
#[derive(Debug)]
pub struct TimingUpdateTdg<'a> {
    cone: DirtyCone<'a>,
    /// `Some` until [`Drop`] hands the graph back to the recycle bin.
    tdg: Option<Tdg>,
    /// The node of every task, indexed by task id.
    task_node: Vec<u32>,
    build_time: Duration,
}

impl Drop for TimingUpdateTdg<'_> {
    fn drop(&mut self) {
        // Return the TDG storage and task map to the timer so the next
        // update builds into them instead of allocating.
        let mut bin = self.cone.bin.lock();
        if let Some(tdg) = self.tdg.take() {
            bin.tdgs.push(tdg);
        }
        bin.task_nodes.push(std::mem::take(&mut self.task_node));
    }
}

impl<'a> TimingUpdateTdg<'a> {
    /// The task dependency graph to schedule (and to partition).
    pub fn tdg(&self) -> &Tdg {
        self.tdg.as_ref().expect("present until drop")
    }

    /// The pin-level timing graph this update propagates over.
    pub fn graph(&self) -> &'a TimingGraph {
        self.cone.prop.graph
    }

    /// The shared timing state this update writes into.
    pub fn data(&self) -> &'a TimingData {
        self.cone.prop.data
    }

    /// [`Timer::snapshot`] of the timer this update writes into.
    pub fn snapshot(&self) -> TimingSnapshot {
        self.cone.snapshot()
    }

    /// Number of forward-propagation tasks (they occupy ids
    /// `0..num_fprop_tasks`).
    pub fn num_fprop_tasks(&self) -> usize {
        self.cone.num_fprop
    }

    /// Wall-clock spent *building* this TDG (the 59 % slice of Figure 1(a)).
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// What task `t` does.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn kind(&self, t: TaskId) -> TaskKind {
        assert!(t.index() < self.task_node.len(), "task {t} out of range");
        if t.index() < self.cone.num_fprop {
            TaskKind::Fprop
        } else {
            TaskKind::Bprop
        }
    }

    /// The timing-graph node task `t` propagates.
    pub fn node(&self, t: TaskId) -> NodeId {
        NodeId(self.task_node[t.index()])
    }

    /// Size of the *full task space*: two tasks (fprop + bprop) per
    /// timing-graph node, regardless of how many tasks this particular
    /// update contains. Full-space ids are stable across updates, which is
    /// what lets a partition cache (keyed on a full update's TDG) survive
    /// incremental updates whose TDGs are induced subgraphs of it.
    pub fn full_space_len(&self) -> usize {
        2 * self.cone.prop.graph.num_nodes()
    }

    /// The stable full-space id of task `t`: the id the same task has in a
    /// *full* update (after [`Timer::invalidate_all`]). With `v` the task's
    /// node in an `n`-node graph, that is `v` for an fprop task and
    /// `2n - 1 - v` for a bprop task. It is the identity on a full update,
    /// whose TDG is therefore the full-space TDG; on a cone update it is
    /// strictly increasing in `t` and embeds the cone TDG as an induced
    /// subgraph of the full-space TDG.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn full_space_id(&self, t: TaskId) -> u32 {
        self.cone.ids()[t.index()]
    }

    /// The full-space ids of every task of this update, indexed by task id
    /// — the dirty set to feed an incremental partition cache.
    pub fn full_space_ids(&self) -> Vec<u32> {
        self.cone.ids().to_vec()
    }

    /// Execute one task (the payload the scheduler dispatches).
    pub fn execute_task(&self, t: TaskId) {
        let v = NodeId(self.task_node[t.index()]);
        if t.index() < self.cone.num_fprop {
            self.cone.prop.fprop(v);
        } else {
            self.cone.prop.bprop(v);
        }
    }

    /// Borrow the payload as a closure suitable for
    /// `gpasta_sched::Executor` (whose `TaskWork` is implemented for all
    /// `Fn(TaskId) + Sync`).
    pub fn task_fn(&self) -> impl Fn(TaskId) + Sync + '_ {
        move |t| self.execute_task(t)
    }

    /// Run every task on the calling thread in a topological order.
    /// Useful for tests and as the no-scheduler baseline.
    pub fn run_sequential(&self) {
        for &t in self.tdg().levels().order() {
            self.execute_task(TaskId(t));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Mode, Tr};
    use crate::library::CellKind;
    use crate::netlist::{NetlistBuilder, PinRef};

    fn chain_timer(len: usize) -> Timer {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let y = nb.add_primary_output("y");
        let mut prev: Option<GateId> = None;
        for i in 0..len {
            let g = nb.add_gate(format!("u{i}"), CellKind::Inv);
            match prev {
                None => nb.connect_to_gate(a, g, 0).expect("valid"),
                Some(p) => nb.connect_gates(p, g, 0).expect("valid"),
            }
            prev = Some(g);
        }
        nb.connect_to_output(prev.expect("len > 0"), y)
            .expect("valid");
        Timer::new(nb.build().expect("well-formed"), CellLibrary::typical())
    }

    #[test]
    fn full_update_covers_every_node_twice() {
        let mut timer = chain_timer(5);
        let update = timer.update_timing();
        let n = update.graph().num_nodes();
        assert_eq!(update.tdg().num_tasks(), 2 * n);
        assert_eq!(update.num_fprop_tasks(), n);
        update.run_sequential();
        drop(update);
        let report = timer.report(3);
        assert!(report.wns_ps.is_finite());
        assert!(
            report.wns_ps > 0.0,
            "short chain meets 1 ns: {}",
            report.wns_ps
        );
    }

    #[test]
    fn update_tdg_kinds_and_nodes() {
        let mut timer = chain_timer(2);
        let update = timer.update_timing();
        let n_tasks = update.tdg().num_tasks();
        let mut fprop_seen = vec![false; update.graph().num_nodes()];
        for t in 0..n_tasks as u32 {
            let t = TaskId(t);
            match update.kind(t) {
                TaskKind::Fprop => fprop_seen[update.node(t).index()] = true,
                TaskKind::Bprop => {}
            }
        }
        assert!(
            fprop_seen.iter().all(|&s| s),
            "every node has an fprop task"
        );
    }

    #[test]
    fn full_update_task_ids_are_the_full_space_ids() {
        let mut timer = chain_timer(4);
        let update = timer.update_timing();
        let n = update.graph().num_nodes();
        assert_eq!(update.full_space_len(), 2 * n);
        // A full update numbers tasks exactly as the full space does.
        let ids = update.full_space_ids();
        for (t, &id) in ids.iter().enumerate() {
            assert_eq!(id, t as u32, "full update is the identity embedding");
        }
    }

    #[test]
    fn incremental_update_embeds_into_the_full_space_tdg() {
        let mut timer = chain_timer(8);
        // Capture the full-space TDG from the initial full update.
        let full_update = timer.update_timing();
        let full_tdg = full_update.tdg().clone();
        let full_kind_node: Vec<(TaskKind, NodeId)> = (0..full_tdg.num_tasks() as u32)
            .map(|t| (full_update.kind(TaskId(t)), full_update.node(TaskId(t))))
            .collect();
        full_update.run_sequential();
        drop(full_update);

        timer.repower_gate(GateId(4), 3.0);
        let update = timer.update_timing();
        let ids = update.full_space_ids();
        assert_eq!(ids.len(), update.tdg().num_tasks());
        assert!(
            ids.len() < full_tdg.num_tasks(),
            "incremental update must be a strict subset"
        );
        // Ids are consistent with kind/node and within the full space:
        // the full-space id is the id the same (kind, node) task had in
        // the full update.
        for (t, &id) in ids.iter().enumerate() {
            let t = TaskId(t as u32);
            assert!((id as usize) < update.full_space_len());
            assert_eq!(
                full_kind_node[id as usize],
                (update.kind(t), update.node(t))
            );
        }
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "embedding is monotone");
        // Every edge of the incremental TDG exists in the full-space TDG:
        // the incremental TDG is an induced subgraph under this embedding.
        for (u, v) in update.tdg().edges() {
            let (fu, fv) = (ids[u.index()], ids[v.index()]);
            assert!(
                full_tdg.successors(TaskId(fu)).contains(&fv),
                "incremental edge {fu} -> {fv} missing from the full-space TDG"
            );
        }
        // The dirty set is successor-closed in the full space: every
        // full-space successor of a dirty task is itself dirty.
        let mut dirty = vec![false; full_tdg.num_tasks()];
        for &id in &ids {
            dirty[id as usize] = true;
        }
        for &id in &ids {
            for &succ in full_tdg.successors(TaskId(id)) {
                assert!(
                    dirty[succ as usize],
                    "dirty task {id} has clean full-space successor {succ}"
                );
            }
        }
    }

    #[test]
    fn dirty_cone_is_the_update_without_its_graph() {
        let mut with_tdg = chain_timer(8);
        let mut cone_only = chain_timer(8);
        // A full update, two cones, and nothing pending.
        for edit in [None, Some((4, 3.0)), Some((7, 0.5)), None] {
            if let Some((g, drive)) = edit {
                with_tdg.repower_gate(GateId(g), drive);
                cone_only.repower_gate(GateId(g), drive);
            }
            let update = with_tdg.update_timing();
            let cone = cone_only.dirty_cone();
            assert_eq!(cone.ids(), &update.full_space_ids()[..]);
            assert_eq!(cone.num_tasks(), update.tdg().num_tasks());
            for (t, &id) in cone.ids().iter().enumerate() {
                let t = TaskId(t as u32);
                assert_eq!(cone.decode(id), (update.kind(t), update.node(t)));
            }
            update.run_sequential();
            // Ascending full-space id is a topological order of the cone.
            for &id in cone.ids() {
                cone.execute_task(TaskId(id));
            }
            drop(update);
            drop(cone);
            assert_eq!(cone_only.snapshot(), with_tdg.snapshot());
            assert!(!cone_only.has_pending_changes());
        }
        assert_eq!(cone_only.dirty_cone().num_tasks(), 0, "nothing was dirty");
        assert_eq!(cone_only.bin.lock().cone_ids.len(), 1, "ids are recycled");

        with_tdg.repower_gate(GateId(2), 2.0);
        cone_only.repower_gate(GateId(2), 2.0);
        with_tdg.update_timing().run_sequential();
        let cone = cone_only.dirty_cone();
        cone.ids()
            .iter()
            .for_each(|&id| cone.execute_task(TaskId(id)));
        drop(cone);
        assert_eq!(cone_only.snapshot(), with_tdg.snapshot());

        // A whole design's list, built for a task graph or on demand, comes
        // from the bin like any other: the bin does not grow.
        for timer in [&mut with_tdg, &mut cone_only] {
            for _ in 0..3 {
                timer.invalidate_all();
                drop(timer.update_timing());
                timer.invalidate_all();
                let n = timer.graph.num_nodes();
                assert_eq!(timer.dirty_cone().ids().len(), 2 * n);
                assert_eq!(timer.bin.lock().cone_ids.len(), 1, "one list, reused");
            }
        }
    }

    /// Dirty the nodes `positions` (a node id is its position in the level
    /// order) and check the cone against its definition: the successor
    /// closure, in the full-space TDG, of the dirty nodes' fprop tasks (the
    /// fprop task of node `v` is `v`).
    fn assert_cone_is_the_closure(timer: &mut Timer, full_tdg: &Tdg, positions: &[u32]) {
        let n = timer.graph.num_nodes();
        timer.dirty.extend_from_slice(positions);
        let (ids, num_fprop, bits) = timer.discover_cone();
        let ids = ids.expect("a partial cone lists its ids");
        assert_eq!(
            ids,
            gpasta_core::forward_closure(full_tdg, positions),
            "cone of positions {positions:?}"
        );
        assert_eq!(
            num_fprop,
            ids.iter().filter(|&&id| (id as usize) < n).count()
        );
        assert!(!timer.has_pending_changes());
        assert_eq!(bits.f.len(), n.div_ceil(64));
        assert!(
            bits.f.iter().chain(&bits.b).all(|&w| w == 0),
            "the sweeps leave both bitsets zero"
        );
        let mut want = positions.to_vec();
        want.sort_unstable();
        want.dedup();
        let seeds = (0..n as u32).filter(|&r| crate::graph::bit_is_set(&bits.seeds, r));
        assert_eq!(seeds.collect::<Vec<_>>(), want, "the dirty positions, once");
        timer.bin.lock().cone_bits.push(bits);
    }

    #[test]
    fn cone_discovery_is_the_successor_closure_at_every_word_boundary() {
        // A chain puts position r at depth r: its one successor shares its
        // word unless r is the word's last bit. 82 nodes: a 64-bit word and
        // an 18-bit tail.
        let mut chain = chain_timer(40);
        let full = chain.update_timing();
        let full_tdg = full.tdg().clone();
        drop(full);
        let n = chain.graph.num_nodes() as u32;
        assert_eq!(n, 82);
        let cases: [&[u32]; 8] = [
            &[62],
            &[63],
            &[64],
            &[n - 1],
            &[0],
            &[63, 64, n - 1],
            &[70, 5, 70, 5],
            &[n - 1, 0],
        ];
        for positions in cases {
            assert_cone_is_the_closure(&mut chain, &full_tdg, positions);
        }

        // Reconvergent fan-out over several words, every position as a seed.
        let mut wide = seeded_timer(3, 6, 12);
        let full = wide.update_timing();
        let full_tdg = full.tdg().clone();
        drop(full);
        let n = wide.graph.num_nodes() as u32;
        assert!(n > 3 * 64 && !n.is_multiple_of(64), "{n} nodes");
        for r in 0..n {
            assert_cone_is_the_closure(&mut wide, &full_tdg, &[r]);
        }
        assert_cone_is_the_closure(&mut wide, &full_tdg, &[n / 2, 63, 64, n / 2, 7]);
    }

    #[test]
    fn only_a_partial_cone_builds_the_position_view() {
        let mut timer = seeded_timer(11, 5, 10);
        // Whole design, then nothing: neither needs the view, and neither
        // evaluates `2n - 1`.
        let full_space = 2 * timer.graph.num_nodes();
        assert_eq!(timer.dirty_cone().num_tasks(), full_space, "full update");
        assert_eq!(timer.dirty_cone().num_tasks(), 0, "nothing is dirty");
        assert!(!timer.graph.has_succ());
        assert!(timer.bin.lock().cone_bits.iter().all(|b| b.f.is_empty()));
        let mut empty = Timer::new(
            NetlistBuilder::new().build().expect("empty is fine"),
            CellLibrary::typical(),
        );
        assert_eq!(empty.dirty_cone().num_tasks(), 0, "full update of nothing");
        assert_eq!(empty.dirty_cone().num_tasks(), 0);

        timer.repower_gate(GateId(7), 2.0);
        let before = timer.dirty_cone().ids().to_vec();
        assert!(!before.is_empty() && before.len() < full_space);
        assert!(timer.graph.has_succ());

        timer.repower_gate(GateId(7), 0.5);
        assert_eq!(timer.dirty_cone().ids(), before, "same edit, same cone");
    }

    #[test]
    fn the_closure_referee_follows_the_three_kinds_of_dependency() {
        let mut timer = seeded_timer(5, 4, 8);
        let n = timer.graph.num_nodes() as u32;
        let whole = timer.discover_cone();
        assert!(whole.0.is_none(), "a whole design lists no ids");
        assert!(timer.cone(whole).is_successor_closed());
        let subset = |timer: &Timer, ids: Vec<u32>| {
            let num_fprop = ids.iter().filter(|&&id| id < n).count();
            timer
                .cone((Some(ids), num_fprop, ConeBits::default()))
                .is_successor_closed()
        };
        // Fprop 0 depends on nothing, so the rest is still closed; bprop of
        // position 0 follows its own fprop and the bprops of its fan-outs.
        assert!(subset(&timer, (1..2 * n).collect()));
        assert!(!subset(&timer, (0..2 * n - 1).collect()), "fprop → bprop");
        assert!(!subset(&timer, (0..n).collect()), "no bprop at all");

        for g in [0, 7, 20] {
            timer.repower_gate(GateId(g), 2.0);
            let (ids, num_fprop, bits) = timer.discover_cone();
            let ids = ids.expect("a partial cone lists its ids");
            let (f, b) = ids.split_at(num_fprop);
            assert!(timer
                .cone((Some(ids.clone()), num_fprop, bits))
                .is_successor_closed());
            // The last fprop task is a fan-out of one the cone keeps; the
            // last bprop task is an anchor's or a fan-in's.
            let mut cut = f[..num_fprop - 1].to_vec();
            cut.extend_from_slice(b);
            assert!(!subset(&timer, cut), "gate {g}: fprop → fanout fprop");
            let mut cut = f.to_vec();
            cut.extend_from_slice(&b[..b.len() - 1]);
            assert!(!subset(&timer, cut), "gate {g}: bprop → fanin bprop");
        }
    }

    #[test]
    fn timer_snapshot_restore_resumes_bit_identically() {
        // Reference: run two edits straight through.
        let mut reference = chain_timer(8);
        reference.update_timing().run_sequential();
        reference.repower_gate(GateId(3), 2.0);
        reference.update_timing().run_sequential();
        reference.repower_gate(GateId(6), 0.5);
        reference.update_timing().run_sequential();
        let want = reference.snapshot();

        // Checkpoint after the first edit, restore into a fresh timer
        // (same design inputs), replay the second edit.
        let mut timer = chain_timer(8);
        timer.update_timing().run_sequential();
        timer.repower_gate(GateId(3), 2.0);
        timer.update_timing().run_sequential();
        let ckpt = timer.snapshot();

        let mut resumed = chain_timer(8);
        resumed.restore_snapshot(&ckpt).expect("same design shape");
        assert!(!resumed.has_pending_changes(), "restore clears dirtiness");
        resumed.repower_gate(GateId(6), 0.5);
        resumed.update_timing().run_sequential();
        assert_eq!(resumed.snapshot(), want, "resumed run is bit-identical");
    }

    #[test]
    fn restore_snapshot_rejects_a_different_design() {
        let small = chain_timer(3).snapshot();
        let mut timer = chain_timer(8);
        timer.update_timing().run_sequential();
        let before = timer.snapshot();
        assert!(timer.restore_snapshot(&small).is_err());
        assert_eq!(timer.snapshot(), before, "failed restore leaves state");
    }

    #[test]
    fn update_buffers_are_recycled_across_updates() {
        let mut timer = chain_timer(8);
        let u1 = timer.update_timing();
        u1.run_sequential();
        drop(u1);
        // The dropped update handed its TDG and task map back.
        assert_eq!(timer.bin.lock().tdgs.len(), 1);
        assert_eq!(timer.bin.lock().task_nodes.len(), 1);
        let want = timer.report(1).wns_ps;

        // Repeated full updates drain the bin and produce identical timing.
        let bin = Arc::clone(&timer.bin);
        for _ in 0..3 {
            timer.invalidate_all();
            let u = timer.update_timing();
            assert!(bin.lock().tdgs.is_empty(), "bin drained into arena");
            u.run_sequential();
            drop(u);
            assert_eq!(timer.report(1).wns_ps, want);
        }
    }

    #[test]
    fn no_pending_changes_after_update() {
        let mut timer = chain_timer(3);
        assert!(timer.has_pending_changes());
        let update = timer.update_timing();
        update.run_sequential();
        drop(update);
        assert!(!timer.has_pending_changes());
        // A fresh update with nothing dirty is empty.
        let update = timer.update_timing();
        assert_eq!(update.tdg().num_tasks(), 0);
    }

    #[test]
    fn incremental_matches_full_reanalysis() {
        let mut timer = chain_timer(8);
        timer.update_timing().run_sequential();

        // Modify: repower the middle gate.
        timer.repower_gate(GateId(4), 3.0);
        assert!(timer.has_pending_changes());
        let update = timer.update_timing();
        let incr_tasks = update.tdg().num_tasks();
        update.run_sequential();
        drop(update);
        let incr = timer.report(1).wns_ps;

        // Reference: force a full re-analysis on the same design state.
        timer.full_dirty = true;
        timer.update_timing().run_sequential();
        let full = timer.report(1).wns_ps;

        assert_eq!(incr, full, "incremental must equal full re-analysis");
        assert!(
            incr_tasks <= 2 * timer.graph().num_nodes(),
            "incremental TDG is never bigger than a full one"
        );
    }

    #[test]
    fn incremental_region_is_smaller_for_late_edits() {
        // Editing the last gate of a chain affects only its own cone plus
        // the backward cone through required times; with a chain, the
        // backward cone reaches everything, but the forward (fprop) region
        // must be small.
        let mut timer = chain_timer(16);
        timer.update_timing().run_sequential();
        timer.repower_gate(GateId(15), 2.0);
        let total_nodes = timer.graph().num_nodes();
        let update = timer.update_timing();
        assert!(
            update.num_fprop_tasks() < total_nodes / 2,
            "late edit must not re-run forward propagation everywhere: {} of {}",
            update.num_fprop_tasks(),
            total_nodes
        );
    }

    #[test]
    fn set_net_cap_slows_the_path() {
        let mut timer = chain_timer(4);
        timer.update_timing().run_sequential();
        let before = timer.report(1).wns_ps;

        timer.set_net_cap(2, 50.0);
        timer.update_timing().run_sequential();
        let after = timer.report(1).wns_ps;
        assert!(
            after < before,
            "added 50 fF, slack must drop: {after} vs {before}"
        );
    }

    #[test]
    fn clock_period_scales_slack() {
        let mut timer = chain_timer(4);
        timer.update_timing().run_sequential();
        let at_1ns = timer.report(1).wns_ps;
        timer.set_clock_period(2_000.0);
        timer.update_timing().run_sequential();
        let at_2ns = timer.report(1).wns_ps;
        assert!(
            (at_2ns - at_1ns - 1_000.0).abs() < 1.0,
            "slack shifts by the period delta"
        );
    }

    #[test]
    fn report_ranks_endpoints() {
        // Two paths of different lengths to two POs.
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let y_short = nb.add_primary_output("y_short");
        let y_long = nb.add_primary_output("y_long");
        let g1 = nb.add_gate("u1", CellKind::Buf);
        let g2 = nb.add_gate("u2", CellKind::Buf);
        let g3 = nb.add_gate("u3", CellKind::Buf);
        nb.connect_to_gate(a, g1, 0).expect("valid");
        nb.connect_to_output(g1, y_short).expect("valid");
        nb.connect_gates(g1, g2, 0).expect("valid");
        nb.connect_gates(g2, g3, 0).expect("valid");
        nb.connect_to_output(g3, y_long).expect("valid");
        let mut timer = Timer::new(nb.build().expect("well-formed"), CellLibrary::typical());
        timer.update_timing().run_sequential();
        let report = timer.report(2);
        assert_eq!(report.num_endpoints, 2);
        assert_eq!(
            report.worst[0].name, "y_long",
            "longer path is more critical"
        );
        assert!(report.worst[0].slack_ps < report.worst[1].slack_ps);
    }

    /// A seeded layered design: every gate draws its inputs from earlier
    /// layers (the first from the primary inputs) and comes with a twin on
    /// the same fan-in, so slacks tie; every fourth pair feeds flip-flops
    /// and the last layer feeds primary outputs, so endpoints of both
    /// kinds sit at many depths.
    fn seeded_timer(seed: u64, layers: usize, width: usize) -> Timer {
        const KINDS: [CellKind; 6] = [
            CellKind::Inv,
            CellKind::Buf,
            CellKind::Nand2,
            CellKind::Nor2,
            CellKind::Xor2,
            CellKind::Nand3,
        ];
        let mut state = seed;
        let mut draw = move || {
            state = gpasta_sched::splitmix64(state);
            state as usize
        };
        let mut nb = NetlistBuilder::new();
        let inputs: Vec<_> = (0..width)
            .map(|i| nb.add_primary_input(format!("i{i}")))
            .collect();
        let mut earlier: Vec<GateId> = Vec::new();
        let mut last_layer = 0;
        for layer in 0..layers {
            last_layer = earlier.len();
            for w in 0..width {
                let kind = KINDS[draw() % KINDS.len()];
                let picks: Vec<usize> = (0..kind.num_inputs()).map(|_| draw()).collect();
                for twin in 0..2 {
                    let g = nb.add_gate(format!("u{layer}_{w}_{twin}"), kind);
                    for (pin, &pick) in picks.iter().enumerate() {
                        if layer == 0 {
                            nb.connect_to_gate(inputs[pick % width], g, pin as u8)
                        } else {
                            nb.connect_gates(earlier[pick % last_layer], g, pin as u8)
                        }
                        .expect("valid");
                    }
                    if w % 4 == 0 {
                        let ff = nb.add_gate(format!("ff{layer}_{w}_{twin}"), CellKind::Dff);
                        nb.connect_gates(g, ff, 0).expect("valid");
                    }
                    earlier.push(g);
                }
            }
        }
        for (o, &g) in earlier[last_layer..].iter().enumerate() {
            let y = nb.add_primary_output(format!("o{o}"));
            nb.connect_to_output(g, y).expect("valid");
        }
        Timer::new(nb.build().expect("well-formed"), CellLibrary::typical())
    }

    /// Field by field, slacks and sums by bit pattern.
    fn assert_same_report(got: &TimingReport, want: &TimingReport, what: &str) {
        assert_eq!(got.wns_ps.to_bits(), want.wns_ps.to_bits(), "{what}: WNS");
        assert_eq!(got.tns_ps.to_bits(), want.tns_ps.to_bits(), "{what}: TNS");
        assert_eq!(got.num_endpoints, want.num_endpoints, "{what}");
        assert_eq!(got.worst.len(), want.worst.len(), "{what}");
        for (g, w) in got.worst.iter().zip(&want.worst) {
            assert_eq!((g.node, &g.name), (w.node, &w.name), "{what}: order");
            assert_eq!(g.slack_ps.to_bits(), w.slack_ps.to_bits(), "{what}");
        }
    }

    #[test]
    fn report_equals_its_first_implementation_on_seeded_designs() {
        for seed in 0..6u64 {
            let mut timer = seeded_timer(seed, 6, 12);
            // From comfortable to hopeless: no, some and only violations.
            for period_ps in [2_000.0, 300.0, 120.0, 10.0] {
                timer.set_clock_period(period_ps);
                timer.update_timing().run_sequential();
                let e = timer.graph().endpoints().len();
                assert!(e > 30, "the design has endpoints to rank ({e})");
                for k in [0, 1, 3, e / 2, e, e + 5] {
                    let what = format!("seed {seed}, period {period_ps}, k {k}");
                    let late = |v| timer.data().slack_late(v);
                    assert_same_report(&timer.report(k), &timer.report_mode_oracle(k, late), &what);
                    let early = |v| timer.data().slack_early(v);
                    assert_same_report(
                        &timer.report_hold(k),
                        &timer.report_mode_oracle(k, early),
                        &what,
                    );
                }
            }
            let tied = timer.report(usize::MAX);
            assert!(
                tied.worst
                    .windows(2)
                    .any(|w| w[0].slack_ps.to_bits() == w[1].slack_ps.to_bits()),
                "twin gates give tied slacks"
            );
        }
    }

    #[test]
    fn report_equals_its_first_implementation_on_a_degraded_design() {
        let mut timer = seeded_timer(7, 5, 10);
        timer.set_clock_period(150.0);
        timer.update_timing().run_sequential();
        // Degrade as a stopped run does: unknown arrivals on some
        // endpoints, unknown required times on others.
        let endpoints = timer.graph().endpoints().to_vec();
        for (i, &v) in endpoints.iter().enumerate() {
            match i % 5 {
                0 => timer.data().mark_arrival_unknown(NodeId(v)),
                3 => timer.data().mark_required_unknown(NodeId(v)),
                _ => {}
            }
        }
        let unknown = endpoints
            .iter()
            .filter(|&&v| timer.data().slack_late(NodeId(v)).is_nan())
            .count();
        assert!(
            unknown >= endpoints.len() / 3,
            "{unknown} unknown endpoints"
        );
        for k in [0, 1, 4, endpoints.len()] {
            let late = |v| timer.data().slack_late(v);
            assert_same_report(
                &timer.report(k),
                &timer.report_mode_oracle(k, late),
                &format!("degraded, k {k}"),
            );
        }

        // Every special value at once, NaNs of both signs included.
        let specials = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -3.5,
            -3.5,
            7.25,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
        ];
        for shift in 0..specials.len() {
            let synthetic = |v: NodeId| specials[(v.index() + shift) % specials.len()];
            for k in [0, 2, endpoints.len()] {
                assert_same_report(
                    &timer.report_from(&timer.summary_of(synthetic), k),
                    &timer.report_mode_oracle(k, synthetic),
                    &format!("synthetic shift {shift}, k {k}"),
                );
            }
        }
        // With nothing but non-negative slacks the sum is still a zero of
        // the same sign.
        for zero in [0.0f32, -0.0] {
            assert_same_report(
                &timer.report_from(&timer.summary_of(|_| zero), 1),
                &timer.report_mode_oracle(1, |_| zero),
                &format!("all slacks {zero:?}"),
            );
        }
    }

    #[test]
    fn try_new_reports_combinational_loops() {
        let mut nb = crate::netlist::NetlistBuilder::new();
        let g1 = nb.add_gate("u1", CellKind::Inv);
        let g2 = nb.add_gate("u2", CellKind::Inv);
        let y = nb.add_primary_output("y");
        nb.connect_gates(g1, g2, 0).expect("valid");
        nb.connect_gates(g2, g1, 0).expect("valid");
        nb.connect_to_output(g1, y).expect("valid");
        let netlist = nb.build().expect("structurally complete");
        assert!(matches!(
            Timer::try_new(netlist, CellLibrary::typical()),
            Err(gpasta_tdg::BuildTdgError::Cycle { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "drive strength must be positive")]
    fn bad_drive_panics() {
        let mut timer = chain_timer(2);
        timer.repower_gate(GateId(0), 0.0);
    }

    #[test]
    fn hold_report_is_nonnegative_for_combinational_designs() {
        // With hold requirement 0 and positive delays, early arrivals are
        // always safe.
        let mut timer = chain_timer(6);
        timer.update_timing().run_sequential();
        let hold = timer.report_hold(3);
        assert!(hold.wns_ps >= 0.0, "hold WNS {}", hold.wns_ps);
        assert_eq!(hold.num_endpoints, timer.report(1).num_endpoints);
        // Hold slack is tighter than setup headroom on a fast clock: they
        // measure different edges.
        assert_ne!(hold.wns_ps, timer.report(1).wns_ps);
    }

    #[test]
    fn negative_slack_when_clock_is_too_fast() {
        let mut timer = chain_timer(40);
        timer.set_clock_period(100.0); // 100 ps for a 40-stage chain: hopeless
        timer.update_timing().run_sequential();
        let report = timer.report(1);
        assert!(report.wns_ps < 0.0);
        assert!(report.tns_ps <= report.wns_ps);
    }

    /// a → INV u0 → NAND2 u1 (pin 1 from b) → DFF ff → INV u2 → y, plus a
    /// BUF u3 on a whose output net has no sink.
    fn keyed_design() -> (Timer, [GateId; 5], u32) {
        use crate::netlist::Net;
        let mut nb = NetlistBuilder::new();
        let (a, b) = (nb.add_primary_input("a"), nb.add_primary_input("b"));
        let y = nb.add_primary_output("y");
        let u0 = nb.add_gate("u0", CellKind::Inv);
        let u1 = nb.add_gate("u1", CellKind::Nand2);
        let ff = nb.add_gate("ff", CellKind::Dff);
        let u2 = nb.add_gate("u2", CellKind::Inv);
        let u3 = nb.add_gate("u3", CellKind::Buf);
        nb.connect_to_gate(a, u0, 0).expect("valid");
        nb.connect_to_gate(a, u3, 0).expect("valid");
        nb.connect_gates(u0, u1, 0).expect("valid");
        nb.connect_to_gate(b, u1, 1).expect("valid");
        nb.connect_gates(u1, ff, 0).expect("valid");
        nb.connect_gates(ff, u2, 0).expect("valid");
        nb.connect_to_output(u2, y).expect("valid");
        nb.add_wire_cap(PinRef::PrimaryInput(a), 1.5)
            .expect("an input");
        let mut netlist = nb.build().expect("well-formed");
        // No builder makes a net without a sink; a deserialized netlist can.
        netlist.nets.push(Net {
            driver: PinRef::GateOutput(u3),
            sinks: Vec::new(),
            wire_cap_ff: 2.5,
        });
        let sinkless = netlist.num_nets() as u32 - 1;
        let timer = Timer::new(netlist, CellLibrary::typical());
        (timer, [u0, u1, ff, u2, u3], sinkless)
    }

    /// The gate- and net-indexed electrical state recomputed from the
    /// netlist, the library and the `drive` of each gate, as snapshot bits:
    /// `(drive, gate_load, net_delay)`.
    fn recomputed(timer: &Timer, drive: &[f32]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let (netlist, lib) = (timer.netlist(), &timer.library);
        let mut load = vec![0.0f32; netlist.num_gates()];
        let mut delay = Vec::new();
        for net in netlist.nets() {
            let mut cap = net.wire_cap_ff;
            for &sink in &net.sinks {
                cap += match sink {
                    PinRef::GateInput(g, _) => {
                        lib.input_cap(netlist.gates()[g.index()].cell) * drive[g.index()]
                    }
                    _ => lib.output_load_ff,
                };
            }
            if let PinRef::GateOutput(g) = net.driver {
                load[g.index()] = cap;
            }
            delay.push((lib.wire_res_ps_per_ff * cap).to_bits());
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect();
        (bits(drive), bits(&load), delay)
    }

    fn assert_keyed(timer: &Timer, drive: &[f32], what: &str) {
        let snap = timer.snapshot();
        let want = recomputed(timer, drive);
        assert_eq!((snap.drive, snap.gate_load, snap.net_delay), want, "{what}");
    }

    #[test]
    fn node_keyed_electrical_state_matches_a_recomputation_from_the_netlist() {
        let (mut timer, [u0, u1, ff, ..], sinkless) = keyed_design();
        let mut drive = vec![1.0f32; 5];
        assert_keyed(&timer, &drive, "new");

        // u0 sits on the PI-driven net of `a`; ff's clk→Q reads its drive.
        for (g, x) in [(u0, 2.0), (ff, 0.5), (u1, 3.0)] {
            timer.repower_gate(g, x);
            drive[g.index()] = x;
            assert_keyed(&timer, &drive, "repower_gate");
        }
        timer.update_timing().run_sequential();
        let q = timer.graph().gate_output_node(ff);
        let clk_to_q = timer.library.cell(CellKind::Dff).clk_to_q_ps;
        assert_eq!(
            timer.data().arrival(q, Tr::Rise, Mode::Late),
            clk_to_q / 0.5
        );

        let pi_net = timer
            .netlist()
            .nets()
            .iter()
            .position(|n| n.driver == PinRef::PrimaryInput(crate::PortId(0)));
        let pi_net = pi_net.expect("a drives a net") as u32;
        for (net, cap) in [(pi_net, 4.0), (sinkless, 9.0)] {
            timer.set_net_cap(net, cap);
            assert_keyed(&timer, &drive, "set_net_cap");
        }
        timer.update_timing().run_sequential();
        let snap = timer.snapshot();

        // The edit state alone, on a fresh timer of the same design.
        let (mut fresh, ..) = keyed_design();
        fresh
            .set_edit_state(&timer.edit_state())
            .expect("same design");
        assert_keyed(&fresh, &drive, "set_edit_state");
        fresh.update_timing().run_sequential();
        assert_eq!(fresh.snapshot(), snap);

        // The snapshot alone: the sinkless net's delay has no node, and its
        // wire cap is not in the snapshot, yet it round-trips.
        let (mut restored, ..) = keyed_design();
        restored.restore_snapshot(&snap).expect("same design");
        assert_eq!(restored.snapshot(), snap, "restore round-trips");
        assert_eq!(
            snap.net_delay[sinkless as usize],
            (timer.library.wire_res_ps_per_ff * 9.0).to_bits()
        );
        assert_ne!(
            restored.netlist().nets()[sinkless as usize].wire_cap_ff,
            9.0
        );
    }
}
