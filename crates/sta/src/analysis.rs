//! Graph-based analysis: forward (slew/arrival) and backward (required
//! time) propagation.
//!
//! Each node-level propagation step is one *task* of the `update_timing`
//! TDG. The arithmetic is real NLDM table interpolation over rise/fall ×
//! early/late corners, so the tasks land in the granularity regime the
//! paper reports for OpenTimer.

use crate::atomic_f32::AtomicF32;
use crate::graph::{ArcKind, ArcSoa, NodeId, NodeKind, TimingGraph};
use crate::library::{CellKind, CellLibrary, LoadBracket, Lut2D, SlewBracket, TimingSense};
use crate::netlist::{Gate, GateId, Net, Netlist, PinRef};
use std::ops::Range;

/// Signal transition direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tr {
    /// Rising edge.
    Rise = 0,
    /// Falling edge.
    Fall = 1,
}

/// Analysis mode (split corner).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Early / hold analysis (min).
    Early = 0,
    /// Late / setup analysis (max).
    Late = 1,
}

const TRS: [Tr; 2] = [Tr::Rise, Tr::Fall];
const MODES: [Mode; 2] = [Mode::Early, Mode::Late];

/// The [`ArcSoa`] sense codes, the `SENSE` of a cell kernel.
const POSITIVE: u8 = TimingSense::Positive as u8;
const NEGATIVE: u8 = TimingSense::Negative as u8;
const NON_UNATE: u8 = TimingSense::NonUnate as u8;

/// Flat index of a `(transition, mode)` corner in per-node/per-arc arrays.
#[inline]
fn corner(tr: Tr, mode: Mode) -> usize {
    (tr as usize) * 2 + (mode as usize)
}

/// One node's forward-propagated state, in [`fprop_bits`] order: the four
/// arrival corners, then the four slew corners. Aligned so that a record
/// never straddles a cache line: a fan-in read is one line.
///
/// [`fprop_bits`]: TimingData::fprop_bits
#[derive(Debug, Default)]
#[repr(align(32))]
struct FwdRecord([AtomicF32; 8]);

/// Mutable per-node / per-arc timing state, shared across propagation tasks.
///
/// Values are stored in [`AtomicF32`] cells: every cell is written by
/// exactly one task and read only by tasks that depend on it, with the
/// scheduler's dependency countdown providing the happens-before edge.
///
/// Every array is keyed by node, arc or port, in the order the in-order
/// sweep walks it. The electrical state a forward step reads sits at the
/// node that reads it: a gate's drive and load at its output pin, a net's
/// delay at each of its sink pins. [`TimingSnapshot`] and [`EditState`]
/// stay gate- and net-indexed; [`snapshot`](TimingData::snapshot) and the
/// other boundary methods translate through the graph's pin → node table.
#[derive(Debug)]
pub struct TimingData {
    /// Clock period for endpoint constraints (ps).
    pub clock_period_ps: f32,
    /// Per node: arrival and slew corners (ps).
    fwd: Vec<FwdRecord>,
    /// Per node, per corner: required arrival time (ps).
    required: Vec<[AtomicF32; 4]>,
    /// Per arc, in arc-id order, per output corner: cached delay, filled
    /// during forward propagation of the arc's `to` node, consumed by
    /// backward propagation of the arc's `from` node.
    arc_delay: Vec<[AtomicF32; 4]>,
    /// Per node: `[drive multiplier, load (fF)]` at a gate's output pin,
    /// `[interconnect delay (ps), 0]` at a net's sink pin, unused at a
    /// primary input.
    elec: Vec<[AtomicF32; 2]>,
    /// The nets with no sink, ascending, with their delay. No node reads
    /// it; it is kept so that a snapshot round-trips.
    sinkless: Vec<(u32, AtomicF32)>,
    /// Per primary input: external arrival offset (`set_input_delay`).
    input_delay: Vec<AtomicF32>,
    /// Per primary output: external required-time margin
    /// (`set_output_delay`); subtracted from the clock period.
    output_delay: Vec<AtomicF32>,
}

/// Where in a node's `elec` pair its drive and load (at a gate's output
/// pin) or its net delay (at a sink pin) is.
const DRIVE: usize = 0;
const LOAD: usize = 1;
const NET_DELAY: usize = 0;

/// The total capacitance of net `n` (fF): its wire plus each sink's pin,
/// `pin_cap(g)` at an input of gate `g`.
fn net_cap(n: &Net, library: &CellLibrary, pin_cap: impl Fn(GateId) -> f32) -> f32 {
    let mut cap = n.wire_cap_ff;
    for &sink in &n.sinks {
        cap += match sink {
            PinRef::GateInput(g, _) => pin_cap(g),
            PinRef::PrimaryOutput(_) => library.output_load_ff,
            _ => 0.0,
        };
    }
    cap
}

/// The cells that hold a copy of `net`'s delay: one per sink node, or its
/// entry in `sinkless`.
fn net_delay_cells<'d>(
    data: &'d TimingData,
    graph: &'d TimingGraph,
    netlist: &'d Netlist,
    net: u32,
) -> impl Iterator<Item = &'d AtomicF32> + 'd {
    let sinks = &netlist.nets()[net as usize].sinks;
    let at_sinks = sinks
        .iter()
        .map(move |&s| &data.elec[graph.pin_ref_node(s).index()][NET_DELAY]);
    at_sinks.chain(sinks.is_empty().then(|| data.sinkless_cell(net)))
}

impl TimingData {
    /// Allocate state for `graph` over `netlist`, with every timing value
    /// cleared and electrical state (drives, loads, net delays) computed
    /// from the netlist.
    pub fn new(graph: &TimingGraph, netlist: &Netlist, library: &CellLibrary) -> Self {
        let n = graph.num_nodes();
        let nets = netlist.nets().iter().enumerate();
        let data = TimingData {
            clock_period_ps: 1_000.0,
            fwd: (0..n).map(|_| FwdRecord::default()).collect(),
            required: (0..n).map(|_| Default::default()).collect(),
            arc_delay: (0..graph.num_arcs()).map(|_| Default::default()).collect(),
            elec: (0..n).map(|_| Default::default()).collect(),
            sinkless: nets
                .filter(|(_, net)| net.sinks.is_empty())
                .map(|(i, _)| (i as u32, AtomicF32::new(0.0)))
                .collect(),
            input_delay: (0..netlist.num_inputs())
                .map(|_| AtomicF32::new(0.0))
                .collect(),
            output_delay: (0..netlist.num_outputs())
                .map(|_| AtomicF32::new(0.0))
                .collect(),
        };
        for (g, gate) in netlist.gates().iter().enumerate() {
            data.set_drive(graph.gate_output_node(GateId(g as u32)), gate.drive);
        }
        data.recompute_nets(graph, netlist, library, |_, gate| gate.drive);
        data
    }

    /// [`recompute_net`](TimingData::recompute_net) for every net, with
    /// `drive_of(g, gate)` the drive of each gate: one pass over the gates,
    /// one over the nets and one over the arcs, which stores each delay
    /// at its sink node in node order.
    fn recompute_nets(
        &self,
        graph: &TimingGraph,
        netlist: &Netlist,
        library: &CellLibrary,
        drive_of: impl Fn(GateId, &Gate) -> f32,
    ) {
        let gates = netlist.gates().iter().enumerate();
        let pin_cap: Vec<f32> = gates
            .map(|(g, gate)| library.input_cap(gate.cell) * drive_of(GateId(g as u32), gate))
            .collect();
        let caps: Vec<f32> = netlist
            .nets()
            .iter()
            .map(|n| net_cap(n, library, |g| pin_cap[g.index()]))
            .collect();
        for (n, &cap) in netlist.nets().iter().zip(&caps) {
            if let PinRef::GateOutput(g) = n.driver {
                self.elec[graph.gate_output_node(g).index()][LOAD].store(cap);
            }
        }
        let delay = |net: u32| library.wire_res_ps_per_ff * caps[net as usize];
        for arc in graph.arcs() {
            if let ArcKind::Net { net } = arc.kind {
                self.elec[arc.to.index()][NET_DELAY].store(delay(net));
            }
        }
        for (net, cell) in &self.sinkless {
            cell.store(delay(*net));
        }
    }

    /// Recompute the total capacitance, interconnect delay, and (if the
    /// driver is a gate) driver output load of net `net`. Called by design
    /// modifiers.
    pub fn recompute_net(
        &self,
        net: u32,
        graph: &TimingGraph,
        netlist: &Netlist,
        library: &CellLibrary,
    ) {
        let n = &netlist.nets()[net as usize];
        let cap = net_cap(n, library, |g| {
            let gate = &netlist.gates()[g.index()];
            library.input_cap(gate.cell) * self.drive(graph.gate_output_node(g))
        });
        let delay = library.wire_res_ps_per_ff * cap;
        for cell in net_delay_cells(self, graph, netlist, net) {
            cell.store(delay);
        }
        if let PinRef::GateOutput(g) = n.driver {
            self.elec[graph.gate_output_node(g).index()][LOAD].store(cap);
        }
    }

    /// Drive multiplier of the gate whose output pin is `v`.
    #[inline]
    pub fn drive(&self, v: NodeId) -> f32 {
        self.elec[v.index()][DRIVE].load()
    }

    /// Set the drive multiplier of the gate whose output pin is `v` (used
    /// by the repower modifier).
    #[inline]
    pub fn set_drive(&self, v: NodeId, drive: f32) {
        self.elec[v.index()][DRIVE].store(drive);
    }

    /// External arrival offset of primary input `p` (ps).
    #[inline]
    pub fn input_delay(&self, p: u32) -> f32 {
        self.input_delay[p as usize].load()
    }

    /// Set the external arrival offset of primary input `p` (ps).
    #[inline]
    pub fn set_input_delay(&self, p: u32, delay_ps: f32) {
        self.input_delay[p as usize].store(delay_ps);
    }

    /// External required-time margin of primary output `p` (ps).
    #[inline]
    pub fn output_delay(&self, p: u32) -> f32 {
        self.output_delay[p as usize].load()
    }

    /// Set the external required-time margin of primary output `p` (ps).
    #[inline]
    pub fn set_output_delay(&self, p: u32, delay_ps: f32) {
        self.output_delay[p as usize].store(delay_ps);
    }

    /// Arrival time at `v` for `(tr, mode)` (ps).
    #[inline]
    pub fn arrival(&self, v: NodeId, tr: Tr, mode: Mode) -> f32 {
        self.fwd[v.index()].0[corner(tr, mode)].load()
    }

    /// Slew at `v` for `(tr, mode)` (ps).
    #[inline]
    pub fn slew(&self, v: NodeId, tr: Tr, mode: Mode) -> f32 {
        self.fwd[v.index()].0[4 + corner(tr, mode)].load()
    }

    /// Required arrival time at `v` for `(tr, mode)` (ps).
    #[inline]
    pub fn required(&self, v: NodeId, tr: Tr, mode: Mode) -> f32 {
        self.required[v.index()][corner(tr, mode)].load()
    }

    /// Setup (late-mode) slack at `v`: worst over transitions of
    /// `required − arrival`. NaN when any contributing value is unknown —
    /// `f32::min` would silently discard the NaN, and a degraded run must
    /// report *unknown*, not a fabricated slack.
    pub fn slack_late(&self, v: NodeId) -> f32 {
        TRS.iter()
            .map(|&tr| self.required(v, tr, Mode::Late) - self.arrival(v, tr, Mode::Late))
            .fold(f32::INFINITY, nan_preserving_min)
    }

    /// Hold (early-mode) slack at `v`: worst over transitions of
    /// `arrival − required`. Positive means the earliest edge arrives
    /// safely after the hold window. NaN when any contributing value is
    /// unknown (see [`slack_late`](TimingData::slack_late)).
    pub fn slack_early(&self, v: NodeId) -> f32 {
        TRS.iter()
            .map(|&tr| self.arrival(v, tr, Mode::Early) - self.required(v, tr, Mode::Early))
            .fold(f32::INFINITY, nan_preserving_min)
    }

    /// Mark the forward-propagated state of `v` (arrival and slew, all
    /// corners) as *unknown* by storing NaN. The recovering update uses
    /// this for nodes inside a poisoned cone: an explicit NaN is auditable,
    /// a stale-but-plausible number is silently wrong. Any slack computed
    /// through an unknown value is NaN, which endpoint reports surface.
    pub fn mark_arrival_unknown(&self, v: NodeId) {
        self.set_fwd(v, [f32::NAN; 8]);
    }

    /// Mark the required times of `v` (all corners) as unknown (NaN); the
    /// backward-cone counterpart of
    /// [`mark_arrival_unknown`](TimingData::mark_arrival_unknown).
    pub fn mark_required_unknown(&self, v: NodeId) {
        store(&self.required[v.index()], [f32::NAN; 4]);
    }

    /// Whether any timing value at `v` is marked unknown (NaN).
    pub fn is_unknown(&self, v: NodeId) -> bool {
        TRS.iter().any(|&tr| {
            MODES.iter().any(|&mode| {
                self.arrival(v, tr, mode).is_nan() || self.required(v, tr, mode).is_nan()
            })
        })
    }

    /// The forward record of `v`: arrival corners, then slew corners.
    #[inline]
    fn fwd_of(&self, v: NodeId) -> [f32; 8] {
        load(&self.fwd[v.index()].0)
    }

    #[inline]
    fn set_fwd(&self, v: NodeId, x: [f32; 8]) {
        store(&self.fwd[v.index()].0, x);
    }

    /// Raw forward-propagated state of `v` — the four arrival corners then
    /// the four slew corners, as `f32` bit patterns. Boundary exchange
    /// between shard processes ships bit patterns, never rounded floats,
    /// so a value that crossed a process boundary is indistinguishable
    /// from one computed locally.
    #[inline]
    pub fn fprop_bits(&self, v: NodeId) -> [u32; 8] {
        let r = &self.fwd[v.index()].0;
        std::array::from_fn(|i| r[i].load_bits())
    }

    /// Store raw forward-propagated state of `v`; the inverse of
    /// [`fprop_bits`](TimingData::fprop_bits).
    #[inline]
    pub fn set_fprop_bits(&self, v: NodeId, bits: [u32; 8]) {
        for (c, b) in self.fwd[v.index()].0.iter().zip(bits) {
            c.store_bits(b);
        }
    }

    /// Raw required-time corners of `v` as `f32` bit patterns.
    #[inline]
    pub fn required_bits(&self, v: NodeId) -> [u32; 4] {
        let r = &self.required[v.index()];
        std::array::from_fn(|i| r[i].load_bits())
    }

    /// Store raw required-time corners of `v`; the inverse of
    /// [`required_bits`](TimingData::required_bits).
    #[inline]
    pub fn set_required_bits(&self, v: NodeId, bits: [u32; 4]) {
        store_bits(&self.required[v.index()], &bits);
    }

    /// Raw cached delay corners of arc `a` as `f32` bit patterns. The
    /// backward pass of a node reads the cached delays of its *fanout*
    /// arcs (filled by the forward pass of each arc's `to` node), so a
    /// shard boundary that cuts between `fprop(to)` and `bprop(from)`
    /// must ship these alongside the node values.
    #[inline]
    pub fn arc_delay_bits(&self, a: u32) -> [u32; 4] {
        let r = &self.arc_delay[a as usize];
        std::array::from_fn(|i| r[i].load_bits())
    }

    /// Store raw cached delay corners of arc `a`; the inverse of
    /// [`arc_delay_bits`](TimingData::arc_delay_bits).
    #[inline]
    pub fn set_arc_delay_bits(&self, a: u32, bits: [u32; 4]) {
        store_bits(&self.arc_delay[a as usize], &bits);
    }
}

/// A bit-exact snapshot of every mutable timing value — the arrays a
/// checkpoint must persist so a resumed run is indistinguishable from an
/// uninterrupted one. Values are stored as raw `f32` bit patterns
/// (`to_bits`), so NaN payloads, signed zeros, and infinities all round
/// trip exactly and two snapshots compare equal iff the timing state is
/// bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingSnapshot {
    /// `clock_period_ps` as bits.
    pub clock_period_bits: u32,
    /// Per node × corner slews.
    pub slew: Vec<u32>,
    /// Per node × corner arrivals.
    pub arrival: Vec<u32>,
    /// Per node × corner required times.
    pub required: Vec<u32>,
    /// Per arc × corner cached delays.
    pub arc_delay: Vec<u32>,
    /// Per gate drive multipliers.
    pub drive: Vec<u32>,
    /// Per gate output loads.
    pub gate_load: Vec<u32>,
    /// Per net interconnect delays.
    pub net_delay: Vec<u32>,
    /// Per primary input external arrival offsets.
    pub input_delay: Vec<u32>,
    /// Per primary output external required-time margins.
    pub output_delay: Vec<u32>,
}

/// A [`TimingSnapshot`] was taken against a design of a different shape
/// than the one it is being restored into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMismatch {
    /// Which array disagreed.
    pub field: &'static str,
    /// Length the live timing state expects.
    pub expected: usize,
    /// Length the snapshot carries.
    pub found: usize,
}

impl std::fmt::Display for SnapshotMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "timing snapshot shape mismatch: {} holds {} entries but the design needs {}",
            self.field, self.found, self.expected
        )
    }
}

impl std::error::Error for SnapshotMismatch {}

/// The inputs of the timing values that edits write, bit-exact: the clock
/// period, per-gate drive, per-net wire capacitance and per-port I/O delays.
/// After a completed update every [`TimingSnapshot`] array is a function of
/// these and the design, so a fresh timer of the same design given them
/// ([`Timer::set_edit_state`](crate::Timer::set_edit_state)) and one
/// whole-design run reproduces the snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditState {
    /// `clock_period_ps` as bits.
    pub clock_period_bits: u32,
    /// Per gate drive multipliers.
    pub drive: Vec<u32>,
    /// Per net wire capacitances (fF).
    pub wire_cap: Vec<u32>,
    /// Per primary input external arrival offsets.
    pub input_delay: Vec<u32>,
    /// Per primary output external required-time margins.
    pub output_delay: Vec<u32>,
}

/// The bits of `cells`, in order, in an exact-capacity `Vec`.
fn load_bits<'c>(cells: impl ExactSizeIterator<Item = &'c AtomicF32>) -> Vec<u32> {
    cells.map(AtomicF32::load_bits).collect()
}

/// Store `bits` into `cells`, in order.
fn store_bits<'c>(cells: impl IntoIterator<Item = &'c AtomicF32>, bits: &[u32]) {
    for (c, &b) in cells.into_iter().zip(bits) {
        c.store_bits(b);
    }
}

/// `Err` naming the first `(expected, bits, field)` whose `bits` does not
/// hold `expected` entries.
fn check_lens(arrays: &[(usize, &[u32], &'static str)]) -> Result<(), SnapshotMismatch> {
    match arrays
        .iter()
        .find(|(expected, bits, _)| *expected != bits.len())
    {
        None => Ok(()),
        Some(&(expected, bits, field)) => Err(SnapshotMismatch {
            field,
            expected,
            found: bits.len(),
        }),
    }
}

impl TimingData {
    /// Per gate, in gate order, its `DRIVE` or `LOAD` cell.
    fn gate_cells<'d>(
        &'d self,
        graph: &'d TimingGraph,
        netlist: &Netlist,
        which: usize,
    ) -> impl ExactSizeIterator<Item = &'d AtomicF32> + 'd {
        (0..netlist.num_gates() as u32)
            .map(move |g| &self.elec[graph.gate_output_node(GateId(g)).index()][which])
    }

    /// One cell per net holding its delay, in net order.
    fn net_cells<'d>(
        &'d self,
        graph: &'d TimingGraph,
        netlist: &'d Netlist,
    ) -> impl ExactSizeIterator<Item = &'d AtomicF32> + 'd {
        let nets = netlist.nets().iter().enumerate();
        nets.map(move |(net, n)| match n.sinks.first() {
            Some(&s) => &self.elec[graph.pin_ref_node(s).index()][NET_DELAY],
            None => self.sinkless_cell(net as u32),
        })
    }

    /// The delay cell of `net`, a net with no sink.
    fn sinkless_cell(&self, net: u32) -> &AtomicF32 {
        let i = self.sinkless.partition_point(|&(m, _)| m < net);
        &self.sinkless[i].1
    }

    /// The edit state of this timing data over `netlist`, which holds the
    /// wire capacitances.
    pub(crate) fn edit_state(&self, graph: &TimingGraph, netlist: &Netlist) -> EditState {
        EditState {
            clock_period_bits: self.clock_period_ps.to_bits(),
            drive: load_bits(self.gate_cells(graph, netlist, DRIVE)),
            wire_cap: netlist
                .nets()
                .iter()
                .map(|n| n.wire_cap_ff.to_bits())
                .collect(),
            input_delay: load_bits(self.input_delay.iter()),
            output_delay: load_bits(self.output_delay.iter()),
        }
    }

    /// Write `state`: drives, delays and the clock here, wire capacitances
    /// into `netlist`, then recompute every net as [`TimingData::new`] does.
    /// Every length is checked before the first store, so a mismatched
    /// state leaves both untouched. Slews, arrivals, requireds and arc
    /// delays are left for the caller's whole-design run.
    pub(crate) fn set_edit_state(
        &mut self,
        state: &EditState,
        graph: &TimingGraph,
        netlist: &mut Netlist,
        library: &CellLibrary,
    ) -> Result<(), SnapshotMismatch> {
        check_lens(&[
            (netlist.num_nets(), &state.wire_cap, "wire_cap"),
            (netlist.num_gates(), &state.drive, "drive"),
            (self.input_delay.len(), &state.input_delay, "input_delay"),
            (self.output_delay.len(), &state.output_delay, "output_delay"),
        ])?;
        store_bits(self.gate_cells(graph, netlist, DRIVE), &state.drive);
        store_bits(&self.input_delay, &state.input_delay);
        store_bits(&self.output_delay, &state.output_delay);
        self.clock_period_ps = f32::from_bits(state.clock_period_bits);
        for (net, &bits) in netlist.nets.iter_mut().zip(&state.wire_cap) {
            net.wire_cap_ff = f32::from_bits(bits);
        }
        self.recompute_nets(graph, netlist, library, |g, _| {
            self.drive(graph.gate_output_node(g))
        });
        Ok(())
    }

    /// Capture every mutable timing value bit-exactly, translating the
    /// node-keyed electrical state back to gates and nets through `graph`
    /// and `netlist` (the design this state was allocated for).
    pub fn snapshot(&self, graph: &TimingGraph, netlist: &Netlist) -> TimingSnapshot {
        let n = self.fwd.len();
        let (mut arrival, mut slew) = (Vec::with_capacity(4 * n), Vec::with_capacity(4 * n));
        for r in &self.fwd {
            arrival.extend(r.0[..4].iter().map(AtomicF32::load_bits));
            slew.extend(r.0[4..].iter().map(AtomicF32::load_bits));
        }
        TimingSnapshot {
            clock_period_bits: self.clock_period_ps.to_bits(),
            slew,
            arrival,
            required: load_bits(self.required.as_flattened().iter()),
            arc_delay: load_bits(self.arc_delay.as_flattened().iter()),
            drive: load_bits(self.gate_cells(graph, netlist, DRIVE)),
            gate_load: load_bits(self.gate_cells(graph, netlist, LOAD)),
            net_delay: load_bits(self.net_cells(graph, netlist)),
            input_delay: load_bits(self.input_delay.iter()),
            output_delay: load_bits(self.output_delay.iter()),
        }
    }

    /// Overwrite every mutable timing value from `snap`, bit-exactly: a
    /// net's delay goes to every sink node of the net. All array shapes
    /// are checked before the first store, so a mismatched snapshot leaves
    /// the state untouched.
    ///
    /// # Errors
    ///
    /// [`SnapshotMismatch`] when any array length disagrees with the
    /// design this state was allocated for.
    pub fn restore(
        &mut self,
        snap: &TimingSnapshot,
        graph: &TimingGraph,
        netlist: &Netlist,
    ) -> Result<(), SnapshotMismatch> {
        let (corners, gates) = (4 * self.fwd.len(), netlist.num_gates());
        check_lens(&[
            (corners, &snap.slew, "slew"),
            (corners, &snap.arrival, "arrival"),
            (corners, &snap.required, "required"),
            (4 * self.arc_delay.len(), &snap.arc_delay, "arc_delay"),
            (gates, &snap.drive, "drive"),
            (gates, &snap.gate_load, "gate_load"),
            (netlist.num_nets(), &snap.net_delay, "net_delay"),
            (self.input_delay.len(), &snap.input_delay, "input_delay"),
            (self.output_delay.len(), &snap.output_delay, "output_delay"),
        ])?;
        let records = self.fwd.iter().map(|r| &r.0);
        store_bits(records.clone().flat_map(|r| &r[..4]), &snap.arrival);
        store_bits(records.flat_map(|r| &r[4..]), &snap.slew);
        store_bits(self.required.as_flattened(), &snap.required);
        store_bits(self.arc_delay.as_flattened(), &snap.arc_delay);
        store_bits(self.gate_cells(graph, netlist, DRIVE), &snap.drive);
        store_bits(self.gate_cells(graph, netlist, LOAD), &snap.gate_load);
        for (net, &bits) in snap.net_delay.iter().enumerate() {
            for c in net_delay_cells(self, graph, netlist, net as u32) {
                c.store_bits(bits);
            }
        }
        store_bits(&self.input_delay, &snap.input_delay);
        store_bits(&self.output_delay, &snap.output_delay);
        self.clock_period_ps = f32::from_bits(snap.clock_period_bits);
        Ok(())
    }
}

/// The node-level propagation engine: borrowed views of the static design
/// plus the shared [`TimingData`].
#[derive(Debug, Clone, Copy)]
pub struct TimingPropagator<'a> {
    /// The pin-level graph.
    pub graph: &'a TimingGraph,
    /// The design.
    pub netlist: &'a Netlist,
    /// The cell library.
    pub library: &'a CellLibrary,
    /// The shared timing state.
    pub data: &'a TimingData,
}

impl<'a> TimingPropagator<'a> {
    /// Forward-propagate slew and arrival into `v` (the paper's "delay
    /// calculation" task): evaluates the delay of every fan-in arc at the
    /// current input slews and loads, caches the arc delays for backward
    /// propagation, and merges arrivals (max for late, min for early).
    ///
    /// Reads in sweep order: `v`'s own electrical state once, each fan-in's
    /// forward record once, and the flat [`ArcSoa`](crate::graph::ArcSoa)
    /// columns of its fan-in range. A gate's output pin has only that
    /// gate's cell arcs in its fan-in, and a sink pin one net arc, so the
    /// cell, sense, drive, load and load brackets are resolved once per
    /// node; where the cell's four tables share one slew axis, each fan-in
    /// corner's slew bracket is resolved once for all four. The values are
    /// the model's as an independent f64 analysis recomputes them from the
    /// netlist and library (`tests/timing_oracle.rs`); their bits are
    /// pinned by `crates/sta/tests/report_bits.rs`.
    pub fn fprop(&self, v: NodeId) {
        let d = self.data;
        let fanin = self.graph.fanin(v);
        let [x, y] = &d.elec[v.index()];
        let (x, y) = (x.load(), y.load());

        if fanin.is_empty() {
            // Path startpoint: primary input or sequential output.
            let slew = self.library.input_slew_ps;
            let arr = match self.graph.node_kind(v) {
                // A gate output with no fan-in is a flip-flop's, the one
                // sequential cell; `x` is its drive.
                NodeKind::GateOutput(_) => self.library.cell(CellKind::Dff).clk_to_q_ps / x,
                NodeKind::PrimaryInput(p) => d.input_delay(p),
                _ => 0.0,
            };
            d.set_fwd(v, [arr, arr, arr, arr, slew, slew, slew, slew]);
            return;
        }

        let soa = self.graph.arc_soa(self.netlist);
        let first = fanin.start as usize;
        // The new record, arrival then slew corners, at the merge identity.
        let mut rec: [f32; 8] = std::array::from_fn(|i| pick_init(MODES[i % 2]));

        if soa.is_net(first) {
            // A sink pin: its one net arc's delay is `x`.
            let delay = x;
            for a in fanin {
                debug_assert!(soa.is_net(a as usize), "a sink pin has only net arcs");
                let u = d.fwd_of(NodeId(soa.from[a as usize]));
                for c in 0..4 {
                    let mode = MODES[c % 2];
                    let at = u[c] + delay;
                    // Mild interconnect slew degradation.
                    let sv = u[4 + c] + 0.1 * delay;
                    merge(&mut rec[c], at, mode);
                    merge(&mut rec[4 + c], sv, mode);
                }
                store(&d.arc_delay[a as usize], [delay; 4]);
            }
        } else {
            // A gate's output pin: drive `x`, load `y`.
            let ci = soa.cell_idx[first] as usize;
            let kernel = match (self.library.shares_slew_axis(ci), soa.sense[first]) {
                (true, POSITIVE) => Self::cell_fanin::<true, POSITIVE>,
                (true, NEGATIVE) => Self::cell_fanin::<true, NEGATIVE>,
                (true, _) => Self::cell_fanin::<true, NON_UNATE>,
                (false, POSITIVE) => Self::cell_fanin::<false, POSITIVE>,
                (false, NEGATIVE) => Self::cell_fanin::<false, NEGATIVE>,
                (false, _) => Self::cell_fanin::<false, NON_UNATE>,
            };
            kernel(self, soa, fanin, ci, [x, y], &mut rec);
        }
        d.set_fwd(v, rec);
    }

    /// Merge the cell arcs `fanin` of one gate, whose cell has library
    /// index `ci`, whose arcs have sense `SENSE` and which has `[drive,
    /// load]`, into the record `rec`, and cache their delays. With `SHARED`
    /// (the cell's four tables share one slew axis) a fan-in corner's slew
    /// bracket is resolved once for all four tables; otherwise each lookup
    /// resolves its own. Where the four tables share one load axis the
    /// load is bracketed once for the gate, otherwise once per table.
    #[inline]
    fn cell_fanin<const SHARED: bool, const SENSE: u8>(
        &self,
        soa: &ArcSoa,
        fanin: Range<u32>,
        ci: usize,
        [drive, load]: [f32; 2],
        rec: &mut [f32; 8],
    ) {
        let d = self.data;
        let t = &self.library.cell_by_index(ci).tables;
        // [tr_out]: [delay table, slew table], and their load brackets.
        let tabs = [[&t.delay_rise, &t.slew_rise], [&t.delay_fall, &t.slew_fall]];
        let lbs = if self.library.shares_load_axis(ci) {
            [[t.delay_rise.load_bracket(load); 2]; 2]
        } else {
            tabs.map(|tr_out| tr_out.map(|tab| tab.load_bracket(load)))
        };
        for a in fanin {
            debug_assert_eq!(soa.cell_idx[a as usize] as usize, ci, "one gate's arcs");
            let u = d.fwd_of(NodeId(soa.from[a as usize]));
            // [corner(tr_in, mode)]: the bracket of the fan-in's slew.
            let sb: [SlewBracket; 4] = if SHARED {
                std::array::from_fn(|c| t.delay_rise.slew_bracket(u[4 + c]))
            } else {
                Default::default()
            };
            let delays = [
                cell_corner::<SHARED, SENSE, 0>(&tabs, &lbs, &u, &sb, drive, rec),
                cell_corner::<SHARED, SENSE, 1>(&tabs, &lbs, &u, &sb, drive, rec),
                cell_corner::<SHARED, SENSE, 2>(&tabs, &lbs, &u, &sb, drive, rec),
                cell_corner::<SHARED, SENSE, 3>(&tabs, &lbs, &u, &sb, drive, rec),
            ];
            store(&d.arc_delay[a as usize], delays);
        }
    }

    /// Backward-propagate required arrival time into `v` (the paper's
    /// "required arrival time update" task). Endpoints take their
    /// constraint; interior nodes take the tightest requirement over
    /// fan-out arcs using the arc delays cached by [`fprop`](Self::fprop),
    /// and a node without fan-out stays unconstrained.
    ///
    /// Per fan-out arc, one 4-lane `required(to) − delay(a)` in output
    /// corners is merged into `v`'s input corners: as it is for a
    /// positive arc, with its rise and fall halves swapped for a negative
    /// one, and for a non-unate one its rise half and then its fall half,
    /// each on both input transitions.
    pub fn bprop(&self, v: NodeId) {
        let d = self.data;

        if self.graph.is_endpoint(v) {
            let margin = match self.graph.node_kind(v) {
                NodeKind::GateInput(g, 0) => {
                    self.library
                        .cell(self.netlist.gates()[g as usize].cell)
                        .setup_ps
                }
                NodeKind::PrimaryOutput(p) => d.output_delay(p),
                _ => 0.0,
            };
            let late = d.clock_period_ps - margin;
            store(&d.required[v.index()], [0.0, late, 0.0, late]);
            return;
        }

        let soa = self.graph.arc_soa(self.netlist);
        // Required times tighten in the opposite direction of arrivals:
        // early lanes take the max, late lanes the min.
        let (lo, hi) = (f32::NEG_INFINITY, f32::INFINITY);
        let mut req = [lo, hi, lo, hi];
        for &a in self.graph.fanout(v) {
            let ai = a as usize;
            let (to, delay) = (&d.required[soa.to[ai] as usize], &d.arc_delay[ai]);
            let r = |c: usize| to[c].load() - delay[c].load();
            let (rise_early, rise_late, fall_early, fall_late) = (r(0), r(1), r(2), r(3));
            match soa.sense[ai] {
                POSITIVE => tighten(&mut req, [rise_early, rise_late, fall_early, fall_late]),
                NEGATIVE => tighten(&mut req, [fall_early, fall_late, rise_early, rise_late]),
                _ => {
                    tighten(&mut req, [rise_early, rise_late, rise_early, rise_late]);
                    tighten(&mut req, [fall_early, fall_late, fall_early, fall_late]);
                }
            }
        }
        store(&d.required[v.index()], req);
    }

    /// The input transitions that cause output transition `tr_out` across
    /// arc `a`, each with its late delay: the delay a path through `a` on
    /// that input transition adds. Where one input transition causes
    /// `tr_out` that is the cached delay. A non-unate cell arc caches the
    /// worst over both, so there each input transition gets its own
    /// `table(late input slew, load) ÷ drive`, bit-identical to the value
    /// `cell_corner` computes before it merges the two.
    pub(crate) fn late_delays(&self, a: u32, tr_out: Tr) -> impl Iterator<Item = (Tr, f32)> + '_ {
        let (soa, ai) = (self.graph.arc_soa(self.netlist), a as usize);
        let cached = self.data.arc_delay[ai][corner(tr_out, Mode::Late)].load();
        let tr_ins = match soa.sense[ai] {
            POSITIVE => causes::<POSITIVE>(tr_out),
            NEGATIVE => causes::<NEGATIVE>(tr_out),
            _ => causes::<NON_UNATE>(tr_out),
        };
        tr_ins.iter().map(move |&tr_in| {
            if tr_ins.len() == 1 {
                return (tr_in, cached);
            }
            let t = &self.library.cell_by_index(soa.cell_idx[ai] as usize).tables;
            let table = [&t.delay_rise, &t.delay_fall][tr_out as usize];
            let [drive, cap] = load(&self.data.elec[soa.to[ai] as usize]);
            let slew = self.data.slew(NodeId(soa.from[ai]), tr_in, Mode::Late);
            (
                tr_in,
                table.lookup_at(slew, table.load_bracket(cap)) / drive,
            )
        })
    }
}

/// `min` that propagates NaN instead of discarding it (IEEE `minNum`, and
/// hence `f32::min`, treats NaN as missing data; for slack folds NaN means
/// *unknown*, which must dominate).
#[inline]
fn nan_preserving_min(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else {
        a.min(b)
    }
}

/// Output corner `C` (`corner(tr_out, mode)`) of one cell arc: the arc's
/// delay at `C`, with the corner's arrival and slew merged into `rec`.
/// `tabs`, `lbs`, `drive` and `rec` are [`TimingPropagator::cell_fanin`]'s,
/// `u` the fan-in's record and `sb` its slew brackets. Always inlined with
/// `C` and `SENSE` constant, so the corner's transition, mode and causing
/// input transitions are known at compile time.
#[inline(always)]
fn cell_corner<const SHARED: bool, const SENSE: u8, const C: usize>(
    tabs: &[[&Lut2D; 2]; 2],
    lbs: &[[LoadBracket; 2]; 2],
    u: &[f32; 8],
    sb: &[SlewBracket; 4],
    drive: f32,
    rec: &mut [f32; 8],
) -> f32 {
    let (tr_out, mode) = (TRS[C / 2], MODES[C % 2]);
    let ([dtab, stab], [dlb, slb]) = (tabs[C / 2], lbs[C / 2]);
    let mut best_at = pick_init(mode);
    let mut best_sv = pick_init(mode);
    let mut best_delay = pick_init(mode);
    for &tr_in in causes::<SENSE>(tr_out) {
        let c = corner(tr_in, mode);
        let (dl, sl) = if SHARED {
            (
                dtab.lookup_bracketed(sb[c], dlb),
                stab.lookup_bracketed(sb[c], slb),
            )
        } else {
            (dtab.lookup_at(u[4 + c], dlb), stab.lookup_at(u[4 + c], slb))
        };
        let delay = dl / drive;
        let sv = sl / drive;
        let at = u[c] + delay;
        merge(&mut best_at, at, mode);
        merge(&mut best_sv, sv, mode);
        merge(&mut best_delay, delay, mode);
    }
    merge(&mut rec[C], best_at, mode);
    merge(&mut rec[4 + C], best_sv, mode);
    best_delay
}

/// Tighten the required-time corners `req` by `r`, lane by lane: an early
/// lane takes the max, a late lane the min.
#[inline]
fn tighten(req: &mut [f32; 4], [re, rl, fe, fl]: [f32; 4]) {
    *req = [
        req[0].max(re),
        req[1].min(rl),
        req[2].max(fe),
        req[3].min(fl),
    ];
}

/// The input transitions that cause output transition `tr` across a cell
/// arc of sense `SENSE` ([`TimingSense`] as `u8`): a list known at compile
/// time once `tr` is.
#[inline]
fn causes<const SENSE: u8>(tr: Tr) -> &'static [Tr] {
    match (SENSE, tr) {
        (POSITIVE, Tr::Rise) | (NEGATIVE, Tr::Fall) => &[Tr::Rise],
        (POSITIVE, Tr::Fall) | (NEGATIVE, Tr::Rise) => &[Tr::Fall],
        _ => &TRS,
    }
}

/// The values of `cells`.
#[inline]
fn load<const N: usize>(cells: &[AtomicF32; N]) -> [f32; N] {
    std::array::from_fn(|i| cells[i].load())
}

/// Store `x` into `cells`.
#[inline]
fn store<const N: usize>(cells: &[AtomicF32; N], x: [f32; N]) {
    for (c, x) in cells.iter().zip(x) {
        c.store(x);
    }
}

/// Merge `x` into the running corner value: max for late, min for early.
#[inline]
fn merge(slot: &mut f32, x: f32, mode: Mode) {
    *slot = match mode {
        Mode::Early => slot.min(x),
        Mode::Late => slot.max(x),
    };
}

/// Identity element of the corner merge.
#[inline]
fn pick_init(mode: Mode) -> f32 {
    match mode {
        Mode::Early => f32::INFINITY,
        Mode::Late => f32::NEG_INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::CellKind;
    use crate::netlist::NetlistBuilder;

    struct Fixture {
        netlist: Netlist,
        graph: TimingGraph,
        library: CellLibrary,
    }

    /// a -> INV(u1) -> INV(u2) -> y
    fn inv_chain() -> Fixture {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let g1 = nb.add_gate("u1", CellKind::Inv);
        let g2 = nb.add_gate("u2", CellKind::Inv);
        let y = nb.add_primary_output("y");
        nb.connect_to_gate(a, g1, 0).expect("valid");
        nb.connect_gates(g1, g2, 0).expect("valid");
        nb.connect_to_output(g2, y).expect("valid");
        let library = CellLibrary::typical();
        let netlist = nb.build().expect("well-formed");
        let graph = TimingGraph::build(&netlist, &library).expect("acyclic");
        Fixture {
            netlist,
            graph,
            library,
        }
    }

    fn full_pass(f: &Fixture, data: &TimingData) {
        let prop = TimingPropagator {
            graph: &f.graph,
            netlist: &f.netlist,
            library: &f.library,
            data,
        };
        // Forward in a topological order of nodes, backward in reverse.
        let order = topo_nodes(&f.graph);
        for &v in &order {
            prop.fprop(NodeId(v));
        }
        for &v in order.iter().rev() {
            prop.bprop(NodeId(v));
        }
    }

    fn topo_nodes(g: &TimingGraph) -> Vec<u32> {
        let n = g.num_nodes();
        let mut indeg: Vec<u32> = (0..n)
            .map(|v| g.fanin(NodeId(v as u32)).len() as u32)
            .collect();
        let mut stack: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = stack.pop() {
            order.push(u);
            for &a in g.fanout(NodeId(u)) {
                let v = g.arc(a).to.0;
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    stack.push(v);
                }
            }
        }
        order
    }

    #[test]
    fn arrivals_increase_along_the_chain() {
        let f = inv_chain();
        let data = TimingData::new(&f.graph, &f.netlist, &f.library);
        full_pass(&f, &data);

        let u1_out = f.graph.gate_output_node(crate::GateId(0));
        let u2_out = f.graph.gate_output_node(crate::GateId(1));
        let po = NodeId(f.graph.endpoints()[0]);
        let a1 = data.arrival(u1_out, Tr::Rise, Mode::Late);
        let a2 = data.arrival(u2_out, Tr::Rise, Mode::Late);
        let a3 = data.arrival(po, Tr::Rise, Mode::Late);
        assert!(a1 > 0.0, "first stage has positive delay, got {a1}");
        assert!(a2 > a1, "arrival must grow: {a2} vs {a1}");
        assert!(a3 > a2);
    }

    #[test]
    fn early_is_never_later_than_late() {
        let f = inv_chain();
        let data = TimingData::new(&f.graph, &f.netlist, &f.library);
        full_pass(&f, &data);
        for v in 0..f.graph.num_nodes() as u32 {
            for &tr in &TRS {
                let e = data.arrival(NodeId(v), tr, Mode::Early);
                let l = data.arrival(NodeId(v), tr, Mode::Late);
                assert!(e <= l, "node {v}: early {e} > late {l}");
            }
        }
    }

    #[test]
    fn slack_is_required_minus_arrival() {
        let f = inv_chain();
        let data = TimingData::new(&f.graph, &f.netlist, &f.library);
        full_pass(&f, &data);
        let po = NodeId(f.graph.endpoints()[0]);
        let s = data.slack_late(po);
        let by_hand = TRS
            .iter()
            .map(|&tr| data.required(po, tr, Mode::Late) - data.arrival(po, tr, Mode::Late))
            .fold(f32::INFINITY, f32::min);
        assert_eq!(s, by_hand);
        // With a 1 ns clock and two inverters, slack must be positive.
        assert!(s > 0.0, "tiny chain meets 1 ns easily, slack {s}");
    }

    #[test]
    fn required_tightens_backwards() {
        // required at u1 output must be earlier (smaller) than at the PO:
        // upstream nodes have to arrive earlier to leave room for
        // downstream delay.
        let f = inv_chain();
        let data = TimingData::new(&f.graph, &f.netlist, &f.library);
        full_pass(&f, &data);
        let u1_out = f.graph.gate_output_node(crate::GateId(0));
        let po = NodeId(f.graph.endpoints()[0]);
        assert!(
            data.required(u1_out, Tr::Rise, Mode::Late) < data.required(po, Tr::Rise, Mode::Late)
        );
    }

    #[test]
    fn repower_speeds_up_the_gate() {
        let f = inv_chain();
        let data = TimingData::new(&f.graph, &f.netlist, &f.library);
        full_pass(&f, &data);
        let po = NodeId(f.graph.endpoints()[0]);
        let slow = data.arrival(po, Tr::Rise, Mode::Late);

        // Double u2's drive; its cell delay halves (its input cap grows,
        // which loads u1's net — recompute it too).
        data.set_drive(f.graph.gate_output_node(crate::GateId(1)), 2.0);
        for net in 0..f.netlist.num_nets() as u32 {
            data.recompute_net(net, &f.graph, &f.netlist, &f.library);
        }
        full_pass(&f, &data);
        let fast = data.arrival(po, Tr::Rise, Mode::Late);
        assert!(
            fast < slow,
            "repowered path must be faster: {fast} vs {slow}"
        );
    }

    #[test]
    fn net_cap_increases_delay() {
        let f = inv_chain();
        let data = TimingData::new(&f.graph, &f.netlist, &f.library);
        full_pass(&f, &data);
        let po = NodeId(f.graph.endpoints()[0]);
        let before = data.arrival(po, Tr::Rise, Mode::Late);
        let net_delay = |v: NodeId| data.elec[v.index()][NET_DELAY].load();
        let d0 = net_delay(po);

        // Fatten every net by 10 fF: its delay sits at each sink node.
        for v in 0..f.graph.num_nodes() as u32 {
            let v = NodeId(v);
            if matches!(
                f.graph.node_kind(v),
                NodeKind::GateInput(..) | NodeKind::PrimaryOutput(_)
            ) {
                let extra = 10.0 * f.library.wire_res_ps_per_ff;
                data.elec[v.index()][NET_DELAY].store(net_delay(v) + extra);
            }
        }
        full_pass(&f, &data);
        let after = data.arrival(po, Tr::Rise, Mode::Late);
        assert!(after > before, "more wire cap, more delay");
        assert!(net_delay(po) > d0);
    }

    #[test]
    fn dff_launch_and_capture() {
        // a -> DFF -> INV -> DFF(D): the second DFF's D pin is an endpoint
        // with a setup-adjusted requirement; the first DFF's output
        // launches at clk-to-q.
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let ff1 = nb.add_gate("ff1", CellKind::Dff);
        let g = nb.add_gate("u1", CellKind::Inv);
        let ff2 = nb.add_gate("ff2", CellKind::Dff);
        let y = nb.add_primary_output("y");
        nb.connect_to_gate(a, ff1, 0).expect("valid");
        nb.connect_gates(ff1, g, 0).expect("valid");
        nb.connect_gates(g, ff2, 0).expect("valid");
        nb.connect_to_output(ff2, y).expect("valid");
        let library = CellLibrary::typical();
        let netlist = nb.build().expect("well-formed");
        let graph = TimingGraph::build(&netlist, &library).expect("acyclic");
        let f = Fixture {
            netlist,
            graph,
            library,
        };
        let data = TimingData::new(&f.graph, &f.netlist, &f.library);
        full_pass(&f, &data);

        let q1 = f.graph.gate_output_node(crate::GateId(0));
        let clk2q = f.library.cell(CellKind::Dff).clk_to_q_ps;
        assert_eq!(data.arrival(q1, Tr::Rise, Mode::Late), clk2q);

        let d2 = f.graph.gate_input_node(crate::GateId(2), 0);
        let setup = f.library.cell(CellKind::Dff).setup_ps;
        assert_eq!(
            data.required(d2, Tr::Rise, Mode::Late),
            data.clock_period_ps - setup
        );
        assert!(data.slack_late(d2) > 0.0);
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let f = inv_chain();
        let mut data = TimingData::new(&f.graph, &f.netlist, &f.library);
        full_pass(&f, &data);
        // Include awkward values: NaN (unknown marker), signed zero.
        data.mark_arrival_unknown(NodeId(1));
        data.required[0][corner(Tr::Rise, Mode::Late)].store(-0.0);
        let snap = data.snapshot(&f.graph, &f.netlist);

        // Scramble the state, then restore.
        data.clock_period_ps = 123.0;
        full_pass(&f, &data);
        data.set_drive(f.graph.gate_output_node(crate::GateId(0)), 7.0);
        data.restore(&snap, &f.graph, &f.netlist)
            .expect("shapes match");
        assert_eq!(
            data.snapshot(&f.graph, &f.netlist),
            snap,
            "restore is bit-exact"
        );
        assert!(data.arrival(NodeId(1), Tr::Rise, Mode::Late).is_nan());
        assert!(data
            .required(NodeId(0), Tr::Rise, Mode::Late)
            .is_sign_negative());
    }

    #[test]
    fn mismatched_snapshot_is_rejected_before_any_store() {
        let f = inv_chain();
        let mut data = TimingData::new(&f.graph, &f.netlist, &f.library);
        full_pass(&f, &data);
        let before = data.snapshot(&f.graph, &f.netlist);
        let mut bad = before.clone();
        bad.arc_delay.pop();
        bad.clock_period_bits = 0.0f32.to_bits();
        let err = data
            .restore(&bad, &f.graph, &f.netlist)
            .expect_err("shape mismatch");
        assert_eq!(err.field, "arc_delay");
        assert!(err.to_string().contains("arc_delay"));
        assert_eq!(
            data.snapshot(&f.graph, &f.netlist),
            before,
            "failed restore must not write"
        );
    }

    #[test]
    fn xor_takes_worst_of_both_input_transitions() {
        // XOR is non-unate: its late arrival must be >= what a positive-
        // unate cell with the same tables would produce.
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let b = nb.add_primary_input("b");
        let x = nb.add_gate("x1", CellKind::Xor2);
        let y = nb.add_primary_output("y");
        nb.connect_to_gate(a, x, 0).expect("valid");
        nb.connect_to_gate(b, x, 1).expect("valid");
        nb.connect_to_output(x, y).expect("valid");
        let library = CellLibrary::typical();
        let netlist = nb.build().expect("well-formed");
        let graph = TimingGraph::build(&netlist, &library).expect("acyclic");
        let f = Fixture {
            netlist,
            graph,
            library,
        };
        let data = TimingData::new(&f.graph, &f.netlist, &f.library);
        full_pass(&f, &data);
        let out = f.graph.gate_output_node(crate::GateId(0));
        // Both input transitions reach the XOR with identical arrivals and
        // slews, so each output transition's late arrival is simply its own
        // table's delay; the rise table is characterised slower than fall.
        let fall = data.arrival(out, Tr::Fall, Mode::Late);
        let rise = data.arrival(out, Tr::Rise, Mode::Late);
        assert!(
            rise > fall,
            "rise edges are slower in the library: {rise} vs {fall}"
        );
        // And late >= early on the non-unate output.
        assert!(data.arrival(out, Tr::Rise, Mode::Early) <= rise);
    }
}
