//! The flattened pin-level timing graph.
//!
//! Nodes are pins (primary I/Os, gate input pins, gate output pins); edges
//! are timing arcs: *net arcs* from a driver pin to each sink pin, and
//! *cell arcs* from each gate input pin to the gate's output pin. D
//! flip-flops break paths: their `D` pin is a timing endpoint and their
//! output pin launches a fresh path, so there is no `D -> Q` cell arc.

use crate::library::{CellKind, CellLibrary, TimingSense};
use crate::netlist::{GateId, Netlist, PinRef};
use gpasta_tdg::BuildTdgError;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Identifier of a timing-graph node (a pin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A primary input port.
    PrimaryInput(u32),
    /// A primary output port.
    PrimaryOutput(u32),
    /// Input pin `1` of gate `0`.
    GateInput(u32, u8),
    /// The output pin of gate `0`.
    GateOutput(u32),
}

/// The flavour of a timing arc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArcKind {
    /// Interconnect from a driver pin to one sink pin of net `net`.
    Net {
        /// Index into [`Netlist::nets`].
        net: u32,
    },
    /// A cell arc through gate `gate` (input pin to output pin).
    Cell {
        /// The traversed gate.
        gate: u32,
    },
}

/// One timing arc: endpoints plus flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingArcRef {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Net or cell arc.
    pub kind: ArcKind,
}

/// The pin-level timing graph in CSR form with per-edge arc metadata.
#[derive(Debug, Clone)]
pub struct TimingGraph {
    node_kind: Vec<NodeKind>,
    arcs: Vec<TimingArcRef>,
    fwd_off: Vec<u32>,
    fwd_arc: Vec<u32>,
    rev_off: Vec<u32>,
    rev_arc: Vec<u32>,
    /// Node ids that launch paths (primary inputs, DFF outputs).
    sources: Vec<u32>,
    /// Node ids that terminate paths (primary outputs, DFF `D` pins).
    endpoints: Vec<u32>,
    /// Index of the first gate-input node (see node-numbering scheme).
    gate_in_base: u32,
    /// Per-gate offset of its first input-pin node.
    gate_in_off: Vec<u32>,
    /// Index of the first gate-output node.
    gate_out_base: u32,
    /// Index of the first primary-output node.
    po_base: u32,
    /// Node ids sorted by `(longest-path level, node id)`: a topological
    /// order of the arcs, kept from the acyclicity drain of
    /// [`TimingGraph::build`]. `Timer::update_timing` numbers its tasks
    /// along it.
    level_order: Vec<u32>,
    /// Lazily built flat arc view for the propagation hot path.
    soa: OnceLock<ArcSoa>,
    /// Lazily built position-space adjacency for cone discovery.
    level_view: OnceLock<LevelView>,
}

/// The arcs in *position space*: node `v` is named by its position
/// `rank[v]` in [`TimingGraph::level_order`], and the node at position `r`
/// lists the positions of its fan-out (all above `r`) and fan-in (all below
/// `r`) nodes, CSR. Cone discovery sweeps positions in order, so it reads
/// these arrays front to back (or back to front) instead of chasing
/// `rev_off -> rev_arc -> arcs[a]` per step.
///
/// Derived state like [`ArcSoa`]: a pure function of the graph, built by
/// the first partial cone (a whole-design update never asks for it), about
/// `12 n + 8 arcs` bytes, off the wire and out of equality.
#[derive(Debug, Clone)]
pub(crate) struct LevelView {
    /// Node id to position in the level order (its inverse).
    pub(crate) rank: Vec<u32>,
    succ_off: Vec<u32>,
    succ: Vec<u32>,
    pred_off: Vec<u32>,
    pred: Vec<u32>,
}

impl LevelView {
    fn build(graph: &TimingGraph) -> Self {
        let order = &graph.level_order;
        let mut rank = vec![0u32; order.len()];
        for (r, &v) in order.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        let (succ_off, succ) = position_csr(graph, &rank, |v| graph.fanout(v), |arc| arc.to);
        let (pred_off, pred) = position_csr(graph, &rank, |v| graph.fanin(v), |arc| arc.from);
        LevelView {
            rank,
            succ_off,
            succ,
            pred_off,
            pred,
        }
    }

    /// Positions of the fan-out nodes of the node at position `r`.
    #[inline]
    pub(crate) fn succ(&self, r: usize) -> &[u32] {
        &self.succ[self.succ_off[r] as usize..self.succ_off[r + 1] as usize]
    }

    /// Positions of the fan-in nodes of the node at position `r`.
    #[inline]
    pub(crate) fn pred(&self, r: usize) -> &[u32] {
        &self.pred[self.pred_off[r] as usize..self.pred_off[r + 1] as usize]
    }

    /// One sweep over the level order: `visit` every position set in
    /// `bits` — ascending when `UP`, else descending — and, where it
    /// returns `true`, set the positions of that node's fan-out (`UP`) or
    /// fan-in. An arc goes up the order, so those lie strictly ahead and
    /// the same sweep reaches them. Every word is zeroed once it is read
    /// out: `bits` ends all zero.
    pub(crate) fn sweep<const UP: bool>(
        &self,
        bits: &mut [u64],
        mut visit: impl FnMut(u32) -> bool,
    ) {
        for i in 0..bits.len() {
            let w = if UP { i } else { bits.len() - 1 - i };
            let mut todo = bits[w];
            while todo != 0 {
                let bit = if UP {
                    todo.trailing_zeros()
                } else {
                    63 - todo.leading_zeros()
                };
                let r = w as u32 * 64 + bit;
                if visit(r) {
                    let ahead = if UP {
                        self.succ(r as usize)
                    } else {
                        self.pred(r as usize)
                    };
                    for &s in ahead {
                        set_bit(bits, s);
                    }
                }
                // A neighbour may share this word; it sits beyond `bit`.
                todo = bits[w] & if UP { !1 << bit } else { (1 << bit) - 1 };
            }
            bits[w] = 0;
        }
    }
}

/// Set position `r` in a position bitset.
#[inline]
pub(crate) fn set_bit(bits: &mut [u64], r: u32) {
    bits[r as usize / 64] |= 1 << (r % 64);
}

/// Whether position `r` is set in a position bitset.
#[inline]
pub(crate) fn bit_is_set(bits: &[u64], r: u32) -> bool {
    bits[r as usize / 64] >> (r % 64) & 1 == 1
}

/// One direction of [`LevelView`]: per position, the positions at the far
/// ends of the arcs `arcs_of` lists for the node there.
fn position_csr<'g>(
    graph: &'g TimingGraph,
    rank: &[u32],
    arcs_of: impl Fn(NodeId) -> &'g [u32],
    far_end: impl Fn(&TimingArcRef) -> NodeId,
) -> (Vec<u32>, Vec<u32>) {
    let mut off = Vec::with_capacity(rank.len() + 1);
    let mut adj = Vec::with_capacity(graph.arcs.len());
    off.push(0);
    for &v in &graph.level_order {
        let arcs = arcs_of(NodeId(v)).iter();
        adj.extend(arcs.map(|&a| rank[far_end(graph.arc(a)).index()]));
        off.push(adj.len() as u32);
    }
    (off, adj)
}

/// Flat structure-of-arrays view of the timing arcs, column per field.
///
/// Propagation touches every arc of a node's cone per `fprop`/`bprop`
/// call; chasing `TimingArcRef` enums plus `Netlist::gates()` entries
/// (each holding a name `String`) and a linear `CellLibrary::cell` scan
/// per arc dominated the profile. This view pre-resolves everything the
/// inner loops need into dense parallel arrays indexed by arc id, so the
/// hot path is a handful of sequential u32/u8 column loads.
///
/// Derived state: a pure function of the graph and the netlist
/// connectivity (gate cell kinds never change after `NetlistBuilder::
/// build`), cached on [`TimingGraph`] and rebuilt on deserialisation.
#[derive(Debug, Clone, PartialEq)]
pub struct ArcSoa {
    /// Source node id per arc.
    pub from: Vec<u32>,
    /// Destination node id per arc.
    pub to: Vec<u32>,
    /// Net index for net arcs, gate index for cell arcs.
    pub payload: Vec<u32>,
    /// Library cell index ([`CellLibrary::cell_index`]) for cell arcs;
    /// [`ArcSoa::NET_ARC`] for net arcs.
    pub cell_idx: Vec<u8>,
    /// Encoded [`TimingSense`] of the traversed cell arc (see
    /// [`ArcSoa::sense_of`]); `0` for net arcs.
    pub sense: Vec<u8>,
}

impl ArcSoa {
    /// `cell_idx` sentinel marking a net arc.
    pub const NET_ARC: u8 = 0xFF;

    fn build(graph: &TimingGraph, netlist: &Netlist) -> Self {
        let n = graph.arcs.len();
        let mut soa = ArcSoa {
            from: Vec::with_capacity(n),
            to: Vec::with_capacity(n),
            payload: Vec::with_capacity(n),
            cell_idx: Vec::with_capacity(n),
            sense: Vec::with_capacity(n),
        };
        for a in &graph.arcs {
            soa.from.push(a.from.0);
            soa.to.push(a.to.0);
            match a.kind {
                ArcKind::Net { net } => {
                    soa.payload.push(net);
                    soa.cell_idx.push(Self::NET_ARC);
                    soa.sense.push(0);
                }
                ArcKind::Cell { gate } => {
                    let cell = netlist.gates()[gate as usize].cell;
                    soa.payload.push(gate);
                    soa.cell_idx.push(CellLibrary::cell_index(cell) as u8);
                    soa.sense.push(match cell.sense() {
                        TimingSense::Positive => 0,
                        TimingSense::Negative => 1,
                        TimingSense::NonUnate => 2,
                    });
                }
            }
        }
        soa
    }

    /// Decode the `sense` column entry of arc `a`.
    #[inline]
    pub fn sense_of(&self, a: usize) -> TimingSense {
        match self.sense[a] {
            0 => TimingSense::Positive,
            1 => TimingSense::Negative,
            _ => TimingSense::NonUnate,
        }
    }

    /// Whether arc `a` is a net (interconnect) arc.
    #[inline]
    pub fn is_net(&self, a: usize) -> bool {
        self.cell_idx[a] == Self::NET_ARC
    }
}

// Manual impls: the cached views are derived state and must stay off
// the wire and out of equality (mirrors `Tdg` and its CSR cache).
impl PartialEq for TimingGraph {
    fn eq(&self, other: &Self) -> bool {
        self.node_kind == other.node_kind
            && self.arcs == other.arcs
            && self.fwd_off == other.fwd_off
            && self.fwd_arc == other.fwd_arc
            && self.rev_off == other.rev_off
            && self.rev_arc == other.rev_arc
            && self.sources == other.sources
            && self.endpoints == other.endpoints
            && self.gate_in_base == other.gate_in_base
            && self.gate_in_off == other.gate_in_off
            && self.gate_out_base == other.gate_out_base
            && self.po_base == other.po_base
            && self.level_order == other.level_order
    }
}

impl Serialize for TimingGraph {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Object(Vec::from([
            (String::from("node_kind"), self.node_kind.to_value()),
            (String::from("arcs"), self.arcs.to_value()),
            (String::from("fwd_off"), self.fwd_off.to_value()),
            (String::from("fwd_arc"), self.fwd_arc.to_value()),
            (String::from("rev_off"), self.rev_off.to_value()),
            (String::from("rev_arc"), self.rev_arc.to_value()),
            (String::from("sources"), self.sources.to_value()),
            (String::from("endpoints"), self.endpoints.to_value()),
            (String::from("gate_in_base"), self.gate_in_base.to_value()),
            (String::from("gate_in_off"), self.gate_in_off.to_value()),
            (String::from("gate_out_base"), self.gate_out_base.to_value()),
            (String::from("po_base"), self.po_base.to_value()),
            (String::from("level_order"), self.level_order.to_value()),
        ]))
    }
}

impl Deserialize for TimingGraph {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::value::FromValueError> {
        Ok(TimingGraph {
            node_kind: Deserialize::from_value(v.expect_field("node_kind")?)?,
            arcs: Deserialize::from_value(v.expect_field("arcs")?)?,
            fwd_off: Deserialize::from_value(v.expect_field("fwd_off")?)?,
            fwd_arc: Deserialize::from_value(v.expect_field("fwd_arc")?)?,
            rev_off: Deserialize::from_value(v.expect_field("rev_off")?)?,
            rev_arc: Deserialize::from_value(v.expect_field("rev_arc")?)?,
            sources: Deserialize::from_value(v.expect_field("sources")?)?,
            endpoints: Deserialize::from_value(v.expect_field("endpoints")?)?,
            gate_in_base: Deserialize::from_value(v.expect_field("gate_in_base")?)?,
            gate_in_off: Deserialize::from_value(v.expect_field("gate_in_off")?)?,
            gate_out_base: Deserialize::from_value(v.expect_field("gate_out_base")?)?,
            po_base: Deserialize::from_value(v.expect_field("po_base")?)?,
            level_order: Deserialize::from_value(v.expect_field("level_order")?)?,
            soa: OnceLock::new(),
            level_view: OnceLock::new(),
        })
    }
}

impl TimingGraph {
    /// Build the timing graph of `netlist` under `library`.
    ///
    /// Node numbering: primary inputs first, then all gate input pins (in
    /// gate order), then all gate output pins, then primary outputs.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTdgError::Cycle`] if the combinational logic contains
    /// a loop.
    pub fn build(netlist: &Netlist, library: &CellLibrary) -> Result<Self, BuildTdgError> {
        let _ = library; // connectivity only; electrical state lives in the Timer
        let num_pi = netlist.num_inputs() as u32;
        let mut gate_in_off = Vec::with_capacity(netlist.num_gates() + 1);
        let mut acc = num_pi;
        for g in netlist.gates() {
            gate_in_off.push(acc);
            acc += g.cell.num_inputs() as u32;
        }
        gate_in_off.push(acc);
        let gate_in_base = num_pi;
        let gate_out_base = acc;
        let po_base = gate_out_base + netlist.num_gates() as u32;
        let num_nodes = po_base + netlist.num_outputs() as u32;

        let node_of = |pin: PinRef| -> u32 {
            match pin {
                PinRef::PrimaryInput(p) => p.0,
                PinRef::GateInput(g, pin) => gate_in_off[g.index()] + u32::from(pin),
                PinRef::GateOutput(g) => gate_out_base + g.0,
                PinRef::PrimaryOutput(p) => po_base + p.0,
            }
        };

        let mut node_kind = Vec::with_capacity(num_nodes as usize);
        for p in 0..num_pi {
            node_kind.push(NodeKind::PrimaryInput(p));
        }
        for (g, gate) in netlist.gates().iter().enumerate() {
            for pin in 0..gate.cell.num_inputs() as u8 {
                node_kind.push(NodeKind::GateInput(g as u32, pin));
            }
        }
        for g in 0..netlist.num_gates() as u32 {
            node_kind.push(NodeKind::GateOutput(g));
        }
        for p in 0..netlist.num_outputs() as u32 {
            node_kind.push(NodeKind::PrimaryOutput(p));
        }

        // Arcs: net arcs then cell arcs.
        let mut arcs = Vec::new();
        for (n, net) in netlist.nets().iter().enumerate() {
            let from = NodeId(node_of(net.driver));
            for &sink in &net.sinks {
                arcs.push(TimingArcRef {
                    from,
                    to: NodeId(node_of(sink)),
                    kind: ArcKind::Net { net: n as u32 },
                });
            }
        }
        for (g, gate) in netlist.gates().iter().enumerate() {
            if gate.cell.is_sequential() {
                continue; // no D -> Q combinational arc
            }
            let out = NodeId(gate_out_base + g as u32);
            for pin in 0..gate.cell.num_inputs() as u8 {
                arcs.push(TimingArcRef {
                    from: NodeId(gate_in_off[g] + u32::from(pin)),
                    to: out,
                    kind: ArcKind::Cell { gate: g as u32 },
                });
            }
        }

        // CSR over arcs (forward and reverse).
        let n = num_nodes as usize;
        let mut fwd_off = vec![0u32; n + 1];
        let mut rev_off = vec![0u32; n + 1];
        for a in &arcs {
            fwd_off[a.from.index() + 1] += 1;
            rev_off[a.to.index() + 1] += 1;
        }
        for i in 0..n {
            fwd_off[i + 1] += fwd_off[i];
            rev_off[i + 1] += rev_off[i];
        }
        let mut fwd_arc = vec![0u32; arcs.len()];
        let mut rev_arc = vec![0u32; arcs.len()];
        {
            let mut fc = fwd_off.clone();
            let mut rc = rev_off.clone();
            for (i, a) in arcs.iter().enumerate() {
                let f = &mut fc[a.from.index()];
                fwd_arc[*f as usize] = i as u32;
                *f += 1;
                let r = &mut rc[a.to.index()];
                rev_arc[*r as usize] = i as u32;
                *r += 1;
            }
        }

        // Sources and endpoints.
        let mut sources = Vec::new();
        let mut endpoints = Vec::new();
        for (i, kind) in node_kind.iter().enumerate() {
            match *kind {
                NodeKind::PrimaryInput(_) => sources.push(i as u32),
                NodeKind::PrimaryOutput(_) => endpoints.push(i as u32),
                NodeKind::GateOutput(g) => {
                    if netlist.gates()[g as usize].cell.is_sequential() {
                        sources.push(i as u32);
                    }
                }
                NodeKind::GateInput(g, pin) => {
                    let cell = netlist.gates()[g as usize].cell;
                    if cell.is_sequential() && pin == 0 {
                        endpoints.push(i as u32); // DFF D pin
                    }
                }
            }
        }

        let mut graph = TimingGraph {
            node_kind,
            arcs,
            fwd_off,
            fwd_arc,
            rev_off,
            rev_arc,
            sources,
            endpoints,
            gate_in_base,
            gate_in_off,
            gate_out_base,
            po_base,
            level_order: Vec::new(),
            soa: OnceLock::new(),
            level_view: OnceLock::new(),
        };

        // Acyclicity check (combinational loops). A node is popped only
        // after all its fan-in, so its longest-path level is final then.
        let mut indeg: Vec<u32> = (0..n)
            .map(|v| graph.fanin(NodeId(v as u32)).len() as u32)
            .collect();
        let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut level = vec![0u32; n];
        let mut visited = 0;
        while let Some(u) = queue.pop() {
            visited += 1;
            let below = level[u as usize] + 1;
            for &a in graph.fanout(NodeId(u)) {
                let v = graph.arcs[a as usize].to.0;
                level[v as usize] = level[v as usize].max(below);
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    queue.push(v);
                }
            }
        }
        if visited != n {
            let witness = indeg.iter().position(|&d| d > 0).unwrap_or(0) as u32;
            return Err(BuildTdgError::Cycle { witness });
        }

        // Level order: a counting sort of the nodes by level, ascending
        // node id within a level.
        let depth = level.iter().max().map_or(0, |&l| l as usize + 1);
        let mut cursor = vec![0u32; depth + 1];
        for &l in &level {
            cursor[l as usize + 1] += 1;
        }
        for l in 0..depth {
            cursor[l + 1] += cursor[l];
        }
        graph.level_order = vec![0; n];
        for (v, &l) in level.iter().enumerate() {
            let r = &mut cursor[l as usize];
            graph.level_order[*r as usize] = v as u32;
            *r += 1;
        }

        Ok(graph)
    }

    /// Node ids sorted by `(longest-path level, node id)`; every arc goes
    /// from an earlier to a later position.
    #[inline]
    pub(crate) fn level_order(&self) -> &[u32] {
        &self.level_order
    }

    /// The arcs in position space, built on first use.
    #[inline]
    pub(crate) fn level_view(&self) -> &LevelView {
        self.level_view.get_or_init(|| LevelView::build(self))
    }

    #[cfg(test)]
    pub(crate) fn has_level_view(&self) -> bool {
        self.level_view.get().is_some()
    }

    /// Number of nodes (pins).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_kind.len()
    }

    /// Number of timing arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// All arcs, indexed by arc id.
    #[inline]
    pub fn arcs(&self) -> &[TimingArcRef] {
        &self.arcs
    }

    /// The arc with id `a`.
    #[inline]
    pub fn arc(&self, a: u32) -> &TimingArcRef {
        &self.arcs[a as usize]
    }

    /// Arc ids leaving `v`.
    #[inline]
    pub fn fanout(&self, v: NodeId) -> &[u32] {
        &self.fwd_arc[self.fwd_off[v.index()] as usize..self.fwd_off[v.index() + 1] as usize]
    }

    /// Arc ids entering `v`.
    #[inline]
    pub fn fanin(&self, v: NodeId) -> &[u32] {
        &self.rev_arc[self.rev_off[v.index()] as usize..self.rev_off[v.index() + 1] as usize]
    }

    /// What node `v` represents.
    #[inline]
    pub fn node_kind(&self, v: NodeId) -> NodeKind {
        self.node_kind[v.index()]
    }

    /// Nodes that launch timing paths (primary inputs and DFF outputs).
    #[inline]
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// Nodes that terminate timing paths (primary outputs and DFF D pins).
    #[inline]
    pub fn endpoints(&self) -> &[u32] {
        &self.endpoints
    }

    /// The node of gate `g`'s output pin.
    #[inline]
    pub fn gate_output_node(&self, g: GateId) -> NodeId {
        NodeId(self.gate_out_base + g.0)
    }

    /// The node of input pin `pin` of gate `g`.
    #[inline]
    pub fn gate_input_node(&self, g: GateId, pin: u8) -> NodeId {
        NodeId(self.gate_in_off[g.index()] + u32::from(pin))
    }

    /// Where `v` is in [`endpoints`](TimingGraph::endpoints), if it is a
    /// path endpoint.
    pub fn endpoint_index(&self, v: NodeId) -> Option<u32> {
        match self.node_kind(v) {
            NodeKind::PrimaryOutput(_) | NodeKind::GateInput(_, 0) => {
                self.endpoints.binary_search(&v.0).ok().map(|i| i as u32)
            }
            _ => None,
        }
    }

    /// Whether `v` is a path endpoint.
    pub fn is_endpoint(&self, v: NodeId) -> bool {
        self.endpoint_index(v).is_some()
    }

    /// The flat arc view for the propagation hot path, built on first use.
    ///
    /// `netlist` must be the netlist this graph was built from (only its
    /// immutable connectivity — gate cell kinds — is read).
    #[inline]
    pub fn arc_soa(&self, netlist: &Netlist) -> &ArcSoa {
        self.soa.get_or_init(|| ArcSoa::build(self, netlist))
    }

    /// The cell kind a gate-related node belongs to, if any.
    pub fn cell_of(&self, v: NodeId, netlist: &Netlist) -> Option<CellKind> {
        match self.node_kind(v) {
            NodeKind::GateInput(g, _) | NodeKind::GateOutput(g) => {
                Some(netlist.gates()[g as usize].cell)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    /// a,b -> NAND2 -> INV -> y
    fn nand_inv() -> (Netlist, TimingGraph) {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let b = nb.add_primary_input("b");
        let g1 = nb.add_gate("u1", CellKind::Nand2);
        let g2 = nb.add_gate("u2", CellKind::Inv);
        let y = nb.add_primary_output("y");
        nb.connect_to_gate(a, g1, 0).expect("valid");
        nb.connect_to_gate(b, g1, 1).expect("valid");
        nb.connect_gates(g1, g2, 0).expect("valid");
        nb.connect_to_output(g2, y).expect("valid");
        let n = nb.build().expect("well-formed");
        let g = TimingGraph::build(&n, &CellLibrary::typical()).expect("acyclic");
        (n, g)
    }

    #[test]
    fn node_and_arc_counts() {
        let (_n, g) = nand_inv();
        // Nodes: 2 PI + 3 gate inputs (2 + 1) + 2 gate outputs + 1 PO = 8.
        assert_eq!(g.num_nodes(), 8);
        // Arcs: nets a->u1.0, b->u1.1, u1->u2.0, u2->y (4 net arcs)
        //       + cell arcs u1 (2), u2 (1) = 7.
        assert_eq!(g.num_arcs(), 7);
    }

    #[test]
    fn sources_and_endpoints() {
        let (_n, g) = nand_inv();
        assert_eq!(g.sources(), &[0, 1]);
        assert_eq!(g.endpoints().len(), 1);
        let ep = NodeId(g.endpoints()[0]);
        assert!(matches!(g.node_kind(ep), NodeKind::PrimaryOutput(0)));
        assert!(g.is_endpoint(ep));
        assert!(!g.is_endpoint(NodeId(0)));
    }

    #[test]
    fn fanin_fanout_consistency() {
        let (_n, g) = nand_inv();
        for (i, arc) in g.arcs().iter().enumerate() {
            assert!(g.fanout(arc.from).contains(&(i as u32)));
            assert!(g.fanin(arc.to).contains(&(i as u32)));
        }
        let total_out: usize = (0..g.num_nodes())
            .map(|v| g.fanout(NodeId(v as u32)).len())
            .sum();
        assert_eq!(total_out, g.num_arcs());
    }

    #[test]
    fn gate_pin_node_mapping() {
        let (n, g) = nand_inv();
        let u1 = GateId(0);
        let in0 = g.gate_input_node(u1, 0);
        assert!(matches!(g.node_kind(in0), NodeKind::GateInput(0, 0)));
        let out = g.gate_output_node(u1);
        assert!(matches!(g.node_kind(out), NodeKind::GateOutput(0)));
        assert_eq!(g.cell_of(out, &n), Some(CellKind::Nand2));
        assert_eq!(g.cell_of(NodeId(0), &n), None);
    }

    #[test]
    fn dff_breaks_paths() {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let ff = nb.add_gate("ff1", CellKind::Dff);
        let g = nb.add_gate("u1", CellKind::Inv);
        let y = nb.add_primary_output("y");
        nb.connect_to_gate(a, ff, 0).expect("valid");
        nb.connect_gates(ff, g, 0).expect("valid");
        nb.connect_to_output(g, y).expect("valid");
        let netlist = nb.build().expect("well-formed");
        let tg = TimingGraph::build(&netlist, &CellLibrary::typical()).expect("acyclic");

        // Sources: PI a and the DFF output. Endpoints: PO y and the DFF D pin.
        assert_eq!(tg.sources().len(), 2);
        assert_eq!(tg.endpoints().len(), 2);
        // No cell arc into the DFF output node.
        let ff_out = tg.gate_output_node(ff);
        assert!(
            tg.fanin(ff_out).is_empty(),
            "DFF output launches a fresh path"
        );
        let d_pin = tg.gate_input_node(ff, 0);
        assert!(tg.fanout(d_pin).is_empty(), "DFF D pin terminates its path");
        assert!(tg.is_endpoint(d_pin));
    }

    #[test]
    fn combinational_loop_detected() {
        // Two inverters in a ring (plus taps to keep the netlist legal).
        let mut nb = NetlistBuilder::new();
        let g1 = nb.add_gate("u1", CellKind::Inv);
        let g2 = nb.add_gate("u2", CellKind::Inv);
        let y = nb.add_primary_output("y");
        nb.connect_gates(g1, g2, 0).expect("valid");
        nb.connect_gates(g2, g1, 0).expect("valid");
        nb.connect_to_output(g1, y).expect("valid");
        let netlist = nb.build().expect("structurally complete");
        assert!(matches!(
            TimingGraph::build(&netlist, &CellLibrary::typical()),
            Err(BuildTdgError::Cycle { .. })
        ));
    }

    #[test]
    fn arc_soa_mirrors_arcs() {
        let (n, g) = nand_inv();
        let soa = g.arc_soa(&n);
        assert_eq!(soa.from.len(), g.num_arcs());
        for (i, arc) in g.arcs().iter().enumerate() {
            assert_eq!(soa.from[i], arc.from.0);
            assert_eq!(soa.to[i], arc.to.0);
            match arc.kind {
                ArcKind::Net { net } => {
                    assert!(soa.is_net(i));
                    assert_eq!(soa.payload[i], net);
                    assert_eq!(soa.sense[i], 0);
                }
                ArcKind::Cell { gate } => {
                    assert!(!soa.is_net(i));
                    assert_eq!(soa.payload[i], gate);
                    let cell = n.gates()[gate as usize].cell;
                    assert_eq!(soa.cell_idx[i] as usize, CellLibrary::cell_index(cell));
                    assert_eq!(soa.sense_of(i), cell.sense());
                }
            }
        }
        // Cached: the same reference comes back.
        assert!(std::ptr::eq(soa, g.arc_soa(&n)));
    }

    #[test]
    fn serde_round_trip_skips_soa_cache() {
        let (n, g) = nand_inv();
        let _ = g.arc_soa(&n); // populate the cache before serialising
        let v = g.to_value();
        let back = TimingGraph::from_value(&v).expect("round trip");
        assert_eq!(back, g);
        // The restored graph rebuilds an identical SoA on demand.
        assert_eq!(back.arc_soa(&n), g.arc_soa(&n));
    }

    #[test]
    fn empty_netlist_graph() {
        let netlist = NetlistBuilder::new().build().expect("empty is fine");
        let g = TimingGraph::build(&netlist, &CellLibrary::typical()).expect("trivially acyclic");
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_arcs(), 0);
        assert!(g.sources().is_empty());
    }
}
