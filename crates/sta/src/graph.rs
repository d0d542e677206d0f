//! The flattened pin-level timing graph.
//!
//! Nodes are pins (primary I/Os, gate input pins, gate output pins); edges
//! are timing arcs: *net arcs* from a driver pin to each sink pin, and
//! *cell arcs* from each gate input pin to the gate's output pin. D
//! flip-flops break paths: their `D` pin is a timing endpoint and their
//! output pin launches a fresh path, so there is no `D -> Q` cell arc.

use crate::library::CellLibrary;
use crate::netlist::{GateId, Netlist, PinRef, PortId};
use gpasta_tdg::{BuildTdgError, Checksum};
use serde::{Deserialize, Serialize};
use std::ops::Range;
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
///
/// A node's id is its position in the level order: nodes sort by
/// longest-path level, then by pin number (see [`TimingGraph::build`]), so
/// every arc goes from a lower id to a higher one. Arc ids are grouped by
/// head node in that order, so the fan-in of `v` is the arc-id range
/// [`fanin(v)`](TimingGraph::fanin) and a sweep in id order reads the
/// per-node and per-arc state front to back.
#[derive(Debug, Clone)]
pub struct TimingGraph {
    node_kind: Vec<NodeKind>,
    arcs: Vec<TimingArcRef>,
    fwd_off: Vec<u32>,
    fwd_arc: Vec<u32>,
    /// The fan-in of `v` is the arc ids `rev_off[v]..rev_off[v + 1]`.
    rev_off: Vec<u32>,
    /// Node ids that launch paths (primary inputs, DFF outputs).
    sources: Vec<u32>,
    /// Node ids that terminate paths (DFF `D` pins, then primary outputs).
    endpoints: Vec<u32>,
    /// The node of each pin, by pin number.
    pin_node: Vec<u32>,
    /// Per gate, the pin number of its first input pin; then one more.
    gate_in_off: Vec<u32>,
    /// Pin number of the first gate output pin.
    gate_out_base: u32,
    /// Pin number of the first primary output.
    po_base: u32,
    /// Lazily built flat arc view for the propagation hot path.
    soa: OnceLock<ArcSoa>,
    /// The head of each fan-out arc, parallel to `fwd_arc`: built by the
    /// first partial cone (a whole-design update never asks for it).
    succ: OnceLock<Vec<u32>>,
    /// Level `l` is the node ids `level_off[l]..level_off[l + 1]`: the
    /// build's counting sort, kept; recomputed on deserialisation.
    level_off: Vec<u32>,
}

/// Set bit `r` in a node bitset.
#[inline]
pub(crate) fn set_bit(bits: &mut [u64], r: u32) {
    bits[r as usize / 64] |= 1 << (r % 64);
}

/// Whether bit `r` is set in a node bitset.
#[inline]
pub(crate) fn bit_is_set(bits: &[u64], r: u32) -> bool {
    bits[r as usize / 64] >> (r % 64) & 1 == 1
}

/// Counts to offsets: each entry becomes the sum of it and all before it.
fn prefix_sum(counts: &mut [u32]) {
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
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
    /// Library cell index ([`CellLibrary::cell_index`]) for cell arcs;
    /// [`ArcSoa::NET_ARC`] for net arcs.
    pub cell_idx: Vec<u8>,
    /// [`TimingSense`](crate::TimingSense) of the traversed cell arc as
    /// `u8`; `0`, positive, for net arcs.
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
            cell_idx: Vec::with_capacity(n),
            sense: Vec::with_capacity(n),
        };
        for a in &graph.arcs {
            soa.from.push(a.from.0);
            soa.to.push(a.to.0);
            match a.kind {
                ArcKind::Net { .. } => {
                    soa.cell_idx.push(Self::NET_ARC);
                    soa.sense.push(0);
                }
                ArcKind::Cell { gate } => {
                    let cell = netlist.gates()[gate as usize].cell;
                    soa.cell_idx.push(CellLibrary::cell_index(cell) as u8);
                    soa.sense.push(cell.sense() as u8);
                }
            }
        }
        soa
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
            && self.sources == other.sources
            && self.endpoints == other.endpoints
            && self.pin_node == other.pin_node
            && self.gate_in_off == other.gate_in_off
            && self.gate_out_base == other.gate_out_base
            && self.po_base == other.po_base
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
            (String::from("sources"), self.sources.to_value()),
            (String::from("endpoints"), self.endpoints.to_value()),
            (String::from("pin_node"), self.pin_node.to_value()),
            (String::from("gate_in_off"), self.gate_in_off.to_value()),
            (String::from("gate_out_base"), self.gate_out_base.to_value()),
            (String::from("po_base"), self.po_base.to_value()),
        ]))
    }
}

impl Deserialize for TimingGraph {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::value::FromValueError> {
        let mut graph = TimingGraph {
            node_kind: Deserialize::from_value(v.expect_field("node_kind")?)?,
            arcs: Deserialize::from_value(v.expect_field("arcs")?)?,
            fwd_off: Deserialize::from_value(v.expect_field("fwd_off")?)?,
            fwd_arc: Deserialize::from_value(v.expect_field("fwd_arc")?)?,
            rev_off: Deserialize::from_value(v.expect_field("rev_off")?)?,
            sources: Deserialize::from_value(v.expect_field("sources")?)?,
            endpoints: Deserialize::from_value(v.expect_field("endpoints")?)?,
            pin_node: Deserialize::from_value(v.expect_field("pin_node")?)?,
            gate_in_off: Deserialize::from_value(v.expect_field("gate_in_off")?)?,
            gate_out_base: Deserialize::from_value(v.expect_field("gate_out_base")?)?,
            po_base: Deserialize::from_value(v.expect_field("po_base")?)?,
            soa: OnceLock::new(),
            succ: OnceLock::new(),
            level_off: Vec::new(),
        };
        graph.level_off = level_offsets(&graph.rev_off, &graph.arcs);
        Ok(graph)
    }
}

/// The first node id of each level, then the node count, read off the
/// fan-in ranges: a node's level is one above its highest fan-in's, and
/// node ids ascend by level.
fn level_offsets(rev_off: &[u32], arcs: &[TimingArcRef]) -> Vec<u32> {
    let n = rev_off.len().saturating_sub(1);
    let mut level = vec![0u32; n];
    let mut off = Vec::new();
    for v in 0..n {
        let fanin = &arcs[rev_off[v] as usize..rev_off[v + 1] as usize];
        let l = fanin.iter().map(|a| level[a.from.index()] + 1).max();
        level[v] = l.unwrap_or(0);
        if off.len() == level[v] as usize {
            off.push(v as u32);
        }
    }
    off.push(n as u32);
    off
}

impl TimingGraph {
    /// Build the timing graph of `netlist` under `library`.
    ///
    /// Pins are numbered primary inputs first, then all gate input pins
    /// (in gate order), then all gate output pins, then primary outputs,
    /// and arcs net arcs first (by net, then sink), then cell arcs. A node
    /// id is the pin's position when pins are sorted by longest-path level,
    /// then by pin number, and a node's fan-in arcs take consecutive ids in
    /// that order. Each fan-in and fan-out list keeps the arc order of the
    /// pins, and [`sources`](TimingGraph::sources) and
    /// [`endpoints`](TimingGraph::endpoints) keep pin order.
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
        let gate_out_base = acc;
        let po_base = gate_out_base + netlist.num_gates() as u32;
        let n = (po_base + netlist.num_outputs() as u32) as usize;

        let pin_of = |pin: PinRef| -> NodeId {
            NodeId(match pin {
                PinRef::PrimaryInput(p) => p.0,
                PinRef::GateInput(g, pin) => gate_in_off[g.index()] + u32::from(pin),
                PinRef::GateOutput(g) => gate_out_base + g.0,
                PinRef::PrimaryOutput(p) => po_base + p.0,
            })
        };

        // The successor pins of each pin (a driver's net sinks, then a
        // combinational gate input's output pin), for levelizing.
        let comb = || {
            let gates = netlist.gates().iter().enumerate();
            gates.filter(|(_, g)| !g.cell.is_sequential())
        };
        let sinks = netlist.nets().iter().map(|net| net.sinks.len());
        let num_arcs =
            sinks.sum::<usize>() + comb().map(|(_, g)| g.cell.num_inputs()).sum::<usize>();
        // The graph's own arrays come before the build's scratch, so that
        // freeing the scratch leaves them packed.
        let unset = TimingArcRef {
            from: NodeId(0),
            to: NodeId(0),
            kind: ArcKind::Net { net: 0 },
        };
        let mut arcs = vec![unset; num_arcs];
        let mut pin_node = vec![0u32; n];
        let mut rev_off = vec![0u32; n + 1];
        let mut node_fwd_off = vec![0u32; n + 1];
        let mut node_fwd_arc = vec![0u32; num_arcs];
        let mut node_kind = vec![NodeKind::PrimaryInput(0); n];
        let mut succ_off = vec![0u32; n + 1];
        for net in netlist.nets() {
            succ_off[pin_of(net.driver).index() + 1] += net.sinks.len() as u32;
        }
        for (g, gate) in comb() {
            let first = gate_in_off[g] as usize + 1;
            for count in &mut succ_off[first..first + gate.cell.num_inputs()] {
                *count += 1;
            }
        }
        prefix_sum(&mut succ_off);
        let mut succ = vec![0u32; num_arcs];
        let mut next = succ_off.clone();
        let mut put = |from: NodeId, to: NodeId| {
            let slot = &mut next[from.index()];
            succ[*slot as usize] = to.0;
            *slot += 1;
        };
        for net in netlist.nets() {
            let from = pin_of(net.driver);
            for &sink in &net.sinks {
                put(from, pin_of(sink));
            }
        }
        for (g, gate) in comb() {
            let out = NodeId(gate_out_base + g as u32);
            for pin in 0..gate.cell.num_inputs() as u32 {
                put(NodeId(gate_in_off[g] + pin), out);
            }
        }
        drop(next);
        let succs = |p: usize| &succ[succ_off[p] as usize..succ_off[p + 1] as usize];

        // Acyclicity check (combinational loops). A pin is popped only
        // after all its fan-in, so its longest-path level is final then.
        // Per pin `[unvisited fan-in, level]`, one cache line per visit.
        let mut fanin = vec![0u32; n];
        for &h in &succ {
            fanin[h as usize] += 1;
        }
        let mut state: Vec<[u32; 2]> = fanin.iter().map(|&d| [d, 0]).collect();
        let mut queue: Vec<u32> = (0..n as u32).filter(|&p| fanin[p as usize] == 0).collect();
        let mut visited = 0;
        while let Some(u) = queue.pop() {
            visited += 1;
            let below = state[u as usize][1] + 1;
            for &h in succs(u as usize) {
                let [indeg, level] = &mut state[h as usize];
                *level = (*level).max(below);
                *indeg -= 1;
                if *indeg == 0 {
                    queue.push(h);
                }
            }
        }
        if visited != n {
            let witness = state.iter().position(|s| s[0] > 0).unwrap_or(0) as u32;
            return Err(BuildTdgError::Cycle { witness });
        }
        drop(queue);

        // The node of each pin: its position when pins are sorted by level,
        // ascending pin number within a level (a counting sort).
        let depth = state
            .iter()
            .map(|s| s[1])
            .max()
            .map_or(0, |l| l as usize + 1);
        let mut cursor = vec![0u32; depth + 1];
        for s in &state {
            cursor[s[1] as usize + 1] += 1;
        }
        prefix_sum(&mut cursor);
        let level_off = cursor.clone();
        for (p, (slot, s)) in pin_node.iter_mut().zip(&state).enumerate() {
            let r = &mut cursor[s[1] as usize];
            *slot = *r;
            *r += 1;
            rev_off[*r as usize] = fanin[p];
            node_fwd_off[*r as usize] = succ_off[p + 1] - succ_off[p];
        }
        drop((state, cursor, fanin, succ, succ_off));
        prefix_sum(&mut rev_off);
        prefix_sum(&mut node_fwd_off);

        // Emit each arc straight into its slot, net arcs (by net, then
        // sink) then cell arcs: arcs are grouped by head node, and each
        // fan-in and fan-out list keeps this pin-arc order.
        let (mut next_in, mut next_out) = (rev_off.clone(), node_fwd_off.clone());
        let mut emit = |from: NodeId, to: NodeId, kind: ArcKind| {
            let (from, to) = (NodeId(pin_node[from.index()]), NodeId(pin_node[to.index()]));
            let id = &mut next_in[to.index()];
            arcs[*id as usize] = TimingArcRef { from, to, kind };
            let out = &mut next_out[from.index()];
            node_fwd_arc[*out as usize] = *id;
            *id += 1;
            *out += 1;
        };
        for (net_id, net) in netlist.nets().iter().enumerate() {
            let from = pin_of(net.driver);
            for &sink in &net.sinks {
                emit(from, pin_of(sink), ArcKind::Net { net: net_id as u32 });
            }
        }
        for (g, gate) in comb() {
            let out = NodeId(gate_out_base + g as u32);
            for pin in 0..gate.cell.num_inputs() as u32 {
                let gate = g as u32;
                emit(NodeId(gate_in_off[g] + pin), out, ArcKind::Cell { gate });
            }
        }
        drop((next_in, next_out));

        // Kinds, sources and endpoints, in pin order.
        let gates = netlist.gates();
        let gate_inputs = gates.iter().enumerate().flat_map(|(g, gate)| {
            (0..gate.cell.num_inputs() as u8).map(move |pin| NodeKind::GateInput(g as u32, pin))
        });
        let pin_kinds = (0..num_pi)
            .map(NodeKind::PrimaryInput)
            .chain(gate_inputs)
            .chain((0..gates.len() as u32).map(NodeKind::GateOutput))
            .chain((0..netlist.num_outputs() as u32).map(NodeKind::PrimaryOutput));
        let mut sources = Vec::new();
        let mut endpoints = Vec::new();
        let sequential = |g: u32| gates[g as usize].cell.is_sequential();
        for (kind, &v) in pin_kinds.zip(&pin_node) {
            node_kind[v as usize] = kind;
            match kind {
                NodeKind::PrimaryInput(_) => sources.push(v),
                NodeKind::PrimaryOutput(_) => endpoints.push(v),
                NodeKind::GateOutput(g) if sequential(g) => sources.push(v),
                NodeKind::GateInput(g, 0) if sequential(g) => endpoints.push(v), // DFF D pin
                _ => {}
            }
        }

        Ok(TimingGraph {
            node_kind,
            arcs,
            fwd_off: node_fwd_off,
            fwd_arc: node_fwd_arc,
            rev_off,
            sources,
            endpoints,
            pin_node,
            gate_in_off,
            gate_out_base,
            po_base,
            soa: OnceLock::new(),
            succ: OnceLock::new(),
            level_off,
        })
    }

    /// One sweep over the node ids: `visit` every id set in `bits` —
    /// ascending when `UP`, else descending — and, where it returns `true`,
    /// set the ids of that node's fan-out (`UP`) or fan-in (read from
    /// `soa`, this graph's [`arc_soa`](TimingGraph::arc_soa)). An arc goes
    /// up the ids, so those lie strictly ahead and the same sweep reaches
    /// them. Every word is zeroed once it is read out: `bits` ends all zero.
    pub(crate) fn sweep<const UP: bool>(
        &self,
        soa: &ArcSoa,
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
                        self.succs(NodeId(r))
                    } else {
                        self.preds(soa, NodeId(r))
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

    /// The heads of `v`'s fan-out arcs, in fan-out order; the first call
    /// builds them for every node.
    #[inline]
    pub(crate) fn succs(&self, v: NodeId) -> &[u32] {
        let heads = self.succ.get_or_init(|| {
            let head = |&a: &u32| self.arcs[a as usize].to.0;
            self.fwd_arc.iter().map(head).collect()
        });
        &heads[self.fwd_off[v.index()] as usize..self.fwd_off[v.index() + 1] as usize]
    }

    /// The tails of `v`'s fan-in arcs, in fan-in order: one slice of the
    /// `from` column of `soa`, this graph's [`arc_soa`](TimingGraph::arc_soa).
    #[inline]
    pub(crate) fn preds<'s>(&self, soa: &'s ArcSoa, v: NodeId) -> &'s [u32] {
        let fanin = self.fanin(v);
        &soa.from[fanin.start as usize..fanin.end as usize]
    }

    #[cfg(test)]
    pub(crate) fn has_succ(&self) -> bool {
        self.succ.get().is_some()
    }

    /// Number of nodes (pins).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_kind.len()
    }

    /// The levels as node-id ranges: level `l` is the ids
    /// `offsets[l]..offsets[l + 1]`, and the last entry is
    /// [`num_nodes`](TimingGraph::num_nodes). No arc joins two nodes of one
    /// level, so a level's fprop (or bprop) tasks are independent of each
    /// other.
    #[inline]
    pub fn level_offsets(&self) -> &[u32] {
        &self.level_off
    }

    /// Number of timing arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// A structural checksum: the node count and every arc's endpoints in
    /// arc-id order. These fix every task of an update and every
    /// dependency between them, so two processes that rebuilt the same
    /// design agree on it before they exchange values keyed by node or arc.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Checksum::default();
        h.update_words(&[self.num_nodes() as u32, self.num_arcs() as u32]);
        let mut words = [0u32; 256];
        for arcs in self.arcs.chunks(words.len() / 2) {
            for (pair, arc) in words.chunks_exact_mut(2).zip(arcs) {
                pair.copy_from_slice(&[arc.from.0, arc.to.0]);
            }
            h.update_words(&words[..2 * arcs.len()]);
        }
        h.finish()
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

    /// Arc ids entering `v`: one range, below the fan-in of every later node.
    #[inline]
    pub fn fanin(&self, v: NodeId) -> Range<u32> {
        self.rev_off[v.index()]..self.rev_off[v.index() + 1]
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

    /// Nodes that terminate timing paths: DFF D pins in gate order, then
    /// primary outputs in port order.
    #[inline]
    pub fn endpoints(&self) -> &[u32] {
        &self.endpoints
    }

    /// The node of pin number `pin`.
    #[inline]
    fn pin(&self, pin: u32) -> NodeId {
        NodeId(self.pin_node[pin as usize])
    }

    /// The node of primary input `port`.
    #[inline]
    pub fn input_node(&self, port: PortId) -> NodeId {
        self.pin(port.0)
    }

    /// The node of primary output `port`.
    #[inline]
    pub fn output_node(&self, port: PortId) -> NodeId {
        self.pin(self.po_base + port.0)
    }

    /// The node of gate `g`'s output pin.
    #[inline]
    pub fn gate_output_node(&self, g: GateId) -> NodeId {
        self.pin(self.gate_out_base + g.0)
    }

    /// The node of input pin `pin` of gate `g`.
    #[inline]
    pub fn gate_input_node(&self, g: GateId, pin: u8) -> NodeId {
        self.pin(self.gate_in_off[g.index()] + u32::from(pin))
    }

    /// The node of the netlist pin `pin`.
    #[inline]
    pub fn pin_ref_node(&self, pin: PinRef) -> NodeId {
        match pin {
            PinRef::PrimaryInput(p) => self.input_node(p),
            PinRef::PrimaryOutput(p) => self.output_node(p),
            PinRef::GateInput(g, pin) => self.gate_input_node(g, pin),
            PinRef::GateOutput(g) => self.gate_output_node(g),
        }
    }

    /// Where `v` is in [`endpoints`](TimingGraph::endpoints), if it is a
    /// path endpoint.
    pub fn endpoint_index(&self, v: NodeId) -> Option<u32> {
        let d_pins = self.endpoints.len() + self.po_base as usize - self.num_nodes();
        match self.node_kind(v) {
            NodeKind::PrimaryOutput(p) => Some(d_pins as u32 + p),
            // Only a flip-flop's input pins have no fan-out.
            NodeKind::GateInput(g, 0) if self.fanout(v).is_empty() => {
                // D pins lead the endpoints, in gate order.
                let kind = |e: &u32| self.node_kind(NodeId(*e));
                let before = |e: &u32| matches!(kind(e), NodeKind::GateInput(h, _) if h < g);
                Some(self.endpoints[..d_pins].partition_point(before) as u32)
            }
            _ => None,
        }
    }

    /// Whether `v` is a path endpoint.
    #[inline]
    pub fn is_endpoint(&self, v: NodeId) -> bool {
        match self.node_kind(v) {
            NodeKind::PrimaryOutput(_) => true,
            NodeKind::GateInput(_, 0) => self.fanout(v).is_empty(),
            _ => false,
        }
    }

    /// The flat arc view for the propagation hot path, built on first use.
    ///
    /// `netlist` must be the netlist this graph was built from (only its
    /// immutable connectivity — gate cell kinds — is read).
    #[inline]
    pub fn arc_soa(&self, netlist: &Netlist) -> &ArcSoa {
        self.soa.get_or_init(|| ArcSoa::build(self, netlist))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::CellKind;
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
        let (_, g) = nand_inv();
        let u1 = GateId(0);
        let in0 = g.gate_input_node(u1, 0);
        assert!(matches!(g.node_kind(in0), NodeKind::GateInput(0, 0)));
        let out = g.gate_output_node(u1);
        assert!(matches!(g.node_kind(out), NodeKind::GateOutput(0)));
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
                ArcKind::Net { .. } => {
                    assert!(soa.is_net(i));
                    assert_eq!(soa.sense[i], 0);
                }
                ArcKind::Cell { gate } => {
                    assert!(!soa.is_net(i));
                    let cell = n.gates()[gate as usize].cell;
                    assert_eq!(soa.cell_idx[i] as usize, CellLibrary::cell_index(cell));
                    assert_eq!(soa.sense[i], cell.sense() as u8);
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
        // The restored graph rebuilds an identical SoA on demand, and the
        // same levels.
        assert_eq!(back.arc_soa(&n), g.arc_soa(&n));
        assert_eq!(back.level_offsets(), [0, 2, 4, 5, 6, 7, 8]);
        assert_eq!(back.level_offsets(), g.level_offsets());
    }

    /// A seeded random design: every gate input hangs off a primary input
    /// or an earlier gate, about one gate in five is a flip-flop, and some
    /// gates drive primary outputs, one of them two.
    fn random_netlist(seed: u64, gates: usize) -> Netlist {
        const CELLS: [CellKind; 5] = [
            CellKind::Inv,
            CellKind::Nand2,
            CellKind::Xor2,
            CellKind::Nand3,
            CellKind::Dff,
        ];
        let mut state = seed;
        let mut draw = |below: usize| {
            state = gpasta_sched::splitmix64(state);
            (state % below as u64) as usize
        };
        let mut nb = NetlistBuilder::new();
        let inputs: Vec<_> = (0..5)
            .map(|i| nb.add_primary_input(format!("i{i}")))
            .collect();
        let mut made: Vec<GateId> = Vec::new();
        for g in 0..gates {
            let cell = CELLS[draw(CELLS.len())];
            let gate = nb.add_gate(format!("u{g}"), cell);
            for pin in 0..cell.num_inputs() as u8 {
                let from = draw(inputs.len() + g);
                match from.checked_sub(inputs.len()) {
                    None => nb.connect_to_gate(inputs[from], gate, pin),
                    Some(d) => nb.connect_gates(made[d], gate, pin),
                }
                .expect("valid");
            }
            made.push(gate);
        }
        for o in 0..7 {
            let y = nb.add_primary_output(format!("y{o}"));
            nb.connect_to_output(made[draw(gates)], y).expect("valid");
        }
        nb.build().expect("well-formed")
    }

    fn numbered_designs() -> Vec<(Netlist, TimingGraph)> {
        let mut designs = vec![nand_inv()];
        for seed in 0..6 {
            let n = random_netlist(seed, 40 + 30 * seed as usize);
            let g = TimingGraph::build(&n, &CellLibrary::typical()).expect("acyclic");
            designs.push((n, g));
        }
        designs
    }

    /// An arc as its two ends' kinds and its own: the same on both sides of
    /// a renumbering.
    type Named = (NodeKind, NodeKind, ArcKind);

    /// The graph in pin numbers, written out from the netlist: per pin its
    /// kind, fan-in and fan-out, each list in arc order (net arcs by net
    /// and sink, then cell arcs).
    fn pin_scheme(netlist: &Netlist) -> Vec<(NodeKind, Vec<Named>, Vec<Named>)> {
        let mut kinds: Vec<NodeKind> = (0..netlist.num_inputs() as u32)
            .map(NodeKind::PrimaryInput)
            .collect();
        for (g, gate) in netlist.gates().iter().enumerate() {
            kinds.extend(
                (0..gate.cell.num_inputs() as u8).map(|p| NodeKind::GateInput(g as u32, p)),
            );
        }
        kinds.extend((0..netlist.num_gates() as u32).map(NodeKind::GateOutput));
        kinds.extend((0..netlist.num_outputs() as u32).map(NodeKind::PrimaryOutput));
        let kind_of = |pin: PinRef| match pin {
            PinRef::PrimaryInput(p) => NodeKind::PrimaryInput(p.0),
            PinRef::GateInput(g, p) => NodeKind::GateInput(g.0, p),
            PinRef::GateOutput(g) => NodeKind::GateOutput(g.0),
            PinRef::PrimaryOutput(p) => NodeKind::PrimaryOutput(p.0),
        };
        let mut arcs: Vec<Named> = Vec::new();
        for (i, net) in netlist.nets().iter().enumerate() {
            for &sink in &net.sinks {
                arcs.push((
                    kind_of(net.driver),
                    kind_of(sink),
                    ArcKind::Net { net: i as u32 },
                ));
            }
        }
        for (g, gate) in netlist.gates().iter().enumerate() {
            if !gate.cell.is_sequential() {
                for p in 0..gate.cell.num_inputs() as u8 {
                    let (from, to) = (
                        NodeKind::GateInput(g as u32, p),
                        NodeKind::GateOutput(g as u32),
                    );
                    arcs.push((from, to, ArcKind::Cell { gate: g as u32 }));
                }
            }
        }
        kinds
            .into_iter()
            .map(|k| {
                let fanin = arcs.iter().filter(|a| a.1 == k).copied().collect();
                let fanout = arcs.iter().filter(|a| a.0 == k).copied().collect();
                (k, fanin, fanout)
            })
            .collect()
    }

    /// The node of every pin, through the four lookups, in pin order.
    fn nodes_in_pin_order(netlist: &Netlist, g: &TimingGraph) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = (0..netlist.num_inputs() as u32)
            .map(|p| g.input_node(PortId(p)))
            .collect();
        for (i, gate) in netlist.gates().iter().enumerate() {
            let pins = 0..gate.cell.num_inputs() as u8;
            nodes.extend(pins.map(|p| g.gate_input_node(GateId(i as u32), p)));
        }
        let gates = 0..netlist.num_gates() as u32;
        nodes.extend(gates.map(|i| g.gate_output_node(GateId(i))));
        let outputs = 0..netlist.num_outputs() as u32;
        nodes.extend(outputs.map(|p| g.output_node(PortId(p))));
        nodes
    }

    #[test]
    fn levels_are_id_ranges_no_arc_stays_inside() {
        for (_, g) in numbered_designs() {
            let off = g.level_offsets();
            assert_eq!(
                off,
                level_offsets(&g.rev_off, &g.arcs),
                "sort = fan-in walk"
            );
            assert_eq!((off[0], off[off.len() - 1]), (0, g.num_nodes() as u32));
            assert!(off.windows(2).all(|w| w[0] < w[1]), "no level is empty");
            let level = |v: NodeId| off.partition_point(|&o| o <= v.0);
            for arc in g.arcs() {
                assert!(level(arc.from) < level(arc.to), "{arc:?} stays in a level");
            }
        }
    }

    #[test]
    fn every_arc_goes_up_and_each_fan_in_is_a_consecutive_range() {
        for (n, g) in numbered_designs() {
            let soa = g.arc_soa(&n);
            let mut next = 0;
            for v in 0..g.num_nodes() as u32 {
                let fanin = g.fanin(NodeId(v));
                assert_eq!(
                    fanin.start, next,
                    "node {v}'s fan-in follows its predecessor's"
                );
                next = fanin.end;
                for a in fanin {
                    let arc = g.arc(a);
                    assert_eq!(arc.to, NodeId(v));
                    assert!(arc.from < arc.to, "arc {a} goes up");
                }
                let tails: Vec<u32> = g.fanin(NodeId(v)).map(|a| g.arc(a).from.0).collect();
                assert_eq!(g.preds(soa, NodeId(v)), &tails[..]);
                let heads: Vec<u32> = g.fanout(NodeId(v)).iter().map(|&a| g.arc(a).to.0).collect();
                assert_eq!(g.succs(NodeId(v)), &heads[..]);
            }
            assert_eq!(next as usize, g.num_arcs(), "the fan-ins cover every arc");
        }
    }

    /// The fingerprint is the one-shot checksum of the node and arc counts
    /// and every arc's `(from, to)`, little-endian, in arc-id order: shard
    /// checkpoints name their design by it, so files written by any build
    /// that hashed this stream still resume.
    #[test]
    fn the_fingerprint_is_the_checksum_of_the_arc_stream() {
        for (_, g) in numbered_designs() {
            let mut words = vec![g.num_nodes() as u32, g.num_arcs() as u32];
            words.extend(g.arcs().iter().flat_map(|a| [a.from.0, a.to.0]));
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            assert_eq!(g.fingerprint(), gpasta_tdg::checksum(&bytes));
        }
    }

    #[test]
    fn fan_in_and_fan_out_lists_are_the_pin_lists_renumbered() {
        for (n, g) in numbered_designs() {
            let named = |a: u32| {
                let arc = g.arc(a);
                (g.node_kind(arc.from), g.node_kind(arc.to), arc.kind)
            };
            let nodes = nodes_in_pin_order(&n, &g);
            for (&v, (kind, fanin, fanout)) in nodes.iter().zip(pin_scheme(&n)) {
                assert_eq!(g.node_kind(v), kind);
                assert_eq!(g.fanin(v).map(named).collect::<Vec<_>>(), fanin, "{kind:?}");
                let out: Vec<Named> = g.fanout(v).iter().map(|&a| named(a)).collect();
                assert_eq!(out, fanout, "{kind:?}");
            }
            // Sources and endpoints keep pin order.
            let pin_of = |v: &u32| nodes.iter().position(|&w| w.0 == *v);
            for list in [g.sources(), g.endpoints()] {
                let pins: Vec<_> = list.iter().map(pin_of).collect();
                assert!(pins.windows(2).all(|w| w[0] < w[1]), "{pins:?}");
            }
        }
    }

    #[test]
    fn pin_lookups_round_trip_through_node_kind() {
        for (n, g) in numbered_designs() {
            let nodes = nodes_in_pin_order(&n, &g);
            let mut hit = vec![false; g.num_nodes()];
            for v in &nodes {
                assert!(!std::mem::replace(&mut hit[v.index()], true), "{v:?} twice");
            }
            assert_eq!(nodes.len(), g.num_nodes(), "one node per pin");
            for p in 0..n.num_inputs() as u32 {
                let kind = g.node_kind(g.input_node(PortId(p)));
                assert_eq!(kind, NodeKind::PrimaryInput(p));
            }
            for p in 0..n.num_outputs() as u32 {
                let kind = g.node_kind(g.output_node(PortId(p)));
                assert_eq!(kind, NodeKind::PrimaryOutput(p));
            }
            for (i, gate) in n.gates().iter().enumerate() {
                let id = GateId(i as u32);
                let kind = g.node_kind(g.gate_output_node(id));
                assert_eq!(kind, NodeKind::GateOutput(id.0));
                for pin in 0..gate.cell.num_inputs() as u8 {
                    let kind = g.node_kind(g.gate_input_node(id, pin));
                    assert_eq!(kind, NodeKind::GateInput(id.0, pin));
                }
            }
        }
    }

    #[test]
    fn endpoint_index_agrees_with_a_linear_scan() {
        let mut d_pins = 0;
        for (_, g) in numbered_designs() {
            let is_d_pin = |e: &&u32| matches!(g.node_kind(NodeId(**e)), NodeKind::GateInput(..));
            d_pins += g.endpoints().iter().filter(is_d_pin).count();
            for v in (0..g.num_nodes() as u32).map(NodeId) {
                let scan = g.endpoints().iter().position(|&e| e == v.0);
                assert_eq!(g.endpoint_index(v), scan.map(|i| i as u32), "{v:?}");
                assert_eq!(g.is_endpoint(v), scan.is_some(), "{v:?}");
            }
        }
        assert!(d_pins > 10, "flip-flops end paths too ({d_pins})");
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
