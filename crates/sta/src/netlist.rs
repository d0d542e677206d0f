//! Gate-level netlists.
//!
//! A netlist is a set of gates (cell instances), primary inputs/outputs,
//! and nets. Each net has exactly one driver (a primary input or a gate
//! output) and any number of sinks (gate inputs or primary outputs), plus a
//! lumped wire capacitance.

use crate::error::{BuildNetlistError, ConnectError};
use crate::library::CellKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a gate instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GateId(pub u32);

impl GateId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Identifier of a primary input or output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PortId(pub u32);

impl PortId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A reference to a driving or sinking pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PinRef {
    /// A primary input port (always a driver).
    PrimaryInput(PortId),
    /// A primary output port (always a sink).
    PrimaryOutput(PortId),
    /// Input pin `pin` of a gate (a sink).
    GateInput(GateId, u8),
    /// The (single) output pin of a gate (a driver).
    GateOutput(GateId),
}

/// One gate instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gate {
    /// Instance name.
    pub name: String,
    /// The library cell implementing the gate.
    pub cell: CellKind,
    /// Drive-strength multiplier applied to the cell's tables: `> 1`
    /// speeds the gate up (lower delay) but raises its input capacitance.
    /// Design modifiers (gate repowering) adjust this.
    pub drive: f32,
}

/// One net: a driver pin, its sinks, and the lumped wire capacitance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Net {
    /// The driving pin.
    pub driver: PinRef,
    /// The sink pins.
    pub sinks: Vec<PinRef>,
    /// Lumped wire capacitance (fF).
    pub wire_cap_ff: f32,
}

/// An immutable gate-level netlist, produced by [`NetlistBuilder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Netlist {
    pub(crate) gates: Vec<Gate>,
    pub(crate) inputs: Vec<String>,
    pub(crate) outputs: Vec<String>,
    pub(crate) nets: Vec<Net>,
}

impl Netlist {
    /// Number of gate instances.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// The gates, indexed by [`GateId`].
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// Primary input names, indexed by [`PortId`].
    pub fn input_names(&self) -> &[String] {
        &self.inputs
    }

    /// Primary output names, indexed by [`PortId`].
    pub fn output_names(&self) -> &[String] {
        &self.outputs
    }

    /// Set gate `g`'s drive-strength multiplier directly on the netlist
    /// (design state; the [`Timer`](crate::Timer) has its own
    /// [`repower_gate`](crate::Timer::repower_gate) that also invalidates
    /// timing).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn set_drive(&mut self, g: GateId, drive: f32) {
        self.gates[g.index()].drive = drive;
    }
}

/// Builder for a [`Netlist`].
///
/// Connections are made per-sink: each call wires one driver pin to one
/// sink pin; sinks driven by the same driver share a net. See the crate
/// example for a full flow.
#[derive(Debug, Default)]
pub struct NetlistBuilder {
    gates: Vec<Gate>,
    inputs: Vec<String>,
    outputs: Vec<String>,
    /// (driver, sink) pairs, merged into nets at build time.
    connections: Vec<(PinRef, PinRef)>,
    /// Extra wire capacitance per driver pin, applied to its net.
    wire_caps: Vec<(PinRef, f32)>,
}

impl NetlistBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder with room for `gates` gates and `connections`
    /// connections.
    pub(crate) fn with_capacity(gates: usize, connections: usize) -> Self {
        NetlistBuilder {
            gates: Vec::with_capacity(gates),
            connections: Vec::with_capacity(connections),
            ..Self::default()
        }
    }

    /// Declare a primary input.
    pub fn add_primary_input(&mut self, name: impl Into<String>) -> PortId {
        self.inputs.push(name.into());
        PortId(self.inputs.len() as u32 - 1)
    }

    /// Declare a primary output.
    pub fn add_primary_output(&mut self, name: impl Into<String>) -> PortId {
        self.outputs.push(name.into());
        PortId(self.outputs.len() as u32 - 1)
    }

    /// Instantiate a gate of `cell` with drive strength 1.0.
    pub fn add_gate(&mut self, name: impl Into<String>, cell: CellKind) -> GateId {
        self.gates.push(Gate {
            name: name.into(),
            cell,
            drive: 1.0,
        });
        GateId(self.gates.len() as u32 - 1)
    }

    /// Number of gates added so far.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// The name of gate `g`, added so far.
    pub(crate) fn gate_name(&self, g: usize) -> &str {
        &self.gates[g].name
    }

    /// Wire a primary input to input pin `pin` of `gate`.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectError`] if the port, the gate or the pin index is
    /// invalid.
    pub fn connect_to_gate(
        &mut self,
        from: PortId,
        gate: GateId,
        pin: u8,
    ) -> Result<(), ConnectError> {
        self.check_input(from)?;
        self.check_sink(gate, pin)?;
        self.connections
            .push((PinRef::PrimaryInput(from), PinRef::GateInput(gate, pin)));
        Ok(())
    }

    /// Wire gate `from`'s output to input pin `pin` of `to`.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectError`] if either gate or the pin index is invalid.
    pub fn connect_gates(&mut self, from: GateId, to: GateId, pin: u8) -> Result<(), ConnectError> {
        self.check_gate(from)?;
        self.check_sink(to, pin)?;
        self.connections
            .push((PinRef::GateOutput(from), PinRef::GateInput(to, pin)));
        Ok(())
    }

    /// Wire gate `from`'s output to the primary output `out`.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectError`] if the gate or the output is invalid.
    pub fn connect_to_output(&mut self, from: GateId, out: PortId) -> Result<(), ConnectError> {
        self.check_gate(from)?;
        self.check_output(out)?;
        self.connections
            .push((PinRef::GateOutput(from), PinRef::PrimaryOutput(out)));
        Ok(())
    }

    /// Wire a primary input straight to a primary output (feed-through).
    ///
    /// # Errors
    ///
    /// Returns [`ConnectError::UnknownPort`] if either port is undeclared.
    pub fn connect_input_to_output(
        &mut self,
        from: PortId,
        out: PortId,
    ) -> Result<(), ConnectError> {
        self.check_input(from)?;
        self.check_output(out)?;
        self.connections
            .push((PinRef::PrimaryInput(from), PinRef::PrimaryOutput(out)));
        Ok(())
    }

    /// Add `cap_ff` of wire capacitance to the net driven by `driver`, a
    /// primary input or a gate output. A driver without sinks carries no
    /// wire, and its cap is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectError::NotADriver`] for a gate input or a primary
    /// output, and [`ConnectError::UnknownPort`] /
    /// [`ConnectError::UnknownGate`] for an undeclared input or gate.
    pub fn add_wire_cap(&mut self, driver: PinRef, cap_ff: f32) -> Result<(), ConnectError> {
        match driver {
            PinRef::PrimaryInput(p) => self.check_input(p)?,
            PinRef::GateOutput(g) => self.check_gate(g)?,
            PinRef::GateInput(..) | PinRef::PrimaryOutput(_) => {
                return Err(ConnectError::NotADriver { pin: driver })
            }
        }
        self.wire_caps.push((driver, cap_ff));
        Ok(())
    }

    fn check_input(&self, port: PortId) -> Result<(), ConnectError> {
        if port.index() < self.inputs.len() {
            Ok(())
        } else {
            Err(ConnectError::UnknownPort {
                port: port.0,
                output: false,
            })
        }
    }

    fn check_output(&self, port: PortId) -> Result<(), ConnectError> {
        if port.index() < self.outputs.len() {
            Ok(())
        } else {
            Err(ConnectError::UnknownPort {
                port: port.0,
                output: true,
            })
        }
    }

    fn check_gate(&self, gate: GateId) -> Result<(), ConnectError> {
        if gate.index() < self.gates.len() {
            Ok(())
        } else {
            Err(ConnectError::UnknownGate { gate: gate.0 })
        }
    }

    fn check_sink(&self, gate: GateId, pin: u8) -> Result<(), ConnectError> {
        self.check_gate(gate)?;
        let num_inputs = self.gates[gate.index()].cell.num_inputs();
        if usize::from(pin) >= num_inputs {
            return Err(ConnectError::PinOutOfRange {
                gate: gate.0,
                pin,
                num_inputs,
            });
        }
        Ok(())
    }

    /// Finalise into a [`Netlist`], merging per-sink connections into nets.
    ///
    /// Nets ascend by their driver and each net's sinks ascend, both in
    /// the order of the pins' `Debug` text, without rendering it: the
    /// variant's name first (`GateInput` < `GateOutput` < `PrimaryInput` <
    /// `PrimaryOutput`), then the id's decimal text, then
    /// a gate input's pin (one digit). A net's wire cap is its driver's
    /// caps summed in call order.
    ///
    /// # Errors
    ///
    /// Returns [`BuildNetlistError`] if a gate input pin is driven more than
    /// once, a gate input or primary output is left unconnected, or the
    /// combinational part of the design contains a cycle (cycles are
    /// detected later by the timing-graph builder, which reports them as a
    /// [`BuildTdgError`](gpasta_tdg::BuildTdgError); here we only catch
    /// duplicate drivers and dangling pins).
    pub fn build(self) -> Result<Netlist, BuildNetlistError> {
        // Dense indices, valid because every connect call checked its ids:
        // driver `p` is input port `p`, driver `num_inputs + g` is gate
        // `g`'s output; gate `g`'s pins are sinks from `pin_base[g]`, and
        // output `o` is sink `pins + o`.
        let num_inputs = self.inputs.len();
        let num_drivers = num_inputs + self.gates.len();
        let mut pin_base = Vec::with_capacity(self.gates.len());
        let mut pins = 0;
        for gate in &self.gates {
            pin_base.push(pins);
            pins += gate.cell.num_inputs();
        }
        let driver_index = |driver: PinRef| match driver {
            PinRef::PrimaryInput(p) => p.index(),
            PinRef::GateOutput(g) => num_inputs + g.index(),
            PinRef::GateInput(..) | PinRef::PrimaryOutput(_) => {
                unreachable!("connect and wire-cap calls only take inputs and gates as drivers")
            }
        };
        let sink_index = |sink: PinRef| match sink {
            PinRef::GateInput(g, pin) => pin_base[g.index()] + usize::from(pin),
            PinRef::PrimaryOutput(o) => pins + o.index(),
            PinRef::PrimaryInput(_) | PinRef::GateOutput(_) => {
                unreachable!("connect calls only make sinks of gate inputs and outputs")
            }
        };

        // Each sink's driver, checked in connection order; `start[d + 1]`
        // counts driver `d`'s distinct sinks.
        const UNDRIVEN: u32 = u32::MAX;
        let mut driver_of = vec![UNDRIVEN; pins + self.outputs.len()];
        let mut start = vec![0u32; num_drivers + 1];
        let mut kept = Vec::with_capacity(self.connections.len());
        for &(driver, sink) in &self.connections {
            let d = driver_index(driver);
            let slot = &mut driver_of[sink_index(sink)];
            if *slot == UNDRIVEN {
                *slot = d as u32;
                start[d + 1] += 1;
                kept.push((d, sink));
            } else if *slot != d as u32 {
                return Err(BuildNetlistError::MultipleDrivers {
                    sink: format!("{sink:?}"),
                });
            } // else a duplicate identical connection
        }

        // Every gate input pin and every primary output must be driven.
        for (gate, &base) in self.gates.iter().zip(&pin_base) {
            let n = gate.cell.num_inputs();
            if let Some(pin) = driver_of[base..base + n]
                .iter()
                .position(|&d| d == UNDRIVEN)
            {
                return Err(BuildNetlistError::UnconnectedPin {
                    gate: gate.name.clone(),
                    pin: pin as u8,
                });
            }
        }
        if let Some(o) = driver_of[pins..].iter().position(|&d| d == UNDRIVEN) {
            return Err(BuildNetlistError::UnconnectedOutput {
                name: self.outputs[o].clone(),
            });
        }

        let mut wire_cap = vec![0.0f32; num_drivers];
        for &(driver, cap) in &self.wire_caps {
            wire_cap[driver_index(driver)] += cap;
        }

        // A stable counting sort by driver, each driver's sinks in
        // connection order; then each net's sinks (distinct, so their keys
        // are) and the nets in text order: gate outputs, then inputs.
        for d in 0..num_drivers {
            start[d + 1] += start[d];
        }
        let mut next = start.clone();
        let mut sinks = vec![PinRef::PrimaryInput(PortId(0)); kept.len()];
        for (d, sink) in kept {
            sinks[next[d] as usize] = sink;
            next[d] += 1;
        }
        let gate_order = text_order(self.gates.len());
        let gate_place = places(&gate_order);
        let output_place = places(&text_order(self.outputs.len()));
        let sink_key = |sink: PinRef| match sink {
            PinRef::GateInput(g, pin) => u64::from(gate_place[g.index()]) << 8 | u64::from(pin),
            PinRef::PrimaryOutput(o) => 1 << 40 | u64::from(output_place[o.index()]),
            PinRef::PrimaryInput(_) | PinRef::GateOutput(_) => {
                unreachable!("connect calls only make sinks of gate inputs and outputs")
            }
        };
        let gate_drivers = gate_order
            .iter()
            .map(|&g| (num_inputs + g as usize, PinRef::GateOutput(GateId(g))));
        let input_drivers = text_order(num_inputs)
            .into_iter()
            .map(|p| (p as usize, PinRef::PrimaryInput(PortId(p))));
        let nets = gate_drivers
            .chain(input_drivers)
            .filter(|&(d, _)| start[d] < start[d + 1])
            .map(|(d, driver)| {
                let own = &mut sinks[start[d] as usize..start[d + 1] as usize];
                own.sort_unstable_by_key(|&s| sink_key(s));
                Net {
                    driver,
                    sinks: own.to_vec(),
                    wire_cap_ff: wire_cap[d],
                }
            })
            .collect();

        Ok(Netlist {
            gates: self.gates,
            inputs: self.inputs,
            outputs: self.outputs,
            nets,
        })
    }
}

/// The ids `0..n` in the order of their decimal texts (`"10"` before
/// `"9"`): a depth-first walk of the digit tree, with no sort.
fn text_order(n: usize) -> Vec<u32> {
    let mut order = Vec::with_capacity(n);
    if n == 0 {
        return order;
    }
    order.push(0);
    let mut id = 1;
    while order.len() < n {
        order.push(id as u32);
        if id * 10 < n {
            id *= 10;
        } else {
            // Up past every last digit, and on to the next sibling.
            while id % 10 == 9 || id + 1 >= n {
                id /= 10;
            }
            id += 1;
        }
    }
    order
}

/// Each id's place in `order`, a permutation of `0..order.len()`.
fn places(order: &[u32]) -> Vec<u32> {
    let mut place = vec![0; order.len()];
    for (i, &id) in order.iter().enumerate() {
        place[id as usize] = i as u32;
    }
    place
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nand_pair() -> NetlistBuilder {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let b = nb.add_primary_input("b");
        let g1 = nb.add_gate("u1", CellKind::Nand2);
        let g2 = nb.add_gate("u2", CellKind::Inv);
        let y = nb.add_primary_output("y");
        nb.connect_to_gate(a, g1, 0).expect("valid pin");
        nb.connect_to_gate(b, g1, 1).expect("valid pin");
        nb.connect_gates(g1, g2, 0).expect("valid pin");
        nb.connect_to_output(g2, y).expect("valid gate");
        nb
    }

    #[test]
    fn builds_simple_netlist() {
        let n = nand_pair().build().expect("netlist is well-formed");
        assert_eq!(n.num_gates(), 2);
        assert_eq!(n.num_inputs(), 2);
        assert_eq!(n.num_outputs(), 1);
        assert_eq!(n.num_nets(), 4);
    }

    #[test]
    fn fanout_shares_one_net() {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let g1 = nb.add_gate("u1", CellKind::Inv);
        let g2 = nb.add_gate("u2", CellKind::Inv);
        let g3 = nb.add_gate("u3", CellKind::Inv);
        let y1 = nb.add_primary_output("y1");
        let y2 = nb.add_primary_output("y2");
        nb.connect_to_gate(a, g1, 0).expect("valid");
        nb.connect_gates(g1, g2, 0).expect("valid");
        nb.connect_gates(g1, g3, 0).expect("valid");
        nb.connect_to_output(g2, y1).expect("valid");
        nb.connect_to_output(g3, y2).expect("valid");
        let n = nb.build().expect("well-formed");
        let fanout_net = n
            .nets()
            .iter()
            .find(|net| net.driver == PinRef::GateOutput(g1))
            .expect("net exists");
        assert_eq!(fanout_net.sinks.len(), 2);
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let b = nb.add_primary_input("b");
        let g = nb.add_gate("u1", CellKind::Inv);
        let y = nb.add_primary_output("y");
        nb.connect_to_gate(a, g, 0).expect("valid");
        nb.connect_to_gate(b, g, 0)
            .expect("valid call; clash detected at build");
        nb.connect_to_output(g, y).expect("valid");
        assert!(matches!(
            nb.build().expect_err("pin driven twice"),
            BuildNetlistError::MultipleDrivers { .. }
        ));
    }

    #[test]
    fn unconnected_input_pin_rejected() {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let g = nb.add_gate("u1", CellKind::Nand2);
        let y = nb.add_primary_output("y");
        nb.connect_to_gate(a, g, 0).expect("valid");
        nb.connect_to_output(g, y).expect("valid");
        assert!(matches!(
            nb.build().expect_err("pin 1 dangling"),
            BuildNetlistError::UnconnectedPin { pin: 1, .. }
        ));
    }

    #[test]
    fn unconnected_output_rejected() {
        let mut nb = NetlistBuilder::new();
        nb.add_primary_output("y");
        assert!(matches!(
            nb.build().expect_err("output y dangling"),
            BuildNetlistError::UnconnectedOutput { .. }
        ));
    }

    #[test]
    fn bad_pin_index_rejected_eagerly() {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let g = nb.add_gate("u1", CellKind::Inv);
        assert!(matches!(
            nb.connect_to_gate(a, g, 5).expect_err("INV has one input"),
            ConnectError::PinOutOfRange { pin: 5, .. }
        ));
        assert!(matches!(
            nb.connect_gates(GateId(9), g, 0).expect_err("no gate 9"),
            ConnectError::UnknownGate { gate: 9 }
        ));
    }

    #[test]
    fn undeclared_input_rejected_by_connect_to_gate() {
        // Once accepted, this built a net driven by no port, and
        // `Timer::try_new` indexed past the inputs.
        let mut nb = NetlistBuilder::new();
        let g = nb.add_gate("u1", CellKind::Inv);
        assert_eq!(
            nb.connect_to_gate(PortId(3), g, 0),
            Err(ConnectError::UnknownPort {
                port: 3,
                output: false
            })
        );
    }

    #[test]
    fn undeclared_output_rejected_by_connect_to_output() {
        let mut nb = NetlistBuilder::new();
        let g = nb.add_gate("u1", CellKind::Inv);
        assert_eq!(
            nb.connect_to_output(g, PortId(0)),
            Err(ConnectError::UnknownPort {
                port: 0,
                output: true
            })
        );
    }

    #[test]
    fn undeclared_ports_rejected_by_connect_input_to_output() {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let y = nb.add_primary_output("y");
        assert_eq!(
            nb.connect_input_to_output(a, PortId(1)),
            Err(ConnectError::UnknownPort {
                port: 1,
                output: true
            })
        );
        assert_eq!(
            nb.connect_input_to_output(PortId(2), y),
            Err(ConnectError::UnknownPort {
                port: 2,
                output: false
            })
        );
        nb.connect_input_to_output(a, y).expect("declared ports");
        assert_eq!(nb.build().expect("feed-through").num_nets(), 1);
    }

    #[test]
    fn text_order_lists_ids_as_their_decimal_texts_sort() {
        for n in [
            0usize, 1, 2, 9, 10, 11, 19, 20, 99, 100, 101, 110, 999, 1000, 1001, 4321,
        ] {
            let mut by_text: Vec<u32> = (0..n as u32).collect();
            by_text.sort_by_key(|id| id.to_string());
            assert_eq!(text_order(n), by_text, "n = {n}");
        }
    }

    #[test]
    fn duplicate_identical_connection_is_tolerated() {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let g = nb.add_gate("u1", CellKind::Inv);
        let y = nb.add_primary_output("y");
        nb.connect_to_gate(a, g, 0).expect("valid");
        nb.connect_to_gate(a, g, 0).expect("valid duplicate");
        nb.connect_to_output(g, y).expect("valid");
        let n = nb.build().expect("duplicate is a no-op");
        assert_eq!(n.num_nets(), 2);
    }

    #[test]
    fn wire_caps_accumulate_on_the_net() {
        let mut nb = nand_pair();
        let g1 = GateId(0);
        nb.add_wire_cap(PinRef::GateOutput(g1), 1.5)
            .expect("a gate output");
        nb.add_wire_cap(PinRef::GateOutput(g1), 0.5)
            .expect("a gate output");
        let n = nb.build().expect("well-formed");
        let net = n
            .nets()
            .iter()
            .find(|net| net.driver == PinRef::GateOutput(g1))
            .expect("net exists");
        assert_eq!(net.wire_cap_ff, 2.0);
    }

    #[test]
    fn wire_cap_on_a_gate_input_is_rejected() {
        let mut nb = nand_pair();
        let pin = PinRef::GateInput(GateId(0), 1);
        assert_eq!(
            nb.add_wire_cap(pin, 1.0),
            Err(ConnectError::NotADriver { pin })
        );
    }

    #[test]
    fn wire_cap_on_a_primary_output_is_rejected() {
        let mut nb = nand_pair();
        let pin = PinRef::PrimaryOutput(PortId(0));
        assert_eq!(
            nb.add_wire_cap(pin, 1.0),
            Err(ConnectError::NotADriver { pin })
        );
    }

    #[test]
    fn wire_cap_on_an_undeclared_gate_is_rejected() {
        let mut nb = nand_pair();
        assert_eq!(
            nb.add_wire_cap(PinRef::GateOutput(GateId(2)), 1.0),
            Err(ConnectError::UnknownGate { gate: 2 })
        );
    }

    #[test]
    fn wire_cap_on_an_undeclared_input_is_rejected() {
        let mut nb = nand_pair();
        assert_eq!(
            nb.add_wire_cap(PinRef::PrimaryInput(PortId(2)), 1.0),
            Err(ConnectError::UnknownPort {
                port: 2,
                output: false
            })
        );
    }

    #[test]
    fn feed_through_connection() {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let y = nb.add_primary_output("y");
        nb.connect_input_to_output(a, y).expect("declared ports");
        let n = nb.build().expect("feed-through is valid");
        assert_eq!(n.num_nets(), 1);
        assert_eq!(n.num_gates(), 0);
    }

    #[test]
    fn ids_display() {
        assert_eq!(GateId(4).to_string(), "g4");
        assert_eq!(GateId(4).index(), 4);
        assert_eq!(PortId(2).index(), 2);
    }
}
