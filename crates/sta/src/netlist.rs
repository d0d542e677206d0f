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

    /// Wire a primary input to input pin `pin` of `gate`.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectError`] if the gate or pin index is invalid.
    pub fn connect_to_gate(
        &mut self,
        from: PortId,
        gate: GateId,
        pin: u8,
    ) -> Result<(), ConnectError> {
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
        if from.index() >= self.gates.len() {
            return Err(ConnectError::UnknownGate { gate: from.0 });
        }
        self.check_sink(to, pin)?;
        self.connections
            .push((PinRef::GateOutput(from), PinRef::GateInput(to, pin)));
        Ok(())
    }

    /// Wire gate `from`'s output to the primary output `out`.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectError::UnknownGate`] if `from` is invalid.
    pub fn connect_to_output(&mut self, from: GateId, out: PortId) -> Result<(), ConnectError> {
        if from.index() >= self.gates.len() {
            return Err(ConnectError::UnknownGate { gate: from.0 });
        }
        self.connections
            .push((PinRef::GateOutput(from), PinRef::PrimaryOutput(out)));
        Ok(())
    }

    /// Wire a primary input straight to a primary output (feed-through).
    pub fn connect_input_to_output(&mut self, from: PortId, out: PortId) {
        self.connections
            .push((PinRef::PrimaryInput(from), PinRef::PrimaryOutput(out)));
    }

    /// Add `cap_ff` of wire capacitance to the net driven by `driver`.
    pub fn add_wire_cap(&mut self, driver: PinRef, cap_ff: f32) {
        self.wire_caps.push((driver, cap_ff));
    }

    fn check_sink(&self, gate: GateId, pin: u8) -> Result<(), ConnectError> {
        let g = self
            .gates
            .get(gate.index())
            .ok_or(ConnectError::UnknownGate { gate: gate.0 })?;
        if usize::from(pin) >= g.cell.num_inputs() {
            return Err(ConnectError::PinOutOfRange {
                gate: gate.0,
                pin,
                num_inputs: g.cell.num_inputs(),
            });
        }
        Ok(())
    }

    /// Finalise into a [`Netlist`], merging per-sink connections into nets.
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
        // Group connections by driver.
        use std::collections::HashMap;
        let mut by_driver: HashMap<PinRef, Vec<PinRef>> = HashMap::new();
        let mut seen_sinks: HashMap<PinRef, PinRef> = HashMap::new();
        for (driver, sink) in self.connections {
            if let Some(prev) = seen_sinks.insert(sink, driver) {
                if prev != driver {
                    return Err(BuildNetlistError::MultipleDrivers {
                        sink: format!("{sink:?}"),
                    });
                }
                continue; // duplicate identical connection
            }
            by_driver.entry(driver).or_default().push(sink);
        }

        // Every gate input pin must be driven.
        for (g, gate) in self.gates.iter().enumerate() {
            for pin in 0..gate.cell.num_inputs() as u8 {
                let sink = PinRef::GateInput(GateId(g as u32), pin);
                if !seen_sinks.contains_key(&sink) {
                    return Err(BuildNetlistError::UnconnectedPin {
                        gate: gate.name.clone(),
                        pin,
                    });
                }
            }
        }
        // Every primary output must be driven.
        for (o, name) in self.outputs.iter().enumerate() {
            let sink = PinRef::PrimaryOutput(PortId(o as u32));
            if !seen_sinks.contains_key(&sink) {
                return Err(BuildNetlistError::UnconnectedOutput { name: name.clone() });
            }
        }

        let mut wire_caps: HashMap<PinRef, f32> = HashMap::new();
        for (driver, cap) in self.wire_caps {
            *wire_caps.entry(driver).or_insert(0.0) += cap;
        }

        let mut nets: Vec<Net> = by_driver
            .into_iter()
            .map(|(driver, mut sinks)| {
                // Deterministic sink order regardless of hash-map
                // iteration: by Debug text, rendered once per element.
                sinks.sort_by_cached_key(|s| format!("{s:?}"));
                Net {
                    driver,
                    sinks,
                    wire_cap_ff: wire_caps.get(&driver).copied().unwrap_or(0.0),
                }
            })
            .collect();
        nets.sort_by_cached_key(|n| format!("{:?}", n.driver));

        Ok(Netlist {
            gates: self.gates,
            inputs: self.inputs,
            outputs: self.outputs,
            nets,
        })
    }
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
        nb.add_wire_cap(PinRef::GateOutput(g1), 1.5);
        nb.add_wire_cap(PinRef::GateOutput(g1), 0.5);
        let n = nb.build().expect("well-formed");
        let net = n
            .nets()
            .iter()
            .find(|net| net.driver == PinRef::GateOutput(g1))
            .expect("net exists");
        assert_eq!(net.wire_cap_ff, 2.0);
    }

    #[test]
    fn feed_through_connection() {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let y = nb.add_primary_output("y");
        nb.connect_input_to_output(a, y);
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
