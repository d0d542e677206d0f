//! A structural-Verilog subset reader and writer for [`Netlist`].
//!
//! The subset covers what gate-level netlists use: a single module with
//! scalar ports, `wire` declarations, named-port cell instances, and
//! `assign` feed-throughs:
//!
//! ```verilog
//! module top (a, b, y);
//!   input a, b;
//!   output y;
//!   wire n0;
//!
//!   NAND2 u0 (.a(a), .b(b), .y(n0));
//!   INV u1 (.a(n0), .y(y));
//! endmodule
//! ```
//!
//! Cell pins follow this library's convention: combinational inputs are
//! `a`, `b`, `c` by position and the output is `y`; flip-flops use `d` and
//! `q`. Drive strengths and wire capacitances — which plain structural
//! Verilog cannot express — round-trip through `// gpasta:` pragma
//! comments emitted by [`write_verilog`].

use crate::error::ConnectError;
use crate::library::CellKind;
use crate::netlist::{GateId, Netlist, NetlistBuilder, PinRef, PortId};
use std::borrow::Cow;
use std::collections::HashMap;
use std::error::Error;
use std::fmt::{self, Write as _};

/// Error produced by [`parse_verilog`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseVerilogError {
    /// Lexing or structural failure at a line.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// An instance used a cell name outside the library.
    UnknownCell {
        /// The unknown cell.
        name: String,
        /// The instance using it.
        instance: String,
    },
    /// An instance pin name does not exist on its cell.
    UnknownPin {
        /// The instance.
        instance: String,
        /// The bad pin.
        pin: String,
    },
    /// A net name was referenced but never driven or declared.
    UndrivenNet {
        /// The net.
        net: String,
    },
    /// A net name was driven by two different pins.
    DoubleDrivenNet {
        /// The net.
        net: String,
    },
    /// The netlist failed semantic validation after parsing.
    Netlist(String),
}

impl fmt::Display for ParseVerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseVerilogError::Syntax { line, message } => {
                write!(f, "verilog syntax error at line {line}: {message}")
            }
            ParseVerilogError::UnknownCell { name, instance } => {
                write!(f, "instance `{instance}` uses unknown cell `{name}`")
            }
            ParseVerilogError::UnknownPin { instance, pin } => {
                write!(f, "instance `{instance}` has no pin `{pin}`")
            }
            ParseVerilogError::UndrivenNet { net } => write!(f, "net `{net}` has no driver"),
            ParseVerilogError::DoubleDrivenNet { net } => {
                write!(f, "net `{net}` has more than one driver")
            }
            ParseVerilogError::Netlist(msg) => write!(f, "invalid netlist: {msg}"),
        }
    }
}

impl Error for ParseVerilogError {}

/// Input pin name of `kind` at position `pin`.
fn input_pin_name(kind: CellKind, pin: u8) -> &'static str {
    if kind.is_sequential() {
        "d"
    } else {
        ["a", "b", "c"][pin as usize]
    }
}

/// Output pin name of `kind`.
fn output_pin_name(kind: CellKind) -> &'static str {
    if kind.is_sequential() {
        "q"
    } else {
        "y"
    }
}

fn input_pin_index(kind: CellKind, name: &str) -> Option<u8> {
    (0..kind.num_inputs() as u8).find(|&p| input_pin_name(kind, p) == name)
}

/// Render `netlist` as structural Verilog (module `name`).
pub fn write_verilog(netlist: &Netlist, name: &str) -> String {
    let inputs = netlist.input_names();
    let outputs = netlist.output_names();
    let num_gates = netlist.num_gates();
    // Wire names must not collide with port names; pick the first prefix
    // whose generated names are all free.
    let prefix = ["n", "w", "net", "gpasta_n"]
        .into_iter()
        .find(|pfx| {
            !inputs
                .iter()
                .chain(outputs)
                .any(|port| names_a_wire(port, pfx, num_gates))
        })
        .unwrap_or("gpasta_wire_");
    // A driver's net name: the port's own name, or the gate's wire.
    let put_driver = |out: &mut String, driver: PinRef| match driver {
        PinRef::PrimaryInput(p) => out.push_str(&inputs[p.index()]),
        PinRef::GateOutput(GateId(g)) => {
            let _ = write!(out, "{prefix}{g}");
        }
        // Never a driver in a built netlist.
        PinRef::PrimaryOutput(_) | PinRef::GateInput(..) => {}
    };
    // Writing into a `String` cannot fail, so `write!` results are
    // dropped below.
    let mut out = String::new();

    // Header.
    let ports: Vec<&str> = inputs.iter().chain(outputs).map(String::as_str).collect();
    let _ = writeln!(out, "module {name} ({});", ports.join(", "));
    if !inputs.is_empty() {
        let _ = writeln!(out, "  input {};", inputs.join(", "));
    }
    if !outputs.is_empty() {
        let _ = writeln!(out, "  output {};", outputs.join(", "));
    }
    if num_gates > 0 {
        out.push_str("  wire ");
        for g in 0..num_gates {
            if g > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{prefix}{g}");
        }
        out.push_str(";\n");
    }
    out.push('\n');

    // The driver of every gate input pin (indexed densely: gate `g`'s
    // pins start at `pin_base[g]`) and of every PO.
    let gates = netlist.gates();
    let mut pin_base = Vec::with_capacity(gates.len());
    let mut pins = 0;
    for gate in gates {
        pin_base.push(pins);
        pins += gate.cell.num_inputs();
    }
    let mut pin_driver: Vec<Option<PinRef>> = vec![None; pins];
    let mut po_driver: Vec<Option<PinRef>> = vec![None; outputs.len()];
    for net in netlist.nets() {
        for &sink in &net.sinks {
            match sink {
                PinRef::GateInput(g, pin) => {
                    pin_driver[pin_base[g.index()] + usize::from(pin)] = Some(net.driver);
                }
                PinRef::PrimaryOutput(o) => po_driver[o.index()] = Some(net.driver),
                PinRef::PrimaryInput(_) | PinRef::GateOutput(_) => {}
            }
        }
    }

    // Instances.
    for (g, gate) in gates.iter().enumerate() {
        let _ = write!(out, "  {} {} (", gate.cell, gate.name);
        for pin in 0..gate.cell.num_inputs() {
            let driver = pin_driver[pin_base[g] + pin]
                .expect("netlist invariant: every input pin is driven");
            let _ = write!(out, ".{}(", input_pin_name(gate.cell, pin as u8));
            put_driver(&mut out, driver);
            out.push_str("), ");
        }
        let _ = writeln!(out, ".{}({prefix}{g}));", output_pin_name(gate.cell));
    }

    // Primary outputs.
    for (oname, driver) in outputs.iter().zip(po_driver) {
        let driver = driver.expect("netlist invariant: every PO is driven");
        let _ = write!(out, "  assign {oname} = ");
        put_driver(&mut out, driver);
        out.push_str(";\n");
    }

    // Pragmas for state plain Verilog cannot carry.
    for gate in gates {
        if gate.drive != 1.0 {
            let _ = writeln!(out, "  // gpasta drive {} {}", gate.name, gate.drive);
        }
    }
    for net in netlist.nets() {
        if net.wire_cap_ff != 0.0 {
            out.push_str("  // gpasta wire_cap ");
            put_driver(&mut out, net.driver);
            let _ = writeln!(out, " {}", net.wire_cap_ff);
        }
    }

    out.push_str("endmodule\n");
    out
}

/// Whether `port` reads `{prefix}{g}` for a gate index `g < num_gates`
/// (`g` in canonical decimal, as `format!` renders it).
fn names_a_wire(port: &str, prefix: &str, num_gates: usize) -> bool {
    port.strip_prefix(prefix).is_some_and(|digits| {
        !digits.is_empty()
            && digits.bytes().all(|b| b.is_ascii_digit())
            && (digits == "0" || !digits.starts_with('0'))
            && digits.parse::<usize>().is_ok_and(|g| g < num_gates)
    })
}

fn kind_from_name(name: &str) -> Option<CellKind> {
    CellKind::all().iter().copied().find(|k| k.name() == name)
}

/// Parse the structural-Verilog subset back into a [`Netlist`].
///
/// One pass over the lines. A statement that lies within one line is read
/// in place; only one that spans lines is joined (the lines' text, each
/// followed by a space) into an owned buffer. Net, port and instance names
/// are keys into the text, hashed with the standard library's keyed hasher
/// because netlists arrive from the network.
///
/// # Errors
///
/// Returns [`ParseVerilogError`] for syntax problems, unknown cells or
/// pins, undriven nets, or a netlist that fails semantic validation
/// (multiple drivers, dangling pins). Of several, a malformed pragma wins
/// (the first one), then an unterminated last statement, then the first
/// faulty statement before `endmodule`, then a missing module, then the
/// first undriven net and the netlist's own checks.
pub fn parse_verilog(text: &str) -> Result<Netlist, ParseVerilogError> {
    let mut reader = Reader::default();
    // A statement that spans lines, joined so far, and its first line.
    let mut joined = String::new();
    let mut start_line = 1;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let code = match raw.find("//") {
            Some(at) => {
                if let Some(pragma) = raw.trim().strip_prefix("// gpasta ") {
                    reader.pragma(line, pragma)?;
                }
                &raw[..at]
            }
            None => raw,
        }
        .trim();
        if code.is_empty() {
            continue;
        }
        let mut rest = code;
        if !joined.is_empty() {
            let Some(end) = code.find(';') else {
                joined.push_str(code);
                joined.push(' ');
                continue;
            };
            joined.push_str(&code[..end]);
            reader.offer(start_line, joined.trim(), |name| {
                Cow::Owned(name.to_owned())
            });
            joined.clear();
            rest = code[end + 1..].trim_start();
        }
        while let Some(end) = rest.find(';') {
            reader.offer(line, rest[..end].trim(), Cow::Borrowed);
            rest = rest[end + 1..].trim_start();
        }
        if rest == "endmodule" {
            reader.ended = true;
        } else if !rest.is_empty() {
            joined.push_str(rest);
            joined.push(' ');
            start_line = line;
        }
    }
    if !joined.is_empty() {
        return Err(ParseVerilogError::Syntax {
            line: start_line,
            message: format!("unterminated statement `{}`", joined.trim()),
        });
    }
    reader.finish()
}

/// The state of [`parse_verilog`]: the netlist so far and the names seen,
/// each a key into the text (or, in a statement that spans lines, a copy).
#[derive(Default)]
struct Reader<'a> {
    nb: NetlistBuilder,
    outputs: HashMap<Cow<'a, str>, PortId>,
    /// Net name -> driver, filled as inputs and instances are read.
    drivers: HashMap<Cow<'a, str>, PinRef>,
    /// (net name, sink), resolved at the end: a later input declaration
    /// may still take a net's name.
    sinks: Vec<(Cow<'a, str>, PinRef)>,
    /// Whether an `assign` drives each output port.
    assigned: Vec<bool>,
    gate_names: HashMap<Cow<'a, str>, GateId>,
    drive_pragmas: Vec<(&'a str, f32)>,
    cap_pragmas: Vec<(&'a str, f32)>,
    seen_module: bool,
    /// `endmodule` or a faulty statement was read: what follows is only
    /// scanned for pragmas and an unterminated statement.
    ended: bool,
    /// The first faulty statement.
    failed: Option<ParseVerilogError>,
}

impl<'a> Reader<'a> {
    /// Record the pragma `// gpasta <body>` of `line`.
    fn pragma(&mut self, line: usize, body: &'a str) -> Result<(), ParseVerilogError> {
        let mut it = body.split_whitespace();
        let kind = it.next().unwrap_or("");
        let name = it.next().unwrap_or("");
        let value: f32 =
            it.next()
                .unwrap_or("")
                .parse()
                .map_err(|_| ParseVerilogError::Syntax {
                    line,
                    message: "malformed gpasta pragma".into(),
                })?;
        match kind {
            "drive" => self.drive_pragmas.push((name, value)),
            "wire_cap" => self.cap_pragmas.push((name, value)),
            other => {
                return Err(ParseVerilogError::Syntax {
                    line,
                    message: format!("unknown pragma `{other}`"),
                })
            }
        }
        Ok(())
    }

    /// Read a statement unless the module has ended; keep its fault.
    fn offer<'s>(&mut self, line: usize, stmt: &'s str, key: impl Fn(&'s str) -> Cow<'a, str>) {
        if !self.ended {
            if let Err(e) = self.statement(line, stmt, key) {
                self.failed = Some(e);
                self.ended = true;
            }
        }
    }

    /// Read one `;`-terminated statement (without its `;`) that starts at
    /// `line`; `key` makes a slice of it into a name that outlives it.
    fn statement<'s>(
        &mut self,
        line: usize,
        stmt: &'s str,
        key: impl Fn(&'s str) -> Cow<'a, str>,
    ) -> Result<(), ParseVerilogError> {
        let syntax = |message: &str| ParseVerilogError::Syntax {
            line,
            message: message.to_owned(),
        };
        let names = |list: &'s str| list.split(',').map(str::trim).filter(|s| !s.is_empty());
        let mut words = stmt.split_whitespace();
        match words.next() {
            // Port order and wire declarations are informational in this
            // subset.
            Some("module") => self.seen_module = true,
            Some("wire") | None => {}
            Some("input") => {
                for name in names(&stmt["input".len()..]) {
                    let id = self.nb.add_primary_input(name);
                    self.drivers.insert(key(name), PinRef::PrimaryInput(id));
                }
            }
            Some("output") => {
                for name in names(&stmt["output".len()..]) {
                    let id = self.nb.add_primary_output(name);
                    self.outputs.insert(key(name), id);
                    self.assigned.push(false);
                }
            }
            Some("assign") => {
                // assign <output> = <net>
                let (lhs, rhs) = stmt["assign".len()..]
                    .trim()
                    .split_once('=')
                    .ok_or_else(|| syntax("assign without `=`"))?;
                let lhs = lhs.trim();
                let port = *self
                    .outputs
                    .get(lhs)
                    .ok_or_else(|| syntax(&format!("assign target `{lhs}` is not an output")))?;
                self.sinks
                    .push((key(rhs.trim()), PinRef::PrimaryOutput(port)));
                self.assigned[port.index()] = true;
            }
            Some("endmodule") => self.ended = true,
            Some(cell_name) => {
                // CELL instance ( .pin(net), ... )
                let kind =
                    kind_from_name(cell_name).ok_or_else(|| ParseVerilogError::UnknownCell {
                        name: cell_name.to_owned(),
                        instance: words.next().unwrap_or("?").to_owned(),
                    })?;
                let rest = stmt[cell_name.len()..].trim();
                let open = rest
                    .find('(')
                    .ok_or_else(|| syntax("instance without a port list"))?;
                let inst_name = rest[..open].trim();
                if inst_name.is_empty() {
                    return Err(syntax("instance without a name"));
                }
                let gate = self.nb.add_gate(inst_name, kind);
                self.gate_names.insert(key(inst_name), gate);

                for conn in names(rest[open + 1..].trim_end_matches(')')) {
                    let conn = conn.strip_prefix('.').ok_or_else(|| {
                        syntax(&format!("expected named connection, got `{conn}`"))
                    })?;
                    let p = conn
                        .find('(')
                        .ok_or_else(|| syntax(&format!("malformed connection `.{conn}`")))?;
                    let pin_name = conn[..p].trim();
                    let net = conn[p + 1..].trim_end_matches(')').trim();
                    if pin_name == output_pin_name(kind) {
                        if self
                            .drivers
                            .insert(key(net), PinRef::GateOutput(gate))
                            .is_some()
                        {
                            return Err(ParseVerilogError::DoubleDrivenNet {
                                net: net.to_owned(),
                            });
                        }
                    } else if let Some(idx) = input_pin_index(kind, pin_name) {
                        self.sinks.push((key(net), PinRef::GateInput(gate, idx)));
                    } else {
                        return Err(ParseVerilogError::UnknownPin {
                            instance: inst_name.to_owned(),
                            pin: pin_name.to_owned(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Resolve every sink against its net's driver, apply the pragmas and
    /// build the netlist.
    fn finish(mut self) -> Result<Netlist, ParseVerilogError> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        if !self.seen_module {
            return Err(ParseVerilogError::Syntax {
                line: 1,
                message: "no module declaration".into(),
            });
        }

        // Hand-written netlists often drive an output port directly from
        // an instance pin (`.y(y)`) instead of via `assign`; synthesise the
        // implied output connection for any output that has a driver under
        // its own name but no explicit sink. (In map order: the builder
        // sorts each net's sinks.)
        for (name, &port) in &self.outputs {
            if !self.assigned[port.index()] {
                if let Some(PinRef::GateOutput(_)) = self.drivers.get(name) {
                    self.sinks.push((name.clone(), PinRef::PrimaryOutput(port)));
                }
            }
        }

        // Resolve sinks against drivers.
        let nb = &mut self.nb;
        let netlist_error = |e: ConnectError| ParseVerilogError::Netlist(e.to_string());
        for (net, sink) in self.sinks {
            let driver = *self
                .drivers
                .get(&*net)
                .ok_or_else(|| ParseVerilogError::UndrivenNet { net: net.into() })?;
            match (driver, sink) {
                (PinRef::PrimaryInput(p), PinRef::GateInput(g, pin)) => {
                    nb.connect_to_gate(p, g, pin).map_err(netlist_error)?;
                }
                (PinRef::GateOutput(d), PinRef::GateInput(g, pin)) => {
                    nb.connect_gates(d, g, pin).map_err(netlist_error)?;
                }
                (PinRef::GateOutput(d), PinRef::PrimaryOutput(o)) => {
                    nb.connect_to_output(d, o).map_err(netlist_error)?;
                }
                (PinRef::PrimaryInput(p), PinRef::PrimaryOutput(o)) => {
                    nb.connect_input_to_output(p, o).map_err(netlist_error)?;
                }
                other => {
                    return Err(ParseVerilogError::Netlist(format!(
                        "unsupported connection {other:?}"
                    )))
                }
            }
        }

        // Apply pragmas.
        for (net, cap) in self.cap_pragmas {
            let driver = *self
                .drivers
                .get(net)
                .ok_or_else(|| ParseVerilogError::UndrivenNet { net: net.into() })?;
            self.nb.add_wire_cap(driver, cap);
        }
        let mut netlist = self
            .nb
            .build()
            .map_err(|e| ParseVerilogError::Netlist(e.to_string()))?;
        for (inst, drive) in self.drive_pragmas {
            let gate = self.gate_names.get(inst).ok_or_else(|| {
                ParseVerilogError::Netlist(format!("pragma names unknown instance `{inst}`"))
            })?;
            netlist.set_drive(*gate, drive);
        }
        Ok(netlist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::CellLibrary;
    use crate::netlist::NetlistBuilder;

    fn sample() -> Netlist {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let b = nb.add_primary_input("b");
        let y = nb.add_primary_output("y");
        let q = nb.add_primary_output("q_out");
        let g1 = nb.add_gate("u1", CellKind::Nand2);
        let g2 = nb.add_gate("u2", CellKind::Inv);
        let ff = nb.add_gate("ff1", CellKind::Dff);
        nb.connect_to_gate(a, g1, 0).expect("valid");
        nb.connect_to_gate(b, g1, 1).expect("valid");
        nb.connect_gates(g1, g2, 0).expect("valid");
        nb.connect_to_output(g2, y).expect("valid");
        nb.connect_gates(g2, ff, 0).expect("valid");
        nb.connect_to_output(ff, q).expect("valid");
        nb.add_wire_cap(PinRef::GateOutput(g1), 2.5);
        let mut n = nb.build().expect("valid");
        n.set_drive(g2, 2.0);
        n
    }

    #[test]
    fn round_trips_a_netlist() {
        let n = sample();
        let text = write_verilog(&n, "top");
        let back = parse_verilog(&text).expect("own output parses");
        assert_eq!(n, back);
    }

    #[test]
    fn output_contains_expected_constructs() {
        let text = write_verilog(&sample(), "top");
        assert!(text.contains("module top (a, b, y, q_out);"));
        assert!(text.contains("input a, b;"));
        assert!(text.contains("NAND2 u1 (.a(a), .b(b), .y(n0));"));
        assert!(text.contains("DFF ff1 (.d(n1), .q(n2));"));
        assert!(text.contains("assign y = n1;"));
        assert!(text.contains("// gpasta drive u2 2"));
        assert!(text.contains("// gpasta wire_cap n0 2.5"));
        assert!(text.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn output_is_pinned_byte_for_byte() {
        // Ports named `n1` and `w0` take the `n` and `w` wire prefixes,
        // so the wires are `net*`; a primary input drives a pragma'd net.
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let n1 = nb.add_primary_input("n1");
        let y = nb.add_primary_output("y");
        let w0 = nb.add_primary_output("w0");
        let g1 = nb.add_gate("u1", CellKind::Nand2);
        let g2 = nb.add_gate("u2", CellKind::Inv);
        let ff = nb.add_gate("ff1", CellKind::Dff);
        nb.connect_to_gate(a, g1, 0).expect("valid");
        nb.connect_to_gate(n1, g1, 1).expect("valid");
        nb.connect_gates(g1, g2, 0).expect("valid");
        nb.connect_to_output(g2, y).expect("valid");
        nb.connect_gates(g2, ff, 0).expect("valid");
        nb.connect_to_output(ff, w0).expect("valid");
        nb.add_wire_cap(PinRef::GateOutput(g1), 2.5);
        nb.add_wire_cap(PinRef::PrimaryInput(a), 0.125);
        let mut n = nb.build().expect("valid");
        n.set_drive(g2, 2.0);
        n.set_drive(ff, 0.75);
        let expected = concat!(
            "module pinned (a, n1, y, w0);\n",
            "  input a, n1;\n",
            "  output y, w0;\n",
            "  wire net0, net1, net2;\n",
            "\n",
            "  NAND2 u1 (.a(a), .b(n1), .y(net0));\n",
            "  INV u2 (.a(net0), .y(net1));\n",
            "  DFF ff1 (.d(net1), .q(net2));\n",
            "  assign y = net1;\n",
            "  assign w0 = net2;\n",
            "  // gpasta drive u2 2\n",
            "  // gpasta drive ff1 0.75\n",
            "  // gpasta wire_cap net0 2.5\n",
            "  // gpasta wire_cap a 0.125\n",
            "endmodule\n",
        );
        assert_eq!(write_verilog(&n, "pinned"), expected);
    }

    #[test]
    fn round_trip_preserves_timing_behaviour() {
        use crate::timer::Timer;
        let n = sample();
        let text = write_verilog(&n, "top");
        let back = parse_verilog(&text).expect("parses");

        let mut t1 = Timer::new(n, CellLibrary::typical());
        t1.update_timing().run_sequential();
        let mut t2 = Timer::new(back, CellLibrary::typical());
        t2.update_timing().run_sequential();
        assert_eq!(t1.report(3).wns_ps, t2.report(3).wns_ps);
    }

    #[test]
    fn generated_circuits_round_trip() {
        // A bigger, machine-generated netlist must survive the trip too.
        let mut nb = NetlistBuilder::new();
        let pis: Vec<_> = (0..6)
            .map(|i| nb.add_primary_input(format!("in{i}")))
            .collect();
        let mut prev: Vec<GateId> = Vec::new();
        for (i, &pi) in pis.iter().enumerate() {
            let g = nb.add_gate(format!("g{i}"), CellKind::Buf);
            nb.connect_to_gate(pi, g, 0).expect("valid");
            prev.push(g);
        }
        for i in 0..8 {
            let g = nb.add_gate(format!("x{i}"), CellKind::Xor2);
            nb.connect_gates(prev[i % prev.len()], g, 0).expect("valid");
            nb.connect_gates(prev[(i + 1) % prev.len()], g, 1)
                .expect("valid");
            prev.push(g);
        }
        let po = nb.add_primary_output("out");
        nb.connect_to_output(*prev.last().expect("gates"), po)
            .expect("valid");
        let n = nb.build().expect("valid");

        let back = parse_verilog(&write_verilog(&n, "gen")).expect("parses");
        assert_eq!(n, back);
    }

    #[test]
    fn unknown_cell_and_pin_rejected() {
        let text = "module t (y);\n output y;\n FROB u1 (.y(y));\nendmodule\n";
        assert!(matches!(
            parse_verilog(text),
            Err(ParseVerilogError::UnknownCell { .. })
        ));
        let text = "module t (a, y);\n input a;\n output y;\n wire n0;\n INV u1 (.bogus(a), .y(n0));\n assign y = n0;\nendmodule\n";
        assert!(matches!(
            parse_verilog(text),
            Err(ParseVerilogError::UnknownPin { .. })
        ));
    }

    #[test]
    fn undriven_net_rejected() {
        let text = "module t (y);\n output y;\n wire n0;\n INV u1 (.a(nowhere), .y(n0));\n assign y = n0;\nendmodule\n";
        assert!(matches!(
            parse_verilog(text),
            Err(ParseVerilogError::UndrivenNet { .. })
        ));
    }

    #[test]
    fn missing_module_rejected() {
        assert!(matches!(
            parse_verilog("wire n0;\n"),
            Err(ParseVerilogError::Syntax { .. })
        ));
    }

    #[test]
    fn direct_output_connection_without_assign() {
        // Common hand-written idiom: the instance drives the output port
        // directly.
        let text = "module t (a, y);\n input a;\n output y;\n INV u1 (.a(a), .y(y));\nendmodule\n";
        let n = parse_verilog(text).expect("direct output connection parses");
        assert_eq!(n.num_gates(), 1);
        assert_eq!(n.num_nets(), 2);
        // And it analyses.
        let mut timer = crate::timer::Timer::new(n, CellLibrary::typical());
        timer.update_timing().run_sequential();
        assert_eq!(timer.report(1).num_endpoints, 1);
    }

    #[test]
    fn double_driven_net_rejected() {
        let text = "module t (a, y);\n input a;\n output y;\n wire n0;\n INV u1 (.a(a), .y(n0));\n INV u2 (.a(a), .y(n0));\n assign y = n0;\nendmodule\n";
        assert!(matches!(
            parse_verilog(text),
            Err(ParseVerilogError::DoubleDrivenNet { .. })
        ));
    }

    #[test]
    fn wire_names_avoid_port_collisions() {
        // Ports named n0/n1 must not collide with generated wires.
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("n0");
        let y = nb.add_primary_output("n1");
        let g = nb.add_gate("u1", CellKind::Inv);
        nb.connect_to_gate(a, g, 0).expect("valid");
        nb.connect_to_output(g, y).expect("valid");
        let n = nb.build().expect("valid");
        let text = write_verilog(&n, "t");
        let back = parse_verilog(&text).expect("parses");
        assert_eq!(n, back, "collision-safe naming must round trip");
    }

    #[test]
    fn feed_through_assign() {
        let text = "module t (a, y);\n input a;\n output y;\n assign y = a;\nendmodule\n";
        let n = parse_verilog(text).expect("feed-through parses");
        assert_eq!(n.num_gates(), 0);
        assert_eq!(n.num_nets(), 1);
    }

    #[test]
    fn multiline_statements_parse() {
        let text = "module t (a,\n          y);\n input a;\n output y;\n wire n0;\n INV u1 (.a(a),\n         .y(n0));\n assign y = n0;\nendmodule\n";
        let n = parse_verilog(text).expect("multi-line instance parses");
        assert_eq!(n.num_gates(), 1);
    }

    #[test]
    fn errors_display_cleanly() {
        let e = ParseVerilogError::UnknownPin {
            instance: "u1".into(),
            pin: "z".into(),
        };
        assert!(e.to_string().contains("u1"));
        assert!(e.to_string().contains("z"));
    }
}
