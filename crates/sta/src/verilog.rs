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

use crate::library::CellKind;
use crate::netlist::{GateId, Netlist, NetlistBuilder, PinRef, PortId};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

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
    let mut out = String::new();
    // Wire names must not collide with port names; pick the first prefix
    // whose generated names are all free.
    let ports: std::collections::HashSet<&str> = netlist
        .input_names()
        .iter()
        .chain(netlist.output_names())
        .map(String::as_str)
        .collect();
    let prefix = ["n", "w", "net", "gpasta_n"]
        .into_iter()
        .find(|pfx| (0..netlist.num_gates()).all(|g| !ports.contains(format!("{pfx}{g}").as_str())))
        .unwrap_or("gpasta_wire_");
    let wire_of_gate = |g: u32| format!("{prefix}{g}");

    // Header.
    let port_list: Vec<&str> = netlist
        .input_names()
        .iter()
        .chain(netlist.output_names())
        .map(String::as_str)
        .collect();
    out.push_str(&format!("module {name} ({});\n", port_list.join(", ")));
    if !netlist.input_names().is_empty() {
        out.push_str(&format!("  input {};\n", netlist.input_names().join(", ")));
    }
    if !netlist.output_names().is_empty() {
        out.push_str(&format!(
            "  output {};\n",
            netlist.output_names().join(", ")
        ));
    }
    if netlist.num_gates() > 0 {
        let wires: Vec<String> = (0..netlist.num_gates() as u32).map(wire_of_gate).collect();
        out.push_str(&format!("  wire {};\n", wires.join(", ")));
    }
    out.push('\n');

    // Resolve, for every gate input pin and PO, the name of its driving
    // net.
    let mut driver_name: HashMap<PinRef, String> = HashMap::new();
    for (i, n) in netlist.input_names().iter().enumerate() {
        driver_name.insert(PinRef::PrimaryInput(PortId(i as u32)), n.clone());
    }
    for g in 0..netlist.num_gates() as u32 {
        driver_name.insert(PinRef::GateOutput(GateId(g)), wire_of_gate(g));
    }
    let mut sink_net: HashMap<PinRef, String> = HashMap::new();
    for net in netlist.nets() {
        let dname = driver_name[&net.driver].clone();
        for &sink in &net.sinks {
            sink_net.insert(sink, dname.clone());
        }
    }

    // Instances.
    for (g, gate) in netlist.gates().iter().enumerate() {
        let g32 = g as u32;
        let mut pins = Vec::new();
        for pin in 0..gate.cell.num_inputs() as u8 {
            let net = sink_net
                .get(&PinRef::GateInput(GateId(g32), pin))
                .expect("netlist invariant: every input pin is driven");
            pins.push(format!(".{}({net})", input_pin_name(gate.cell, pin)));
        }
        pins.push(format!(
            ".{}({})",
            output_pin_name(gate.cell),
            wire_of_gate(g32)
        ));
        out.push_str(&format!(
            "  {} {} ({});\n",
            gate.cell,
            gate.name,
            pins.join(", ")
        ));
    }

    // Primary outputs.
    for (o, oname) in netlist.output_names().iter().enumerate() {
        let net = sink_net
            .get(&PinRef::PrimaryOutput(PortId(o as u32)))
            .expect("netlist invariant: every PO is driven");
        out.push_str(&format!("  assign {oname} = {net};\n"));
    }

    // Pragmas for state plain Verilog cannot carry.
    for (g, gate) in netlist.gates().iter().enumerate() {
        if gate.drive != 1.0 {
            out.push_str(&format!("  // gpasta drive {} {}\n", gate.name, gate.drive));
        }
        let _ = g;
    }
    for net in netlist.nets() {
        if net.wire_cap_ff != 0.0 {
            out.push_str(&format!(
                "  // gpasta wire_cap {} {}\n",
                driver_name[&net.driver], net.wire_cap_ff
            ));
        }
    }

    out.push_str("endmodule\n");
    out
}

fn kind_from_name(name: &str) -> Option<CellKind> {
    CellKind::all().iter().copied().find(|k| k.name() == name)
}

/// Parse the structural-Verilog subset back into a [`Netlist`].
///
/// # Errors
///
/// Returns [`ParseVerilogError`] for syntax problems, unknown cells or
/// pins, undriven nets, or a netlist that fails semantic validation
/// (multiple drivers, dangling pins).
pub fn parse_verilog(text: &str) -> Result<Netlist, ParseVerilogError> {
    // Collect pragmas before stripping comments.
    let mut drive_pragmas: Vec<(String, f32)> = Vec::new();
    let mut cap_pragmas: Vec<(String, f32)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if let Some(p) = line.trim().strip_prefix("// gpasta ") {
            let mut it = p.split_whitespace();
            let kind = it.next().unwrap_or("");
            let name = it.next().unwrap_or("").to_owned();
            let value: f32 =
                it.next()
                    .unwrap_or("")
                    .parse()
                    .map_err(|_| ParseVerilogError::Syntax {
                        line: i + 1,
                        message: "malformed gpasta pragma".into(),
                    })?;
            match kind {
                "drive" => drive_pragmas.push((name, value)),
                "wire_cap" => cap_pragmas.push((name, value)),
                other => {
                    return Err(ParseVerilogError::Syntax {
                        line: i + 1,
                        message: format!("unknown pragma `{other}`"),
                    })
                }
            }
        }
    }

    // Statement-split the comment-free text, tracking line numbers.
    let mut statements: Vec<(usize, String)> = Vec::new();
    let mut current = String::new();
    let mut start_line = 1usize;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split("//").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if current.is_empty() {
            start_line = i + 1;
        }
        current.push_str(line);
        current.push(' ');
        // `module ...;`-style statements end with `;`; `endmodule` stands
        // alone.
        while let Some(pos) = current.find(';') {
            let stmt: String = current[..pos].trim().to_owned();
            statements.push((start_line, stmt));
            current = current[pos + 1..].trim_start().to_owned();
            start_line = i + 1;
        }
        if current.trim() == "endmodule" {
            statements.push((start_line, "endmodule".to_owned()));
            current.clear();
        }
    }
    if !current.trim().is_empty() {
        return Err(ParseVerilogError::Syntax {
            line: start_line,
            message: format!("unterminated statement `{}`", current.trim()),
        });
    }

    let mut nb = NetlistBuilder::new();
    let mut inputs: HashMap<String, PortId> = HashMap::new();
    let mut outputs: HashMap<String, PortId> = HashMap::new();
    let mut wires: Vec<String> = Vec::new();
    // net name -> driver, filled as instances are parsed.
    let mut drivers: HashMap<String, PinRef> = HashMap::new();
    // (net name, sink), resolved at the end.
    let mut sinks: Vec<(usize, String, PinRef)> = Vec::new();
    let mut port_order: Vec<String> = Vec::new();
    let mut gate_names: HashMap<String, GateId> = HashMap::new();
    let mut seen_module = false;

    for (line, stmt) in statements {
        let mut words = stmt.split_whitespace();
        match words.next() {
            Some("module") => {
                seen_module = true;
                let rest = stmt["module".len()..].trim();
                if let Some(open) = rest.find('(') {
                    let list = rest[open + 1..].trim_end_matches(')');
                    port_order = list
                        .split(',')
                        .map(|s| s.trim().to_owned())
                        .filter(|s| !s.is_empty())
                        .collect();
                }
            }
            Some("input") => {
                for name in stmt["input".len()..].split(',').map(str::trim) {
                    if name.is_empty() {
                        continue;
                    }
                    let id = nb.add_primary_input(name);
                    inputs.insert(name.to_owned(), id);
                    drivers.insert(name.to_owned(), PinRef::PrimaryInput(id));
                }
            }
            Some("output") => {
                for name in stmt["output".len()..].split(',').map(str::trim) {
                    if name.is_empty() {
                        continue;
                    }
                    let id = nb.add_primary_output(name);
                    outputs.insert(name.to_owned(), id);
                }
            }
            Some("wire") => {
                for name in stmt["wire".len()..].split(',').map(str::trim) {
                    if !name.is_empty() {
                        wires.push(name.to_owned());
                    }
                }
            }
            Some("assign") => {
                // assign <output> = <net>
                let body = stmt["assign".len()..].trim();
                let mut parts = body.splitn(2, '=');
                let lhs = parts.next().unwrap_or("").trim();
                let rhs = parts
                    .next()
                    .ok_or_else(|| ParseVerilogError::Syntax {
                        line,
                        message: "assign without `=`".into(),
                    })?
                    .trim();
                let port = outputs.get(lhs).ok_or_else(|| ParseVerilogError::Syntax {
                    line,
                    message: format!("assign target `{lhs}` is not an output"),
                })?;
                sinks.push((line, rhs.to_owned(), PinRef::PrimaryOutput(*port)));
            }
            Some("endmodule") => break,
            Some(cell_name) => {
                // CELL instance ( .pin(net), ... )
                let kind =
                    kind_from_name(cell_name).ok_or_else(|| ParseVerilogError::UnknownCell {
                        name: cell_name.to_owned(),
                        instance: words.next().unwrap_or("?").to_owned(),
                    })?;
                let rest = stmt[cell_name.len()..].trim();
                let open = rest.find('(').ok_or_else(|| ParseVerilogError::Syntax {
                    line,
                    message: "instance without a port list".into(),
                })?;
                let inst_name = rest[..open].trim().to_owned();
                if inst_name.is_empty() {
                    return Err(ParseVerilogError::Syntax {
                        line,
                        message: "instance without a name".into(),
                    });
                }
                let gate = nb.add_gate(&inst_name, kind);
                gate_names.insert(inst_name.clone(), gate);

                let list = rest[open + 1..].trim_end_matches(')');
                for conn in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                    let conn = conn
                        .strip_prefix('.')
                        .ok_or_else(|| ParseVerilogError::Syntax {
                            line,
                            message: format!("expected named connection, got `{conn}`"),
                        })?;
                    let p = conn.find('(').ok_or_else(|| ParseVerilogError::Syntax {
                        line,
                        message: format!("malformed connection `.{conn}`"),
                    })?;
                    let pin_name = conn[..p].trim();
                    let net = conn[p + 1..].trim_end_matches(')').trim().to_owned();
                    if pin_name == output_pin_name(kind) {
                        if drivers
                            .insert(net.clone(), PinRef::GateOutput(gate))
                            .is_some()
                        {
                            return Err(ParseVerilogError::DoubleDrivenNet { net });
                        }
                    } else if let Some(idx) = input_pin_index(kind, pin_name) {
                        sinks.push((line, net, PinRef::GateInput(gate, idx)));
                    } else {
                        return Err(ParseVerilogError::UnknownPin {
                            instance: inst_name.clone(),
                            pin: pin_name.to_owned(),
                        });
                    }
                }
            }
            None => {}
        }
    }
    if !seen_module {
        return Err(ParseVerilogError::Syntax {
            line: 1,
            message: "no module declaration".into(),
        });
    }
    let _ = (wires, port_order); // declarations are informational in this subset

    // Hand-written netlists often drive an output port directly from an
    // instance pin (`.y(y)`) instead of via `assign`; synthesise the
    // implied output connection for any output that has a driver under its
    // own name but no explicit sink yet.
    let connected: HashSet<PortId> = sinks
        .iter()
        .filter_map(|&(_, _, s)| match s {
            PinRef::PrimaryOutput(port) => Some(port),
            _ => None,
        })
        .collect();
    for (name, &port) in &outputs {
        if !connected.contains(&port) {
            if let Some(PinRef::GateOutput(_)) = drivers.get(name) {
                sinks.push((0, name.clone(), PinRef::PrimaryOutput(port)));
            }
        }
    }

    // Resolve sinks against drivers.
    for (line, net, sink) in sinks {
        let driver = drivers
            .get(&net)
            .copied()
            .ok_or(ParseVerilogError::UndrivenNet { net: net.clone() })?;
        let _ = line;
        match (driver, sink) {
            (PinRef::PrimaryInput(p), PinRef::GateInput(g, pin)) => {
                nb.connect_to_gate(p, g, pin)
                    .map_err(|e| ParseVerilogError::Netlist(e.to_string()))?;
            }
            (PinRef::GateOutput(d), PinRef::GateInput(g, pin)) => {
                nb.connect_gates(d, g, pin)
                    .map_err(|e| ParseVerilogError::Netlist(e.to_string()))?;
            }
            (PinRef::GateOutput(d), PinRef::PrimaryOutput(o)) => {
                nb.connect_to_output(d, o)
                    .map_err(|e| ParseVerilogError::Netlist(e.to_string()))?;
            }
            (PinRef::PrimaryInput(p), PinRef::PrimaryOutput(o)) => {
                nb.connect_input_to_output(p, o);
            }
            other => {
                return Err(ParseVerilogError::Netlist(format!(
                    "unsupported connection {other:?}"
                )))
            }
        }
    }

    // Apply pragmas.
    for (net, cap) in cap_pragmas {
        let driver = drivers
            .get(&net)
            .copied()
            .ok_or(ParseVerilogError::UndrivenNet { net: net.clone() })?;
        nb.add_wire_cap(driver, cap);
    }
    let mut netlist = nb
        .build()
        .map_err(|e| ParseVerilogError::Netlist(e.to_string()))?;
    for (inst, drive) in drive_pragmas {
        let gate = gate_names.get(&inst).ok_or_else(|| {
            ParseVerilogError::Netlist(format!("pragma names unknown instance `{inst}`"))
        })?;
        netlist.set_drive(*gate, drive);
    }
    Ok(netlist)
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
