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
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::error::Error;
use std::fmt::{self, Write as _};
use std::hash::BuildHasher;

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
    /// Two instances share a name.
    DuplicateInstance {
        /// The name.
        name: String,
    },
    /// A port, net or instance name holds a character that ends or splits
    /// a name where the writer puts one — whitespace or one of `(),;=` —
    /// so the netlist could not be written back.
    InvalidName {
        /// 1-based line number of the statement.
        line: usize,
        /// The name.
        name: String,
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
            ParseVerilogError::DuplicateInstance { name } => {
                write!(f, "more than one instance is named `{name}`")
            }
            ParseVerilogError::InvalidName { line, name } => write!(
                f,
                "verilog name `{name}` at line {line} holds whitespace or one of `(),;=`"
            ),
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
///
/// Names and ids are copied into one buffer reserved from the design's
/// size; only the pragmas' floats are rendered by `Display`.
pub fn write_verilog(netlist: &Netlist, name: &str) -> String {
    let inputs = netlist.input_names();
    let outputs = netlist.output_names();
    let gates = netlist.gates();
    let num_gates = gates.len();
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
    // Every gate's wire, rendered once, as the wire list and most nets
    // name it several times: gate `g`'s is
    // `wires[wire_end[g - 1]..wire_end[g]]` (from 0 for gate 0).
    let mut wires = String::with_capacity(num_gates * (prefix.len() + 6));
    let mut wire_end = Vec::with_capacity(num_gates);
    for g in 0..num_gates {
        wires.push_str(prefix);
        put_decimal(&mut wires, g);
        wire_end.push(wires.len());
    }
    let wire = |g: usize| &wires[g.checked_sub(1).map_or(0, |p| wire_end[p])..wire_end[g]];
    // A driver's net name: the port's own name, or the gate's wire.
    let put_driver = |out: &mut String, driver: PinRef| match driver {
        PinRef::PrimaryInput(p) => out.push_str(&inputs[p.index()]),
        PinRef::GateOutput(g) => out.push_str(wire(g.index())),
        // Never a driver in a built netlist.
        PinRef::PrimaryOutput(_) | PinRef::GateInput(..) => {}
    };
    // About 80 bytes per gate: its wire, its instance and its share of the
    // pragmas.
    let ports = inputs.len() + outputs.len();
    let mut out = String::with_capacity(64 + name.len() + 24 * ports + 80 * num_gates);

    // Header.
    out.push_str("module ");
    out.push_str(name);
    out.push_str(" (");
    put_list(&mut out, inputs.iter().chain(outputs));
    out.push_str(");\n");
    if !inputs.is_empty() {
        out.push_str("  input ");
        put_list(&mut out, inputs.iter());
        out.push_str(";\n");
    }
    if !outputs.is_empty() {
        out.push_str("  output ");
        put_list(&mut out, outputs.iter());
        out.push_str(";\n");
    }
    if num_gates > 0 {
        out.push_str("  wire ");
        for g in 0..num_gates {
            if g > 0 {
                out.push_str(", ");
            }
            out.push_str(wire(g));
        }
        out.push_str(";\n");
    }
    out.push('\n');

    // The driver of every gate input pin (indexed densely: gate `g`'s
    // pins start at `pin_base[g]`) and of every PO.
    let mut pin_base = Vec::with_capacity(num_gates);
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
        out.push_str("  ");
        out.push_str(gate.cell.name());
        out.push(' ');
        out.push_str(&gate.name);
        out.push_str(" (");
        for pin in 0..gate.cell.num_inputs() {
            let driver = pin_driver[pin_base[g] + pin]
                .expect("netlist invariant: every input pin is driven");
            out.push('.');
            out.push_str(input_pin_name(gate.cell, pin as u8));
            out.push('(');
            put_driver(&mut out, driver);
            out.push_str("), ");
        }
        out.push('.');
        out.push_str(output_pin_name(gate.cell));
        out.push('(');
        out.push_str(wire(g));
        out.push_str("));\n");
    }

    // Primary outputs.
    for (oname, driver) in outputs.iter().zip(po_driver) {
        let driver = driver.expect("netlist invariant: every PO is driven");
        out.push_str("  assign ");
        out.push_str(oname);
        out.push_str(" = ");
        put_driver(&mut out, driver);
        out.push_str(";\n");
    }

    // Pragmas for state plain Verilog cannot carry. Writing into a
    // `String` cannot fail, so the `writeln!` results are dropped.
    for gate in gates {
        if gate.drive != 1.0 {
            out.push_str("  // gpasta drive ");
            out.push_str(&gate.name);
            let _ = writeln!(out, " {}", gate.drive);
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

/// `names`, separated by `", "`.
fn put_list<'n>(out: &mut String, names: impl Iterator<Item = &'n String>) {
    for (i, name) in names.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(name);
    }
}

/// `n` in decimal, as `Display` renders it.
fn put_decimal(out: &mut String, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        out.push(char::from(d));
    }
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

/// Parse the structural-Verilog subset back into a [`Netlist`].
///
/// One pass over the text with a byte cursor. An instance that lies within
/// its line in the common form `CELL name (.pin(net), ...);`, all printable
/// ASCII, is read as the cursor meets it: each byte is classified once, and
/// a name's delimiter test is also its validity check. Any other line —
/// declarations, `assign`s, pragmas, the `wire` list (skipped by `memchr`),
/// an instance with a comment, a non-ASCII byte or a fault in it — is read
/// by the line: trimmed, cut at its `//` comment and split at `;`. Only a
/// statement that spans lines is joined (each line's code followed by a
/// space) into a copy. Every net and port name is a key of one table, a
/// slice of the text hashed with the standard library's keyed hasher
/// because netlists arrive from the network. Instance names are hashed
/// with the same key into a list, sorted after the text, that rejects a
/// repeated name and resolves the drive pragmas.
///
/// # Errors
///
/// Returns [`ParseVerilogError`] for syntax problems, unknown cells or
/// pins, a name [`write_verilog`] could not write back
/// ([`ParseVerilogError::InvalidName`]), undriven nets, or a netlist that
/// fails semantic validation
/// (multiple drivers, dangling pins), or two instances of one name. Of
/// several, a malformed pragma wins (the first one, even after a faulty
/// statement), then an unterminated last statement, then the first faulty
/// statement before `endmodule`, then a missing module, then the first
/// instance that repeats a name, then the first undriven net and the
/// netlist's own checks.
pub fn parse_verilog(text: &str) -> Result<Netlist, ParseVerilogError> {
    parse_verilog_indexed(text).map(|(netlist, _)| netlist)
}

/// [`parse_verilog`], also returning the reader's by-name index of the
/// gates, so a caller that resolves gates by name need not hash and sort
/// the names again.
///
/// # Errors
///
/// As [`parse_verilog`].
pub fn parse_verilog_indexed(text: &str) -> Result<(Netlist, KeyedNames), ParseVerilogError> {
    let bytes = text.as_bytes();
    let mut reader = Reader::new(text);
    let (mut at, mut line) = (0, 0);
    while at < bytes.len() {
        line += 1;
        // What the cursor leaves of the line, the line reader reads.
        let indent = bytes[at..].iter().take_while(|&&b| b == b' ').count();
        let from = reader.instance(at + indent).unwrap_or(at);
        if from > at && bytes.get(from) == Some(&b'\n') {
            at = from + 1;
            continue;
        }
        let end = text[from..].find('\n').map_or(text.len(), |i| from + i);
        reader.line(line, &text[from..end], from == at)?;
        at = end + 1;
    }
    reader.finish()
}

/// The end of the name at `at` as the cursor reads one: printable ASCII
/// but `/` and `(),;=`, a subset of what [`checked`] lets through.
fn name_end(bytes: &[u8], at: usize) -> usize {
    let name = |b: &&u8| b.is_ascii_graphic() && !b"(),;=/".contains(b);
    bytes
        .get(at..)
        .map_or(at, |rest| at + rest.iter().take_while(name).count())
}

/// Where the first `//` of `s` starts.
fn find_comment(s: &str) -> Option<usize> {
    s.match_indices('/')
        .map(|(at, _)| at)
        .find(|&at| s.as_bytes().get(at + 1) == Some(&b'/'))
}

/// `name`, unless it holds whitespace or a byte that ends or splits a name
/// in the written syntax (`(),;=`): a name the writer could not write back
/// is [`ParseVerilogError::InvalidName`] at `line`.
fn checked(line: usize, name: &str) -> Result<&str, ParseVerilogError> {
    if !name.contains(|c: char| c.is_whitespace() || matches!(c, '(' | ')' | ',' | ';' | '=')) {
        Ok(name)
    } else {
        Err(ParseVerilogError::InvalidName {
            line,
            name: name.to_owned(),
        })
    }
}

/// The non-empty, trimmed items of a comma-separated list.
fn names(list: &str) -> impl Iterator<Item = &str> {
    list.split(',').map(str::trim).filter(|s| !s.is_empty())
}

/// What drives a net.
#[derive(Clone, Copy)]
enum Driver {
    Input(PortId),
    Gate(GateId),
}

/// What a net drives.
#[derive(Clone, Copy)]
enum Sink {
    Gate(GateId, u8),
    Output(PortId),
}

/// One name of the table: its net's driver, and the last output port
/// declared by this name.
#[derive(Clone, Copy, Default)]
struct Slot {
    driver: Option<Driver>,
    output: Option<PortId>,
}

/// The reader of one text: the netlist so far, the one table of net and
/// port names, the pragmas, and the statement being joined.
#[derive(Default)]
struct Reader<'k> {
    text: &'k str,
    nb: NetlistBuilder,
    /// Name -> its index in `slots`.
    names: HashMap<&'k str, u32>,
    slots: Vec<Slot>,
    /// Per output port: its name's slot, and whether an `assign` drives it.
    outputs: Vec<(u32, bool)>,
    /// (slot, sink), resolved at the end: a later input declaration may
    /// still drive a net.
    sinks: Vec<(u32, Sink)>,
    /// Per gate: its name's hash under `names`' key.
    gate_hashes: Vec<u64>,
    seen_module: bool,
    drive_pragmas: Vec<(&'k str, f32)>,
    cap_pragmas: Vec<(&'k str, f32)>,
    /// A statement that spans lines, joined so far, and its first line.
    joined: String,
    start_line: usize,
    /// Why statements are no longer read: `endmodule`, or the first faulty
    /// statement's error, which waits until the rest of the text is scanned
    /// for a malformed pragma and an unterminated statement.
    stop: Option<Result<(), ParseVerilogError>>,
    /// Where in the text the line reader looks for the next name.
    found: usize,
}

impl<'k> Reader<'k> {
    /// A reader for `text`. A written netlist has a net name per ≈ 55
    /// bytes, a gate per ≈ 65 and a sink per ≈ 23, so the table, the gates
    /// and the sinks are reserved for a few more and rarely grow.
    fn new(text: &'k str) -> Self {
        let len = text.len();
        Reader {
            text,
            nb: NetlistBuilder::with_capacity(len / 60, len / 20),
            names: HashMap::with_capacity(len / 48),
            slots: Vec::with_capacity(len / 48),
            sinks: Vec::with_capacity(len / 20),
            gate_hashes: Vec::with_capacity(len / 64),
            ..Reader::default()
        }
    }

    /// The slot of `name`, a new one if the name is new.
    fn slot(&mut self, name: &'k str) -> usize {
        let next = self.slots.len();
        let slot = *self.names.entry(name).or_insert(next as u32) as usize;
        if slot == next {
            self.slots.push(Slot::default());
        }
        slot
    }

    /// Make net `name` driven by `driver`, unless it already is.
    fn drive(&mut self, name: &'k str, driver: Driver) -> Result<(), ParseVerilogError> {
        let slot = self.slot(name);
        match self.slots[slot].driver.replace(driver) {
            Some(_) => Err(ParseVerilogError::DoubleDrivenNet {
                net: name.to_owned(),
            }),
            None => Ok(()),
        }
    }

    /// Add gate `name` of `kind`.
    fn gate(&mut self, name: &str, kind: CellKind) -> GateId {
        self.gate_hashes.push(self.names.hasher().hash_one(name));
        self.nb.add_gate(name, kind)
    }

    /// Connect `net` to input pin `input` of gate `g`, or with no pin, make
    /// `g` its driver.
    fn pin(&mut self, g: GateId, input: Option<u8>, net: &'k str) -> Result<(), ParseVerilogError> {
        let Some(pin) = input else {
            return self.drive(net, Driver::Gate(g));
        };
        let slot = self.slot(net);
        self.sinks.push((slot as u32, Sink::Gate(g, pin)));
        Ok(())
    }

    /// `name`, read at `line` by the line reader (maybe from a joined copy),
    /// as a slice of the text: the first occurrence of its bytes from the
    /// end of the last one found. A [`checked`] name holds no whitespace, so
    /// it lies within one line; names come in text order, so the searches
    /// cover the text once. One not found is refused as an invalid name.
    fn key(&mut self, line: usize, name: &str) -> Result<&'k str, ParseVerilogError> {
        let (text, from) = (self.text, self.found);
        let Some(at) = text[from..].find(name) else {
            return Err(ParseVerilogError::InvalidName {
                line,
                name: name.into(),
            });
        };
        self.found = from + at + name.len();
        Ok(&text[from + at..self.found])
    }

    /// Read the instance at byte `at` if statements are read, none is
    /// being joined, and it lies within its line exactly as
    /// [`write_verilog`] writes one — `CELL name (.p(net), .p(net));`, one
    /// space where the writer puts one, names as [`name_end`] reads them
    /// and known pins: the end of its `;`. Anything else is `None`, before
    /// any effect, and left to the line reader.
    fn instance(&mut self, at: usize) -> Option<usize> {
        if self.stop.is_some() || !self.joined.is_empty() {
            return None;
        }
        let (text, b) = (self.text, self.text.as_bytes());
        let word = name_end(b, at);
        let kind = CellKind::from_name(&text[at..word])?;
        let name = word + 1;
        let name_to = name_end(b, name);
        if b.get(word) != Some(&b' ') || name == name_to || b.get(name_to..name_to + 2)? != b" (" {
            return None;
        }
        // Each connection's input pin (none for the output) and net span.
        let mut conns = [(None, 0, 0); 4];
        let mut n = 0;
        let mut at = name_to + 2;
        let end = loop {
            let (net, net_to) = (at + 3, name_end(b, at + 3));
            if n == conns.len() || b.get(at) != Some(&b'.') || b.get(at + 2) != Some(&b'(') {
                return None;
            }
            let pin = text.get(at + 1..at + 2)?;
            let input = input_pin_index(kind, pin);
            if input.is_none() && pin != output_pin_name(kind)
                || net == net_to
                || b.get(net_to) != Some(&b')')
            {
                return None;
            }
            conns[n] = (input, net, net_to);
            n += 1;
            at = net_to + 3;
            match b.get(net_to + 1..at)? {
                b", " => {}
                b");" => break at,
                _ => return None,
            }
        };
        let gate = self.gate(&text[name..name_to], kind);
        for &(input, net, net_to) in &conns[..n] {
            if let Err(e) = self.pin(gate, input, &text[net..net_to]) {
                self.stop = Some(Err(e));
                break;
            }
        }
        self.found = end;
        Some(end)
    }

    /// Read `raw`, the rest of line `line`: the whole line when `fresh`,
    /// else what follows an instance the cursor read. Fails at a malformed
    /// pragma.
    fn line(&mut self, line: usize, raw: &'k str, fresh: bool) -> Result<(), ParseVerilogError> {
        let lead = raw.trim_start();
        if fresh && lead.starts_with("//") {
            if let Some(pragma) = lead.trim_end().strip_prefix("// gpasta ") {
                self.pragma(line, pragma)?;
            }
            return Ok(());
        }
        let code = match find_comment(lead) {
            Some(at) => &lead[..at],
            None => lead,
        }
        .trim_end();
        if code.is_empty() {
            return Ok(());
        }
        let mut rest = code;
        if !self.joined.is_empty() {
            let Some(end) = code.find(';') else {
                self.joined.push_str(code);
                self.joined.push(' ');
                return Ok(());
            };
            let mut joined = std::mem::take(&mut self.joined);
            joined.push_str(&code[..end]);
            self.statement(self.start_line, joined.trim());
            rest = code[end + 1..].trim_start();
        }
        while let Some(end) = rest.find(';') {
            self.statement(line, rest[..end].trim());
            rest = rest[end + 1..].trim_start();
        }
        if rest == "endmodule" {
            self.statement(line, rest);
        } else if !rest.is_empty() {
            self.joined.push_str(rest);
            self.joined.push(' ');
            self.start_line = line;
        }
        Ok(())
    }

    /// Record the pragma `// gpasta <body>` of `line`.
    fn pragma(&mut self, line: usize, body: &'k str) -> Result<(), ParseVerilogError> {
        let syntax = |message: String| ParseVerilogError::Syntax { line, message };
        let mut it = body.split_whitespace();
        let (kind, name) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
        let value = it.next().unwrap_or("").parse::<f32>();
        let value = value.map_err(|_| syntax("malformed gpasta pragma".into()))?;
        match kind {
            "drive" => self.drive_pragmas.push((name, value)),
            "wire_cap" => self.cap_pragmas.push((name, value)),
            other => return Err(syntax(format!("unknown pragma `{other}`"))),
        }
        Ok(())
    }

    /// Read one statement (without its `;`) that starts at `line`, while
    /// statements are read.
    fn statement(&mut self, line: usize, stmt: &str) {
        if self.stop.is_none() {
            self.stop = match self.read_statement(line, stmt) {
                Ok(true) => None,
                done => Some(done.map(drop)),
            };
        }
    }

    /// Read one statement that starts at `line`; false after `endmodule`.
    fn read_statement(&mut self, line: usize, stmt: &str) -> Result<bool, ParseVerilogError> {
        let syntax = |message: &str| ParseVerilogError::Syntax {
            line,
            message: message.to_owned(),
        };
        match stmt.split(char::is_whitespace).next().unwrap_or("") {
            // Port order and wire declarations are informational in this
            // subset.
            "module" => self.seen_module = true,
            "wire" | "" => {}
            "input" => {
                for name in names(&stmt["input".len()..]) {
                    let name = self.key(line, checked(line, name)?)?;
                    let id = self.nb.add_primary_input(name);
                    self.drive(name, Driver::Input(id))?;
                }
            }
            "output" => {
                for name in names(&stmt["output".len()..]) {
                    let name = self.key(line, checked(line, name)?)?;
                    let id = self.nb.add_primary_output(name);
                    let slot = self.slot(name);
                    self.slots[slot].output = Some(id);
                    self.outputs.push((slot as u32, false));
                }
            }
            "assign" => {
                // assign <output> = <net>
                let (lhs, rhs) = stmt["assign".len()..]
                    .trim()
                    .split_once('=')
                    .ok_or_else(|| syntax("assign without `=`"))?;
                let lhs = lhs.trim();
                let port = self
                    .names
                    .get(lhs)
                    .and_then(|&slot| self.slots[slot as usize].output)
                    .ok_or_else(|| syntax(&format!("assign target `{lhs}` is not an output")))?;
                let net = self.key(line, checked(line, rhs.trim())?)?;
                let slot = self.slot(net);
                self.sinks.push((slot as u32, Sink::Output(port)));
                self.outputs[port.index()].1 = true;
            }
            "endmodule" => return Ok(false),
            cell_name => {
                // CELL instance ( .pin(net), ... )
                let kind = CellKind::from_name(cell_name).ok_or_else(|| {
                    ParseVerilogError::UnknownCell {
                        name: cell_name.to_owned(),
                        instance: stmt.split_whitespace().nth(1).unwrap_or("?").to_owned(),
                    }
                })?;
                let rest = stmt[cell_name.len()..].trim();
                let open = rest
                    .find('(')
                    .ok_or_else(|| syntax("instance without a port list"))?;
                let inst_name = rest[..open].trim();
                if inst_name.is_empty() {
                    return Err(syntax("instance without a name"));
                }
                let inst_name = checked(line, inst_name)?;
                let gate = self.gate(inst_name, kind);

                for conn in names(rest[open + 1..].trim_end_matches(')')) {
                    let conn = conn.strip_prefix('.').ok_or_else(|| {
                        syntax(&format!("expected named connection, got `{conn}`"))
                    })?;
                    let p = conn
                        .find('(')
                        .ok_or_else(|| syntax(&format!("malformed connection `.{conn}`")))?;
                    let pin_name = conn[..p].trim();
                    let net = checked(line, conn[p + 1..].trim_end_matches(')').trim())?;
                    let input = input_pin_index(kind, pin_name);
                    if input.is_none() && pin_name != output_pin_name(kind) {
                        return Err(ParseVerilogError::UnknownPin {
                            instance: inst_name.to_owned(),
                            pin: pin_name.to_owned(),
                        });
                    }
                    let net = self.key(line, net)?;
                    self.pin(gate, input, net)?;
                }
            }
        }
        Ok(true)
    }

    /// Fail on a statement left unterminated or the first faulty one, then
    /// check the instance names, resolve every sink against its net's
    /// driver, apply the pragmas and build the netlist and its gates'
    /// by-name index.
    fn finish(mut self) -> Result<(Netlist, KeyedNames), ParseVerilogError> {
        if !self.joined.is_empty() {
            return Err(ParseVerilogError::Syntax {
                line: self.start_line,
                message: format!("unterminated statement `{}`", self.joined.trim()),
            });
        }
        self.stop.transpose()?;
        let (mut nb, names, slots) = (self.nb, self.names, self.slots);
        if !self.seen_module {
            return Err(ParseVerilogError::Syntax {
                line: 1,
                message: "no module declaration".into(),
            });
        }
        let instances = KeyedNames::from_hashes(names.hasher().clone(), self.gate_hashes);
        if let Some(g) = instances.first_repeat(|g| nb.gate_name(g as usize)) {
            return Err(ParseVerilogError::DuplicateInstance {
                name: nb.gate_name(g as usize).to_owned(),
            });
        }

        // Hand-written netlists often drive an output port directly from
        // an instance pin (`.y(y)`) instead of via `assign`; synthesise the
        // implied output connection for any output that has a driver under
        // its own name but no explicit sink. (Of ports sharing a name, the
        // last declared is the one the name means.)
        for (o, &(slot, assigned)) in self.outputs.iter().enumerate() {
            let port = PortId(o as u32);
            let Slot { driver, output } = slots[slot as usize];
            if !assigned && output == Some(port) && matches!(driver, Some(Driver::Gate(_))) {
                self.sinks.push((slot, Sink::Output(port)));
            }
        }

        // Resolve sinks against drivers.
        let netlist_error = |e: ConnectError| ParseVerilogError::Netlist(e.to_string());
        for &(slot, sink) in &self.sinks {
            let Some(driver) = slots[slot as usize].driver else {
                // Only the error path looks a slot's name up.
                let net = names
                    .iter()
                    .find(|&(_, &s)| s == slot)
                    .map_or("", |(name, _)| name);
                return Err(ParseVerilogError::UndrivenNet { net: net.into() });
            };
            match (driver, sink) {
                (Driver::Input(p), Sink::Gate(g, pin)) => nb.connect_to_gate(p, g, pin),
                (Driver::Gate(d), Sink::Gate(g, pin)) => nb.connect_gates(d, g, pin),
                (Driver::Gate(d), Sink::Output(o)) => nb.connect_to_output(d, o),
                (Driver::Input(p), Sink::Output(o)) => nb.connect_input_to_output(p, o),
            }
            .map_err(netlist_error)?;
        }

        // Apply pragmas.
        for (net, cap) in self.cap_pragmas {
            let driver = names
                .get(net)
                .and_then(|&slot| slots[slot as usize].driver)
                .ok_or_else(|| ParseVerilogError::UndrivenNet { net: net.into() })?;
            let pin = match driver {
                Driver::Input(p) => PinRef::PrimaryInput(p),
                Driver::Gate(g) => PinRef::GateOutput(g),
            };
            nb.add_wire_cap(pin, cap).map_err(netlist_error)?;
        }
        let mut netlist = nb
            .build()
            .map_err(|e| ParseVerilogError::Netlist(e.to_string()))?;
        for (inst, drive) in self.drive_pragmas {
            let gate = instances
                .find(inst, |g| &netlist.gates()[g as usize].name)
                .ok_or_else(|| {
                    ParseVerilogError::Netlist(format!("pragma names unknown instance `{inst}`"))
                })?;
            netlist.set_drive(GateId(gate), drive);
        }
        Ok((netlist, instances))
    }
}

/// A by-name index of a design's objects — its gates, or its ports of one
/// direction: one `(name hash, id)` pair per object, sorted, while the
/// names stay where the netlist keeps them. The hash is keyed per index
/// ([`RandomState`]), so names crafted to collide cannot be prepared in
/// advance; equal hashes are told apart by comparing names.
/// [`parse_verilog_indexed`] returns the one its reader builds for the
/// gates.
#[derive(Debug)]
pub struct KeyedNames {
    hasher: RandomState,
    by_hash: Vec<(u64, u32)>,
}

impl KeyedNames {
    /// The index of `names`, object `i` being the `i`-th, under a fresh
    /// key.
    pub fn of<'n>(names: impl IntoIterator<Item = &'n str>) -> Self {
        let hasher = RandomState::new();
        let hashes = names
            .into_iter()
            .map(|name| hasher.hash_one(name))
            .collect();
        KeyedNames::from_hashes(hasher, hashes)
    }

    /// The index of the objects whose names `hasher` hashed to `hashes`.
    fn from_hashes(hasher: RandomState, hashes: Vec<u64>) -> Self {
        let mut by_hash: Vec<(u64, u32)> = hashes
            .into_iter()
            .enumerate()
            .map(|(id, hash)| (hash, id as u32))
            .collect();
        by_hash.sort_unstable();
        KeyedNames { hasher, by_hash }
    }

    /// How many objects the index holds.
    pub fn len(&self) -> usize {
        self.by_hash.len()
    }

    /// Whether the index holds no object.
    pub fn is_empty(&self) -> bool {
        self.by_hash.is_empty()
    }

    /// The lowest id named `name`, `name_of(id)` being object `id`'s name.
    pub fn find<'n>(&self, name: &str, name_of: impl Fn(u32) -> &'n str) -> Option<u32> {
        let hash = self.hasher.hash_one(name);
        let first = self.by_hash.partition_point(|&(h, _)| h < hash);
        self.by_hash[first..]
            .iter()
            .take_while(|&&(h, _)| h == hash)
            .find(|&&(_, id)| name_of(id) == name)
            .map(|&(_, id)| id)
    }

    /// The lowest id whose name a lower id has too.
    fn first_repeat<'n>(&self, name_of: impl Fn(u32) -> &'n str) -> Option<u32> {
        let mut repeat: Option<u32> = None;
        for run in self
            .by_hash
            .chunk_by(|a, b| a.0 == b.0)
            .filter(|run| run.len() > 1)
        {
            for (i, &(_, id)) in run.iter().enumerate().skip(1) {
                let name = name_of(id);
                if run[..i].iter().any(|&(_, lower)| name_of(lower) == name) {
                    repeat = Some(repeat.map_or(id, |r| r.min(id)));
                }
            }
        }
        repeat
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
        nb.add_wire_cap(PinRef::GateOutput(g1), 2.5)
            .expect("a gate output");
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
        nb.add_wire_cap(PinRef::GateOutput(g1), 2.5)
            .expect("a gate output");
        nb.add_wire_cap(PinRef::PrimaryInput(a), 0.125)
            .expect("an input");
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
    fn a_name_the_writer_cannot_write_back_is_rejected() {
        // `input a);` declared a net `a)`, which `write_verilog` wrote as
        // `.a(a))` and which then re-parsed as net `a`.
        let cases = [
            ("module t (a, y);\n input a);\n", 2, "a)"),
            ("module t (y);\n output y=z;\n", 2, "y=z"),
            (
                "module t (a);\n input a;\n INV u 1 (.a(a), .y(n));\n",
                3,
                "u 1",
            ),
            (
                "module t (a);\n input a;\n INV u1 (.a(a), .y(n\u{a0}0));\n",
                3,
                "n\u{a0}0",
            ),
            ("module t (y);\n output y;\n assign y = (b;\n", 3, "(b"),
        ];
        for (text, line, name) in cases {
            assert_eq!(
                parse_verilog(text),
                Err(ParseVerilogError::InvalidName {
                    line,
                    name: name.into()
                }),
                "{text}"
            );
        }
        let err = parse_verilog(cases[0].0).expect_err("rejected");
        assert_eq!(
            err.to_string(),
            "verilog name `a)` at line 2 holds whitespace or one of `(),;=`"
        );
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
    fn an_input_declared_after_its_driving_instance_is_a_second_driver() {
        let text = "module t (y);\n output y;\n INV u1 (.a(a), .y(n0));\n input n0;\n input a;\n assign y = n0;\nendmodule\n";
        assert_eq!(
            parse_verilog(text),
            Err(ParseVerilogError::DoubleDrivenNet { net: "n0".into() })
        );
    }

    #[test]
    fn an_instance_driving_a_declared_input_is_a_second_driver() {
        let text = "module t (n0, y);\n input n0;\n output y;\n INV u1 (.a(n0), .y(n0));\n assign y = n0;\nendmodule\n";
        assert_eq!(
            parse_verilog(text),
            Err(ParseVerilogError::DoubleDrivenNet { net: "n0".into() })
        );
    }

    #[test]
    fn two_instances_of_one_name_are_rejected() {
        // The first repeated name is reported, whatever the hash order.
        let text = "module t (a, y);\n input a;\n output y;\n INV u2 (.a(a), .y(n0));\n INV u1 (.a(n0), .y(n1));\n INV u2 (.a(n1), .y(n2));\n INV u1 (.a(n2), .y(n3));\n assign y = n3;\n // gpasta drive u1 2\nendmodule\n";
        let e = parse_verilog(text).expect_err("a repeated instance name");
        assert_eq!(
            e,
            ParseVerilogError::DuplicateInstance { name: "u2".into() }
        );
        assert_eq!(e.to_string(), "more than one instance is named `u2`");
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
