//! Pins what `parse_verilog` returns, bit for bit: one checksum of the
//! parsed netlist (gates, ports, nets in order, drives and wire caps) of
//! the pipeline fixture and of every paper circuit written with drive and
//! wire-cap pragmas, and one checksum over the results of a few thousand
//! seeded mutations of a written netlist — each result the parsed
//! netlist's checksum or the error's `Display` text.
//!
//! The constants were captured before the reader and the netlist builder
//! were rewritten, so the rewrite must reproduce every net order, every
//! accepted input and every error message of the reader it replaced.

use gpasta_circuits::PaperCircuit;
use gpasta_sta::{parse_verilog, write_verilog, GateId, Netlist, PinRef};
use gpasta_tdg::checksum;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

const SCALE: f64 = 0.004;

/// The pipeline fixture's checksum.
const PIPELINE: u64 = 0x2c3cf8aee516ec44;

#[rustfmt::skip]
const CIRCUITS: &[(PaperCircuit, u64)] = &[
    (PaperCircuit::AesCore, 0xc17a68fe445ae992),
    (PaperCircuit::DesPerf, 0xf9bb0bdf5654e33a),
    (PaperCircuit::VgaLcd, 0xdac5eb03f61628c6),
    (PaperCircuit::Leon3mp, 0x877ea9b89b54ad2f),
    (PaperCircuit::Netcard, 0xd3701725d651a862),
    (PaperCircuit::Leon2, 0x9ff7f17bf1bd174d),
];

/// Mutated netlists parsed, how many of them parse, and the checksum of
/// all their results in order.
const MUTATIONS: u64 = 2400;
const MUTATIONS_OK: usize = 654;
const MUTATIONS_CHECKSUM: u64 = 0xe454f7f329569e07;

fn put_str(bytes: &mut Vec<u8>, s: &str) {
    bytes.extend((s.len() as u32).to_le_bytes());
    bytes.extend(s.as_bytes());
}

fn put_pin(bytes: &mut Vec<u8>, pin: PinRef) {
    let (tag, id, pin) = match pin {
        PinRef::PrimaryInput(p) => (0u8, p.0, 0u8),
        PinRef::PrimaryOutput(p) => (1, p.0, 0),
        PinRef::GateInput(g, pin) => (2, g.0, pin),
        PinRef::GateOutput(g) => (3, g.0, 0),
    };
    bytes.push(tag);
    bytes.extend(id.to_le_bytes());
    bytes.push(pin);
}

/// The checksum of every field of `netlist`, in order.
fn netlist_checksum(netlist: &Netlist) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend((netlist.num_gates() as u32).to_le_bytes());
    for gate in netlist.gates() {
        put_str(&mut bytes, &gate.name);
        put_str(&mut bytes, gate.cell.name());
        bytes.extend(gate.drive.to_bits().to_le_bytes());
    }
    for names in [netlist.input_names(), netlist.output_names()] {
        bytes.extend((names.len() as u32).to_le_bytes());
        for name in names {
            put_str(&mut bytes, name);
        }
    }
    bytes.extend((netlist.num_nets() as u32).to_le_bytes());
    for net in netlist.nets() {
        put_pin(&mut bytes, net.driver);
        bytes.extend((net.sinks.len() as u32).to_le_bytes());
        for &sink in &net.sinks {
            put_pin(&mut bytes, sink);
        }
        bytes.extend(net.wire_cap_ff.to_bits().to_le_bytes());
    }
    checksum(&bytes)
}

/// `circuit` at [`SCALE`] with every 7th gate repowered, as Verilog.
fn written(circuit: PaperCircuit) -> String {
    let mut netlist = circuit.build(SCALE);
    for g in (0..netlist.num_gates()).step_by(7) {
        netlist.set_drive(GateId(g as u32), 1.0 + (g % 5) as f32 * 0.375);
    }
    write_verilog(&netlist, circuit.name())
}

#[test]
fn the_pipeline_fixture_parses_to_its_pinned_netlist() {
    let text = include_str!("../../../tests/fixtures/pipeline.v");
    let netlist = parse_verilog(text).expect("the fixture parses");
    assert_eq!(
        netlist_checksum(&netlist),
        PIPELINE,
        "{:#018x}",
        netlist_checksum(&netlist)
    );
}

#[test]
fn written_paper_circuits_parse_to_their_pinned_netlists() {
    let mut got = Vec::new();
    for &(circuit, _) in CIRCUITS {
        let text = written(circuit);
        assert!(text.contains("// gpasta drive ") && text.contains("// gpasta wire_cap "));
        let netlist = parse_verilog(&text).expect("written netlists parse");
        got.push((circuit, netlist_checksum(&netlist)));
    }
    let shown: Vec<String> = got
        .iter()
        .map(|(c, x)| format!("({c:?}, {x:#018x})"))
        .collect();
    assert_eq!(got, CIRCUITS, "{}", shown.join(",\n"));
}

/// Tokens the mutations insert: structure, keywords, names that exist in
/// the netlist, and pragma fragments.
const TOKENS: &[&str] = &[
    ";",
    "(",
    ")",
    ",",
    ".",
    "=",
    " ",
    "\n",
    "\r\n",
    "//",
    "endmodule",
    "module m (a);",
    "input",
    "output",
    "wire",
    "assign",
    "INV",
    "NAND2",
    "DFF",
    "u3",
    "n5",
    "n0",
    ".a(n1)",
    ".y(",
    ".q(n7)",
    "in0",
    "out0",
    "// gpasta drive u1 2",
    "// gpasta wire_cap n2 0.5",
    "// gpasta bogus x 1",
    "// gpasta drive u1",
    "assign out1 = in0;",
    "INV ux (.a(in1), .y(n3));",
];

/// `text` with one to three random edits: delete, duplicate, join or split
/// lines, insert a token, truncate, give an instance a second `a` pin, or
/// rename a net.
fn mutate(text: &str, rng: &mut ChaCha8Rng) -> String {
    let mut text = text.to_owned();
    for _ in 0..rng.gen_range(1..=3) {
        let at = rng.gen_range(0..=text.len());
        match rng.gen_range(0..8) {
            0 => {
                let start = text[..at].rfind('\n').map_or(0, |i| i + 1);
                let end = text[at..].find('\n').map_or(text.len(), |i| at + i + 1);
                text.replace_range(start..end, "");
            }
            1 => text.insert_str(at, TOKENS.choose(rng).expect("tokens")),
            2 => text.truncate(at),
            3 => {
                if let Some(i) = text[at..].find('\n') {
                    text.replace_range(at + i..at + i + 1, " ");
                }
            }
            4 => text.insert(at, '\n'),
            5 => {
                let start = text[..at].rfind('\n').map_or(0, |i| i + 1);
                let end = text[at..].find('\n').map_or(text.len(), |i| at + i + 1);
                let line = text[start..end].to_owned();
                text.insert_str(end, &line);
            }
            6 => {
                if let Some(i) = text[at..].find(".y(") {
                    text.insert_str(at + i, ".a(in0), ");
                }
            }
            _ => {
                if let Some(i) = text[at..].find("(n") {
                    text.insert(at + i + 2, '1');
                }
            }
        }
    }
    text
}

#[test]
fn mutated_netlists_parse_or_fail_as_pinned() {
    let text = write_verilog(
        &{
            let mut n = PaperCircuit::AesCore.build(0.002);
            n.set_drive(GateId(1), 2.0);
            n
        },
        "mutant",
    );
    let mut results = Vec::new();
    let mut ok = 0;
    for seed in 0..MUTATIONS {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        match parse_verilog(&mutate(&text, &mut rng)) {
            Ok(netlist) => {
                ok += 1;
                results.extend(format!("ok {:016x}\n", netlist_checksum(&netlist)).bytes());
            }
            Err(e) => results.extend(format!("{e}\n").bytes()),
        }
    }
    let sum = checksum(&results);
    assert_eq!(
        (ok, sum),
        (MUTATIONS_OK, MUTATIONS_CHECKSUM),
        "({ok}, {sum:#018x})"
    );
}
