//! Pins what `parse_verilog` returns, bit for bit: one checksum of the
//! parsed netlist (gates, ports, nets in order, drives and wire caps) of
//! the pipeline fixture and of every paper circuit written with drive and
//! wire-cap pragmas, and one checksum over the results of a few thousand
//! seeded mutations of a written netlist — each result the parsed
//! netlist's checksum or the error's `Display` text.
//!
//! The constants were captured before the reader and the netlist builder
//! were rewritten, so the rewrite must reproduce every net order, every
//! accepted input and every error message of the reader it replaced. The
//! mutation pin was re-captured twice since: when the reader began to
//! reject an `input` that names a driven net and two instances of one
//! name, and when it began to reject a name the writer cannot write back
//! (`InvalidName`). A mutated text that parses must also round-trip.
//!
//! A second corpus inserts the bytes a byte-cursor reader most easily
//! gets wrong: ASCII and Unicode whitespace, a non-ASCII name, a comment
//! inside a statement and a CRLF inside an instance. Its pin was captured
//! on the two-pass reader (a byte scan, then a split-and-trim reading of
//! each statement), before the one-pass reader replaced it.

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
const MUTATIONS_OK: usize = 637;
const MUTATIONS_CHECKSUM: u64 = 0x677d58f7a1b132a2;

/// The same for the second corpus, [`CURSOR_TOKENS`].
const CURSOR_MUTATIONS_OK: usize = 317;
const CURSOR_MUTATIONS_CHECKSUM: u64 = 0x10e5d4f75ec8fda9;

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

/// Tokens of the second corpus: whitespace a cursor must classify as a
/// name's end (ASCII) or as part of an invalid name (Unicode), a
/// non-ASCII name, and comments and line breaks inside statements.
const CURSOR_TOKENS: &[&str] = &[
    "\t",
    "\x0b",
    "\x0c",
    "\u{85}",
    "\u{a0}",
    "\u{2003}",
    "né5",
    ".a(né5)",
    "// c",
    "\r\n",
    "INV uc (.a(n1), // c\n .y(n9));",
    "INV ud (.a(in0),\r\n .y(né5));",
];

/// The byte offset at or below `at` that starts a character of `text`.
fn char_start(text: &str, mut at: usize) -> usize {
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// `text` with one to three random edits: delete, duplicate, join or split
/// lines, insert one of `tokens`, truncate, give an instance a second `a`
/// pin, or rename a net.
fn mutate(text: &str, tokens: &[&str], rng: &mut ChaCha8Rng) -> String {
    let mut text = text.to_owned();
    for _ in 0..rng.gen_range(1..=3) {
        let at = char_start(&text, rng.gen_range(0..=text.len()));
        match rng.gen_range(0..8) {
            0 => {
                let start = text[..at].rfind('\n').map_or(0, |i| i + 1);
                let end = text[at..].find('\n').map_or(text.len(), |i| at + i + 1);
                text.replace_range(start..end, "");
            }
            1 => text.insert_str(at, tokens.choose(rng).expect("tokens")),
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

/// The written netlist the mutations edit.
fn mutation_base() -> String {
    let mut netlist = PaperCircuit::AesCore.build(0.002);
    netlist.set_drive(GateId(1), 2.0);
    write_verilog(&netlist, "mutant")
}

/// The texts of the `MUTATIONS` seeded mutations of `base` with `tokens`.
/// With `lead`, each case first gets one token at a random place.
fn mutations(base: &str, tokens: &'static [&'static str], lead: bool) -> Vec<String> {
    let mut place = ChaCha8Rng::seed_from_u64(0x5eed);
    (0..MUTATIONS)
        .map(|seed| {
            let mut text = base.to_owned();
            if lead {
                let at = char_start(&text, place.gen_range(0..=text.len()));
                text.insert_str(at, tokens.choose(&mut place).expect("tokens"));
            }
            mutate(&text, tokens, &mut ChaCha8Rng::seed_from_u64(seed))
        })
        .collect()
}

/// How many of `texts` parse, and the checksum of all their results in
/// order: each the parsed netlist's checksum or the error's text.
fn results(texts: &[String]) -> (usize, u64) {
    let mut results = Vec::new();
    let mut ok = 0;
    for text in texts {
        match parse_verilog(text) {
            Ok(netlist) => {
                ok += 1;
                results.extend(format!("ok {:016x}\n", netlist_checksum(&netlist)).bytes());
            }
            Err(e) => results.extend(format!("{e}\n").bytes()),
        }
    }
    (ok, checksum(&results))
}

/// Every text of `texts` that parses round-trips: its netlist, written,
/// parses back to the same netlist.
fn assert_round_trips(texts: &[String]) {
    for (seed, text) in texts.iter().enumerate() {
        let Ok(netlist) = parse_verilog(text) else {
            continue;
        };
        match parse_verilog(&write_verilog(&netlist, "mutant")) {
            Ok(again) => assert!(again == netlist, "seed {seed}: another netlist"),
            Err(e) => panic!("seed {seed}: the written netlist fails: {e}"),
        }
    }
}

#[test]
fn mutated_netlists_parse_or_fail_as_pinned() {
    let (ok, sum) = results(&mutations(&mutation_base(), TOKENS, false));
    assert_eq!(
        (ok, sum),
        (MUTATIONS_OK, MUTATIONS_CHECKSUM),
        "({ok}, {sum:#018x})"
    );
}

/// Every mutated text that parses round-trips.
#[test]
fn mutated_netlists_that_parse_round_trip() {
    assert_round_trips(&mutations(&mutation_base(), TOKENS, false));
}

/// The second corpus: one [`CURSOR_TOKENS`] token at a random place, then
/// the usual edits with those tokens.
#[test]
fn cursor_mutated_netlists_parse_or_fail_as_pinned() {
    let (ok, sum) = results(&mutations(&mutation_base(), CURSOR_TOKENS, true));
    assert_eq!(
        (ok, sum),
        (CURSOR_MUTATIONS_OK, CURSOR_MUTATIONS_CHECKSUM),
        "({ok}, {sum:#018x})"
    );
}

#[test]
fn cursor_mutated_netlists_that_parse_round_trip() {
    assert_round_trips(&mutations(&mutation_base(), CURSOR_TOKENS, true));
}
