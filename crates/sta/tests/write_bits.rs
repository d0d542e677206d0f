//! Pins what `write_verilog` emits, byte for byte: one checksum of the
//! written text of every paper circuit at 0.004 and of Leon2 at 0.05,
//! each with every 7th gate repowered, so drive and wire-cap pragmas are
//! written too.
//!
//! The constants were captured before the writer was rewritten, so the
//! rewrite must reproduce every byte of the writer it replaced.

use gpasta_circuits::PaperCircuit;
use gpasta_sta::{write_verilog, GateId};
use gpasta_tdg::checksum;

#[rustfmt::skip]
const WRITTEN: &[(PaperCircuit, f64, u64)] = &[
    (PaperCircuit::AesCore, 0.004, 0x8f9fd7643d8fae05),
    (PaperCircuit::DesPerf, 0.004, 0x47e1b9aaab97ac71),
    (PaperCircuit::VgaLcd, 0.004, 0x564e2f4d0aaf2e1e),
    (PaperCircuit::Leon3mp, 0.004, 0x29a33ca28e74d247),
    (PaperCircuit::Netcard, 0.004, 0xe5c34842b73a715d),
    (PaperCircuit::Leon2, 0.004, 0x600a41c702c57596),
    (PaperCircuit::Leon2, 0.05, 0x8836360ebe7c89b0),
];

/// `circuit` at `scale` with every 7th gate repowered, as Verilog.
fn written(circuit: PaperCircuit, scale: f64) -> String {
    let mut netlist = circuit.build(scale);
    for g in (0..netlist.num_gates()).step_by(7) {
        netlist.set_drive(GateId(g as u32), 1.0 + (g % 5) as f32 * 0.375);
    }
    write_verilog(&netlist, circuit.name())
}

#[test]
fn written_paper_circuits_are_pinned_byte_for_byte() {
    let mut got = Vec::new();
    for &(circuit, scale, _) in WRITTEN {
        let text = written(circuit, scale);
        assert!(text.contains("// gpasta drive ") && text.contains("// gpasta wire_cap "));
        got.push((circuit, scale, checksum(text.as_bytes())));
    }
    let shown: Vec<String> = got
        .iter()
        .map(|(c, s, x)| format!("(PaperCircuit::{c:?}, {s}, {x:#018x})"))
        .collect();
    assert_eq!(got, WRITTEN, "{}", shown.join(",\n"));
}
