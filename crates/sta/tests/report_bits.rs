//! Pins the late-mode report of every paper circuit, bit for bit, after a
//! fixed batch of all four edit kinds: WNS and TNS by bit pattern, and the
//! five worst endpoints by name and slack bits.
//!
//! TNS is a pairwise sum in endpoint order, so these bits also pin that
//! order: a change that renumbers the timing graph must keep
//! `TimingGraph::endpoints` where it was, and a differential test whose
//! two sides are both renumbered cannot see it move. The constants were
//! captured before the timing graph was renumbered in level order.

use gpasta_circuits::PaperCircuit;
use gpasta_sched::splitmix64;
use gpasta_sta::{CellLibrary, GateId, PortId, Timer};

const SCALE: f64 = 0.002;

/// `(circuit, WNS bits, TNS bits, five worst (name, slack bits))`.
type Pinned = (PaperCircuit, u32, u32, [(&'static str, u32); 5]);

#[rustfmt::skip]
const PINNED: &[Pinned] = &[
    (PaperCircuit::AesCore, 0xc264da48, 0xc333a521, [("out5", 0xc264da48), ("out6", 0xc2367214), ("u10/D0", 0xc2108030), ("out3", 0xc1c616b4), ("out7", 0xc17ef278)]),
    (PaperCircuit::DesPerf, 0xc3272816, 0xc41b6fc7, [("out3", 0xc3272816), ("out6", 0xc2c3c316), ("u35/D0", 0xc2a6036e), ("out5", 0xc27fba58), ("u26/D0", 0xc25d5d44)]),
    (PaperCircuit::VgaLcd, 0xc2e42058, 0xc421552a, [("out3", 0xc2e42058), ("out6", 0xc2856cbe), ("out7", 0xc27fe2a4), ("out0", 0xc2680378), ("out5", 0xc25a2158)]),
    (PaperCircuit::Leon3mp, 0xc2bf4fd8, 0xc526d246, [("out7", 0xc2bf4fd8), ("u279/D0", 0xc2b1ca66), ("out4", 0xc2b14ef4), ("u111/D0", 0xc29eed20), ("u1095/D0", 0xc291237c)]),
    (PaperCircuit::Netcard, 0xc2dd24ae, 0xc574292a, [("u391/D0", 0xc2dd24ae), ("u1150/D0", 0xc2c86836), ("u1190/D0", 0xc2a72c9a), ("u1391/D0", 0xc2a632ec), ("u143/D0", 0xc2a1c630)]),
    (PaperCircuit::Leon2, 0xc2c89952, 0xc594cbab, [("out9", 0xc2c89952), ("u119/D0", 0xc2c27f94), ("u1263/D0", 0xc2bf8668), ("u1415/D0", 0xc2b93458), ("u475/D0", 0xc2add092)]),
];

/// Settle `circuit`, apply the batch, and update in id order.
fn edited(circuit: PaperCircuit) -> Timer {
    let mut timer = Timer::new(circuit.build(SCALE), CellLibrary::typical());
    timer.set_clock_period(120.0);
    timer.dirty_cone().run_in_order();
    let netlist = timer.netlist();
    let (gates, nets) = (netlist.num_gates() as u64, netlist.num_nets() as u64);
    let (inputs, outputs) = (netlist.num_inputs() as u64, netlist.num_outputs() as u64);
    for i in 0..8u64 {
        let r = splitmix64(0xB175 ^ i);
        let x = (r >> 40) as f32 / (1u32 << 24) as f32;
        timer.repower_gate(GateId((r % gates) as u32), 0.5 + 3.0 * x);
        timer.set_net_cap((r >> 8) as u32 % nets as u32, 25.0 * x);
        timer.set_input_delay(PortId(((r >> 16) % inputs) as u32), 60.0 * x);
        timer.set_output_delay(PortId(((r >> 24) % outputs) as u32), 45.0 * x);
    }
    timer.dirty_cone().run_in_order();
    timer
}

#[test]
fn reports_keep_their_bits_after_every_edit_kind() {
    let mut got = Vec::new();
    for &circuit in PaperCircuit::all() {
        let report = edited(circuit).report(5);
        let worst: Vec<(String, u32)> = report
            .worst
            .iter()
            .map(|e| (e.name.clone(), e.slack_ps.to_bits()))
            .collect();
        got.push((
            circuit,
            report.wns_ps.to_bits(),
            report.tns_ps.to_bits(),
            worst,
        ));
    }
    let table: String = got
        .iter()
        .map(|(c, wns, tns, worst)| {
            let worst: Vec<String> = worst
                .iter()
                .map(|(name, bits)| format!("({name:?}, {bits:#010x})"))
                .collect();
            format!(
                "    (PaperCircuit::{c:?}, {wns:#010x}, {tns:#010x}, [{}]),\n",
                worst.join(", ")
            )
        })
        .collect();
    assert_eq!(PINNED.len(), got.len(), "the report moved:\n{table}");
    for ((circuit, wns, tns, worst), (c, w, t, pinned)) in got.iter().zip(PINNED) {
        assert_eq!(circuit, c);
        let what = circuit.name();
        assert_eq!(*wns, *w, "{what}: WNS bits\n{table}");
        assert_eq!(*tns, *t, "{what}: TNS bits\n{table}");
        let pinned: Vec<(String, u32)> = pinned.iter().map(|&(n, b)| (n.to_owned(), b)).collect();
        assert_eq!(worst, &pinned, "{what}: five worst endpoints\n{table}");
    }
}
