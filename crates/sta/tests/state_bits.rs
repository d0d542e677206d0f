//! Pins every timing value of every paper circuit, bit for bit: one
//! checksum of the whole `TimingSnapshot` (slew, arrival, required and arc
//! delay in all four corners, and the electrical state) after settling and
//! after each of three rounds of all four edit kinds, under the typical
//! library and under one whose tables do not all share their axes.
//!
//! `report_bits` pins only late endpoint slacks and `timing_oracle` holds a
//! tolerance, so a change of merge order that moves a ±0 or a NaN in a hold
//! corner or at an interior required time passes both; it fails here. The
//! constants were captured before the propagation kernels were rewritten
//! as straight-line corner code.

use gpasta_circuits::PaperCircuit;
use gpasta_sta::{CellKind, CellLibrary, GateId, Lut2D, PortId, Timer};
use gpasta_tdg::checksum;

const SCALE: f64 = 0.004;
const PERIOD_PS: f32 = 150.0;

/// `(library, circuit, checksum when settled and after rounds 0, 1, 2)`.
type Pinned = (&'static str, PaperCircuit, [u64; 4]);

#[rustfmt::skip]
const PINNED: &[Pinned] = &[
    ("typical", PaperCircuit::AesCore, [0x81c881a4ca3a031b, 0x85049d72e737d888, 0xf2cb0162fe839821, 0x54ba85b3695f828c]),
    ("typical", PaperCircuit::DesPerf, [0x934d30867d3e536a, 0xcf3c97c35066ffc2, 0xf68a34c6b2af0dbb, 0x5acd4310703b1637]),
    ("typical", PaperCircuit::VgaLcd, [0x0bfc705ba2388dc0, 0x6b31bc1f025bd14e, 0x1b09bc2f494ba788, 0xddff51508ce15e6c]),
    ("typical", PaperCircuit::Leon3mp, [0xdb4d5bd47b80211c, 0xa30e37119a0db19a, 0x4056af1f0a98950f, 0xf82d57ce0d5c35bd]),
    ("typical", PaperCircuit::Netcard, [0xff9896cb1978282e, 0x22867712c3771ad8, 0xc991a6bce29d7ed7, 0x434a02de7a49aea7]),
    ("typical", PaperCircuit::Leon2, [0xcf4a628f75d1bc57, 0x9799f7b921b40bc0, 0x2db65e93ae03b05f, 0xb2fd0857793cb910]),
    ("per-table axes", PaperCircuit::AesCore, [0xc944add6bb6c7fa3, 0x6cb2bae96a3dc8a4, 0xf27ef14fce05f602, 0x87c165bdee2a65bd]),
    ("per-table axes", PaperCircuit::DesPerf, [0x3c697a9fd2e22595, 0xab5665bbd6e8170a, 0xcc962b2b14ffbbd9, 0xb5cc466f09e186a0]),
    ("per-table axes", PaperCircuit::VgaLcd, [0xde830d8e4f60c89a, 0x0be966d2d81dd377, 0x0251a38690d5556b, 0x7710ef6c6cdc6c6c]),
    ("per-table axes", PaperCircuit::Leon3mp, [0x1c7c287121df8a90, 0x2b237c7252b10871, 0xa2a41033f041f351, 0x23754a60401f8038]),
    ("per-table axes", PaperCircuit::Netcard, [0x9217dad24b383cdf, 0x553673b10d7e8576, 0x0515bb8f89671334, 0x514756d9ed25ccd2]),
    ("per-table axes", PaperCircuit::Leon2, [0xd99efccf239c50e2, 0x61ae5469a5e5d51b, 0xe1a63bbe03a317a9, 0x80787936750a5ee9]),
];

/// The second library of `tests/timing_oracle.rs`: NAND2 tables on their
/// own slew axes, a NOR2 table on its own load axis.
fn library_with_unshared_axes() -> CellLibrary {
    let mut library = CellLibrary::typical();
    let mut nand = library.cell(CellKind::Nand2).clone();
    let t = &mut nand.tables;
    let load = t.delay_fall.load_axis().to_vec();
    t.delay_fall = Lut2D::from_fn(vec![2.0, 15.0, 60.0, 240.0], load.clone(), |s, l| {
        11.0 + 2.4 * l + 0.11 * s + 0.002 * s * l
    });
    t.slew_rise = Lut2D::from_fn(vec![8.0, 30.0, 90.0, 200.0, 400.0], load, |s, l| {
        4.0 + 2.9 * l + 0.12 * s
    });
    library.set_cell(CellKind::Nand2, nand);
    let mut nor = library.cell(CellKind::Nor2).clone();
    let t = &mut nor.tables;
    let slew = t.slew_fall.slew_axis().to_vec();
    t.slew_fall = Lut2D::from_fn(slew, vec![0.3, 1.5, 5.0, 12.0, 40.0], |s, l| {
        (4.0 + 3.3 * l + 0.12 * s) * 0.92
    });
    library.set_cell(CellKind::Nor2, nor);
    library
}

/// The checksum of every array of the timer's snapshot, in field order.
fn state_checksum(timer: &Timer) -> u64 {
    let s = timer.snapshot();
    let arrays = [
        &s.slew,
        &s.arrival,
        &s.required,
        &s.arc_delay,
        &s.drive,
        &s.gate_load,
        &s.net_delay,
        &s.input_delay,
        &s.output_delay,
    ];
    let mut bytes = s.clock_period_bits.to_le_bytes().to_vec();
    for bits in arrays {
        bytes.extend((bits.len() as u32).to_le_bytes());
        bytes.extend(bits.iter().flat_map(|b| b.to_le_bytes()));
    }
    checksum(&bytes)
}

/// Round `round` of the edit schedule of `tests/timing_oracle.rs`: a
/// repower, a wire cap, an input delay (negative: −30, −17.5, −5 ps, a hold
/// violation) and an output delay.
fn apply_round(timer: &mut Timer, round: u32) {
    let netlist = timer.netlist();
    let modulo = |i: u32, n: usize| i % n as u32;
    let gate = GateId(modulo(7 * round + 3, netlist.num_gates()));
    let net = modulo(11 * round + 5, netlist.num_nets());
    let input = PortId(modulo(5 * round + 1, netlist.num_inputs()));
    let output = PortId(modulo(3 * round + 2, netlist.num_outputs()));
    timer.repower_gate(gate, 2.0);
    timer.set_net_cap(net, 4.0 * 0.875);
    timer.set_input_delay(input, 25.0 * (0.5 * round as f32 - 1.2));
    timer.set_output_delay(output, 25.0 * 0.8);
}

#[test]
fn every_timing_value_keeps_its_bits() {
    let libraries = [
        ("typical", CellLibrary::typical()),
        ("per-table axes", library_with_unshared_axes()),
    ];
    let mut got = Vec::new();
    for (lib, library) in libraries {
        for &circuit in PaperCircuit::all() {
            let mut timer = Timer::new(circuit.build(SCALE), library.clone());
            timer.set_clock_period(PERIOD_PS);
            timer.dirty_cone().run_in_order();
            let mut sums = [state_checksum(&timer); 4];
            for (round, sum) in (0..3).zip(&mut sums[1..]) {
                apply_round(&mut timer, round);
                timer.dirty_cone().run_in_order();
                *sum = state_checksum(&timer);
            }
            got.push((lib, circuit, sums));
        }
    }
    let table: String = got
        .iter()
        .map(|(lib, c, sums)| {
            let sums: Vec<String> = sums.iter().map(|s| format!("{s:#018x}")).collect();
            format!(
                "    ({lib:?}, PaperCircuit::{c:?}, [{}]),\n",
                sums.join(", ")
            )
        })
        .collect();
    assert_eq!(PINNED.len(), got.len(), "the state moved:\n{table}");
    for ((lib, circuit, sums), (l, c, pinned)) in got.iter().zip(PINNED) {
        assert_eq!((lib, circuit), (l, c));
        for (stage, (sum, pin)) in sums.iter().zip(pinned).enumerate() {
            let when = ["settled", "round 0", "round 1", "round 2"][stage];
            let what = circuit.name();
            assert_eq!(sum, pin, "{what} ({lib}), {when}\n{table}");
        }
    }
}
