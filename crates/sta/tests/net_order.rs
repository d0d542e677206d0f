//! Pins `NetlistBuilder::build`'s net order and per-net sink order on the
//! paper circuits: nets ascend by their driver, and a net's sinks ascend,
//! both compared as the text of the pin's `Debug` form ("GateInput(GateId(10), 0)"
//! sorts before "GateInput(GateId(9), 0)"). Task ids, shard plans and every
//! fingerprint derive from this order, so a faster sort must reproduce it
//! exactly. The key below is written out by hand, not taken from `Debug`,
//! so a change to either side shows up here.

use gpasta_circuits::PaperCircuit;
use gpasta_sta::PinRef;

fn key(pin: &PinRef) -> String {
    match *pin {
        PinRef::PrimaryInput(p) => format!("PrimaryInput(PortId({}))", p.0),
        PinRef::PrimaryOutput(p) => format!("PrimaryOutput(PortId({}))", p.0),
        PinRef::GateInput(g, pin) => format!("GateInput(GateId({}), {pin})", g.0),
        PinRef::GateOutput(g) => format!("GateOutput(GateId({}))", g.0),
    }
}

#[test]
fn nets_and_sinks_follow_the_text_order_of_their_pins() {
    for circuit in [PaperCircuit::AesCore, PaperCircuit::Leon2] {
        for scale in [0.005, 0.02] {
            let netlist = circuit.build(scale);
            let what = format!("{}@{scale}", circuit.name());
            let nets = netlist.nets();
            assert!(nets.len() > 20, "{what}: {} nets", nets.len());
            let drivers: Vec<String> = nets.iter().map(|n| key(&n.driver)).collect();
            let mut want = drivers.clone();
            want.sort();
            assert_eq!(drivers, want, "{what}: net order moved");
            for net in nets {
                let sinks: Vec<String> = net.sinks.iter().map(key).collect();
                let mut want = sinks.clone();
                want.sort();
                assert_eq!(
                    sinks,
                    want,
                    "{what}: sink order of {} moved",
                    key(&net.driver)
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// `NetlistBuilder::build` against a reference that groups connections in a
// `HashMap` and sorts by the `Debug` text, over random call sequences.

mod reference {
    use gpasta_sta::{BuildNetlistError, CellKind, GateId, PinRef, PortId};
    use std::collections::HashMap;

    /// A net: its driver, its sinks and its wire cap.
    pub type Net = (PinRef, Vec<PinRef>, f32);

    /// The nets `build()` must return for these connections and wire caps,
    /// or the error it must return, on a design of `gates` (name, cell) and
    /// `outputs`.
    pub fn build(
        gates: &[(String, CellKind)],
        outputs: &[String],
        connections: &[(PinRef, PinRef)],
        wire_caps: &[(PinRef, f32)],
    ) -> Result<Vec<Net>, BuildNetlistError> {
        let mut by_driver: HashMap<PinRef, Vec<PinRef>> = HashMap::new();
        let mut seen_sinks: HashMap<PinRef, PinRef> = HashMap::new();
        for &(driver, sink) in connections {
            if let Some(prev) = seen_sinks.insert(sink, driver) {
                if prev != driver {
                    return Err(BuildNetlistError::MultipleDrivers {
                        sink: format!("{sink:?}"),
                    });
                }
                continue;
            }
            by_driver.entry(driver).or_default().push(sink);
        }
        for (g, (name, cell)) in gates.iter().enumerate() {
            for pin in 0..cell.num_inputs() as u8 {
                if !seen_sinks.contains_key(&PinRef::GateInput(GateId(g as u32), pin)) {
                    return Err(BuildNetlistError::UnconnectedPin {
                        gate: name.clone(),
                        pin,
                    });
                }
            }
        }
        for (o, name) in outputs.iter().enumerate() {
            if !seen_sinks.contains_key(&PinRef::PrimaryOutput(PortId(o as u32))) {
                return Err(BuildNetlistError::UnconnectedOutput { name: name.clone() });
            }
        }
        let mut caps: HashMap<PinRef, f32> = HashMap::new();
        for &(driver, cap) in wire_caps {
            *caps.entry(driver).or_insert(0.0) += cap;
        }
        let mut nets: Vec<Net> = by_driver
            .into_iter()
            .map(|(driver, mut sinks)| {
                sinks.sort_by_key(|s| format!("{s:?}"));
                (driver, sinks, caps.get(&driver).copied().unwrap_or(0.0))
            })
            .collect();
        nets.sort_by_key(|n| format!("{:?}", n.0));
        Ok(nets)
    }
}

mod random_builds {
    use super::reference;
    use gpasta_circuits::{generate_netlist, CircuitSpec};
    use gpasta_sta::{
        parse_verilog, write_verilog, CellKind, GateId, Netlist, NetlistBuilder, ParseVerilogError,
        PinRef, PortId,
    };
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashSet;

    /// Case count, overridable via `PROPTEST_CASES`.
    fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256)
    }

    /// A random design and the builder calls made on it, with what the
    /// reference needs to know of them.
    struct Calls {
        nb: NetlistBuilder,
        names: Vec<(String, CellKind)>,
        output_names: Vec<String>,
        num_inputs: u32,
        connections: Vec<(PinRef, PinRef)>,
        wire_caps: Vec<(PinRef, f32)>,
    }

    /// A random design and a random sequence of builder calls on it: a full
    /// wiring with some sinks left out, duplicate and conflicting
    /// connections, feed-throughs, and wire caps on drivers with and without
    /// sinks (and on pins that drive nothing, which the builder rejects),
    /// all shuffled. Ids reach into the thousands so that their decimal
    /// texts differ in length. One design in ten gives two gates one name.
    fn calls(seed: u64) -> Calls {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut nb = NetlistBuilder::new();
        let num_inputs = rng.gen_range(0..6u32);
        let num_outputs = rng.gen_range(0..6u32);
        let num_gates = if rng.gen_bool(0.2) {
            rng.gen_range(90..1200u32)
        } else {
            rng.gen_range(0..14u32)
        };
        let inputs: Vec<PortId> = (0..num_inputs)
            .map(|i| nb.add_primary_input(format!("in{i}")))
            .collect();
        let outputs: Vec<PortId> = (0..num_outputs)
            .map(|o| nb.add_primary_output(format!("out{o}")))
            .collect();
        let mut gate_names: Vec<String> = (0..num_gates).map(|g| format!("u{g}")).collect();
        let mut dup_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xd0b1e);
        if num_gates >= 2 && dup_rng.gen_bool(0.1) {
            let later = dup_rng.gen_range(1..num_gates as usize);
            gate_names[later] = gate_names[dup_rng.gen_range(0..later)].clone();
        }
        let mut gates = Vec::new();
        for name in gate_names {
            let cell = *CellKind::all().choose(&mut rng).expect("cells exist");
            let id = nb.add_gate(name.clone(), cell);
            gates.push((name, cell, id));
        }

        let mut drivers: Vec<PinRef> = inputs.iter().map(|&p| PinRef::PrimaryInput(p)).collect();
        drivers.extend(gates.iter().map(|&(_, _, g)| PinRef::GateOutput(g)));
        let mut sinks: Vec<PinRef> = outputs.iter().map(|&o| PinRef::PrimaryOutput(o)).collect();
        for &(_, cell, g) in &gates {
            sinks.extend((0..cell.num_inputs() as u8).map(|pin| PinRef::GateInput(g, pin)));
        }

        let drop = [0.0, 0.0, 0.01, 0.2][rng.gen_range(0..4)];
        let repeat = [0.0, 0.05, 0.3][rng.gen_range(0..3)];
        let conflict = [0.0, 0.0, 0.002, 0.05][rng.gen_range(0..4)];
        let mut calls: Vec<(PinRef, PinRef)> = Vec::new();
        if !drivers.is_empty() {
            for &sink in &sinks {
                if rng.gen_bool(drop) {
                    continue;
                }
                let driver = *drivers.choose(&mut rng).expect("non-empty");
                calls.push((driver, sink));
                if rng.gen_bool(repeat) {
                    calls.push((driver, sink));
                }
                if rng.gen_bool(conflict) {
                    calls.push((*drivers.choose(&mut rng).expect("non-empty"), sink));
                }
            }
        }
        calls.shuffle(&mut rng);

        let mut connections = Vec::new();
        for &(driver, sink) in &calls {
            match (driver, sink) {
                (PinRef::PrimaryInput(p), PinRef::GateInput(g, pin)) => {
                    nb.connect_to_gate(p, g, pin).expect("declared pin");
                }
                (PinRef::GateOutput(d), PinRef::GateInput(g, pin)) => {
                    nb.connect_gates(d, g, pin).expect("declared pin");
                }
                (PinRef::GateOutput(d), PinRef::PrimaryOutput(o)) => {
                    nb.connect_to_output(d, o).expect("declared gate");
                }
                (PinRef::PrimaryInput(p), PinRef::PrimaryOutput(o)) => {
                    nb.connect_input_to_output(p, o).expect("declared ports");
                }
                other => unreachable!("not a connection: {other:?}"),
            }
            connections.push((driver, sink));
        }

        let mut wire_caps = Vec::new();
        for _ in 0..rng.gen_range(0..(2 + num_gates as usize / 2)) {
            let driver = match rng.gen_range(0..8u32) {
                0 => PinRef::GateInput(GateId(rng.gen_range(0..num_gates + 2)), 0),
                1 => PinRef::PrimaryOutput(PortId(rng.gen_range(0..num_outputs + 2))),
                2 | 3 => PinRef::PrimaryInput(PortId(rng.gen_range(0..num_inputs + 2))),
                _ => PinRef::GateOutput(GateId(rng.gen_range(0..num_gates + 2))),
            };
            let cap = [0.5, 1.25, -0.0, 3.1, 1e-3][rng.gen_range(0..5)];
            let drives = match driver {
                PinRef::PrimaryInput(p) => p.0 < num_inputs,
                PinRef::GateOutput(g) => g.0 < num_gates,
                PinRef::GateInput(..) | PinRef::PrimaryOutput(_) => false,
            };
            assert_eq!(
                nb.add_wire_cap(driver, cap).is_ok(),
                drives,
                "seed {seed}: wire cap on {driver:?}"
            );
            if drives {
                wire_caps.push((driver, cap));
            }
        }

        let names: Vec<(String, CellKind)> = gates
            .iter()
            .map(|(name, cell, _)| (name.clone(), *cell))
            .collect();
        let output_names: Vec<String> = (0..num_outputs).map(|o| format!("out{o}")).collect();
        Calls {
            nb,
            names,
            output_names,
            num_inputs,
            connections,
            wire_caps,
        }
    }

    fn check(seed: u64) {
        let Calls {
            nb,
            names,
            output_names,
            num_inputs,
            connections,
            wire_caps,
        } = calls(seed);
        let want = reference::build(&names, &output_names, &connections, &wire_caps);
        match (nb.build(), want) {
            (Ok(netlist), Ok(nets)) => {
                assert_eq!(netlist.nets().len(), nets.len(), "seed {seed}: net count");
                for (got, (driver, sinks, cap)) in netlist.nets().iter().zip(&nets) {
                    assert_eq!(got.driver, *driver, "seed {seed}: net order");
                    assert_eq!(&got.sinks, sinks, "seed {seed}: sinks of {driver:?}");
                    assert_eq!(
                        got.wire_cap_ff.to_bits(),
                        cap.to_bits(),
                        "seed {seed}: wire cap of {driver:?}"
                    );
                }
                let gates_back: Vec<(String, CellKind)> = netlist
                    .gates()
                    .iter()
                    .map(|g| (g.name.clone(), g.cell))
                    .collect();
                assert_eq!(gates_back, names, "seed {seed}: gates");
                assert_eq!(netlist.output_names(), &output_names[..], "seed {seed}");
                assert_eq!(netlist.num_inputs(), num_inputs as usize, "seed {seed}");
            }
            (got, want) => assert_eq!(got.map(|_| ()), want.map(|_| ()), "seed {seed}"),
        }
    }

    /// `netlist` with a random drive on some gates, as a repower leaves it.
    fn repowered(mut netlist: Netlist, seed: u64) -> Netlist {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        for g in 0..netlist.num_gates() {
            if rng.gen_bool(0.2) {
                let drive = [0.5, 0.75, 1.3, 2.0, 4.0 / 3.0][rng.gen_range(0..5)];
                netlist.set_drive(GateId(g as u32), drive);
            }
        }
        netlist
    }

    /// What `write_verilog` writes, `parse_verilog` reads back to the same
    /// netlist: nets, sinks, drives and wire caps. Unless two instances
    /// share a name: then it rejects the first name repeated.
    fn round_trips(netlist: &Netlist, seed: u64) {
        let text = write_verilog(netlist, "rt");
        let mut seen = HashSet::new();
        let repeated = netlist
            .gates()
            .iter()
            .find(|g| !seen.insert(g.name.as_str()));
        match (parse_verilog(&text), repeated) {
            (Ok(back), None) => assert_eq!(&back, netlist, "seed {seed}:\n{text}"),
            (Err(e), Some(gate)) => assert_eq!(
                e,
                ParseVerilogError::DuplicateInstance {
                    name: gate.name.clone()
                },
                "seed {seed}"
            ),
            (got, _) => panic!("seed {seed}: {got:?}\n{text}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        #[test]
        fn build_equals_the_hash_map_and_debug_text_reference(seed in any::<u64>()) {
            check(seed);
        }

        #[test]
        fn written_builds_parse_back_to_themselves(seed in any::<u64>()) {
            if let Ok(netlist) = calls(seed).nb.build() {
                round_trips(&repowered(netlist, seed), seed);
            }
        }

        #[test]
        fn written_generated_netlists_parse_back_to_themselves(
            gates in 5usize..400,
            depth in 2usize..12,
            seq_ratio in 0.0f64..0.4,
            seed in any::<u64>(),
        ) {
            let mut spec = CircuitSpec::small("rt", seed);
            spec.num_gates = gates;
            spec.depth = depth;
            spec.seq_ratio = seq_ratio;
            round_trips(&repowered(generate_netlist(&spec), seed), seed);
        }
    }
}
