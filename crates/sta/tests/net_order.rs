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
