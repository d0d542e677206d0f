//! Seeded layered netlist generation.

use gpasta_sta::{CellKind, GateId, Netlist, NetlistBuilder, PinRef, PortId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Parameters of a synthetic design.
///
/// Generation is layered: gates are assigned to `depth` logic levels and
/// draw their inputs from earlier levels (biased towards recent ones), so
/// the result is combinationally acyclic by construction and has a logic
/// depth close to `depth`.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitSpec {
    /// Design name (used in reports).
    pub name: String,
    /// Number of gate instances (including flip-flops).
    pub num_gates: usize,
    /// Number of primary inputs.
    pub num_inputs: usize,
    /// Number of primary outputs.
    pub num_outputs: usize,
    /// Target logic depth (number of layers).
    pub depth: usize,
    /// Fraction of gates that are D flip-flops.
    pub seq_ratio: f64,
    /// RNG seed; equal specs generate identical netlists.
    pub seed: u64,
}

impl CircuitSpec {
    /// A small default spec, handy for tests.
    pub fn small(name: impl Into<String>, seed: u64) -> Self {
        CircuitSpec {
            name: name.into(),
            num_gates: 400,
            num_inputs: 24,
            num_outputs: 24,
            depth: 18,
            seq_ratio: 0.08,
            seed,
        }
    }

    /// Derive a spec whose generated `update_timing` TDG has approximately
    /// `target_tasks` tasks (the calibration used for the paper suite).
    ///
    /// The task count of a full update is `2 × nodes`, and the expected
    /// node count per gate follows from the cell-mix input-arity average —
    /// see [`expected_tasks`](CircuitSpec::expected_tasks).
    pub fn for_tasks(
        name: impl Into<String>,
        target_tasks: usize,
        depth: usize,
        seed: u64,
    ) -> Self {
        // Register-rich profile (leon2-class SoCs are 20-30 % flip-flops).
        // Source density drives how far G-PASTA's default-Ps clustering
        // converges: the update-TDG sources are the PIs plus the DFF
        // outputs, and the paper's circuits saturate at ~15 tasks per
        // partition, i.e. sources ~= tasks / 15.
        let seq_ratio = 0.20;
        // avg inputs per gate = (1 - seq) * comb_avg + seq * 1
        let avg_in = (1.0 - seq_ratio) * COMB_AVG_INPUTS + seq_ratio;
        // nodes = PI + gates*(avg_in + 1) + PO; tasks = 2*nodes.
        let io = ((target_tasks as f64) * 0.002).max(8.0) as usize;
        let nodes = target_tasks as f64 / 2.0;
        let num_gates = ((nodes - 2.0 * io as f64) / (avg_in + 1.0)).max(1.0) as usize;
        CircuitSpec {
            name: name.into(),
            num_gates,
            num_inputs: io,
            num_outputs: io,
            depth,
            seq_ratio,
            seed,
        }
    }

    /// Expected `update_timing` task count of the generated design (the
    /// calibration target; the realised count differs by the random cell
    /// mix, typically within a few percent).
    pub fn expected_tasks(&self) -> usize {
        let avg_in = (1.0 - self.seq_ratio) * COMB_AVG_INPUTS + self.seq_ratio;
        let nodes = self.num_inputs as f64
            + self.num_gates as f64 * (avg_in + 1.0)
            + self.num_outputs as f64;
        (2.0 * nodes) as usize
    }
}

/// Combinational cell mix: `(kind, relative weight)`. Mirrors a typical
/// mapped-netlist profile (mostly 2-input cells, some 1- and 3-input).
const CELL_MIX: &[(CellKind, f64)] = &[
    (CellKind::Inv, 0.15),
    (CellKind::Buf, 0.10),
    (CellKind::Nand2, 0.20),
    (CellKind::Nor2, 0.10),
    (CellKind::And2, 0.10),
    (CellKind::Or2, 0.10),
    (CellKind::Xor2, 0.05),
    (CellKind::Nand3, 0.10),
    (CellKind::Mux2, 0.05),
    (CellKind::Aoi21, 0.05),
];

/// Average input arity of [`CELL_MIX`].
const COMB_AVG_INPUTS: f64 = 1.95;

fn draw_cell(rng: &mut ChaCha8Rng) -> CellKind {
    let total: f64 = CELL_MIX.iter().map(|&(_, w)| w).sum();
    let mut x = rng.gen_range(0.0..total);
    for &(kind, w) in CELL_MIX {
        if x < w {
            return kind;
        }
        x -= w;
    }
    CellKind::Nand2
}

/// What can drive a gate input at a given layer.
#[derive(Clone, Copy)]
enum Driver {
    Pi(PortId),
    Gate(GateId),
}

/// Generate a netlist from `spec`. Deterministic in the spec (including its
/// seed).
///
/// # Panics
///
/// Panics if the spec has zero gates, inputs, or depth.
pub fn generate_netlist(spec: &CircuitSpec) -> Netlist {
    assert!(spec.num_gates > 0, "spec needs at least one gate");
    assert!(spec.num_inputs > 0, "spec needs at least one primary input");
    assert!(spec.depth > 0, "spec needs at least one layer");
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let mut nb = NetlistBuilder::new();

    let pis: Vec<PortId> = (0..spec.num_inputs)
        .map(|i| nb.add_primary_input(format!("in{i}")))
        .collect();

    // Assign gates round-robin to layers so every layer is populated.
    let depth = spec.depth.min(spec.num_gates);
    let mut layers: Vec<Vec<GateId>> = vec![Vec::new(); depth];
    let mut all_gates = Vec::with_capacity(spec.num_gates);
    for i in 0..spec.num_gates {
        let is_ff = rng.gen_bool(spec.seq_ratio);
        let kind = if is_ff {
            CellKind::Dff
        } else {
            draw_cell(&mut rng)
        };
        let g = nb.add_gate(format!("u{i}"), kind);
        layers[i % depth].push(g);
        all_gates.push((g, kind));
    }

    // Drivers available to layer l: PIs, gate outputs of layers < l, and
    // (because flip-flops break combinational paths) *any* DFF output.
    // Connect each gate input to a random available driver with a bias
    // towards the immediately preceding layer (local wiring).
    let mut prior: Vec<Driver> = pis.iter().map(|&p| Driver::Pi(p)).collect();
    // DFF outputs can feed any layer, including earlier ones, without
    // creating combinational cycles; collect them up front.
    let dff_outputs: Vec<Driver> = all_gates
        .iter()
        .filter(|&&(_, k)| k.is_sequential())
        .map(|&(g, _)| Driver::Gate(g))
        .collect();

    let mut recent: Vec<Driver> = Vec::new();
    for layer in &layers {
        let mut produced = Vec::with_capacity(layer.len());
        for (pos, &g) in layer.iter().enumerate() {
            let kind = all_gates[g.index()].1;
            for pin in 0..kind.num_inputs() as u8 {
                // 70%: recent layer within a placement window (real
                // netlists wire locally, which keeps fan-out cones narrow);
                // 20%: any prior driver; 10%: a DFF output.
                let pick = rng.gen_range(0..10);
                let driver = if pick < 7 && !recent.is_empty() {
                    let window = (recent.len() / 16).max(8).min(recent.len());
                    let center = pos * recent.len() / layer.len().max(1);
                    let lo = center.saturating_sub(window / 2).min(recent.len() - window);
                    recent[lo + rng.gen_range(0..window)]
                } else if pick < 9 || dff_outputs.is_empty() {
                    prior[rng.gen_range(0..prior.len())]
                } else {
                    dff_outputs[rng.gen_range(0..dff_outputs.len())]
                };
                match driver {
                    Driver::Pi(p) => nb
                        .connect_to_gate(p, g, pin)
                        .expect("generator uses valid pins"),
                    Driver::Gate(d) => nb
                        .connect_gates(d, g, pin)
                        .expect("generator uses valid pins"),
                }
            }
            if !kind.is_sequential() {
                produced.push(Driver::Gate(g));
            }
        }
        prior.extend(recent.iter().copied());
        recent = produced;
    }
    prior.extend(recent);

    // Primary outputs tap late drivers (biased to the last layers).
    for o in 0..spec.num_outputs {
        let out = nb.add_primary_output(format!("out{o}"));
        let lo = prior
            .len()
            .saturating_sub(prior.len() / 4)
            .min(prior.len() - 1);
        let pick = rng.gen_range(lo..prior.len());
        match prior[pick] {
            Driver::Pi(p) => nb.connect_input_to_output(p, out),
            Driver::Gate(g) => nb.connect_to_output(g, out),
        }
        .expect("generator taps ports and gates it declared");
    }

    // Sprinkle wire capacitance so net delays are non-trivial.
    for i in 0..spec.num_gates {
        if rng.gen_bool(0.3) {
            nb.add_wire_cap(
                PinRef::GateOutput(GateId(i as u32)),
                rng.gen_range(0.2..4.0),
            )
            .expect("generator wires caps on gates it declared");
        }
    }

    nb.build().expect("generator produces complete netlists")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpasta_sta::{CellLibrary, TimingGraph};

    #[test]
    fn generates_a_valid_netlist() {
        let spec = CircuitSpec::small("t0", 42);
        let n = generate_netlist(&spec);
        assert_eq!(n.num_gates(), 400);
        assert_eq!(n.num_inputs(), 24);
        // Timing graph must build (acyclic).
        TimingGraph::build(&n, &CellLibrary::typical()).expect("generated design is acyclic");
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let spec = CircuitSpec::small("t0", 7);
        let a = generate_netlist(&spec);
        let b = generate_netlist(&spec);
        assert_eq!(a, b);
        let other = generate_netlist(&CircuitSpec::small("t0", 8));
        assert_ne!(a, other);
    }

    #[test]
    fn calibration_hits_target_task_count() {
        for &target in &[5_000usize, 20_000, 60_000] {
            let spec = CircuitSpec::for_tasks("cal", target, 24, 1);
            let n = generate_netlist(&spec);
            let mut timer = gpasta_sta::Timer::new(n, CellLibrary::typical());
            let update = timer.update_timing();
            let got = update.tdg().num_tasks();
            let err = (got as f64 - target as f64).abs() / target as f64;
            assert!(
                err < 0.10,
                "target {target}, got {got} ({:.1}% off)",
                err * 100.0
            );
        }
    }

    #[test]
    fn expected_tasks_is_close_to_realised() {
        let spec = CircuitSpec::for_tasks("cal", 30_000, 20, 3);
        let n = generate_netlist(&spec);
        let mut timer = gpasta_sta::Timer::new(n, CellLibrary::typical());
        let got = timer.update_timing().tdg().num_tasks() as f64;
        let exp = spec.expected_tasks() as f64;
        assert!(
            (got - exp).abs() / exp < 0.08,
            "expected {exp}, realised {got}"
        );
    }

    #[test]
    fn depth_is_respected_roughly() {
        let mut spec = CircuitSpec::small("deep", 5);
        spec.depth = 40;
        spec.num_gates = 2000;
        let n = generate_netlist(&spec);
        let g = TimingGraph::build(&n, &CellLibrary::typical()).expect("acyclic");
        // Build a quick levelisation over the timing graph to measure depth.
        let mut indeg: Vec<u32> = (0..g.num_nodes())
            .map(|v| g.fanin(gpasta_sta::NodeId(v as u32)).len() as u32)
            .collect();
        let mut frontier: Vec<u32> = (0..g.num_nodes() as u32)
            .filter(|&v| indeg[v as usize] == 0)
            .collect();
        let mut depth = 0;
        while !frontier.is_empty() {
            depth += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                for &a in g.fanout(gpasta_sta::NodeId(u)) {
                    let v = g.arc(a).to.0;
                    indeg[v as usize] -= 1;
                    if indeg[v as usize] == 0 {
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
        // Each logic layer contributes ~2 graph levels (input pin, output
        // pin); allow generous slack for the random wiring.
        assert!(depth >= 20, "graph depth {depth} too shallow for 40 layers");
    }

    #[test]
    fn sequential_gates_appear_at_requested_ratio() {
        let mut spec = CircuitSpec::small("seq", 11);
        spec.num_gates = 4000;
        spec.seq_ratio = 0.2;
        let n = generate_netlist(&spec);
        let ffs = n.gates().iter().filter(|g| g.cell.is_sequential()).count();
        let ratio = ffs as f64 / n.num_gates() as f64;
        assert!((ratio - 0.2).abs() < 0.03, "DFF ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "at least one gate")]
    fn zero_gates_panics() {
        let mut spec = CircuitSpec::small("bad", 0);
        spec.num_gates = 0;
        let _ = generate_netlist(&spec);
    }
}
