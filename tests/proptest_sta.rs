//! Property-based tests of the STA engine on randomly generated circuits:
//! timing invariants, incremental-vs-full equivalence, and partitioned
//! execution equivalence.

use gpasta::circuits::{generate_netlist, CircuitSpec};
use gpasta::core::{forward_closure, Partitioner, PartitionerOptions, SeqGPasta};
use gpasta::sched::Executor;
use gpasta::sta::{
    CellLibrary, EndpointSummary, GateId, Mode, NodeId, NodeKind, PinRef, PortId, Timer, Tr,
};
use gpasta::tdg::{QuotientTdg, TaskId};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = CircuitSpec> {
    (50usize..400, 4usize..20, 0.0f64..0.3, any::<u64>()).prop_map(
        |(gates, depth, seq_ratio, seed)| {
            let mut spec = CircuitSpec::small("prop", seed);
            spec.num_gates = gates;
            spec.depth = depth;
            spec.seq_ratio = seq_ratio;
            spec
        },
    )
}

fn analysed_timer(spec: &CircuitSpec) -> Timer {
    let mut timer = Timer::new(generate_netlist(spec), CellLibrary::typical());
    timer.update_timing().run_sequential();
    timer
}

/// One design modifier on the objects it names.
#[derive(Debug, Clone, Copy)]
enum Modifier {
    Repower(GateId, f32),
    NetCap(u32, f32),
    InputDelay(PortId, f32),
    OutputDelay(PortId, f32),
}

/// A modifier as drawn: `(kind, index, value)`, the index still to be
/// reduced modulo the design by [`Modifier::resolve`].
fn arb_modifier() -> impl Strategy<Value = (u8, u32, f32)> {
    (0u8..5, any::<u32>(), 0.5f32..4.0)
}

impl Modifier {
    /// Kind 1 repowers the `i`-th flip-flop (any gate when the design has
    /// none); the others take the `i`-th gate, net or port.
    fn resolve((kind, i, x): (u8, u32, f32), timer: &Timer) -> Modifier {
        let netlist = timer.netlist();
        let num_gates = netlist.num_gates() as u32;
        match kind {
            0 => Modifier::Repower(GateId(i % num_gates), x),
            1 => {
                let dffs: Vec<u32> = (0..num_gates)
                    .filter(|&g| netlist.gates()[g as usize].cell.is_sequential())
                    .collect();
                let g = match dffs.len() {
                    0 => i % num_gates,
                    len => dffs[i as usize % len],
                };
                Modifier::Repower(GateId(g), x)
            }
            2 => Modifier::NetCap(i % netlist.num_nets() as u32, x),
            3 => Modifier::InputDelay(PortId(i % netlist.num_inputs() as u32), 10.0 * x),
            _ => Modifier::OutputDelay(PortId(i % netlist.num_outputs() as u32), 10.0 * x),
        }
    }

    fn apply(self, timer: &mut Timer) {
        match self {
            Modifier::Repower(g, drive) => timer.repower_gate(g, drive),
            Modifier::NetCap(net, cap_ff) => timer.set_net_cap(net, cap_ff),
            Modifier::InputDelay(p, delay_ps) => timer.set_input_delay(p, delay_ps),
            Modifier::OutputDelay(p, delay_ps) => timer.set_output_delay(p, delay_ps),
        }
    }

    /// The nodes the modifier dirties, read off the netlist by what it
    /// means: a repower changes the gate's own delay (its output pin) and
    /// the load on whatever drives its inputs; a net capacitance changes
    /// the load on the net's driver; an I/O delay changes the port it
    /// constrains.
    fn dirties(self, timer: &Timer) -> Vec<NodeId> {
        let (netlist, graph) = (timer.netlist(), timer.graph());
        let port_node = |kind: NodeKind| {
            let v = (0..graph.num_nodes() as u32).find(|&v| graph.node_kind(NodeId(v)) == kind);
            NodeId(v.expect("every port has a node"))
        };
        let driver_node = |pin: PinRef| match pin {
            PinRef::PrimaryInput(p) => port_node(NodeKind::PrimaryInput(p.0)),
            PinRef::GateOutput(g) => graph.gate_output_node(g),
            sink => panic!("{sink:?} drives nothing"),
        };
        match self {
            Modifier::Repower(g, _) => {
                let feeds_g = |pin: &PinRef| matches!(*pin, PinRef::GateInput(to, _) if to == g);
                let drivers = netlist
                    .nets()
                    .iter()
                    .filter(|net| net.sinks.iter().any(feeds_g));
                std::iter::once(graph.gate_output_node(g))
                    .chain(drivers.map(|net| driver_node(net.driver)))
                    .collect()
            }
            Modifier::NetCap(net, _) => vec![driver_node(netlist.nets()[net as usize].driver)],
            Modifier::InputDelay(p, _) => vec![port_node(NodeKind::PrimaryInput(p.0))],
            Modifier::OutputDelay(p, _) => vec![port_node(NodeKind::PrimaryOutput(p.0))],
        }
    }
}

/// `Timer::full_space_tdg` on `timer`, with `modifier` pending, against the
/// TDG `update_timing` builds for the whole design on `twin` (the same
/// analysed design, the same modifier): same fingerprint, edges and weights.
/// The call leaves the pending edits, the next cone and the values alone.
fn assert_full_space_tdg_is_the_full_update_tdg(
    mut timer: Timer,
    mut twin: Timer,
    modifier: Modifier,
) -> Result<(), TestCaseError> {
    modifier.apply(&mut timer);
    modifier.apply(&mut twin);
    let before = timer.snapshot();
    let tdg = timer.full_space_tdg();
    prop_assert!(
        timer.has_pending_changes(),
        "{:?} is still pending",
        modifier
    );
    prop_assert!(timer.snapshot() == before, "the values are untouched");
    let cone = timer.dirty_cone();
    let want_cone = twin.dirty_cone();
    prop_assert_eq!(cone.ids(), want_cone.ids(), "the next cone");
    cone.run_in_order();
    want_cone.run_in_order();
    drop((cone, want_cone));
    prop_assert!(timer.snapshot() == twin.snapshot());

    twin.invalidate_all();
    let full = twin.update_timing();
    let want = full.tdg();
    prop_assert_eq!(tdg.num_tasks(), 2 * full.graph().num_nodes());
    prop_assert_eq!(tdg.fingerprint(), want.fingerprint());
    prop_assert!(tdg.edges().eq(want.edges()), "edges");
    let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(tdg.weights()), bits(want.weights()), "weights");
    Ok(())
}

#[test]
fn full_space_tdg_is_the_full_update_tdg_on_paper_circuits() {
    use gpasta::circuits::PaperCircuit;
    for (circuit, scale) in [(PaperCircuit::AesCore, 0.005), (PaperCircuit::Leon2, 0.002)] {
        let analysed = || {
            let mut timer = Timer::new(circuit.build(scale), CellLibrary::typical());
            timer.dirty_cone().run_in_order();
            timer
        };
        let modifier = Modifier::Repower(GateId(3), 2.0);
        assert_full_space_tdg_is_the_full_update_tdg(analysed(), analysed(), modifier)
            .unwrap_or_else(|e| panic!("{circuit}: {e}"));
    }
}

/// Case count of the cone-discovery property, overridable via
/// `PROPTEST_CASES` (the nightly CI job raises it).
fn discovery_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(discovery_cases()))]

    /// The dirty cone is, by definition, the successor closure of the dirty
    /// nodes' fprop tasks in the full-space TDG: fprop follows arcs, every
    /// node's bprop follows its fprop, bprop runs against arcs.
    #[test]
    fn dirty_cone_is_the_successor_closure_of_the_dirty_fprop_tasks(
        spec in arb_spec(),
        batches in proptest::collection::vec(
            (proptest::collection::vec(arb_modifier(), 1..=8), any::<bool>()),
            1..4,
        ),
    ) {
        let mut cone_timer = Timer::new(generate_netlist(&spec), CellLibrary::typical());
        let mut tdg_timer = Timer::new(generate_netlist(&spec), CellLibrary::typical());
        cone_timer.update_timing().run_sequential();
        let full = tdg_timer.update_timing();
        let full_tdg = full.tdg().clone();
        let n = full.num_fprop_tasks();
        prop_assert_eq!(full_tdg.num_tasks(), 2 * n);
        let mut fprop_of = vec![0u32; n];
        for t in 0..n as u32 {
            fprop_of[full.node(TaskId(t)).index()] = t;
        }
        full.run_sequential();
        drop(full);

        for (mut batch, repeat_first) in batches {
            if repeat_first {
                batch.push(batch[0]);
            }
            let mut seeds = Vec::new();
            for &drawn in &batch {
                let m = Modifier::resolve(drawn, &cone_timer);
                seeds.extend(m.dirties(&cone_timer).iter().map(|v| fprop_of[v.index()]));
                m.apply(&mut cone_timer);
                m.apply(&mut tdg_timer);
            }
            let want = forward_closure(&full_tdg, &seeds);
            let want_fprop = want.iter().filter(|&&id| (id as usize) < n).count();

            let cone = cone_timer.dirty_cone();
            prop_assert_eq!(cone.ids(), &want[..], "batch {:?}", &batch);
            cone.run_in_order();
            drop(cone);
            let update = tdg_timer.update_timing();
            prop_assert_eq!(update.full_space_ids(), want);
            prop_assert_eq!(update.num_fprop_tasks(), want_fprop);
            update.run_sequential();
            drop(update);
            prop_assert!(cone_timer.snapshot() == tdg_timer.snapshot());
        }
    }

    #[test]
    fn full_space_tdg_is_the_full_update_tdg(spec in arb_spec(), drawn in arb_modifier()) {
        let timer = analysed_timer(&spec);
        let modifier = Modifier::resolve(drawn, &timer);
        assert_full_space_tdg_is_the_full_update_tdg(timer, analysed_timer(&spec), modifier)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(discovery_cases()))]

    /// An in-order run of a partial cone executes only the tasks a changed
    /// value reaches, and leaves the bits of a run of the whole cone; a
    /// whole-design cone (the first update, a clock flip) runs every task.
    #[test]
    fn in_order_run_of_what_changed_equals_the_sequential_run_of_the_cone(
        spec in arb_spec(),
        batches in proptest::collection::vec(
            (proptest::collection::vec(arb_modifier(), 1..=8), any::<bool>(), any::<bool>()),
            1..4,
        ),
    ) {
        let mut cone_timer = Timer::new(generate_netlist(&spec), CellLibrary::typical());
        let mut twin = Timer::new(generate_netlist(&spec), CellLibrary::typical());
        let full_space = 2 * twin.graph().num_nodes();
        let mut period_ps = 1_000.0;
        let mut summary = cone_timer.endpoint_summary();
        // The first update, then one per batch.
        for batch in std::iter::once(None).chain(batches.into_iter().map(Some)) {
            let mut whole_design = batch.is_none();
            if let Some((mut drawn, repeat_first, flip_clock)) = batch {
                if repeat_first {
                    drawn.push(drawn[0]);
                }
                for m in drawn {
                    let m = Modifier::resolve(m, &twin);
                    m.apply(&mut cone_timer);
                    m.apply(&mut twin);
                }
                if flip_clock {
                    period_ps = 1_500.0 - period_ps;
                    cone_timer.set_clock_period(period_ps);
                    twin.set_clock_period(period_ps);
                    whole_design = true;
                }
            }
            let cone = cone_timer.dirty_cone();
            let structural = cone.num_tasks();
            prop_assert!(cone.sweep_bits_are_zero(), "after discovery");
            let executed = cone.run_in_order();
            prop_assert!(cone.sweep_bits_are_zero(), "after the run");
            prop_assert!(executed <= structural, "{} of {}", executed, structural);
            if whole_design {
                prop_assert_eq!((executed, structural), (full_space, full_space));
            }
            // The endpoints the run names are all that moved — unless it
            // names none, which only a whole-design run may.
            let fed = cone.point_update(&mut summary);
            prop_assert!(fed || whole_design, "a partial cone keeps the list");
            drop(cone);
            twin.update_timing().run_sequential();
            prop_assert!(cone_timer.snapshot() == twin.snapshot());
            if !fed {
                summary = cone_timer.endpoint_summary();
            }
            prop_assert!(summary == twin.endpoint_summary(), "point update");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(discovery_cases()))]

    /// Beyond the design, a completed update's values are a function of
    /// the edit state: a fresh timer of the same design given `a`'s, plus
    /// one whole-design run in order, reproduces `a`'s snapshot after each
    /// batch of repower / net-cap / I/O-delay / clock edits. A state with
    /// an array of the wrong length is refused and changes nothing.
    #[test]
    fn an_edit_state_and_one_whole_design_run_reproduce_the_snapshot(
        spec in arb_spec(),
        batches in proptest::collection::vec(
            (proptest::collection::vec(arb_modifier(), 1..=8), any::<bool>()),
            1..4,
        ),
        wrong in 0usize..4,
    ) {
        let mut a = analysed_timer(&spec);
        let mut period_ps = 1_000.0;
        for (drawn, flip_clock) in batches {
            for m in drawn {
                Modifier::resolve(m, &a).apply(&mut a);
            }
            if flip_clock {
                period_ps = 1_500.0 - period_ps;
                a.set_clock_period(period_ps);
            }
            a.update_timing().run_sequential();
            let state = a.edit_state();
            let mut fresh = Timer::new(generate_netlist(&spec), CellLibrary::typical());
            fresh.set_edit_state(&state).expect("the same design");
            prop_assert!(fresh.has_pending_changes(), "the whole design is dirty");
            let cone = fresh.dirty_cone();
            prop_assert_eq!(cone.num_tasks(), 2 * a.graph().num_nodes());
            cone.run_in_order();
            drop(cone);
            prop_assert!(fresh.snapshot() == a.snapshot());
            prop_assert_eq!(fresh.edit_state(), state);
        }

        let mut bad = a.edit_state();
        let field = ["drive", "wire_cap", "input_delay", "output_delay"][wrong];
        [&mut bad.drive, &mut bad.wire_cap, &mut bad.input_delay, &mut bad.output_delay][wrong]
            .push(0);
        let before = (a.snapshot(), a.edit_state(), a.has_pending_changes());
        let err = a.set_edit_state(&bad).expect_err("a wrong length");
        prop_assert_eq!(err.field, field);
        prop_assert!((a.snapshot(), a.edit_state(), a.has_pending_changes()) == before);
    }
}

/// A slack of any kind: finite, from a small pool so that ties are heavy,
/// either zero, either infinity, a NaN of either sign.
fn arb_slack() -> impl Strategy<Value = f32> {
    (0u8..16, any::<u32>()).prop_map(|(kind, raw)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => f32::NAN,
        5 => -f32::NAN,
        6 => f32::from_bits(0x7FFF_FFFF),
        7..=11 => [-3.5f32, 7.25, -0.125, -3.5e6, 1.0e-40][raw as usize % 5],
        _ => (raw % 4_001) as f32 / 16.0 - 125.0,
    })
}

/// Total negative slack by halving: zeros up to a power of two, then the
/// first half's sum plus the second half's.
fn tns_by_halves(slacks: &[f32]) -> f32 {
    fn sum(padded: &[f32]) -> f32 {
        if let [x] = padded {
            return *x;
        }
        let (lo, hi) = padded.split_at(padded.len() / 2);
        sum(lo) + sum(hi)
    }
    let negative = |&s: &f32| if s < 0.0 { s } else { 0.0 };
    let mut padded: Vec<f32> = slacks.iter().map(negative).collect();
    padded.resize(slacks.len().next_power_of_two(), 0.0);
    sum(&padded)
}

/// `summary` reads as `slacks` sorted stably by `total_cmp`, for every `k`.
fn reads_as_a_stable_sort(summary: &EndpointSummary, slacks: &[f32]) -> Result<(), TestCaseError> {
    let mut ranked: Vec<(f32, u32)> = slacks.iter().copied().zip(0..).collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let bits = |ranked: &[(f32, u32)]| -> Vec<(u32, u32)> {
        ranked.iter().map(|&(s, i)| (s.to_bits(), i)).collect()
    };
    for k in 0..=slacks.len() + 1 {
        let want = &ranked[..k.min(slacks.len())];
        prop_assert_eq!(bits(&summary.worst(k)), bits(want), "k {}", k);
    }
    let wns = ranked.first().map_or(f32::INFINITY, |e| e.0);
    prop_assert_eq!(summary.wns_ps().to_bits(), wns.to_bits());
    prop_assert_eq!(summary.tns_ps().to_bits(), tns_by_halves(slacks).to_bits());
    prop_assert_eq!(summary.num_endpoints(), slacks.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(discovery_cases().max(64)))]

    /// The endpoint summary is a function of the slack vector: however it
    /// was reached, it is the `build` of what it holds, bit for bit, and
    /// reads as the sort it replaced. Lengths 0, 1, 2^m and 2^m ± 1.
    #[test]
    fn endpoint_summary_after_any_sets_is_a_build_of_the_same_slacks(
        (mut slacks, sets) in (0u32..8, 0usize..3).prop_flat_map(|(m, d)| (
            proptest::collection::vec(arb_slack(), ((1usize << m) + d).saturating_sub(1)),
            proptest::collection::vec((any::<usize>(), arb_slack()), 0..48),
        )),
    ) {
        let mut summary = EndpointSummary::build(slacks.iter().copied());
        reads_as_a_stable_sort(&summary, &slacks)?;
        if slacks.is_empty() {
            prop_assert_eq!(summary.wns_ps(), f32::INFINITY);
            prop_assert_eq!(summary.tns_ps().to_bits(), 0.0f32.to_bits());
            return Ok(());
        }
        for (at, slack) in sets {
            let i = at % slacks.len();
            let moved = slacks[i].to_bits() != slack.to_bits();
            slacks[i] = slack;
            prop_assert_eq!(summary.set(i, slack), moved);
            prop_assert!(summary == EndpointSummary::build(slacks.iter().copied()));
        }
        reads_as_a_stable_sort(&summary, &slacks)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn arrivals_are_monotone_along_arcs(spec in arb_spec()) {
        let timer = analysed_timer(&spec);
        let graph = timer.graph();
        let data = timer.data();
        let worst_late = |v: NodeId| {
            data.arrival(v, Tr::Rise, Mode::Late)
                .max(data.arrival(v, Tr::Fall, Mode::Late))
        };
        for arc in graph.arcs() {
            prop_assert!(
                worst_late(arc.to) >= worst_late(arc.from),
                "late arrival decreased across arc {:?}", arc
            );
        }
    }

    #[test]
    fn early_never_exceeds_late(spec in arb_spec()) {
        let timer = analysed_timer(&spec);
        let data = timer.data();
        for v in 0..timer.graph().num_nodes() as u32 {
            for tr in [Tr::Rise, Tr::Fall] {
                let node = NodeId(v);
                prop_assert!(
                    data.arrival(node, tr, Mode::Early) <= data.arrival(node, tr, Mode::Late),
                    "node {v}: early arrival exceeds late"
                );
            }
        }
    }

    #[test]
    fn report_is_consistent_with_node_slacks(spec in arb_spec()) {
        let timer = analysed_timer(&spec);
        let report = timer.report(usize::MAX);
        // WNS is the minimum endpoint slack; TNS sums negatives only.
        if let Some(worst) = report.worst.first() {
            prop_assert_eq!(report.wns_ps, worst.slack_ps);
        }
        let tns: f32 = report.worst.iter().map(|e| e.slack_ps.min(0.0)).sum();
        prop_assert!((report.tns_ps - tns).abs() < 1e-3);
        for e in &report.worst {
            prop_assert!(
                (timer.data().slack_late(e.node) - e.slack_ps).abs() < 1e-3,
                "endpoint {} slack mismatch", e.name
            );
        }
    }

    #[test]
    fn incremental_equals_full_reanalysis(spec in arb_spec(), edits in proptest::collection::vec((any::<u32>(), 0.5f32..4.0), 1..6)) {
        let mut incremental = analysed_timer(&spec);
        let num_gates = incremental.netlist().num_gates() as u32;

        // Apply the edits incrementally.
        for &(g, drive) in &edits {
            incremental.repower_gate(GateId(g % num_gates), drive);
            incremental.update_timing().run_sequential();
        }
        let inc_report = incremental.report(3);

        // Reference: same edits, then one full re-analysis.
        let mut full = analysed_timer(&spec);
        for &(g, drive) in &edits {
            full.repower_gate(GateId(g % num_gates), drive);
        }
        full.invalidate_all();
        full.update_timing().run_sequential();
        let full_report = full.report(3);

        prop_assert_eq!(inc_report.wns_ps, full_report.wns_ps);
        prop_assert!((inc_report.tns_ps - full_report.tns_ps).abs() < 1e-2);
    }

    #[test]
    fn partitioned_execution_matches_sequential(spec in arb_spec()) {
        let reference = analysed_timer(&spec).report(1).wns_ps;

        let mut timer = Timer::new(generate_netlist(&spec), CellLibrary::typical());
        {
            let update = timer.update_timing();
            let partition = SeqGPasta::new()
                .partition(update.tdg(), &PartitionerOptions::default())
                .expect("valid options");
            let quotient = QuotientTdg::build(update.tdg(), &partition).expect("schedulable");
            let payload = update.task_fn();
            Executor::new(2).run_partitioned(&quotient, &payload);
        }
        prop_assert_eq!(timer.report(1).wns_ps, reference);
    }
}
