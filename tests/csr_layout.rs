//! Differential tests for the flat-layout hot paths: the CSR wavefront
//! partitioners and the SoA timing propagation must be **bit-identical**
//! to the retained legacy paths (`partition_reference`,
//! `run_sequential_reference`) on every circuit of the paper suite.
//!
//! The legacy paths are the semantics; the CSR/SoA rewrites are pure
//! data-layout changes (DESIGN.md §13). Any divergence — a reordered
//! float reduction, a wavefront visiting tasks in a different order —
//! shows up here as a failed equality, not as a subtly shifted slack in
//! a benchmark.

use gpasta_circuits::PaperCircuit;
use gpasta_core::{DeterGPasta, Gdca, Partitioner, PartitionerOptions, SeqGPasta};
use gpasta_gpu::Device;
use gpasta_sta::{CellKind, CellLibrary, GateId, Lut2D, Timer};

/// Small but structurally faithful instances of all six paper circuits.
const SCALE: f64 = 0.004;

fn timer_for(circuit: PaperCircuit) -> Timer {
    Timer::new(circuit.build(SCALE), CellLibrary::typical())
}

/// The modifier schedule both engines replay between incremental rounds:
/// deterministic, touching both electrical state kinds.
fn apply_modifiers(timer: &mut Timer, round: u32) {
    let num_gates = timer.netlist().num_gates() as u32;
    let num_nets = timer.netlist().num_nets() as u32;
    timer.repower_gate(GateId((7 * round + 3) % num_gates), 2.0);
    timer.set_net_cap((11 * round + 5) % num_nets, 3.5);
}

#[test]
fn soa_propagation_is_bit_identical_to_the_reference_kernels() {
    let libraries = [
        ("typical", CellLibrary::typical()),
        ("per-table slew axes", library_with_unshared_slew_axes()),
    ];
    for (lib, library) in libraries {
        for &circuit in PaperCircuit::all() {
            let timer = || Timer::new(circuit.build(SCALE), library.clone());
            // Full update through the SoA hot path.
            let mut fast = timer();
            fast.update_timing().run_sequential();
            // Full update through the legacy AoS kernels.
            let mut reference = timer();
            reference.update_timing().run_sequential_reference();

            assert_eq!(
                fast.snapshot(),
                reference.snapshot(),
                "{} ({lib}): full-update timing state diverged between SoA and reference",
                circuit.name()
            );

            // Three incremental rounds over the identical modifier schedule.
            for round in 0..3u32 {
                apply_modifiers(&mut fast, round);
                fast.update_timing().run_sequential();
                apply_modifiers(&mut reference, round);
                reference.update_timing().run_sequential_reference();
                assert_eq!(
                    fast.snapshot(),
                    reference.snapshot(),
                    "{} ({lib}): incremental round {round} diverged between SoA and reference",
                    circuit.name()
                );
            }
        }
    }
}

#[test]
fn soa_propagation_preserves_wns_tns_bits() {
    for &circuit in PaperCircuit::all() {
        let mut fast = timer_for(circuit);
        fast.update_timing().run_sequential();
        let mut reference = timer_for(circuit);
        reference.update_timing().run_sequential_reference();
        for k in [1, 10] {
            let (f, r) = (fast.report(k), reference.report(k));
            assert_eq!(
                f.wns_ps.to_bits(),
                r.wns_ps.to_bits(),
                "{}: WNS bits diverged",
                circuit.name()
            );
            assert_eq!(
                f.tns_ps.to_bits(),
                r.tns_ps.to_bits(),
                "{}: TNS bits diverged",
                circuit.name()
            );
        }
    }
}

#[test]
fn csr_partitioners_match_their_references_on_the_paper_suite() {
    for &circuit in PaperCircuit::all() {
        let mut timer = timer_for(circuit);
        let update = timer.update_timing();
        let tdg = update.tdg();
        for opts in [
            PartitionerOptions::default(),
            PartitionerOptions::with_max_size(8),
        ] {
            let gdca = Gdca::new();
            assert_eq!(
                gdca.partition(tdg, &opts).expect("csr path"),
                gdca.partition_reference(tdg, &opts).expect("legacy path"),
                "{}: GDCA assignments diverged",
                circuit.name()
            );

            let seq = SeqGPasta::new();
            assert_eq!(
                seq.partition(tdg, &opts).expect("csr path"),
                seq.partition_reference(tdg, &opts).expect("legacy path"),
                "{}: seq-G-PASTA assignments diverged",
                circuit.name()
            );

            // The parallel partitioner is only deterministic on a
            // single-worker device; that is the bit-identity contract.
            let gp = gpasta_core::GPasta::with_device(Device::single());
            assert_eq!(
                gp.partition(tdg, &opts).expect("csr path"),
                gp.partition_reference(tdg, &opts).expect("legacy path"),
                "{}: G-PASTA assignments diverged",
                circuit.name()
            );

            // The deterministic variant must match for any worker count.
            let reference = DeterGPasta::with_device(Device::single())
                .partition_reference(tdg, &opts)
                .expect("legacy path");
            for workers in [1usize, 4] {
                assert_eq!(
                    DeterGPasta::with_device(Device::new(workers))
                        .partition(tdg, &opts)
                        .expect("csr path"),
                    reference,
                    "{}: deterministic G-PASTA diverged at {workers} workers",
                    circuit.name()
                );
            }
        }
    }
}

/// A library whose NAND2 tables do not share one slew axis, as a Liberty
/// file may give them: every other cell keeps the shared axis.
fn library_with_unshared_slew_axes() -> CellLibrary {
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
    assert!(!nand.tables.shares_slew_axis());
    library.set_cell(CellKind::Nand2, nand);
    library
}
