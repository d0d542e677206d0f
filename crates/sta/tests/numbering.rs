//! The task-numbering contract of `Timer::update_timing` (see the
//! `TimingUpdateTdg` docs): on every update TDG, full or cone, every edge
//! has `u < v`, fprop ids precede bprop ids, and `full_space_id` is a
//! strictly increasing embedding into the full update's TDG — the identity
//! on a full update.

use gpasta_circuits::PaperCircuit;
use gpasta_sched::splitmix64;
use gpasta_sta::{CellLibrary, GateId, TaskKind, Timer, TimingUpdateTdg};
use gpasta_tdg::{TaskId, Tdg};

const SCALE: f64 = 0.002;
const CONES_PER_CIRCUIT: u64 = 12;

/// Check one update against the contract and, for a cone, against the
/// full-space TDG it must embed into.
fn check(update: &TimingUpdateTdg<'_>, full: Option<&Tdg>, what: &str) {
    let tdg = update.tdg();
    for (u, v) in tdg.edges() {
        assert!(u < v, "{what}: edge {u} -> {v} does not rise");
    }
    let num_fprop = update.num_fprop_tasks();
    for t in 0..tdg.num_tasks() {
        let kind = update.kind(TaskId(t as u32));
        let want = if t < num_fprop {
            TaskKind::Fprop
        } else {
            TaskKind::Bprop
        };
        assert_eq!(kind, want, "{what}: fprop ids precede bprop ids (task {t})");
    }
    let ids = update.full_space_ids();
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "{what}: full-space ids rise with the task id"
    );
    match full {
        None => {
            assert_eq!(tdg.num_tasks(), update.full_space_len());
            for (t, &id) in ids.iter().enumerate() {
                assert_eq!(id, t as u32, "{what}: identity on a full update");
            }
        }
        Some(full) => {
            assert_eq!(full.num_tasks(), update.full_space_len());
            for (u, v) in tdg.edges() {
                let (fu, fv) = (ids[u.index()], ids[v.index()]);
                assert!(
                    full.successors(TaskId(fu)).contains(&fv),
                    "{what}: cone edge {fu} -> {fv} missing from the full-space TDG"
                );
            }
        }
    }
}

#[test]
fn every_update_tdg_is_numbered_topologically() {
    for &circuit in PaperCircuit::all() {
        let name = circuit.name();
        let mut timer = Timer::new(circuit.build(SCALE), CellLibrary::typical());
        let update = timer.update_timing();
        check(&update, None, &format!("{name} full"));
        let full = update.tdg().clone();
        update.run_sequential();
        drop(update);

        let (gates, nets) = (timer.netlist().num_gates(), timer.netlist().num_nets());
        for i in 0..CONES_PER_CIRCUIT {
            let r = splitmix64(0x5EED ^ i);
            // Alternate the two cone-shaped edits; every third cone joins
            // two edits so cones overlap and merge.
            let edits = 1 + u64::from(i % 3 == 2);
            for e in 0..edits {
                let r = splitmix64(r ^ e);
                if (i + e) % 2 == 0 {
                    let drive = 0.5 + (r >> 32) as f32 / u32::MAX as f32 * 3.0;
                    timer.repower_gate(GateId((r % gates as u64) as u32), drive);
                } else {
                    let cap = (r >> 32) as f32 / u32::MAX as f32 * 20.0;
                    timer.set_net_cap((r % nets as u64) as u32, cap);
                }
            }
            let update = timer.update_timing();
            assert!(update.tdg().num_tasks() > 0, "{name} cone {i} is dirty");
            check(&update, Some(&full), &format!("{name} cone {i}"));
            update.run_sequential();
        }

        // A later full update is numbered like the first.
        timer.invalidate_all();
        let update = timer.update_timing();
        check(&update, None, &format!("{name} full again"));
        assert_eq!(update.tdg(), &full);
    }
}
