//! Differential kill/resume tests for the crash-safe checkpoint flow.
//!
//! The oracle is the straight-through run: the same `UpdateFlowConfig`
//! executed without interruption. Each case then re-runs the flow with
//! per-iteration checkpointing, kills it at a randomized iteration
//! (simulating a crash after the checkpoint's atomic rename), resumes from
//! the checkpoint file, and asserts the final state is **bit-identical**
//! to the oracle: WNS and TNS as `f32` bit patterns. Cases sweep
//! seeds, and one chain kills the run twice to prove checkpoints compose.

use gpasta::checkpoint::{modifier_batch, run_update_flow, UpdateFlowConfig, UpdateFlowOutcome};
use gpasta::circuits::PaperCircuit;
use gpasta::sched::{RunBudget, StopCause};
use gpasta::session::{DesignSources, Edit, Session};
use gpasta::sta::write_verilog;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

fn tmp_ckpt(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "gpasta-resume-test-{}-{tag}-{n}.ckpt",
        std::process::id()
    ))
}

fn assert_same_final_state(oracle: &UpdateFlowOutcome, resumed: &UpdateFlowOutcome, what: &str) {
    assert_eq!(resumed.stop, StopCause::Completed, "{what}: stop cause");
    assert!(!resumed.killed, "{what}: resumed run must finish");
    assert_eq!(
        resumed.iterations_done, oracle.iterations_done,
        "{what}: iteration count"
    );
    assert_eq!(resumed.wns_bits, oracle.wns_bits, "{what}: WNS bits");
    assert_eq!(resumed.tns_bits, oracle.tns_bits, "{what}: TNS bits");
}

/// One full differential sweep: oracle run, then two randomized kill
/// points, each killed + resumed and compared bit-for-bit.
fn differential(circuit: PaperCircuit, scale: f64, seed: u64) {
    const ITERS: u32 = 8;
    let mut cfg = UpdateFlowConfig::small(circuit);
    cfg.scale = scale;
    cfg.iterations = ITERS;
    cfg.seed = seed;

    let oracle = run_update_flow(&cfg).expect("oracle run");
    assert_eq!(oracle.stop, StopCause::Completed);
    assert_eq!(oracle.iterations_done, ITERS);
    assert_eq!(oracle.unknown_endpoints, 0);

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC4A5);
    let mut kills: Vec<u32> = (0..2).map(|_| rng.gen_range(1..ITERS)).collect();
    kills.dedup();
    for kill in kills {
        let what = format!("{circuit} seed {seed:#x}, kill@{kill}");
        let path = tmp_ckpt("diff");

        let mut killed_cfg = cfg.clone();
        killed_cfg.checkpoint_to = Some(path.clone());
        killed_cfg.kill_after = Some(kill);
        let partial = run_update_flow(&killed_cfg).expect("killed run");
        assert!(partial.killed, "{what}: kill_after must trigger");
        assert_eq!(partial.iterations_done, kill, "{what}: killed at the mark");

        let mut resume_cfg = cfg.clone();
        resume_cfg.resume_from = Some(path.clone());
        let resumed = run_update_flow(&resume_cfg).expect("resumed run");
        assert_same_final_state(&oracle, &resumed, &what);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn aes_core_kill_resume_is_bit_identical_seed_a() {
    differential(PaperCircuit::AesCore, 0.002, 0xA11CE);
}

#[test]
fn aes_core_kill_resume_is_bit_identical_seed_b() {
    differential(PaperCircuit::AesCore, 0.002, 0xB0B);
}

#[test]
fn vga_lcd_kill_resume_is_bit_identical_seed_c() {
    differential(PaperCircuit::VgaLcd, 0.001, 0xCAFE);
}

#[test]
fn a_hand_driven_session_matches_the_flow() {
    // The flow is a thin loop over `Session`: the same modifier schedule
    // fed to a session by hand must land on the same bits.
    let mut cfg = UpdateFlowConfig::small(PaperCircuit::AesCore);
    cfg.scale = 0.002;
    cfg.iterations = 6;
    cfg.seed = 0x5E55;
    let flow = run_update_flow(&cfg).expect("flow run");

    let sources = DesignSources::verilog_only(write_verilog(
        &cfg.circuit.build(cfg.scale),
        cfg.circuit.name(),
    ));
    let mut session = Session::create("by-hand", sources, 1).expect("session");
    let num_gates = session.shape().gates as usize;
    for i in 0..cfg.iterations {
        for (gate, drive) in modifier_batch(num_gates, cfg.seed, i) {
            let gate = gate.0.to_string();
            session
                .apply_edit(&Edit::Repower { gate, drive })
                .expect("valid repower");
        }
        let out = session
            .update_timing(&RunBudget::unbounded())
            .expect("update");
        assert_eq!(out.stop, StopCause::Completed);
    }
    let report = session.report(1);
    assert_eq!(report.wns_ps.to_bits(), flow.wns_bits, "WNS bits");
    assert_eq!(report.tns_ps.to_bits(), flow.tns_bits, "TNS bits");
    assert_eq!(session.updates_done(), flow.iterations_done);
}

#[test]
fn double_kill_chain_composes() {
    // Crash twice: run to 2, resume to 5, resume to the end. The final
    // state must still match the uninterrupted oracle bit-for-bit.
    let mut cfg = UpdateFlowConfig::small(PaperCircuit::AesCore);
    cfg.scale = 0.002;
    cfg.iterations = 7;
    cfg.seed = 0x2C4A;
    let oracle = run_update_flow(&cfg).expect("oracle run");

    let path = tmp_ckpt("chain");
    let mut stage = cfg.clone();
    stage.checkpoint_to = Some(path.clone());
    stage.kill_after = Some(2);
    let first = run_update_flow(&stage).expect("first crash");
    assert_eq!(first.iterations_done, 2);

    stage.resume_from = Some(path.clone());
    stage.kill_after = Some(5);
    let second = run_update_flow(&stage).expect("second crash");
    assert_eq!(second.iterations_done, 5);

    stage.kill_after = None;
    let finished = run_update_flow(&stage).expect("final leg");
    assert_same_final_state(&oracle, &finished, "double-kill chain");
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_after_a_crash_during_checkpointing_uses_the_previous_checkpoint() {
    // Simulate a crash *mid-write*: after iteration 3's checkpoint lands,
    // scribble a half-written temp file next to it (what a torn write
    // would leave) and truncate nothing else. The resume must ignore the
    // temp file, read the intact checkpoint, and still match the oracle.
    let mut cfg = UpdateFlowConfig::small(PaperCircuit::AesCore);
    cfg.scale = 0.002;
    cfg.iterations = 6;
    cfg.seed = 0x7041;
    let oracle = run_update_flow(&cfg).expect("oracle run");

    let path = tmp_ckpt("torn");
    let mut killed_cfg = cfg.clone();
    killed_cfg.checkpoint_to = Some(path.clone());
    killed_cfg.kill_after = Some(3);
    run_update_flow(&killed_cfg).expect("killed run");

    let mut tmp_name = path.file_name().expect("file name").to_os_string();
    tmp_name.push(".tmp");
    let torn = path.with_file_name(tmp_name);
    std::fs::write(&torn, b"GPCKPT04 torn mid-write").expect("write torn temp");

    let mut resume_cfg = cfg.clone();
    resume_cfg.resume_from = Some(path.clone());
    let resumed = run_update_flow(&resume_cfg).expect("resumed run");
    assert_same_final_state(&oracle, &resumed, "torn-write resume");
    std::fs::remove_file(&torn).ok();
    std::fs::remove_file(&path).ok();
}
