//! Crash-safe checkpoint/resume: the session checkpoint, and the
//! `gpasta update` flow that exercises it.
//!
//! A checkpoint holds what a [`Session`] cannot derive from its sources:
//! the session identity (name plus checksums of its netlist and
//! constraints), the update counter, and the edit state ([`EditState`]:
//! clock period, drives, wire caps and I/O delays as raw `f32` bit
//! patterns). Everything else is derived: the netlist, timing graph and
//! cell library from the sources, and every timing value by the
//! one whole-design run [`Session::create`] also makes. So a restored
//! session reads the values the live one reaches at its next update,
//! never stale or unknown ones. [`Session::evict_to`] writes checkpoints
//! and [`DormantSession::restore`] reads them; [`run_update_flow`] is a
//! thin loop over both.
//!
//! On disk a checkpoint is a record of kind 20 (the envelope, its
//! checksum and its table of kinds are in `src/record.rs`), written
//! crash-safely, whose payload is:
//!
//! ```text
//! session name                           u32 length + UTF-8 bytes
//! netlist, constraint fingerprints       2 × u64
//! updates completed                      u32
//! design shape (gates, nets, inputs,
//!   outputs, graph nodes)                5 × u32   (early mismatch check)
//! edit state                             clock-period bits + 4 u32 arrays:
//!                                        drive (gates), wire cap (nets),
//!                                        input / output delay (ports)
//! ```
//!
//! Every section length is checked before anything is allocated, and each
//! edit-state array's against the stored design shape, so damage is a
//! typed [`CheckpointError`], never a panic.

use std::error::Error;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::circuits::PaperCircuit;
use crate::record::{self, put_arr, put_bytes, put_u32, put_u64, RecordError};
use crate::sched::{splitmix64, RunBudget, StopCause};
use crate::session::{DesignSources, DormantSession, Edit, Session, SessionError};
use crate::sta::{write_verilog, EditState, GateId, Timer};

/// The record kind of a session checkpoint.
const KIND: u8 = 20;

/// A checkpoint read from or written to disk failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// A filesystem operation failed; `op` names it (`create`, `write`,
    /// `sync`, `rename`, `read`) and `path` is the file involved.
    Io {
        /// File the operation touched.
        path: PathBuf,
        /// Which operation failed.
        op: &'static str,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// The file does not start with the checkpoint magic — it is not a
    /// gpasta checkpoint at all.
    BadMagic,
    /// The file is a gpasta checkpoint (or frame) of another format
    /// version.
    BadVersion {
        /// The version bytes found after the magic.
        found: [u8; 2],
    },
    /// The file is structurally damaged: checksum mismatch, truncation,
    /// or a section length pointing past the end of the file.
    Corrupt(String),
    /// The checkpoint is intact but was taken against a different session:
    /// name, source fingerprints, or design shape disagree with the
    /// caller's.
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, op, source } => {
                write!(f, "cannot {op} {}: {source}", path.display())
            }
            CheckpointError::BadMagic => RecordError::BadMagic.fmt(f),
            CheckpointError::BadVersion { found } => RecordError::BadVersion(*found).fmt(f),
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            CheckpointError::Mismatch(why) => write!(f, "checkpoint mismatch: {why}"),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The design-shape fingerprint stored in a checkpoint: enough to reject
/// a resume against the wrong design with a readable message, and the
/// lengths the stored edit-state arrays must have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignShape {
    /// Gate count of the netlist.
    pub gates: u32,
    /// Net count of the netlist.
    pub nets: u32,
    /// Primary-input count.
    pub inputs: u32,
    /// Primary-output count.
    pub outputs: u32,
    /// Node count of the flattened timing graph.
    pub nodes: u32,
}

impl DesignShape {
    /// The shape of the design a [`Timer`] analyses — the identity check
    /// [`Session`] eviction stamps into its checkpoints.
    pub fn of(timer: &Timer) -> DesignShape {
        let nl = timer.netlist();
        DesignShape {
            gates: nl.num_gates() as u32,
            nets: nl.num_nets() as u32,
            inputs: nl.num_inputs() as u32,
            outputs: nl.num_outputs() as u32,
            nodes: timer.graph().num_nodes() as u32,
        }
    }
}

/// Everything a [`Session`] persists.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateCheckpoint {
    /// The session name.
    pub session: String,
    /// [`DesignSources::netlist_bits`]: fingerprint of the netlist text.
    pub netlist_bits: u64,
    /// [`DesignSources::constraint_bits`]: fingerprint of the constraints.
    pub constraint_bits: u64,
    /// [`Session::updates_done`] at the time of the write.
    pub updates_done: u32,
    /// Shape of the design the edits were made to.
    pub shape: DesignShape,
    /// The edit state at the time of the write, pending edits included.
    pub edits: EditState,
}

impl From<RecordError> for CheckpointError {
    fn from(e: RecordError) -> Self {
        match e {
            RecordError::BadMagic => CheckpointError::BadMagic,
            RecordError::BadVersion(found) => CheckpointError::BadVersion { found },
            RecordError::Corrupt(why) => CheckpointError::Corrupt(why),
            RecordError::Io(e) => CheckpointError::Corrupt(e.to_string()),
        }
    }
}

pub(crate) fn encode(ckpt: &UpdateCheckpoint) -> Vec<u8> {
    let mut p = Vec::new();
    put_bytes(&mut p, ckpt.session.as_bytes());
    put_u64(&mut p, ckpt.netlist_bits);
    put_u64(&mut p, ckpt.constraint_bits);
    put_u32(&mut p, ckpt.updates_done);
    for v in [
        ckpt.shape.gates,
        ckpt.shape.nets,
        ckpt.shape.inputs,
        ckpt.shape.outputs,
        ckpt.shape.nodes,
    ] {
        put_u32(&mut p, v);
    }
    let e = &ckpt.edits;
    put_u32(&mut p, e.clock_period_bits);
    for arr in [&e.drive, &e.wire_cap, &e.input_delay, &e.output_delay] {
        put_arr(&mut p, arr);
    }
    record::seal(KIND, &p)
}

fn decode(bytes: &[u8]) -> Result<UpdateCheckpoint, CheckpointError> {
    Ok(record::open(bytes, KIND, |r| {
        let session = String::from_utf8(r.counted_bytes("session name")?)
            .map_err(|_| RecordError::Corrupt("session name is not UTF-8".into()))?;
        let netlist_bits = r.u64("netlist fingerprint")?;
        let constraint_bits = r.u64("constraint fingerprint")?;
        let updates_done = r.u32("update counter")?;
        let shape = DesignShape {
            gates: r.u32("shape")?,
            nets: r.u32("shape")?,
            inputs: r.u32("shape")?,
            outputs: r.u32("shape")?,
            nodes: r.u32("shape")?,
        };
        let edits = EditState {
            clock_period_bits: r.u32("clock period")?,
            drive: r.arr_of(Some(shape.gates), "drive")?,
            wire_cap: r.arr_of(Some(shape.nets), "wire cap")?,
            input_delay: r.arr_of(Some(shape.inputs), "input delay")?,
            output_delay: r.arr_of(Some(shape.outputs), "output delay")?,
        };
        Ok(UpdateCheckpoint {
            session,
            netlist_bits,
            constraint_bits,
            updates_done,
            shape,
            edits,
        })
    })?)
}

/// `op` on `path` failed with `source`.
pub(crate) fn io_error(path: &Path, op: &'static str, source: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.to_path_buf(),
        op,
        source,
    }
}

/// Write `ckpt` to `path` crash-safely: a temp file beside it, synced,
/// then renamed into place, so a crash leaves the old file or the new one.
///
/// # Errors
///
/// [`CheckpointError::Io`] naming the failed operation and the file it
/// touched.
pub fn write_checkpoint(path: &Path, ckpt: &UpdateCheckpoint) -> Result<(), CheckpointError> {
    record::write_atomically(path, &encode(ckpt), io_error)
}

/// Read and fully validate a checkpoint written by [`write_checkpoint`].
///
/// # Errors
///
/// [`CheckpointError::Io`] if the file cannot be read,
/// [`CheckpointError::BadMagic`] / [`CheckpointError::BadVersion`] for
/// foreign files, and [`CheckpointError::Corrupt`] for checksum or
/// structure damage.
pub fn read_checkpoint(path: &Path) -> Result<UpdateCheckpoint, CheckpointError> {
    let bytes = fs::read(path).map_err(|e| io_error(path, "read", e))?;
    decode(&bytes)
}

// ---------------------------------------------------------------------------
// The update flow
// ---------------------------------------------------------------------------

/// An error from [`run_update_flow`]: the flow is a loop over a
/// [`Session`], so its failures are the session's.
pub type FlowError = SessionError;

/// Configuration of one `gpasta update` run.
#[derive(Debug, Clone)]
pub struct UpdateFlowConfig {
    /// Which paper circuit to analyze.
    pub circuit: PaperCircuit,
    /// Circuit scale (fraction of the paper-size TDG).
    pub scale: f64,
    /// Total incremental-update iterations the run should reach.
    pub iterations: u32,
    /// Seed of the deterministic gate-repower schedule.
    pub seed: u64,
    /// Write a checkpoint here after every completed iteration.
    pub checkpoint_to: Option<PathBuf>,
    /// Resume from this checkpoint instead of starting at iteration 0.
    pub resume_from: Option<PathBuf>,
    /// Stop (simulating a crash) right after checkpointing iteration `i`.
    pub kill_after: Option<u32>,
    /// Optional wall-clock budget for each iteration's update run.
    pub deadline: Option<Duration>,
}

impl UpdateFlowConfig {
    /// A small, fast default: `aes_core` at 1% scale, 8 iterations, no
    /// checkpointing.
    pub fn small(circuit: PaperCircuit) -> Self {
        UpdateFlowConfig {
            circuit,
            scale: 0.01,
            iterations: 8,
            seed: 0x5EED,
            checkpoint_to: None,
            resume_from: None,
            kill_after: None,
            deadline: None,
        }
    }
}

/// What a (possibly partial) update-flow run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateFlowOutcome {
    /// Iterations completed (including any done before a resume).
    pub iterations_done: u32,
    /// `true` when `kill_after` stopped the run early (simulated crash).
    pub killed: bool,
    /// Why the last update run stopped; [`StopCause::Completed`] unless a
    /// deadline expired mid-iteration.
    pub stop: StopCause,
    /// Setup WNS as `f32` bits (bit-exact comparison across runs).
    pub wns_bits: u32,
    /// Setup TNS as `f32` bits.
    pub tns_bits: u32,
    /// Endpoints whose slack reads *unknown* (NaN) because the last
    /// iteration stopped early; zero for completed runs.
    pub unknown_endpoints: u32,
}

/// Iteration `i`'s deterministic modifier batch for a design of
/// `num_gates` gates: one to three `(gate, drive)` repowers drawn from
/// `splitmix64(seed, i)`. The drives a batch writes are part of the
/// checkpointed edit state, so a resumed run that rebuilds the netlist
/// from the circuit spec still sees the full modifier history.
pub fn modifier_batch(
    num_gates: usize,
    seed: u64,
    iteration: u32,
) -> impl Iterator<Item = (GateId, f32)> {
    const DRIVES: [f32; 4] = [0.5, 1.0, 2.0, 4.0];
    let h = splitmix64(seed ^ splitmix64(u64::from(iteration)));
    (0..1 + (h % 3)).map(move |k| {
        let hk = splitmix64(h ^ splitmix64(0x4B1D ^ k));
        let gate = GateId((hk % num_gates as u64) as u32);
        (gate, DRIVES[(hk >> 32) as usize % DRIVES.len()])
    })
}

/// Run the incremental timing-update flow: a [`Session`] over the
/// circuit's netlist (created fresh, or restored from `resume_from`), fed
/// one [`modifier_batch`] of repower edits and one
/// [`Session::update_timing`] per iteration, checkpointed through
/// [`Session::evict_to`]. The flow is bit-deterministic: the same config
/// reaches the same WNS/TNS bits whether run straight through or killed
/// and resumed at any iteration boundary.
///
/// # Errors
///
/// [`SessionError::Checkpoint`] for unreadable/unwritable checkpoints and
/// for a resume against a different circuit, scale or seed
/// ([`CheckpointError::Mismatch`]).
///
/// # Panics
///
/// Panics if `scale` is not positive.
pub fn run_update_flow(cfg: &UpdateFlowConfig) -> Result<UpdateFlowOutcome, FlowError> {
    let budget = match cfg.deadline {
        Some(d) => RunBudget::unbounded().with_deadline(d),
        None => RunBudget::unbounded(),
    };
    // The session name spells the whole run identity, so a checkpoint
    // taken under another circuit, scale or seed belongs to "another
    // session" and the restore rejects it as a mismatch.
    let name = format!(
        "{} scale {} seed {:#x}",
        cfg.circuit.name(),
        cfg.scale,
        cfg.seed
    );
    let sources = DesignSources::verilog_only(write_verilog(
        &cfg.circuit.build(cfg.scale),
        cfg.circuit.name(),
    ));
    let mut session = match &cfg.resume_from {
        Some(path) => DormantSession::from_checkpoint(name, sources, path.clone()).restore(1)?,
        None => Session::create(name, sources, 1)?,
    };
    let num_gates = session.shape().gates as usize;

    // `done` counts completed iterations only; `Session::updates_done`
    // would also count a stopped one.
    let start_iter = session.updates_done();
    let mut done = start_iter;
    let mut killed = false;
    let mut stop = StopCause::Completed;
    let mut unknown_endpoints = 0u32;
    for i in start_iter..cfg.iterations {
        for (gate, drive) in modifier_batch(num_gates, cfg.seed, i) {
            session.apply_edit(&Edit::Repower {
                gate: gate.0.to_string(),
                drive,
            })?;
        }
        let out = session.update_timing(&budget)?;
        if out.stop != StopCause::Completed {
            // Budget expired mid-iteration: the session degraded the
            // stale values to NaN. Stop without checkpointing the partial
            // state — the last checkpoint is the resume point.
            stop = out.stop;
            unknown_endpoints = out.unknown_endpoints;
            break;
        }
        done = i + 1;
        if let Some(path) = &cfg.checkpoint_to {
            session.evict_to(path)?;
        }
        if cfg.kill_after == Some(done) {
            killed = true;
            break;
        }
    }

    let report = session.report(1);
    Ok(UpdateFlowOutcome {
        iterations_done: done,
        killed,
        stop,
        wns_bits: report.wns_ps.to_bits(),
        tns_bits: report.tns_ps.to_bits(),
        unknown_endpoints,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::record::tests::{cases, mangle, reseal};
    use crate::record::{temp_path, HEADER};
    use crate::sta::CellLibrary;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn tmp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "gpasta-ckpt-test-{}-{tag}-{n}.ckpt",
            std::process::id()
        ))
    }

    pub(crate) fn sample_checkpoint() -> UpdateCheckpoint {
        UpdateCheckpoint {
            session: "aes_core".into(),
            netlist_bits: 0.01f64.to_bits(),
            constraint_bits: 0x5EED,
            updates_done: 3,
            shape: DesignShape {
                gates: 7,
                nets: 9,
                inputs: 2,
                outputs: 1,
                nodes: 31,
            },
            edits: EditState {
                clock_period_bits: 1000.0f32.to_bits(),
                drive: vec![2.0f32.to_bits(), f32::NAN.to_bits(), 1, 2, 3, 4, 5],
                wire_cap: vec![(-0.0f32).to_bits(), 6, 7, 8, 9, 10, 11, 12, 13],
                input_delay: vec![14, 15],
                output_delay: vec![16],
            },
        }
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let ckpt = sample_checkpoint();
        let path = tmp_path("roundtrip");
        write_checkpoint(&path, &ckpt).expect("write");
        let back = read_checkpoint(&path).expect("read");
        assert_eq!(back, ckpt);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_leaves_no_temp_file_behind() {
        let path = tmp_path("notmp");
        write_checkpoint(&path, &sample_checkpoint()).expect("write");
        assert!(!temp_path(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    /// The staging file is never the destination (a `.tmp` destination
    /// would be truncated before the new bytes are synced), and two
    /// destinations that differ only in extension never share one.
    #[test]
    fn temp_file_differs_from_the_destination_and_between_extensions() {
        for name in ["a.ckpt", "a.json", "hand_off.tmp", "a"] {
            let path = Path::new("/spool").join(name);
            assert_ne!(temp_path(&path), path, "{name}");
            assert_eq!(temp_path(&path).parent(), path.parent(), "{name}");
        }
        let ckpt = temp_path(Path::new("/spool/a.ckpt"));
        assert_ne!(ckpt, temp_path(Path::new("/spool/a.json")));
        assert_eq!(ckpt, Path::new("/spool/a.ckpt.tmp"));
    }

    /// Each way the envelope fails maps to its `CheckpointError`: foreign
    /// bytes, another format version (which it names), and damage.
    #[test]
    fn damaged_files_are_rejected_with_typed_errors() {
        let good = encode(&sample_checkpoint());
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(decode(&bad_magic), Err(CheckpointError::BadMagic)));
        for version in [*b"02", *b"03", *b"04"] {
            let mut old = good.clone();
            old[6..8].copy_from_slice(&version);
            assert!(matches!(
                decode(&old),
                Err(CheckpointError::BadVersion { found }) if found == version
            ));
        }
        let mut flipped = good.clone();
        flipped[good.len() / 2] ^= 0x40;
        assert!(matches!(decode(&flipped), Err(CheckpointError::Corrupt(_))));
        for cut in 0..good.len() {
            let err = decode(&good[..cut]).expect_err("truncated file must fail");
            assert!(
                matches!(err, CheckpointError::Corrupt(_)),
                "cut at {cut}: {err:?}"
            );
        }
    }

    /// Where the first edit-state array's count (drive) sits: right after
    /// the fixed-size header sections and the clock bits.
    const DRIVE_COUNT_AT: usize = HEADER + 4 + "aes_core".len() + 8 + 8 + 4 + 5 * 4 + 4;

    #[test]
    fn corrupt_array_length_is_rejected_without_huge_allocation() {
        let mut bytes = encode(&sample_checkpoint());
        let off = DRIVE_COUNT_AT;
        bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut bytes);
        match decode(&bytes) {
            Err(CheckpointError::Corrupt(why)) => assert!(why.contains("drive"), "{why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// An edit-state array whose length is not the stored shape's is
    /// refused by its count, before its words are read: whether the shape
    /// or the array is what changed, and even when the bytes would
    /// otherwise parse.
    #[test]
    fn edit_arrays_must_have_the_stored_shapes_lengths() {
        let mut longer = sample_checkpoint();
        longer.edits.wire_cap.push(0);
        let mut fewer_ports = sample_checkpoint();
        fewer_ports.shape.outputs = 0;
        let mut more_gates = sample_checkpoint();
        more_gates.shape.gates += 1;
        for (ckpt, array) in [
            (longer, "wire cap"),
            (fewer_ports, "output delay"),
            (more_gates, "drive"),
        ] {
            match decode(&encode(&ckpt)) {
                Err(CheckpointError::Corrupt(why)) => {
                    assert!(why.contains(array) && why.contains("shape"), "{why}")
                }
                other => panic!("{array}: expected Corrupt, got {other:?}"),
            }
        }
        // A count that still fits the remaining bytes is refused too.
        let mut bytes = encode(&sample_checkpoint());
        bytes[DRIVE_COUNT_AT..DRIVE_COUNT_AT + 4].copy_from_slice(&6u32.to_le_bytes());
        reseal(&mut bytes);
        assert!(
            matches!(decode(&bytes), Err(CheckpointError::Corrupt(why)) if why.contains("drive"))
        );
    }

    /// Decode-or-typed-error: a file that is not a sealed checkpoint fails
    /// as damage (never as I/O or mismatch), and one that decodes is
    /// exactly the file's bytes — nothing was skipped or made up.
    fn assert_decodes_or_fails_typed(bytes: &[u8], what: &str) {
        match decode(bytes) {
            Ok(back) => assert_eq!(encode(&back), bytes, "{what}: decoded a non-canonical file"),
            Err(
                CheckpointError::Corrupt(_)
                | CheckpointError::BadMagic
                | CheckpointError::BadVersion { .. },
            ) => {}
            Err(other) => panic!("{what}: {other:?}"),
        }
    }

    #[test]
    fn section_reader_survives_every_resealed_truncation_and_bit_flip() {
        let good = encode(&sample_checkpoint());
        let body_len = good.len() - 8;
        // Cut the payload anywhere, then seal what is left: the length
        // and checksum hold, so every section's own length check is what
        // stops the read.
        for cut in HEADER..body_len {
            let mut bytes = good[..cut].to_vec();
            bytes.extend_from_slice(&[0; 8]);
            reseal(&mut bytes);
            assert!(
                decode(&bytes).is_err(),
                "a payload cut at {cut} of {body_len} decoded"
            );
            assert_decodes_or_fails_typed(&bytes, &format!("cut at {cut}"));
        }
        // Flip every payload bit, sealed: lengths, counts and the
        // values all take every single-bit error.
        for bit in HEADER * 8..body_len * 8 {
            let mut bytes = good.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            reseal(&mut bytes);
            assert_decodes_or_fails_typed(&bytes, &format!("bit {bit}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// Whatever is on disk, `decode` yields the checkpoint those bytes
        /// spell or one typed error — never a panic, and (a `u32::MAX`
        /// count is in the script) never an allocation sized by a length
        /// it has not checked against the bytes that are there.
        #[test]
        fn checkpoint_byte_soup_decodes_or_fails_typed(
            edits in proptest::collection::vec((0u8..8, any::<u32>(), any::<u8>()), 0..5),
        ) {
            let ckpt = sample_checkpoint();
            let clean = encode(&ckpt);
            let bytes = mangle(clean.clone(), &edits, &clean);
            assert_decodes_or_fails_typed(&bytes, "byte soup");
            if bytes == clean {
                prop_assert_eq!(decode(&bytes).expect("unedited"), ckpt);
            }
        }
    }

    #[test]
    fn io_errors_name_the_path_and_operation() {
        let path = Path::new("/definitely/not/a/real/dir/x.ckpt");
        match read_checkpoint(path) {
            Err(CheckpointError::Io {
                op: "read",
                path: p,
                ..
            }) => {
                assert!(p.to_string_lossy().contains("not/a/real"))
            }
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn modifier_schedule_is_deterministic() {
        let mut a = Timer::new(PaperCircuit::AesCore.build(0.002), CellLibrary::typical());
        let mut b = Timer::new(PaperCircuit::AesCore.build(0.002), CellLibrary::typical());
        a.update_timing().run_sequential();
        b.update_timing().run_sequential();
        let num_gates = a.netlist().num_gates();
        for i in 0..4 {
            for timer in [&mut a, &mut b] {
                for (gate, drive) in modifier_batch(num_gates, 0xABCD, i) {
                    timer.repower_gate(gate, drive);
                }
            }
        }
        a.update_timing().run_sequential();
        b.update_timing().run_sequential();
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn kill_and_resume_matches_straight_through() {
        let path = tmp_path("resume");
        let mut cfg = UpdateFlowConfig::small(PaperCircuit::AesCore);
        cfg.scale = 0.002;
        cfg.iterations = 6;
        let straight = run_update_flow(&cfg).expect("straight run");
        assert_eq!(straight.iterations_done, 6);
        assert_eq!(straight.stop, StopCause::Completed);

        let mut killed_cfg = cfg.clone();
        killed_cfg.checkpoint_to = Some(path.clone());
        killed_cfg.kill_after = Some(3);
        let partial = run_update_flow(&killed_cfg).expect("killed run");
        assert!(partial.killed);
        assert_eq!(partial.iterations_done, 3);

        let mut resume_cfg = cfg.clone();
        resume_cfg.resume_from = Some(path.clone());
        let resumed = run_update_flow(&resume_cfg).expect("resumed run");
        assert_eq!(resumed.iterations_done, 6);
        assert_eq!(resumed.wns_bits, straight.wns_bits);
        assert_eq!(resumed.tns_bits, straight.tns_bits);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_a_mismatched_run() {
        let path = tmp_path("mismatch");
        let mut cfg = UpdateFlowConfig::small(PaperCircuit::AesCore);
        cfg.scale = 0.002;
        cfg.iterations = 2;
        cfg.checkpoint_to = Some(path.clone());
        run_update_flow(&cfg).expect("checkpointing run");

        for (tag, tweak) in [
            (
                "circuit",
                Box::new(|c: &mut UpdateFlowConfig| c.circuit = PaperCircuit::DesPerf)
                    as Box<dyn Fn(&mut UpdateFlowConfig)>,
            ),
            (
                "scale",
                Box::new(|c: &mut UpdateFlowConfig| c.scale = 0.004),
            ),
            ("seed", Box::new(|c: &mut UpdateFlowConfig| c.seed ^= 1)),
        ] {
            let mut bad = cfg.clone();
            bad.checkpoint_to = None;
            bad.resume_from = Some(path.clone());
            tweak(&mut bad);
            match run_update_flow(&bad) {
                Err(FlowError::Checkpoint(CheckpointError::Mismatch(_))) => {}
                other => panic!("{tag}: expected Mismatch, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_deadline_stops_early_and_reports_it() {
        let mut cfg = UpdateFlowConfig::small(PaperCircuit::AesCore);
        cfg.scale = 0.002;
        cfg.iterations = 3;
        cfg.deadline = Some(Duration::ZERO);
        let out = run_update_flow(&cfg).expect("bounded run");
        assert_eq!(out.stop, StopCause::DeadlineExpired);
        assert_eq!(out.iterations_done, 0);
        // Every endpoint the stopped iteration would have refreshed reads
        // unknown (NaN), not stale-but-plausible.
        assert!(out.unknown_endpoints > 0);
    }
}
