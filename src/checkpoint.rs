//! Crash-safe checkpoint/resume: the `GPCKPT04` file format, and the
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
//! The on-disk format is a little-endian binary record:
//!
//! ```text
//! magic "GPCKPT" + version "04"          8 bytes
//! session name                           u32 length + UTF-8 bytes
//! netlist, constraint fingerprints       2 × u64
//! updates completed                      u32
//! design shape (gates, nets, inputs,
//!   outputs, graph nodes)                5 × u32   (early mismatch check)
//! edit state                             clock-period bits + 4 u32 arrays:
//!                                        drive (gates), wire cap (nets),
//!                                        input / output delay (ports)
//! checksum of all above                  u64
//! ```
//!
//! The checksum is [`checksum`](crate::tdg::checksum()), the lane-wise
//! hash every fingerprint and shard frame also uses. Files of an earlier
//! version — `GPCKPT03` (which stored every timing value), `GPCKPT02`
//! (which also stored the partition) and `GPCKPT01` (byte-serial FNV-1a
//! trailer) — are refused as [`CheckpointError::BadVersion`], never read
//! as this format.
//!
//! Writes are crash-safe: the record is serialized to a sibling temporary
//! file, flushed with `File::sync_all`, and atomically renamed over the
//! destination, so a crash at any point leaves either the old checkpoint
//! or the new one — never a torn file. Reads verify the checksum before
//! parsing and every section length before allocating — an edit-state
//! array against the stored design shape — so truncated or bit-flipped
//! files are rejected with a typed [`CheckpointError`].

use std::error::Error;
use std::fmt;
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::circuits::PaperCircuit;
use crate::sched::{splitmix64, RunBudget, StopCause};
use crate::session::{DesignSources, DormantSession, Edit, Session, SessionError};
use crate::shard::wire::{Reader, WireError};
use crate::sta::{write_verilog, EditState, GateId, Timer};
use crate::tdg::checksum;

/// The magic and format version every checkpoint file and shard frame
/// starts with.
pub(crate) const FORMAT: &[u8; 8] = b"GPCKPT04";

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
            CheckpointError::BadMagic => write!(f, "not a gpasta checkpoint or frame (bad magic)"),
            CheckpointError::BadVersion { found } => write!(
                f,
                "unsupported format version {:?} (expected {:?})",
                String::from_utf8_lossy(found),
                String::from_utf8_lossy(&FORMAT[6..])
            ),
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

// ---------------------------------------------------------------------------
// Binary encoding
// ---------------------------------------------------------------------------

/// `Ok` when `head` (8 bytes or more) starts with [`FORMAT`];
/// [`CheckpointError::BadMagic`] for foreign bytes and
/// [`CheckpointError::BadVersion`] for another version of this format.
pub(crate) fn check_format(head: &[u8]) -> Result<(), CheckpointError> {
    if head[..6] != FORMAT[..6] {
        return Err(CheckpointError::BadMagic);
    }
    let found = [head[6], head[7]];
    if found != FORMAT[6..] {
        return Err(CheckpointError::BadVersion { found });
    }
    Ok(())
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// `words` as little-endian bytes, in bulk.
pub(crate) fn put_words(buf: &mut Vec<u8>, words: &[u32]) {
    let at = buf.len();
    buf.resize(at + 4 * words.len(), 0);
    for (b, w) in buf[at..].chunks_exact_mut(4).zip(words) {
        b.copy_from_slice(&w.to_le_bytes());
    }
}

/// A counted array: the length, then [`put_words`].
pub(crate) fn put_arr(buf: &mut Vec<u8>, arr: &[u32]) {
    put_u32(buf, arr.len() as u32);
    put_words(buf, arr);
}

pub(crate) fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Corrupt(why) => CheckpointError::Corrupt(why),
            other => CheckpointError::Corrupt(other.to_string()),
        }
    }
}

fn encode(ckpt: &UpdateCheckpoint) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(FORMAT);
    put_bytes(&mut buf, ckpt.session.as_bytes());
    put_u64(&mut buf, ckpt.netlist_bits);
    put_u64(&mut buf, ckpt.constraint_bits);
    put_u32(&mut buf, ckpt.updates_done);
    for v in [
        ckpt.shape.gates,
        ckpt.shape.nets,
        ckpt.shape.inputs,
        ckpt.shape.outputs,
        ckpt.shape.nodes,
    ] {
        put_u32(&mut buf, v);
    }
    let e = &ckpt.edits;
    put_u32(&mut buf, e.clock_period_bits);
    for arr in [&e.drive, &e.wire_cap, &e.input_delay, &e.output_delay] {
        put_arr(&mut buf, arr);
    }
    let sum = checksum(&buf);
    put_u64(&mut buf, sum);
    buf
}

fn decode(buf: &[u8]) -> Result<UpdateCheckpoint, CheckpointError> {
    if buf.len() < FORMAT.len() + 8 {
        return Err(CheckpointError::Corrupt("file shorter than header".into()));
    }
    check_format(buf)?;
    let (payload, sum_bytes) = buf.split_at(buf.len() - 8);
    let stored = u64::from_le_bytes(sum_bytes.try_into().expect("split_at gave 8 bytes"));
    let computed = checksum(payload);
    if stored != computed {
        return Err(CheckpointError::Corrupt(format!(
            "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        )));
    }
    let mut r = Reader::new(
        &payload[FORMAT.len()..],
        (payload.len() - FORMAT.len()) as u64,
    );
    let name_len = r.u32("session name")? as usize;
    let session = String::from_utf8(r.take(name_len, "session name")?)
        .map_err(|_| CheckpointError::Corrupt("session name is not UTF-8".into()))?;
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
    r.done()?;
    Ok(UpdateCheckpoint {
        session,
        netlist_bits,
        constraint_bits,
        updates_done,
        shape,
        edits,
    })
}

fn io_err<'a>(
    path: &'a Path,
    op: &'static str,
) -> impl FnOnce(std::io::Error) -> CheckpointError + 'a {
    move |source| CheckpointError::Io {
        path: path.to_path_buf(),
        op,
        source,
    }
}

/// The sibling temp file [`write_atomically`] stages `path` in: the file
/// name with `.tmp` appended. Appending rather than swapping the extension
/// keeps it distinct from `path` for every name (`x.tmp` stages in
/// `x.tmp.tmp`) and distinct between `a.ckpt` and `a.json`.
fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Write `bytes` to `path` crash-safely: write [`temp_path`], flush with
/// `sync_all`, and atomically rename into place. A crash at any point
/// leaves either the previous file or the complete new one.
///
/// # Errors
///
/// [`CheckpointError::Io`] naming the failed operation and the file it
/// touched.
pub(crate) fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tmp = temp_path(path);
    let mut f = File::create(&tmp).map_err(io_err(&tmp, "create"))?;
    f.write_all(bytes).map_err(io_err(&tmp, "write"))?;
    f.sync_all().map_err(io_err(&tmp, "sync"))?;
    drop(f);
    fs::rename(&tmp, path).map_err(io_err(path, "rename"))
}

/// Write `ckpt` to `path` crash-safely ([`write_atomically`]).
///
/// # Errors
///
/// [`CheckpointError::Io`] naming the failed operation and path.
pub fn write_checkpoint(path: &Path, ckpt: &UpdateCheckpoint) -> Result<(), CheckpointError> {
    write_atomically(path, &encode(ckpt))
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
    let bytes = fs::read(path).map_err(io_err(path, "read"))?;
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
mod tests {
    use super::*;
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

    fn sample_checkpoint() -> UpdateCheckpoint {
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

    #[test]
    fn damaged_files_are_rejected_with_typed_errors() {
        let good = encode(&sample_checkpoint());

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(decode(&bad_magic), Err(CheckpointError::BadMagic)));

        let mut bad_version = good.clone();
        bad_version[7] = b'9';
        assert!(matches!(
            decode(&bad_version),
            Err(CheckpointError::BadVersion {
                found: [b'0', b'9']
            })
        ));

        // A bit flip anywhere in the payload trips the checksum.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(decode(&flipped), Err(CheckpointError::Corrupt(_))));

        // Every truncation point is rejected, never a panic or a bogus parse.
        for cut in 0..good.len() {
            let err = decode(&good[..cut]).expect_err("truncated file must fail");
            assert!(
                matches!(
                    err,
                    CheckpointError::Corrupt(_)
                        | CheckpointError::BadMagic
                        | CheckpointError::BadVersion { .. }
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn a_gpckpt02_checkpoint_is_refused_as_another_format_version() {
        // Sealed under an earlier format's magic, with a valid checksum.
        for (magic, version) in [(b"GPCKPT02", [b'0', b'2']), (b"GPCKPT03", [b'0', b'3'])] {
            let mut old = encode(&sample_checkpoint());
            old[..8].copy_from_slice(magic);
            reseal(&mut old);
            assert!(matches!(
                decode(&old),
                Err(CheckpointError::BadVersion { found }) if found == version
            ));
        }
    }

    /// Where the first edit-state array's count (drive) sits: right after
    /// the fixed-size header sections and the clock bits.
    const DRIVE_COUNT_AT: usize = 8 + 4 + "aes_core".len() + 8 + 8 + 4 + 5 * 4 + 4;

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

    /// Recompute the trailing checksum, so an edit reaches the section
    /// reader instead of stopping at the checksum test.
    fn reseal(bytes: &mut Vec<u8>) {
        let body_len = bytes.len().saturating_sub(8);
        bytes.truncate(body_len);
        let sum = checksum(bytes);
        put_u64(bytes, sum);
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
        // Cut the payload anywhere, then seal what is left: the
        // checksum holds, so every section's own length check is what
        // stops the read.
        for cut in 0..body_len {
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
        for bit in 0..body_len * 8 {
            let mut bytes = good.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            reseal(&mut bytes);
            assert_decodes_or_fails_typed(&bytes, &format!("bit {bit}"));
        }
    }

    /// Apply a script of hostile edits to a sealed checkpoint image.
    fn mangle(mut bytes: Vec<u8>, edits: &[(u8, u32, u8)], other: &[u8]) -> Vec<u8> {
        for &(op, at, val) in edits {
            let at = at as usize;
            match op {
                // Truncate anywhere.
                0 => bytes.truncate(at % (bytes.len() + 1)),
                // Flip bits anywhere.
                1 if !bytes.is_empty() => {
                    let i = at % bytes.len();
                    bytes[i] ^= val | 1;
                }
                // A hostile length or count over any four bytes: huge, just
                // past what is left, or small.
                2 if bytes.len() >= 4 => {
                    let i = at % (bytes.len() - 3);
                    let left = (bytes.len() - i) as u32;
                    let len = match val % 4 {
                        0 => u32::MAX,
                        1 => left / 4 + u32::from(val),
                        2 => left,
                        _ => u32::from(val),
                    };
                    bytes[i..i + 4].copy_from_slice(&len.to_le_bytes());
                }
                // Another image glued on.
                3 => bytes.extend_from_slice(other),
                // Raw noise inserted.
                4 => {
                    let i = at % (bytes.len() + 1);
                    bytes.splice(i..i, std::iter::repeat_n(val, at % 23));
                }
                // Seal whatever the edits so far left.
                _ => reseal(&mut bytes),
            }
        }
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whatever is on disk, `decode` yields the checkpoint those bytes
        /// spell or one typed error — never a panic, and (a `u32::MAX`
        /// count is in the script) never an allocation sized by a length
        /// it has not checked against the bytes that are there.
        #[test]
        fn checkpoint_byte_soup_decodes_or_fails_typed(
            edits in proptest::collection::vec((0u8..7, any::<u32>(), any::<u8>()), 0..5),
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
