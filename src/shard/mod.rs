//! Sharded multi-process execution with a shard supervisor.
//!
//! One timing update is split across OS processes: the update's task ids
//! are cut into contiguous runs, one per *shard*
//! ([`ShardPlan`](crate::tdg::ShardPlan)), and each shard's fprop/bprop
//! tasks execute inside a long-lived worker process
//! (`gpasta shard-worker`, [`run_worker`]) that serves one shard after
//! another while the parent supervisor ([`run_sharded`]) streams boundary
//! timing values in and shard deltas out over pipes as records of the
//! one checkpoint-and-frame format ([`wire`]). A worker is sent only the
//! boundary cells it does not already hold (`boundary_set`), and the next
//! round of a chain is queued in its stdin while the current one runs.
//!
//! The process boundary is what buys fault tolerance: a worker that
//! panics, exits, or is `SIGKILL`ed takes down only its own address
//! space. The supervisor detects the death (by a closed pipe or by
//! heartbeat silence), fails the one shard attempt that was in flight on
//! it, retries that shard on another worker with bounded retry/backoff,
//! and — when retries are exhausted — poisons the shard, drains its
//! forward closure, and *heals* the poisoned cone in-process at the end,
//! so the final report is bit-identical to a single-process run.
//!
//! # Determinism contract
//!
//! Supervisor, worker, and the single-process oracle all rebuild the same
//! context from `(circuit, scale, seed)`: netlist → timer → modifier
//! schedule → whole-design dirty cone (task id = full-space id) → shard
//! plan (a cut of the task ids, its dependencies read off the timing
//! graph: no task graph is built) → per-shard sets. Every step is a pure
//! function of those inputs, and both sides prove agreement by exchanging
//! a combined timing-graph + plan fingerprint before any value crosses the
//! pipe. Timing values travel as raw `f32` bit patterns, and any
//! topological execution order of the update tasks produces identical
//! bits — which together make "killed anywhere, recovered bit-identical"
//! testable with `assert_eq!` on snapshots.

pub mod wire;

mod heartbeat;
mod pool;
mod supervisor;
mod worker;

pub use supervisor::run_sharded;
pub use worker::{run_worker, WorkerArgs};

use std::fmt;
use std::fs;
use std::io::Read;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::checkpoint::{io_error, modifier_batch};
use crate::circuits::PaperCircuit;
use crate::record::{self, put_arr, put_bytes, put_u32, put_u64, Reader, RecordError};
use crate::sched::{fault_hash, splitmix64, FaultPlan, RetryPolicy};
use crate::sta::{
    CellLibrary, DirtyCone, SnapshotMismatch, Timer, TimingGraph, TimingSnapshot, ValueSet,
};
use crate::tdg::{ShardPlan, ShardPlanError};
use wire::WireError;

/// A sharded run failed.
#[derive(Debug)]
pub enum ShardError {
    /// The shard plan rejected its inputs.
    Plan(ShardPlanError),
    /// A frame could not be read or written.
    Wire(WireError),
    /// An OS-level operation (spawn, wait, pipe, file) failed.
    Io {
        /// What the supervisor or worker was doing.
        op: &'static str,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// The peer violated the frame protocol (wrong frame order, or a
    /// fingerprint/shape disagreement between supervisor and worker).
    Protocol(String),
    /// A shard checkpoint is corrupt or belongs to a different run.
    Checkpoint(String),
    /// A checkpoint snapshot does not fit the rebuilt design.
    Snapshot(SnapshotMismatch),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Plan(e) => write!(f, "shard planning failed: {e}"),
            ShardError::Wire(e) => write!(f, "shard wire failed: {e}"),
            ShardError::Io { op, source } => write!(f, "cannot {op}: {source}"),
            ShardError::Protocol(why) => write!(f, "shard protocol violation: {why}"),
            ShardError::Checkpoint(why) => write!(f, "shard checkpoint rejected: {why}"),
            ShardError::Snapshot(e) => write!(f, "checkpoint snapshot rejected: {e}"),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Plan(e) => Some(e),
            ShardError::Wire(e) => Some(e),
            ShardError::Io { source, .. } => Some(source),
            ShardError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ShardPlanError> for ShardError {
    fn from(e: ShardPlanError) -> Self {
        ShardError::Plan(e)
    }
}

impl From<WireError> for ShardError {
    fn from(e: WireError) -> Self {
        ShardError::Wire(e)
    }
}

impl From<SnapshotMismatch> for ShardError {
    fn from(e: SnapshotMismatch) -> Self {
        ShardError::Snapshot(e)
    }
}

/// Configuration of one sharded run ([`run_sharded`]).
#[derive(Debug)]
pub struct ShardRunConfig {
    /// Design to analyse.
    pub circuit: PaperCircuit,
    /// Circuit scale factor (see [`PaperCircuit::build`]).
    pub scale: f64,
    /// Seed of the deterministic design-modifier schedule.
    pub seed: u64,
    /// Requested shard count (clamped to the update's task count).
    pub shards: usize,
    /// Cap on worker processes alive at once; `0` means one per shard.
    /// It is a ceiling, not a target: workers are long-lived and serve
    /// one shard after another, and another process is launched only
    /// while a shard is ready and every live worker is busy — which never
    /// happens when the shard graph is a chain.
    pub max_workers: usize,
    /// Respawn policy for dead or hung workers.
    pub retry: RetryPolicy,
    /// Heartbeat silence after which a worker counts as hung.
    pub stall_after: Duration,
    /// Deterministic shard-level fault injection keyed `(shard, attempt)`.
    pub faults: FaultPlan,
    /// Seed choosing *where inside the shard* an injected fault fires.
    pub chaos_seed: u64,
    /// Capture the final [`TimingSnapshot`] in the outcome (differential
    /// tests want it; the CLI does not need the allocation).
    pub capture_snapshot: bool,
    /// Executable spawned as `shard-worker`; defaults to the current exe.
    pub worker_exe: PathBuf,
    /// Write a [`ShardCheckpoint`] here after every shard completion.
    pub checkpoint_to: Option<PathBuf>,
    /// Resume from a [`ShardCheckpoint`] written by an earlier run.
    pub resume_from: Option<PathBuf>,
    /// Stop (uncleanly, as if the supervisor died) after this many *new*
    /// shard completions — the test hook for supervisor-death recovery.
    pub kill_after_shards: Option<u32>,
}

impl ShardRunConfig {
    /// A default-tuned configuration for `(circuit, scale, seed, shards)`.
    pub fn new(circuit: PaperCircuit, scale: f64, seed: u64, shards: usize) -> Self {
        ShardRunConfig {
            circuit,
            scale,
            seed,
            shards,
            max_workers: 0,
            retry: RetryPolicy::default(),
            stall_after: Duration::from_secs(10),
            faults: FaultPlan::none(),
            chaos_seed: 0,
            capture_snapshot: false,
            worker_exe: std::env::current_exe().unwrap_or_default(),
            checkpoint_to: None,
            resume_from: None,
            kill_after_shards: None,
        }
    }
}

/// What a sharded run produced.
#[derive(Debug, Clone)]
pub struct ShardRunOutcome {
    /// Worst negative slack, raw bits.
    pub wns_bits: u32,
    /// Total negative slack, raw bits.
    pub tns_bits: u32,
    /// Shards in the plan.
    pub num_shards: usize,
    /// Task dependencies crossing shard boundaries.
    pub edge_cut: usize,
    /// Shards whose workers completed (possibly after respawns).
    pub salvaged: Vec<u32>,
    /// Shards that exhausted their retries.
    pub poisoned: Vec<u32>,
    /// Shards drained because a poisoned shard sits upstream.
    pub unfinished: Vec<u32>,
    /// Worker attempts per shard (0 = completed from checkpoint).
    pub attempts: Vec<u32>,
    /// Shard attempts after the first (each follows a death or stall).
    pub respawns: u64,
    /// Worker processes launched. A fault-free run launches one; every
    /// death, stall or protocol violation costs one more.
    pub workers_spawned: u64,
    /// Tasks the supervisor re-executed in-process while healing.
    pub healed_tasks: u64,
    /// Sum of worker task-loop nanoseconds (overhead accounting).
    pub worker_exec_nanos: u64,
    /// The run stopped early via `kill_after_shards`.
    pub killed: bool,
    /// Task-id ranges whose values are final (salvaged shards), sorted
    /// and merged.
    pub completed_ranges: Vec<Range<u32>>,
    /// Final timing state, when `capture_snapshot` was set.
    pub snapshot: Option<TimingSnapshot>,
}

/// Rebuild the deterministic analysis context every process agrees on:
/// netlist at `scale`, typical library, and the seed's modifier schedule.
pub(crate) fn build_timer(circuit: PaperCircuit, scale: f64, seed: u64) -> Timer {
    let mut timer = Timer::new(circuit.build(scale), CellLibrary::typical());
    for (gate, drive) in modifier_batch(timer.netlist().num_gates(), seed, 0) {
        timer.repower_gate(gate, drive);
    }
    timer
}

/// The shard plan of a whole-design cone, whose task ids are its
/// full-space ids: the dependencies are read off the timing graph's fan-in
/// ranges (its [`TaskSuccessors`](crate::tdg::TaskSuccessors) walk), so no
/// task graph is built.
///
/// # Panics
///
/// Panics unless `cone` is the whole design.
pub(crate) fn plan_of(cone: &DirtyCone<'_>, shards: usize) -> Result<ShardPlan, ShardPlanError> {
    assert_eq!(
        cone.num_tasks(),
        2 * cone.graph().num_nodes(),
        "a whole-design cone"
    );
    ShardPlan::build(cone.graph(), shards)
}

/// One shard's share of an update, worked out once per plan.
#[derive(Debug)]
pub(crate) struct ShardWork {
    /// Member tasks, in ascending id — topological: dependencies go up.
    pub(crate) tasks: Range<u32>,
    /// Every cell the tasks write: what the delta must name.
    pub(crate) writes: ValueSet,
    /// What the tasks read and do not write: the boundary of a worker
    /// that holds nothing.
    pub(crate) needed: ValueSet,
}

/// What every process that rebuilt the design works out before a value
/// crosses a pipe: the plan ([`plan_of`]), every shard's [`ShardWork`]
/// (the sets of [`ValueSet::per_range`] over the runs of
/// [`ShardPlan::cut`]) and the `Hello` fingerprint ([`run_fingerprint`]) —
/// pure functions, so supervisor and worker agree on each.
pub(crate) fn plan_and_work(
    cone: &DirtyCone<'_>,
    shards: usize,
) -> Result<(ShardPlan, Vec<ShardWork>, u64), ShardPlanError> {
    let runs = ShardPlan::cut(cone.num_tasks(), shards)?;
    let plan = plan_of(cone, shards)?;
    let fingerprint = run_fingerprint(cone.graph(), &plan);
    let sets = ValueSet::per_range(cone.graph(), &runs);
    let work = runs
        .into_iter()
        .zip(sets)
        .map(|(tasks, (writes, needed))| ShardWork {
            tasks,
            writes,
            needed,
        })
        .collect();
    Ok((plan, work, fingerprint))
}

/// What the boundary of `shard` names for a worker process that completed
/// the shards in `held`: its `needed` set minus every cell those shards
/// wrote. Each cell has exactly one writer task, and a worker whose delta
/// the supervisor refused is killed, so a live worker already holds the
/// final value of every cell a shard it completed wrote. A fresh worker
/// holds nothing and gets the whole set. Supervisor and worker both call
/// this; the worker refuses a boundary that names any other set.
pub(crate) fn boundary_set(work: &[ShardWork], shard: u32, held: &[u32]) -> ValueSet {
    held.iter()
        .fold(work[shard as usize].needed.clone(), |set, &h| {
            set.minus(&work[h as usize].writes)
        })
}

/// The task ranges of `shards` (ascending ids), adjacent ones merged.
pub(crate) fn covered(plan: &ShardPlan, shards: impl IntoIterator<Item = u32>) -> Vec<Range<u32>> {
    let mut out: Vec<Range<u32>> = Vec::new();
    for r in shards.into_iter().map(|s| plan.range(s)) {
        match out.last_mut() {
            Some(last) if last.end == r.start => last.end = r.end,
            _ => out.push(r),
        }
    }
    out
}

/// The agreement fingerprint exchanged in `Hello`: the design's
/// timing-graph checksum mixed with the shard-plan identity.
pub(crate) fn run_fingerprint(graph: &TimingGraph, plan: &ShardPlan) -> u64 {
    splitmix64(graph.fingerprint()) ^ plan.fingerprint()
}

/// Where inside a shard an injected fault fires: a deterministic kill
/// point in `[0, tasks]` keyed by `(chaos_seed, shard, attempt)` — `0`
/// dies before the first task, `tasks` after the last one (before the
/// delta is sent).
pub(crate) fn fault_point(chaos_seed: u64, shard: u32, attempt: u32, tasks: u64) -> u64 {
    fault_hash(chaos_seed, shard, attempt) % (tasks + 1)
}

// ---------------------------------------------------------------------------
// Shard checkpoint: supervisor hand-off across its own death
// ---------------------------------------------------------------------------

/// The record kind of a shard checkpoint.
const CKPT_KIND: u8 = 19;

/// The timing snapshot as a shard checkpoint stores it: clock-period bits,
/// then nine counted arrays.
fn put_snapshot(buf: &mut Vec<u8>, s: &TimingSnapshot) {
    put_u32(buf, s.clock_period_bits);
    for arr in [
        &s.slew,
        &s.arrival,
        &s.required,
        &s.arc_delay,
        &s.drive,
        &s.gate_load,
        &s.net_delay,
        &s.input_delay,
        &s.output_delay,
    ] {
        put_arr(buf, arr);
    }
}

/// The section [`put_snapshot`] wrote.
fn read_snapshot<R: Read>(r: &mut Reader<R>) -> Result<TimingSnapshot, RecordError> {
    Ok(TimingSnapshot {
        clock_period_bits: r.u32("clock period")?,
        slew: r.arr("slew")?,
        arrival: r.arr("arrival")?,
        required: r.arr("required")?,
        arc_delay: r.arr("arc delay")?,
        drive: r.arr("drive")?,
        gate_load: r.arr("gate load")?,
        net_delay: r.arr("net delay")?,
        input_delay: r.arr("input delay")?,
        output_delay: r.arr("output delay")?,
    })
}

/// What the supervisor persists after each shard completion: enough for a
/// *new* supervisor — even one using a different shard count — to pick up
/// without redoing the completed tasks' work.
///
/// The payload is the completed task-id ranges plus the full timing
/// snapshot; task ids (not shards) are the unit because they are a pure
/// function of the design alone, while shards depend on the requested
/// count. A shard of the new plan is restored iff one range covers it.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// Paper name of the circuit.
    pub circuit: String,
    /// Circuit scale as `f64` bits.
    pub scale_bits: u64,
    /// Modifier-schedule seed.
    pub seed: u64,
    /// [`TimingGraph::fingerprint`] of the design (plan-independent, so
    /// the resuming supervisor may choose a different shard count).
    pub design_fingerprint: u64,
    /// Task-id ranges whose values in `snapshot` are final: non-empty,
    /// sorted, merged.
    pub completed_ranges: Vec<Range<u32>>,
    /// The master timing state at checkpoint time.
    pub snapshot: TimingSnapshot,
}

impl ShardCheckpoint {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        put_bytes(&mut p, self.circuit.as_bytes());
        put_u64(&mut p, self.scale_bits);
        put_u64(&mut p, self.seed);
        put_u64(&mut p, self.design_fingerprint);
        let flat: Vec<u32> = self
            .completed_ranges
            .iter()
            .flat_map(|r| [r.start, r.end])
            .collect();
        put_arr(&mut p, &flat);
        put_snapshot(&mut p, &self.snapshot);
        record::seal(CKPT_KIND, &p)
    }

    fn decode(bytes: &[u8]) -> Result<Self, RecordError> {
        let corrupt = |why: &str| RecordError::Corrupt(why.to_string());
        record::open(bytes, CKPT_KIND, |r| {
            let circuit = String::from_utf8(r.counted_bytes("circuit name")?)
                .map_err(|_| corrupt("circuit name is not UTF-8"))?;
            let scale_bits = r.u64("scale bits")?;
            let seed = r.u64("seed")?;
            let design_fingerprint = r.u64("design fingerprint")?;
            let flat = r.arr("completed ranges")?;
            if flat.len() % 2 != 0 {
                return Err(corrupt("a completed range without an end"));
            }
            let completed_ranges: Vec<Range<u32>> = flat.chunks(2).map(|p| p[0]..p[1]).collect();
            if completed_ranges.iter().any(Range::is_empty)
                || completed_ranges.windows(2).any(|w| w[0].end >= w[1].start)
            {
                return Err(corrupt(
                    "completed ranges are not non-empty, sorted and merged",
                ));
            }
            Ok(ShardCheckpoint {
                circuit,
                scale_bits,
                seed,
                design_fingerprint,
                completed_ranges,
                snapshot: read_snapshot(r)?,
            })
        })
    }

    /// Write atomically (temp file + fsync + rename, the same writer as
    /// [`write_checkpoint`](crate::checkpoint::write_checkpoint)): a
    /// supervisor killed mid-write leaves either the old checkpoint or the
    /// new one, never a torn file.
    ///
    /// # Errors
    ///
    /// [`ShardError::Io`] when the filesystem fails.
    pub fn write_to_path(&self, path: &Path) -> Result<(), ShardError> {
        record::write_atomically(path, &self.encode(), |path, op, source| ShardError::Io {
            op: "write checkpoint",
            source: std::io::Error::other(io_error(path, op, source)),
        })
    }

    /// Read and verify a checkpoint written by [`write_to_path`](Self::write_to_path).
    ///
    /// # Errors
    ///
    /// [`ShardError::Io`] when the file cannot be read and
    /// [`ShardError::Checkpoint`] when its bytes are not an intact shard
    /// checkpoint.
    pub fn read_from_path(path: &Path) -> Result<Self, ShardError> {
        let bytes = fs::read(path).map_err(|source| ShardError::Io {
            op: "read checkpoint",
            source,
        })?;
        Self::decode(&bytes).map_err(|e| ShardError::Checkpoint(e.to_string()))
    }
}

/// What [`run_single_process`] measured — the oracle every differential
/// test compares a sharded run against.
#[derive(Debug, Clone)]
pub struct SingleProcessRun {
    /// Worst negative slack, raw bits.
    pub wns_bits: u32,
    /// Total negative slack, raw bits.
    pub tns_bits: u32,
    /// Nanoseconds spent in the task-execution loop only.
    pub exec_nanos: u64,
    /// The complete timing state after the run.
    pub snapshot: TimingSnapshot,
}

/// Run the identical update in one process — same context builder, same
/// task set — and capture the full resulting state.
pub fn run_single_process(circuit: PaperCircuit, scale: f64, seed: u64) -> SingleProcessRun {
    let mut timer = build_timer(circuit, scale, seed);
    let update = timer.update_timing();
    let start = std::time::Instant::now();
    update.run_sequential();
    let exec_nanos = start.elapsed().as_nanos() as u64;
    drop(update);
    let report = timer.report(1);
    SingleProcessRun {
        wns_bits: report.wns_ps.to_bits(),
        tns_bits: report.tns_ps.to_bits(),
        exec_nanos,
        snapshot: timer.snapshot(),
    }
}

/// Run the identical update in one process but in *shard-plan task
/// order* — the exact order a sharded run's workers execute, with no
/// pipes, heartbeats, or fault hooks. Every shard plan cuts the task ids
/// into ascending contiguous ranges, so that order is ascending task id
/// for any shard count.
///
/// This is the order-fair baseline for overhead benchmarking: comparing
/// a worker's task loop against [`run_single_process`] (level order)
/// conflates process overhead with cache effects of the different
/// execution order, which swing tens of percent either way. Comparing
/// against this function isolates what sharding itself costs.
pub fn run_in_plan_order(circuit: PaperCircuit, scale: f64, seed: u64) -> SingleProcessRun {
    let mut timer = build_timer(circuit, scale, seed);
    let update = timer.update_timing();
    // Task ids are topological, so id order is a valid schedule.
    let start = std::time::Instant::now();
    for t in 0..update.tdg().num_tasks() as u32 {
        update.execute_task(crate::tdg::TaskId(t));
    }
    let exec_nanos = start.elapsed().as_nanos() as u64;
    drop(update);
    let report = timer.report(1);
    SingleProcessRun {
        wns_bits: report.wns_ps.to_bits(),
        tns_bits: report.tns_ps.to_bits(),
        exec_nanos,
        snapshot: timer.snapshot(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_checkpoint() -> ShardCheckpoint {
        ShardCheckpoint {
            circuit: "aes_core".into(),
            scale_bits: 1.5f64.to_bits(),
            seed: 0xFEED,
            design_fingerprint: 0xABCD_EF01,
            completed_ranges: vec![0..2, 3..7],
            snapshot: TimingSnapshot {
                clock_period_bits: 1000.0f32.to_bits(),
                slew: vec![1, 2, 3, 4],
                arrival: vec![5, 6, 7, 8],
                required: vec![9, 10],
                arc_delay: vec![11],
                drive: vec![12, 13],
                gate_load: vec![14],
                net_delay: vec![15],
                input_delay: vec![16],
                output_delay: vec![17, 18],
            },
        }
    }

    #[test]
    fn checkpoints_round_trip_through_disk() {
        let dir = std::env::temp_dir().join(format!("gpasta-shard-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("hand_off.ckpt");
        let ck = sample_checkpoint();
        ck.write_to_path(&path).expect("write");
        let back = ShardCheckpoint::read_from_path(&path).expect("read");
        assert_eq!(back, ck);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A destination whose name ends in `.tmp` round-trips, and a write
    /// that fails before the rename leaves the previous checkpoint there
    /// intact: the staging file is never the destination itself.
    #[test]
    fn checkpoints_round_trip_at_a_tmp_path() {
        let dir = std::env::temp_dir().join(format!("gpasta-shard-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("hand_off.tmp");
        let old = sample_checkpoint();
        old.write_to_path(&path).expect("write");
        assert_eq!(ShardCheckpoint::read_from_path(&path).expect("read"), old);
        let entries = || std::fs::read_dir(&dir).expect("list").count();
        assert_eq!(entries(), 1, "nothing staged is left behind");

        // Block the staging name: the next write fails at `create`.
        std::fs::create_dir(dir.join("hand_off.tmp.tmp")).expect("blocker");
        let mut new = sample_checkpoint();
        new.completed_ranges.push(9..12);
        let err = new
            .write_to_path(&path)
            .expect_err("staging file is blocked");
        assert!(matches!(err, ShardError::Io { .. }), "{err}");
        assert!(err.to_string().contains("hand_off.tmp.tmp"), "{err}");
        assert_eq!(ShardCheckpoint::read_from_path(&path).expect("read"), old);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Damage and another format version reach the supervisor as a
    /// checkpoint error naming the defect, a missing file as an I/O error.
    #[test]
    fn corrupt_checkpoints_are_rejected() {
        let dir = std::env::temp_dir().join(format!("gpasta-shard-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("hand_off.ckpt");
        let good = sample_checkpoint().encode();
        let mut flipped = good.clone();
        flipped[good.len() - 1] ^= 0x20;
        let mut old = good.clone();
        old[6..8].copy_from_slice(b"02");
        let cut = good[..good.len() - 1].to_vec();
        for (bytes, why) in [
            (flipped, "checksum mismatch"),
            (old, "format version \"02\""),
            (cut, "mid-record"),
        ] {
            std::fs::write(&path, bytes).expect("write");
            let err = ShardCheckpoint::read_from_path(&path).expect_err(why);
            assert!(
                matches!(&err, ShardError::Checkpoint(m) if m.contains(why)),
                "{err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
        let err = ShardCheckpoint::read_from_path(&path).expect_err("gone");
        assert!(matches!(err, ShardError::Io { .. }), "{err}");
    }

    /// A record of an old hand-off kind is refused, not read as task
    /// ranges: 16 held completed partition ids, 17 a snapshot indexed by
    /// pin number, 18 named the design by its update TDG's fingerprint.
    /// So are ranges that are empty, unsorted or not merged, even under an
    /// intact checksum.
    #[test]
    fn old_kind_checkpoints_and_unmerged_ranges_are_refused() {
        for kind in [16, 17, 18] {
            let mut old = sample_checkpoint().encode();
            old[8] = kind;
            let err = ShardCheckpoint::decode(&old).expect_err("old kind");
            assert!(
                err.to_string().contains(&format!("kind {kind}, not 19")),
                "{err}"
            );
        }
        for ranges in [vec![0..2, 2..5], vec![3..7, 0..2], vec![1..3, 4..4]] {
            let mut ck = sample_checkpoint();
            ck.completed_ranges = ranges;
            let err = ShardCheckpoint::decode(&ck.encode()).expect_err("malformed ranges");
            assert!(err.to_string().contains("sorted and merged"), "{err}");
        }
    }

    #[test]
    fn fault_points_cover_the_whole_shard_range() {
        // Keyed by (shard, attempt): different keys reach different
        // points, and every point is within [0, tasks].
        let tasks = 7;
        let mut seen = std::collections::BTreeSet::new();
        for shard in 0..8 {
            for attempt in 0..8 {
                let p = fault_point(42, shard, attempt, tasks);
                assert!(p <= tasks);
                seen.insert(p);
            }
        }
        assert!(seen.len() > 4, "kill points must spread, got {seen:?}");
        assert_eq!(
            fault_point(42, 3, 1, tasks),
            fault_point(42, 3, 1, tasks),
            "deterministic"
        );
    }

    /// Each shard's cached sets are the reference projection of its task
    /// list, the shards' ranges cut the update once, in order, and the plan
    /// cut along the timing graph's edge walk is the one cut along the
    /// cone's successor function, task by task.
    #[test]
    fn shard_work_matches_the_reference_projection() {
        for circuit in [PaperCircuit::AesCore, PaperCircuit::Leon2] {
            let mut timer = build_timer(circuit, 0.002, 7);
            let cone = timer.dirty_cone();
            let by_successors = (cone.num_tasks(), |t| cone.successors(t));
            for shards in [1, 2, 3, 4, 7] {
                let (plan, work, _) = plan_and_work(&cone, shards).expect("plan");
                assert_eq!(Ok(&plan), ShardPlan::build(&by_successors, shards).as_ref());
                assert_eq!(work.len(), plan.num_shards());
                let mut next = 0;
                for (s, w) in work.iter().enumerate() {
                    let what = format!("{} shard {s} of {shards}", circuit.name());
                    assert_eq!(w.tasks.start, next, "{what}");
                    next = w.tasks.end;
                    let tasks: Vec<u32> = w.tasks.clone().collect();
                    let writes = ValueSet::writes_of(&cone, &tasks);
                    let needed = ValueSet::reads_of(&cone, &tasks).minus(&writes);
                    assert_eq!(w.writes, writes, "{what}");
                    assert_eq!(w.needed, needed, "{what}");
                }
                assert_eq!(next as usize, cone.num_tasks(), "every task once");
            }
        }
    }

    #[test]
    fn fingerprints_depend_on_the_plan() {
        let mut timer = build_timer(PaperCircuit::AesCore, 0.002, 7);
        let cone = timer.dirty_cone();
        let plan2 = plan_of(&cone, 2).expect("plan");
        let plan4 = plan_of(&cone, 4).expect("plan");
        let f2 = run_fingerprint(cone.graph(), &plan2);
        assert_eq!(f2, run_fingerprint(cone.graph(), &plan2), "pure");
        assert_ne!(f2, run_fingerprint(cone.graph(), &plan4), "another cut");
        drop(cone);
        // Another seed repowers other gates: the same design.
        let same = build_timer(PaperCircuit::AesCore, 0.002, 8);
        assert_eq!(same.graph().fingerprint(), timer.graph().fingerprint());
        let other = build_timer(PaperCircuit::AesCore, 0.003, 7);
        assert_ne!(other.graph().fingerprint(), timer.graph().fingerprint());
    }
}
