//! `Session` — an owned, movable unit of timing-analysis state.
//!
//! A [`Session`] packages a parsed design, its [`Timer`] and a by-name
//! index of its gates and ports into one `Send + 'static` value that can
//! be created, handed to another thread, parked behind a mutex in a server
//! registry ([`crate::serve`]), evicted to disk, and re-admitted later.
//!
//! The lifecycle:
//!
//! * [`Session::create`] parses the [`DesignSources`] (structural
//!   Verilog, optional Liberty library, optional SDC constraints) and runs
//!   the initial full analysis, level by level on up to `workers` threads
//!   — after this every [`Session::update_timing`] pays only for its dirty
//!   cone, the warm path the paper's Figure 7 measures;
//! * [`Session::apply_edit`] applies validated incremental edits
//!   ([`Edit`]): gate repower, net-capacitance change, I/O-delay and
//!   clock-period constraint changes. Validation happens *here*, so bad
//!   client input surfaces as a typed [`SessionError`] instead of a
//!   panic inside the timer;
//! * [`Session::update_timing`] discovers the dirty cone and runs it under
//!   a caller-supplied [`RunBudget`] — a whole design level by level on up
//!   to `workers` threads, a partial cone in order on the calling thread,
//!   executing only the tasks whose inputs changed — and degrades
//!   explicitly on an early stop (affected endpoints read NaN; the whole
//!   design is re-marked dirty so a later update converges). A task panic
//!   unwinds: a session that panicked is discarded, not repaired. The
//!   paper's scheduled path is [`crate::scheduled::ScheduledTimer`];
//! * [`Session::evict_to`] persists the session's edit state through the
//!   `GPCKPT05` checkpoint format ([`crate::checkpoint`]) and returns a
//!   [`DormantSession`] — the light in-memory residue (source texts plus
//!   the checkpoint path) from which [`DormantSession::restore`] rebuilds
//!   the live session.
//!
//! # A checkpoint stores the edits, not the values
//!
//! Every [`Edit`] writes one entry of the timer's
//! [`EditState`](crate::sta::EditState) — a drive, a net's wire cap, an
//! I/O delay, the clock period — and after a completed update every timing
//! value is a function of the design and that state. So eviction writes
//! the edit state as it stands, pending edits included, and runs no
//! update; a restore builds the timer from the sources, puts the edit state
//! in place and runs the same whole-design analysis [`Session::create`]
//! runs. The restored session reads the values the evicted one reaches at
//! its next update: bit-identical to it once that update completes, and
//! never stale or unknown, even when the evicted session was stopped early.
//!
//! The checkpoint names its session and carries the [`checksum`]s of the
//! netlist text and of the constraints, so a restore against edited
//! sources is rejected with a typed error.

use std::error::Error as StdError;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::checkpoint::{
    read_checkpoint, write_checkpoint, CheckpointError, DesignShape, UpdateCheckpoint,
};
use crate::sched::{FaultKind, FaultPlan, RunBudget, StopCause};
use crate::sta::{
    apply_sdc, parse_liberty, parse_verilog_indexed, CellLibrary, EndpointSummary, GateId,
    KeyedNames, Netlist, NodeId, ParseLibertyError, ParseSdcError, ParseVerilogError, PortId,
    Timer, TimingPath, TimingReport,
};
use crate::tdg::{checksum, BuildTdgError};

/// The textual inputs a session is built from. Owning the *sources*
/// (rather than only the parsed design) is what makes eviction cheap:
/// a [`DormantSession`] keeps these strings and a checkpoint path, and
/// the heavy timer state is rebuilt on restore.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSources {
    /// Structural Verilog netlist (the subset of
    /// [`crate::sta::parse_verilog`]).
    pub verilog: String,
    /// Liberty cell library; [`CellLibrary::typical`] when absent.
    pub liberty: Option<String>,
    /// SDC constraints applied after construction.
    pub sdc: Option<String>,
    /// Clock period in ps (applied before the SDC, which may override).
    pub clock_period_ps: f32,
}

impl DesignSources {
    /// Sources with no library/constraint files and a 1 ns clock.
    pub fn verilog_only(verilog: impl Into<String>) -> Self {
        DesignSources {
            verilog: verilog.into(),
            liberty: None,
            sdc: None,
            clock_period_ps: 1_000.0,
        }
    }

    /// [`checksum`] of the netlist text (the checkpoint's
    /// `netlist_bits`).
    pub fn netlist_bits(&self) -> u64 {
        checksum(self.verilog.as_bytes())
    }

    /// [`checksum`] of the constraints: Liberty text, SDC text,
    /// and clock-period bits (the checkpoint's `constraint_bits`).
    pub fn constraint_bits(&self) -> u64 {
        let mut buf = Vec::new();
        for text in [self.liberty.as_deref(), self.sdc.as_deref()] {
            let bytes = text.unwrap_or("").as_bytes();
            buf.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            buf.extend_from_slice(bytes);
        }
        buf.extend_from_slice(&self.clock_period_ps.to_bits().to_le_bytes());
        checksum(&buf)
    }
}

/// A session operation failed. Every variant is recoverable at the
/// request boundary: the daemon renders it as a structured JSON error
/// and the session (when one exists) stays usable.
#[derive(Debug)]
pub enum SessionError {
    /// The Verilog netlist failed to parse.
    Verilog(ParseVerilogError),
    /// The Liberty library failed to parse.
    Liberty(ParseLibertyError),
    /// The SDC constraints failed to parse or apply.
    Sdc(ParseSdcError),
    /// The netlist contains a combinational loop, so no timing graph
    /// exists for it.
    Graph(BuildTdgError),
    /// An [`Edit`] referenced a missing object or carried an invalid
    /// value; the message names both.
    BadEdit(String),
    /// Reading or writing the eviction checkpoint failed, or it does not
    /// fit this session.
    Checkpoint(CheckpointError),
}

impl SessionError {
    /// A stable machine-readable tag for wire protocols.
    pub fn kind(&self) -> &'static str {
        match self {
            SessionError::Verilog(_) => "parse_verilog",
            SessionError::Liberty(_) => "parse_liberty",
            SessionError::Sdc(_) => "parse_sdc",
            SessionError::Graph(_) => "combinational_loop",
            SessionError::BadEdit(_) => "bad_edit",
            SessionError::Checkpoint(_) => "checkpoint",
        }
    }

    /// Whether the failure is the client's fault (bad input: HTTP 4xx)
    /// rather than the server's (internal failure: HTTP 5xx).
    pub fn is_client_error(&self) -> bool {
        matches!(
            self,
            SessionError::Verilog(_)
                | SessionError::Liberty(_)
                | SessionError::Sdc(_)
                | SessionError::Graph(_)
                | SessionError::BadEdit(_)
        )
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Verilog(e) => write!(f, "netlist: {e}"),
            SessionError::Liberty(e) => write!(f, "liberty: {e}"),
            SessionError::Sdc(e) => write!(f, "sdc: {e}"),
            SessionError::Graph(e) => write!(f, "netlist has no timing graph: {e}"),
            SessionError::BadEdit(why) => write!(f, "bad edit: {why}"),
            SessionError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl StdError for SessionError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            SessionError::Verilog(e) => Some(e),
            SessionError::Liberty(e) => Some(e),
            SessionError::Sdc(e) => Some(e),
            SessionError::Graph(e) => Some(e),
            SessionError::BadEdit(_) => None,
            SessionError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<CheckpointError> for SessionError {
    fn from(e: CheckpointError) -> Self {
        SessionError::Checkpoint(e)
    }
}

/// One validated incremental edit. Gates and ports are addressed by
/// their netlist names (`u3`, `clk_out`); a decimal string is also
/// accepted as a raw index, which is what the deterministic CLI flows
/// use.
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// Repower a gate to a new drive strength (multiplier, must be
    /// positive and finite).
    Repower {
        /// Gate name or decimal index.
        gate: String,
        /// New drive strength.
        drive: f32,
    },
    /// Set the wire capacitance of a net (a reconnect-class edit: it
    /// writes the netlist).
    SetNetCap {
        /// Net index.
        net: u32,
        /// New wire capacitance in fF (non-negative, finite).
        cap_ff: f32,
    },
    /// Constrain a primary input's external delay.
    SetInputDelay {
        /// Input port name or decimal index.
        port: String,
        /// Delay in ps (finite).
        delay_ps: f32,
    },
    /// Constrain a primary output's external delay.
    SetOutputDelay {
        /// Output port name or decimal index.
        port: String,
        /// Delay in ps (finite).
        delay_ps: f32,
    },
    /// Change the clock period (ps, positive and finite). Marks the
    /// whole design dirty.
    SetClockPeriod {
        /// New period in ps.
        period_ps: f32,
    },
}

/// What one [`Session::update_timing`] run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Why the run stopped; [`StopCause::Completed`] unless the budget
    /// expired.
    pub stop: StopCause,
    /// Tasks in this update's dirty cone (0 when nothing was dirty): its
    /// *structural* size, the closure of the edits. How many of them an
    /// update executed is [`Session::task_counts`]'s to tell.
    pub tasks: usize,
    /// Always 0: nothing repairs a partition. Kept, until `perf_ledger`'s
    /// mirror goes, for its mirror-fidelity test, which holds the mirror's
    /// (always zero) `RepairStats` to it.
    pub repair_moved: usize,
    /// Always 0, like [`UpdateOutcome::repair_moved`].
    pub repair_fresh: usize,
    /// Endpoints left reading *unknown* (NaN) by an early stop; zero for a
    /// completed run.
    pub unknown_endpoints: u32,
}

/// The in-memory residue of an evicted session: design sources and the
/// path of the `GPCKPT05` checkpoint holding its edit state.
/// [`DormantSession::restore`] turns it back into a live [`Session`].
#[derive(Debug, Clone)]
pub struct DormantSession {
    name: String,
    sources: DesignSources,
    checkpoint: PathBuf,
}

impl DormantSession {
    /// The residue of a session another process checkpointed at
    /// `checkpoint` (the `gpasta update` resume path).
    pub fn from_checkpoint(
        name: impl Into<String>,
        sources: DesignSources,
        checkpoint: PathBuf,
    ) -> Self {
        DormantSession {
            name: name.into(),
            sources,
            checkpoint,
        }
    }

    /// The session's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Where the heavy state was checkpointed.
    pub fn checkpoint_path(&self) -> &Path {
        &self.checkpoint
    }

    /// Rebuild the live session: reparse the sources, put the
    /// checkpoint's edit state in place and run [`Session::create`]'s
    /// whole-design analysis. The values are those the evicted session
    /// reaches at its next completed update. `workers` bounds the threads
    /// of its whole-design runs (see [`Session::create`]).
    ///
    /// # Errors
    ///
    /// [`SessionError::Checkpoint`] for unreadable, corrupt, or
    /// mismatched checkpoints (including sources edited since eviction,
    /// and a design whose shape differs from the checkpoint's), and the
    /// parse variants if the sources no longer parse.
    pub fn restore(&self, workers: usize) -> Result<Session, SessionError> {
        let ckpt = read_checkpoint(&self.checkpoint)?;
        let mismatch = |why: String| SessionError::Checkpoint(CheckpointError::Mismatch(why));
        if ckpt.session != self.name {
            return Err(mismatch(format!(
                "checkpoint belongs to session `{}`, not `{}`",
                ckpt.session, self.name
            )));
        }
        if ckpt.netlist_bits != self.sources.netlist_bits() {
            return Err(mismatch(
                "netlist text changed since eviction (fingerprint mismatch)".into(),
            ));
        }
        if ckpt.constraint_bits != self.sources.constraint_bits() {
            return Err(mismatch(
                "constraints changed since eviction (fingerprint mismatch)".into(),
            ));
        }
        Session::open(
            self.name.clone(),
            self.sources.clone(),
            workers,
            Some(&ckpt),
        )
    }
}

/// The timer of `sources`, its library, and the reader's by-name index of
/// its gates.
fn build_timer(sources: &DesignSources) -> Result<(Timer, CellLibrary, KeyedNames), SessionError> {
    let (netlist, gates) =
        parse_verilog_indexed(&sources.verilog).map_err(SessionError::Verilog)?;
    let library = match &sources.liberty {
        Some(text) => parse_liberty(text).map_err(SessionError::Liberty)?,
        None => CellLibrary::typical(),
    };
    let mut timer = Timer::try_new(netlist, library.clone()).map_err(SessionError::Graph)?;
    timer.set_clock_period(sources.clock_period_ps);
    if let Some(sdc) = &sources.sdc {
        apply_sdc(&mut timer, sdc).map_err(SessionError::Sdc)?;
    }
    Ok((timer, library, gates))
}

/// A by-name index of a design's gates and ports, so an edit resolves its
/// target without scanning the netlist: the gates' index is the one
/// [`parse_verilog_indexed`] built while reading the design, the ports'
/// are built beside it. Names are unique: `parse_verilog` rejects a
/// design whose instances share one.
struct NameIndex {
    gates: KeyedNames,
    inputs: KeyedNames,
    outputs: KeyedNames,
}

impl NameIndex {
    /// The index of `netlist`'s names, `gates` being its gates'.
    fn with_gates(gates: KeyedNames, netlist: &Netlist) -> Self {
        NameIndex {
            gates,
            inputs: KeyedNames::of(netlist.input_names().iter().map(String::as_str)),
            outputs: KeyedNames::of(netlist.output_names().iter().map(String::as_str)),
        }
    }

    #[cfg(test)]
    fn of(netlist: &Netlist) -> Self {
        let gates = KeyedNames::of(netlist.gates().iter().map(|g| g.name.as_str()));
        NameIndex::with_gates(gates, netlist)
    }

    /// Resolve `name` among the objects `index` covers, `name_of(id)`
    /// being the name of object `id`: an exact name first, then a decimal
    /// index.
    fn resolve<'a>(
        &self,
        name: &str,
        index: &KeyedNames,
        name_of: impl Fn(u32) -> &'a str,
        what: &str,
    ) -> Result<u32, SessionError> {
        if let Some(id) = index.find(name, name_of) {
            return Ok(id);
        }
        if let Ok(i) = name.parse::<u32>() {
            if (i as usize) < index.len() {
                return Ok(i);
            }
        }
        Err(SessionError::BadEdit(format!(
            "no {what} named `{name}` (and it is not a valid index below {})",
            index.len()
        )))
    }
}

/// An owned unit of timing-analysis state: parsed design, [`Timer`] and
/// the by-name index its edits resolve through. `Send + 'static`, so it can live behind a mutex in a server registry
/// and move between worker threads. See the [module docs](self) for the
/// lifecycle.
pub struct Session {
    name: String,
    sources: DesignSources,
    timer: Timer,
    /// What [`Session::report`] reads: the late-mode endpoint summary of
    /// `timer`'s values, kept equal to [`Timer::endpoint_summary`] by every
    /// [`Session::update_timing`] — point-updated after a value-aware run,
    /// rebuilt after any other. Never serialized.
    summary: EndpointSummary,
    /// Gate and port names → ids, for [`Session::apply_edit`].
    names: NameIndex,
    library: CellLibrary,
    /// The `workers` given to create or restore.
    workers: usize,
    /// The threads of a whole-design run: `workers`, at most the host's
    /// available parallelism, read once by create or restore.
    threads: usize,
    updates_done: u32,
    /// Deterministic chaos schedule, if the hosting daemon installed one
    /// (see [`Session::set_chaos`]). Never serialized; the supervisor
    /// reinstalls it after create, restore, and crash recovery.
    chaos: Option<SessionChaos>,
    /// Tasks `[in the cones of the updates, executed]` since create or
    /// restore (see [`Session::task_counts`]).
    tasks_run: [u64; 2],
}

/// A session-layer fault schedule: the shared [`FaultPlan`] plus the
/// attempt coordinate the supervisor advances on every crash recovery,
/// so a fault that fires at update `i` of attempt `a` does not re-fire
/// forever on the healed session (mirroring executor retry keying).
#[derive(Debug, Clone)]
struct SessionChaos {
    plan: FaultPlan,
    attempt: u32,
}

// The whole point of the type: a Session can cross threads and outlive
// its creating scope. Checked at compile time, here, once.
const _: fn() = || {
    fn assert_send<T: Send + 'static>() {}
    assert_send::<Session>();
};

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("name", &self.name)
            .field("shape", &self.shape())
            .field("updates_done", &self.updates_done)
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Parse `sources` and run the initial full analysis: the whole-design
    /// cone as an unbounded update runs it, level by level on
    /// `min(workers, available parallelism)` threads (on one thread, in
    /// order). No task graph is built. Every later whole-design update runs
    /// on as many threads; a partial cone runs on the calling thread.
    ///
    /// # Errors
    ///
    /// The parse variants of [`SessionError`] for bad sources and
    /// [`SessionError::Graph`] for combinational loops.
    pub fn create(
        name: impl Into<String>,
        sources: DesignSources,
        workers: usize,
    ) -> Result<Session, SessionError> {
        Session::open(name.into(), sources, workers, None)
    }

    /// The one construction of a live session, for create and restore
    /// alike: build the timer from `sources`; given `restore`, a checkpoint
    /// of this design, put its edit state in place; then run the whole
    /// design in order.
    fn open(
        name: String,
        sources: DesignSources,
        workers: usize,
        restore: Option<&UpdateCheckpoint>,
    ) -> Result<Session, SessionError> {
        let (mut timer, library, gates) = build_timer(&sources)?;
        let updates_done = match restore {
            None => 0,
            Some(ckpt) => {
                let mismatch = |why| SessionError::Checkpoint(CheckpointError::Mismatch(why));
                let shape = DesignShape::of(&timer);
                if ckpt.shape != shape {
                    return Err(mismatch(format!(
                        "design shape {shape:?} differs from the checkpoint's {:?}",
                        ckpt.shape
                    )));
                }
                timer
                    .set_edit_state(&ckpt.edits)
                    .map_err(|e| mismatch(e.to_string()))?;
                ckpt.updates_done
            }
        };
        let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = workers.clamp(1, parallelism);
        timer
            .dirty_cone()
            .run_bounded(threads, &RunBudget::unbounded());
        Ok(Session {
            name,
            sources,
            names: NameIndex::with_gates(gates, timer.netlist()),
            summary: timer.endpoint_summary(),
            timer,
            library,
            workers: workers.max(1),
            threads,
            updates_done,
            chaos: None,
            tasks_run: [0; 2],
        })
    }

    /// The session's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sources the session was built from.
    pub fn sources(&self) -> &DesignSources {
        &self.sources
    }

    /// The design's shape (gate/net/port/node counts).
    pub fn shape(&self) -> DesignShape {
        DesignShape::of(&self.timer)
    }

    /// Completed [`update_timing`](Session::update_timing) runs
    /// (surviving evict/restore).
    pub fn updates_done(&self) -> u32 {
        self.updates_done
    }

    /// The `workers` the session was created or restored with, at least
    /// one: the most threads a whole-design update runs on.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether edits are pending (the next update has work to do).
    pub fn has_pending_changes(&self) -> bool {
        self.timer.has_pending_changes()
    }

    /// Install (or clear) a session-layer chaos schedule. The plan is
    /// consulted once per [`update_timing`](Session::update_timing) at
    /// the key `(updates_done, attempt)` — *after* the dirty cone has been
    /// discovered, so an injected panic leaves the session in the
    /// genuinely inconsistent mid-operation state crash-only recovery must
    /// cope with. `attempt`
    /// is the hosting supervisor's recovery count for this session: a
    /// fault that fired before a crash keys differently on the healed
    /// session, exactly like executor retries.
    ///
    /// A session fires [`FaultKind::Panic`] and [`FaultKind::Delay`] only:
    /// `Transient` and `WrongResult` model a failed executor task, a
    /// session runs none, and they are ignored here (`gpasta serve`
    /// refuses them).
    pub fn set_chaos(&mut self, plan: Option<FaultPlan>, attempt: u32) {
        self.chaos = plan.map(|plan| SessionChaos { plan, attempt });
    }

    /// Consult the chaos schedule for the current update. Takes fields,
    /// not `&self`, because the call site holds the timer's update
    /// handle (a `&mut` borrow of the timer field).
    fn chaos_point(chaos: Option<&SessionChaos>, name: &str, updates_done: u32) {
        let Some(chaos) = chaos else { return };
        match chaos.plan.fault_at(updates_done, chaos.attempt) {
            Some(FaultKind::Panic) => panic!(
                "injected chaos: panic in session `{name}` update {updates_done} \
                 (attempt {})",
                chaos.attempt
            ),
            Some(FaultKind::Delay { micros }) => {
                std::thread::sleep(std::time::Duration::from_micros(u64::from(micros)));
            }
            Some(FaultKind::Transient | FaultKind::WrongResult) | None => {}
        }
    }

    /// Validate and apply one edit. On error nothing is changed.
    ///
    /// # Errors
    ///
    /// [`SessionError::BadEdit`] naming the offending object or value.
    pub fn apply_edit(&mut self, edit: &Edit) -> Result<(), SessionError> {
        let bad = |why: String| Err(SessionError::BadEdit(why));
        match edit {
            Edit::Repower { gate, drive } => {
                if !drive.is_finite() || *drive <= 0.0 {
                    return bad(format!("drive {drive} must be positive and finite"));
                }
                let gates = self.timer.netlist().gates();
                let name_of = |i: u32| gates[i as usize].name.as_str();
                let g = self
                    .names
                    .resolve(gate, &self.names.gates, name_of, "gate")?;
                self.timer.repower_gate(GateId(g), *drive);
            }
            Edit::SetNetCap { net, cap_ff } => {
                if !cap_ff.is_finite() || *cap_ff < 0.0 {
                    return bad(format!("wire cap {cap_ff} must be non-negative and finite"));
                }
                if *net as usize >= self.timer.netlist().num_nets() {
                    return bad(format!(
                        "net {net} out of range (design has {} nets)",
                        self.timer.netlist().num_nets()
                    ));
                }
                self.timer.set_net_cap(*net, *cap_ff);
            }
            Edit::SetInputDelay { port, delay_ps } => {
                if !delay_ps.is_finite() {
                    return bad(format!("input delay {delay_ps} must be finite"));
                }
                let inputs = self.timer.netlist().input_names();
                let name_of = |i: u32| inputs[i as usize].as_str();
                let p = self
                    .names
                    .resolve(port, &self.names.inputs, name_of, "input port")?;
                self.timer.set_input_delay(PortId(p), *delay_ps);
            }
            Edit::SetOutputDelay { port, delay_ps } => {
                if !delay_ps.is_finite() {
                    return bad(format!("output delay {delay_ps} must be finite"));
                }
                let outputs = self.timer.netlist().output_names();
                let name_of = |i: u32| outputs[i as usize].as_str();
                let p = self
                    .names
                    .resolve(port, &self.names.outputs, name_of, "output port")?;
                self.timer.set_output_delay(PortId(p), *delay_ps);
            }
            Edit::SetClockPeriod { period_ps } => {
                if !period_ps.is_finite() || *period_ps <= 0.0 {
                    return bad(format!(
                        "clock period {period_ps} must be positive and finite"
                    ));
                }
                self.timer.set_clock_period(*period_ps);
            }
        }
        Ok(())
    }

    /// Bring timing up to date under `budget`: discover the dirty cone and
    /// run it with no task graph, quotient or executor
    /// ([`DirtyCone::run_bounded`](crate::sta::DirtyCone::run_bounded)). A
    /// whole-design cone runs level by level — each fprop level, then each
    /// bprop level, cut into owned slabs of `min(workers, available
    /// parallelism)` threads with a barrier between levels — and the
    /// deadline and cancel token are polled once per level. A partial cone
    /// runs on the calling thread in ascending full-space id, which is a
    /// topological order, executing only the tasks a changed value reaches,
    /// and polls every few hundred tasks. The cone's results are
    /// bit-identical to any scheduled run of it. Debug
    /// builds assert that each cone is successor-closed over the timing
    /// graph's arcs: running only the cone is exact because nothing outside
    /// it depends on a task inside it.
    ///
    /// The endpoint summary [`Session::report`] reads is then the summary
    /// of the values as they now are: after a completed run of a partial
    /// cone the endpoints it executed a task on are re-read and the moved
    /// ones point-updated
    /// ([`DirtyCone::point_update`](crate::sta::DirtyCone::point_update));
    /// after anything else it is built again. Debug builds build it again
    /// regardless and assert the two equal.
    ///
    /// A run stopped early ([`StopCause::DeadlineExpired`] /
    /// [`StopCause::Cancelled`]) before task `t` marks every value of the
    /// cone's ids `≥ t` *unknown* (NaN), never stale-but-plausible, and
    /// re-marks the whole design dirty so a later update (with a fresh
    /// budget) converges to the exact answer.
    ///
    /// # Errors
    ///
    /// None: the `Result` is kept for callers' source compatibility.
    ///
    /// # Panics
    ///
    /// A task panic unwinds to the caller, with the session half updated:
    /// crash-only recovery discards it (the serve registry rebuilds it from
    /// its last checkpoint and edit journal; `gpasta update` resumes from
    /// its checkpoint).
    pub fn update_timing(&mut self, budget: &RunBudget) -> Result<UpdateOutcome, SessionError> {
        let cone = self.timer.dirty_cone();
        let tasks = cone.num_tasks();
        if tasks == 0 {
            drop(cone);
            self.updates_done += 1;
            return Ok(UpdateOutcome {
                stop: StopCause::Completed,
                tasks: 0,
                repair_moved: 0,
                repair_fresh: 0,
                unknown_endpoints: 0,
            });
        }
        debug_assert!(
            cone.is_successor_closed(),
            "a dirty cone is not successor-closed over the timing graph's arcs"
        );
        Self::chaos_point(self.chaos.as_ref(), &self.name, self.updates_done);

        let rec = cone.run_bounded(self.threads, budget);
        let clean = rec.is_clean();
        let unknown_endpoints = if clean {
            0
        } else {
            cone.mark_unknown(&rec);
            rec.unfinished_endpoints.len() as u32
        };
        let fed = clean && cone.point_update(&mut self.summary);
        drop(cone);
        if !fed {
            self.summary = self.timer.endpoint_summary();
        }
        debug_assert!(
            self.summary == self.timer.endpoint_summary(),
            "the point-updated summary is not the summary of the values"
        );
        self.tasks_run[0] += tasks as u64;
        self.tasks_run[1] += rec.outcome.report.tasks_executed as u64;
        if !clean {
            self.timer.invalidate_all();
        }
        self.updates_done += 1;
        Ok(UpdateOutcome {
            stop: rec.outcome.stop,
            tasks,
            repair_moved: 0,
            repair_fresh: 0,
            unknown_endpoints,
        })
    }

    /// Over the updates since create or restore: the tasks in their cones
    /// (the sum of [`UpdateOutcome::tasks`]) and the tasks executed — fewer
    /// where a partial cone skipped what no changed value reached, or a run
    /// stopped early. A diagnostic, never serialized.
    pub fn task_counts(&self) -> (u64, u64) {
        let [structural, executed] = self.tasks_run;
        (structural, executed)
    }

    /// Setup (late-mode) WNS/TNS and the `k` worst endpoints: a read of the
    /// summary the last update left, `k log E` — `report(0)` is its root.
    /// Bit-identical to [`Timer::report`] on [`Session::timer`].
    pub fn report(&self, k: usize) -> TimingReport {
        self.timer.report_from(&self.summary, k)
    }

    /// Hold (early-mode) WNS/TNS and the `k` worst endpoints.
    pub fn report_hold(&self, k: usize) -> TimingReport {
        self.timer.report_hold(k)
    }

    /// The `k` worst paths through the most critical endpoint, worst
    /// first; empty when the design has no endpoints.
    pub fn worst_paths(&self, k: usize) -> Vec<TimingPath> {
        match self.summary.worst(1).first() {
            Some(&(_, critical)) => self
                .timer
                .worst_paths(NodeId(self.timer.graph().endpoints()[critical as usize]), k),
            None => Vec::new(),
        }
    }

    /// Persist the session's edit state, pending edits included, through
    /// the `GPCKPT05` checkpoint format and return the [`DormantSession`]
    /// residue to restore from. No update runs: the restore derives every
    /// value from the edit state (see the [module docs](self)).
    ///
    /// The session itself is left as it was; the caller decides whether to
    /// drop it (true eviction) or keep both.
    ///
    /// # Errors
    ///
    /// [`SessionError::Checkpoint`] if the file cannot be written.
    pub fn evict_to(&self, path: &Path) -> Result<DormantSession, SessionError> {
        let ckpt = UpdateCheckpoint {
            session: self.name.clone(),
            netlist_bits: self.sources.netlist_bits(),
            constraint_bits: self.sources.constraint_bits(),
            updates_done: self.updates_done,
            shape: DesignShape::of(&self.timer),
            edits: self.timer.edit_state(),
        };
        write_checkpoint(path, &ckpt)?;
        Ok(DormantSession {
            name: self.name.clone(),
            sources: self.sources.clone(),
            checkpoint: path.to_path_buf(),
        })
    }

    /// The cell library the session analyses against.
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }

    /// Direct read access to the timer (report details, graph, data).
    pub fn timer(&self) -> &Timer {
        &self.timer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    const FIXTURE: &str = "\
module fixture (a, b, y);
  input a, b;
  output y;
  wire n0, n1, n2;

  NAND2 u0 (.a(a), .b(b), .y(n0));
  INV u1 (.a(n0), .y(n1));
  NAND2 u2 (.a(n1), .b(b), .y(n2));
  INV u3 (.a(n2), .y(y));
endmodule
";

    fn tmp_ckpt(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "gpasta-session-test-{}-{tag}-{n}.ckpt",
            std::process::id()
        ))
    }

    fn fixture_session(name: &str) -> Session {
        Session::create(name, DesignSources::verilog_only(FIXTURE), 2).expect("fixture parses")
    }

    #[test]
    fn create_runs_the_initial_full_analysis() {
        let s = fixture_session("t0");
        let report = s.report(2);
        assert!(report.wns_ps.is_finite());
        assert_eq!(s.updates_done(), 0);
        assert_eq!(s.shape().gates, 4);
    }

    #[test]
    fn edits_by_name_and_by_index_agree() {
        let mut by_name = fixture_session("by-name");
        let mut by_index = fixture_session("by-index");
        for (s, gate) in [(&mut by_name, "u2"), (&mut by_index, "2")] {
            s.apply_edit(&Edit::Repower {
                gate: gate.into(),
                drive: 2.0,
            })
            .expect("valid edit");
            s.update_timing(&RunBudget::unbounded()).expect("update");
        }
        assert_eq!(
            by_name.report(1).wns_ps.to_bits(),
            by_index.report(1).wns_ps.to_bits()
        );
    }

    #[test]
    fn names_resolve_before_indices() {
        use crate::sta::{CellKind, NetlistBuilder};
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let y = nb.add_primary_output("y");
        // Gate 0 is called "2".
        let mut prev = None;
        for name in ["2", "mid", "next", "tail"] {
            let g = nb.add_gate(name, CellKind::Inv);
            match prev {
                None => nb.connect_to_gate(a, g, 0).expect("valid"),
                Some(p) => nb.connect_gates(p, g, 0).expect("valid"),
            }
            prev = Some(g);
        }
        nb.connect_to_output(prev.expect("four gates"), y)
            .expect("valid");
        let netlist = nb.build().expect("well-formed");
        let names = NameIndex::of(&netlist);
        let gate_name = |i: u32| netlist.gates()[i as usize].name.as_str();
        let gate = |name: &str| names.resolve(name, &names.gates, gate_name, "gate");
        assert_eq!(gate("2").expect("a name"), 0, "the name, not index 2");
        assert_eq!(gate("mid").expect("a name"), 1);
        assert_eq!(gate("next").expect("a name"), 2);
        assert_eq!(gate("tail").expect("a name"), 3);
        assert_eq!(gate("3").expect("an index"), 3);
        match gate("4") {
            Err(SessionError::BadEdit(why)) => assert_eq!(
                why,
                "no gate named `4` (and it is not a valid index below 4)"
            ),
            other => panic!("expected BadEdit, got {other:?}"),
        }
        let output_name = |i: u32| netlist.output_names()[i as usize].as_str();
        let input_name = |i: u32| netlist.input_names()[i as usize].as_str();
        assert_eq!(
            names
                .resolve("y", &names.outputs, output_name, "output port")
                .expect("a name"),
            0
        );
        assert!(names
            .resolve("y", &names.inputs, input_name, "input port")
            .is_err());
    }

    #[test]
    fn bad_edits_are_typed_and_leave_state_unchanged() {
        let mut s = fixture_session("bad-edit");
        let before = s.report(1);
        for edit in [
            Edit::Repower {
                gate: "nope".into(),
                drive: 2.0,
            },
            Edit::Repower {
                gate: "u0".into(),
                drive: -1.0,
            },
            Edit::Repower {
                gate: "u0".into(),
                drive: f32::NAN,
            },
            Edit::SetNetCap {
                net: 999,
                cap_ff: 1.0,
            },
            Edit::SetNetCap {
                net: 0,
                cap_ff: f32::INFINITY,
            },
            Edit::SetInputDelay {
                port: "zz".into(),
                delay_ps: 5.0,
            },
            Edit::SetClockPeriod { period_ps: 0.0 },
        ] {
            let err = s.apply_edit(&edit).expect_err("must be rejected");
            assert!(matches!(err, SessionError::BadEdit(_)), "{edit:?}: {err}");
        }
        assert!(!s.has_pending_changes());
        assert_eq!(s.report(1), before);
    }

    #[test]
    fn zero_deadline_degrades_and_recovers() {
        let mut s = fixture_session("deadline");
        s.apply_edit(&Edit::Repower {
            gate: "u1".into(),
            drive: 4.0,
        })
        .expect("valid");
        let out = s
            .update_timing(&RunBudget::unbounded().with_deadline(Duration::ZERO))
            .expect("bounded update");
        assert_eq!(out.stop, StopCause::DeadlineExpired);
        assert!(out.unknown_endpoints > 0);
        assert!(s.report(1).wns_ps.is_nan(), "degraded endpoints read NaN");

        // A fresh unbounded update converges to the exact answer.
        let out = s.update_timing(&RunBudget::unbounded()).expect("update");
        assert_eq!(out.stop, StopCause::Completed);
        let healed = s.report(1).wns_ps;
        assert!(healed.is_finite());

        // Reference: the same edit, never interrupted.
        let mut reference = fixture_session("deadline-ref");
        reference
            .apply_edit(&Edit::Repower {
                gate: "u1".into(),
                drive: 4.0,
            })
            .expect("valid");
        reference
            .update_timing(&RunBudget::unbounded())
            .expect("update");
        assert_eq!(healed.to_bits(), reference.report(1).wns_ps.to_bits());
    }

    #[test]
    fn evict_restore_is_bit_identical_including_net_caps() {
        let edits = [
            Edit::Repower {
                gate: "u1".into(),
                drive: 2.0,
            },
            Edit::SetNetCap {
                net: 1,
                cap_ff: 7.5,
            },
        ];
        let late_edit = Edit::Repower {
            gate: "u3".into(),
            drive: 0.5,
        };

        // Reference: everything in one uninterrupted session.
        let mut reference = fixture_session("ref");
        for e in &edits {
            reference.apply_edit(e).expect("valid");
        }
        reference
            .update_timing(&RunBudget::unbounded())
            .expect("update");
        reference.apply_edit(&late_edit).expect("valid");
        reference
            .update_timing(&RunBudget::unbounded())
            .expect("update");
        let want = reference.report(4);

        // Same flow, evicted and restored in the middle.
        let path = tmp_ckpt("bitident");
        let mut s = fixture_session("ref");
        for e in &edits {
            s.apply_edit(e).expect("valid");
        }
        s.update_timing(&RunBudget::unbounded()).expect("update");
        let dormant = s.evict_to(&path).expect("evict");
        drop(s);
        let mut restored = dormant.restore(2).expect("restore");
        assert_eq!(restored.updates_done(), 1);
        restored.apply_edit(&late_edit).expect("valid");
        restored
            .update_timing(&RunBudget::unbounded())
            .expect("update");
        let got = restored.report(4);

        assert_eq!(got.wns_ps.to_bits(), want.wns_ps.to_bits());
        assert_eq!(got.tns_ps.to_bits(), want.tns_ps.to_bits());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn evict_with_pending_edits_restores_to_the_live_sessions_next_update() {
        let path = tmp_ckpt("pending");
        let mut s = fixture_session("pending");
        s.update_timing(&RunBudget::unbounded()).expect("update");
        for edit in [
            Edit::Repower {
                gate: "u0".into(),
                drive: 3.0,
            },
            Edit::SetNetCap {
                net: 1,
                cap_ff: 7.5,
            },
            Edit::SetInputDelay {
                port: "a".into(),
                delay_ps: 25.0,
            },
            Edit::SetOutputDelay {
                port: "y".into(),
                delay_ps: 40.0,
            },
            Edit::SetClockPeriod { period_ps: 800.0 },
        ] {
            s.apply_edit(&edit).expect("valid");
        }
        let before = s.timer().snapshot();
        let dormant = s.evict_to(&path).expect("evict");
        assert!(s.has_pending_changes(), "eviction runs no update");
        assert!(s.timer().snapshot() == before, "nor touches a value");
        let restored = dormant.restore(2).expect("restore");
        std::fs::remove_file(&path).ok();
        assert!(!restored.has_pending_changes());
        assert_eq!(restored.updates_done(), 1);

        s.update_timing(&RunBudget::unbounded()).expect("update");
        assert!(restored.timer().snapshot() == s.timer().snapshot());
        assert_eq!(restored.report(4), s.report(4));
    }

    #[test]
    fn restore_rejects_a_checkpoint_of_another_shape() {
        let path = tmp_ckpt("shape");
        let s = fixture_session("shape");
        let dormant = s.evict_to(&path).expect("evict");
        let mut ckpt = read_checkpoint(&path).expect("read");
        ckpt.shape.gates += 1;
        ckpt.edits.drive.push(1.0f32.to_bits());
        write_checkpoint(&path, &ckpt).expect("write");
        match dormant.restore(2) {
            Err(SessionError::Checkpoint(CheckpointError::Mismatch(why))) => {
                assert!(why.contains("design shape"), "{why}")
            }
            other => panic!("expected Mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_rejects_edited_sources() {
        let path = tmp_ckpt("tamper");
        let mut s = fixture_session("tamper");
        s.update_timing(&RunBudget::unbounded()).expect("update");
        let dormant = s.evict_to(&path).expect("evict");

        let mut tampered = dormant.clone();
        tampered.sources.verilog.push('\n');
        match tampered.restore(2) {
            Err(SessionError::Checkpoint(CheckpointError::Mismatch(why))) => {
                assert!(why.contains("netlist"), "{why}")
            }
            other => panic!("expected Mismatch, got {other:?}"),
        }

        let mut reclocked = dormant.clone();
        reclocked.sources.clock_period_ps = 500.0;
        assert!(matches!(
            reclocked.restore(2),
            Err(SessionError::Checkpoint(CheckpointError::Mismatch(_)))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn worst_paths_trace_the_critical_endpoint() {
        let mut s = fixture_session("paths");
        s.update_timing(&RunBudget::unbounded()).expect("update");
        let paths = s.worst_paths(2);
        assert!(!paths.is_empty());
        assert_eq!(
            paths[0].slack_ps.to_bits(),
            s.report(1).wns_ps.to_bits(),
            "worst path slack equals WNS"
        );
    }
}
