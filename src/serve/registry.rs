//! The session registry: named [`Session`]s shared across request
//! threads, *supervised* so a panic inside one session never takes the
//! daemon (or even the session) down with it.
//!
//! # Slots
//!
//! Each slot is one of three states:
//!
//! * **live** — an `Arc<Mutex<Session>>` (warm timer) plus its
//!   [`Supervisor`]: the crash-recovery bookkeeping that
//!   outlives any particular `Session` value;
//! * **dormant** — a [`DormantSession`] (source text plus a `GPCKPT04`
//!   checkpoint in the spool directory), produced by eviction;
//! * **quarantined** — the session crashed repeatedly inside the crash
//!   window (or could not be rebuilt); only an explicit restore or
//!   remove moves it out.
//!
//! Request handlers go through [`Registry::with_live`] /
//! [`Registry::apply_edits`], which clone the `Arc` under the registry
//! lock, release it, and run the operation inside `catch_unwind` with
//! the *session* lock held — one slow `update_timing` never blocks
//! requests against other sessions, and one panicking one never poisons
//! anything (the mutex is parking_lot-flavoured and lock-only).
//!
//! # Crash-only recovery
//!
//! A caught panic discards the crashed `Session` value entirely — no
//! attempt is made to repair it — and rebuilds a replacement from the
//! supervisor's *residue* (the last background checkpoint, taken by
//! [`Registry::checkpoint_all`]) or, before any checkpoint exists, from
//! the design sources; either way the post-checkpoint edit journal is
//! replayed on top. Every [`Edit`] is an absolute-value set and timing
//! propagation is deterministic, so the recovered session converges to
//! bits identical to a session that never crashed. Repeated crashes
//! within [`Registry::with_crash_policy`]'s window quarantine the slot
//! instead of looping.
//!
//! # Lock order
//!
//! `session mutex` → `supervisor state` → `registry slots`, strictly.
//! Edits journal under the session lock (so journal order *is*
//! application order); crash handling holds the supervisor lock across
//! the rebuild (serialising concurrent recoveries of one session) and
//! takes the slots lock only for the final swap; nothing locks a
//! session or supervisor while holding the slots lock. The supervisor's
//! generation counter is read and written only under the slots lock
//! (plain `Relaxed` atomics — the lock provides the ordering), and every
//! slot swap bumps it, so a request that cloned the `Arc` just before a
//! swap mutates a detached session: its crash is recognised as stale and
//! does not trigger a second recovery — the same "race the client signed
//! up for" semantics eviction always had.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpasta_check::sync::{AtomicBool, AtomicU64, Mutex, Ordering};

use crate::sched::{panic_message, FaultKind, FaultPlan};
use crate::session::{DesignSources, DormantSession, Edit, Session, SessionError};
use crate::tdg::checksum;

/// A live slot as one consistent read: the shared session, its
/// supervisor, and the generation the pair was observed at (all under
/// one slots-lock hold).
type LiveSlotRef = (Arc<Mutex<Session>>, Arc<Supervisor>, u64);

/// One [`LiveSlotRef`] tagged with its session name, for bulk
/// snapshots (checkpointer, persist pass).
type NamedLiveSlot = (String, Arc<Mutex<Session>>, Arc<Supervisor>, u64);

/// Why a registry operation failed. The wire layer maps each variant to
/// an HTTP status in [`super::proto`].
#[derive(Debug)]
pub enum RegistryError {
    /// No session with this name exists.
    NotFound(String),
    /// The session exists but is dormant; restore it first.
    NotLive(String),
    /// A session with this name already exists.
    Duplicate(String),
    /// The registry is at its live-session capacity.
    Full {
        /// The configured capacity.
        max: usize,
    },
    /// The session name contains characters the spool cannot host.
    BadName(String),
    /// The underlying session operation failed.
    Session(SessionError),
    /// The session panicked mid-operation. `recovered` says whether the
    /// slot is live again (auto-restored from checkpoint + journal — the
    /// client can simply retry); when `false` the slot was quarantined
    /// because recovery itself failed.
    Crashed {
        /// Session name.
        name: String,
        /// Whether the slot is live again.
        recovered: bool,
        /// The panic payload, for the error message and the logs.
        panic: String,
    },
    /// The session crashed repeatedly inside the crash window and is
    /// quarantined; an explicit restore heals it, remove discards it.
    Quarantined {
        /// Session name.
        name: String,
        /// Crashes inside the window at quarantine time.
        crashes: usize,
    },
    /// The daemon is at its in-flight request budget; retry later.
    Overloaded {
        /// The configured in-flight budget.
        max: u64,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::NotFound(name) => write!(f, "no session named `{name}`"),
            RegistryError::NotLive(name) => {
                write!(f, "session `{name}` is dormant; restore it first")
            }
            RegistryError::Duplicate(name) => write!(f, "session `{name}` already exists"),
            RegistryError::Full { max } => {
                write!(f, "registry is full ({max} sessions); evict one first")
            }
            RegistryError::BadName(name) => write!(
                f,
                "invalid session name `{name}`: use 1-64 characters from [A-Za-z0-9_-], \
                 starting with a letter or digit"
            ),
            RegistryError::Session(e) => write!(f, "{e}"),
            RegistryError::Crashed {
                name,
                recovered,
                panic,
            } => {
                if *recovered {
                    write!(
                        f,
                        "session `{name}` crashed ({panic}); it was restored from its \
                         last checkpoint and edit journal — retry the request"
                    )
                } else {
                    write!(
                        f,
                        "session `{name}` crashed ({panic}) and recovery failed; \
                         the slot is quarantined"
                    )
                }
            }
            RegistryError::Quarantined { name, crashes } => write!(
                f,
                "session `{name}` is quarantined after {crashes} crashes in the crash \
                 window; restore it explicitly or remove it"
            ),
            RegistryError::Overloaded { max } => write!(
                f,
                "server is at its in-flight request budget ({max}); retry later"
            ),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Session(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SessionError> for RegistryError {
    fn from(e: SessionError) -> Self {
        RegistryError::Session(e)
    }
}

/// Deterministic chaos injected into live sessions — the serve-layer
/// face of [`FaultPlan`]. Intended for the chaos tier and CI smoke, not
/// production; the default (inactive) config costs one `Option` check
/// per update.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the per-session random rule (each session derives its own
    /// stream: `seed ^ checksum(name)`).
    pub seed: u64,
    /// Fire probability per `(update, attempt)` key, in [0, 1].
    pub rate: f64,
    /// Kinds the random rule chooses among: `Panic` and `Delay`, the two a
    /// session fires (`gpasta serve` refuses the others).
    pub kinds: Vec<FaultKind>,
    /// Targeted hits: `(session name, update index, recovery attempt,
    /// kind)`.
    pub targeted: Vec<(String, u32, u32, FaultKind)>,
}

impl ChaosConfig {
    /// Whether any rule can ever fire.
    pub fn is_active(&self) -> bool {
        (self.rate > 0.0 && !self.kinds.is_empty()) || !self.targeted.is_empty()
    }
}

/// Per-session crash-recovery bookkeeping. Lives behind its own mutex
/// (not the session's) and survives slot swaps: the recovered `Session`
/// is a fresh value, the `Supervisor` is the continuity.
#[derive(Debug)]
struct Supervisor {
    state: Mutex<SupState>,
    /// Slot-swap counter; read and written only under the registry slots
    /// lock (which provides the ordering — hence `Relaxed` everywhere).
    /// A crash whose captured generation is stale belongs to a detached
    /// `Arc` and must not trigger another recovery.
    generation: AtomicU64,
}

#[derive(Debug)]
struct SupState {
    /// For rebuild-from-scratch before any checkpoint exists.
    sources: DesignSources,
    /// The last background checkpoint (or eviction residue a restore
    /// seeded); recovery starts here when present.
    residue: Option<DormantSession>,
    /// Edits applied since `residue` was taken, in application order
    /// (appended under the session lock).
    journal: Vec<Edit>,
    /// Crash instants inside the sliding window.
    crashes: VecDeque<Instant>,
    /// Completed recoveries; doubles as the chaos `attempt` coordinate.
    recoveries: u32,
}

impl Supervisor {
    fn new(sources: DesignSources, residue: Option<DormantSession>) -> Arc<Supervisor> {
        Arc::new(Supervisor {
            state: Mutex::new(SupState {
                sources,
                residue,
                journal: Vec::new(),
                crashes: VecDeque::new(),
                recoveries: 0,
            }),
            generation: AtomicU64::new(0),
        })
    }
}

/// One registry slot.
#[derive(Debug, Clone)]
enum SessionSlot {
    Live {
        arc: Arc<Mutex<Session>>,
        sup: Arc<Supervisor>,
    },
    Dormant(DormantSession),
    Quarantined {
        sup: Arc<Supervisor>,
    },
}

/// Where a session currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// In memory, accepting requests.
    Live,
    /// Spooled to a checkpoint; restore re-admits it.
    Dormant,
    /// Crashed out of the crash window; restore heals it.
    Quarantined,
}

impl SessionState {
    /// The wire-protocol name of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            SessionState::Live => "live",
            SessionState::Dormant => "dormant",
            SessionState::Quarantined => "quarantined",
        }
    }
}

/// A row of [`Registry::list`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionInfo {
    /// Session name.
    pub name: String,
    /// Live, dormant, or quarantined.
    pub state: SessionState,
    /// The checkpoint path, for dormant slots.
    pub checkpoint: Option<PathBuf>,
    /// Crash recoveries performed on this slot so far.
    pub recoveries: u32,
}

impl SessionInfo {
    /// Whether the slot is live.
    pub fn is_live(&self) -> bool {
        self.state == SessionState::Live
    }
}

/// What [`Registry::apply_edits`] did. Edits apply (and journal) in
/// order; on a rejected edit the earlier ones stay applied and
/// `rejected` names the offending index, so the client can resubmit
/// from there.
#[derive(Debug)]
pub struct EditReceipt {
    /// Edits applied (and journaled).
    pub applied: usize,
    /// Whether the session now has pending changes.
    pub pending: bool,
    /// The first rejected edit, when validation failed.
    pub rejected: Option<(usize, SessionError)>,
}

/// Holds one unit of the in-flight request budget; dropping it releases
/// the slot. Obtained from [`Registry::try_admit`].
#[derive(Debug)]
pub struct AdmissionGuard<'a> {
    registry: &'a Registry,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.registry.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The shared state of a `gpasta serve` process. `Send + Sync`; request
/// threads hold it behind an `Arc`.
#[derive(Debug)]
pub struct Registry {
    slots: Mutex<HashMap<String, SessionSlot>>,
    spool: PathBuf,
    workers: usize,
    max_sessions: usize,
    shutdown: AtomicBool,
    requests: AtomicU64,
    inflight: AtomicU64,
    max_inflight: u64,
    crash_window: Duration,
    max_crashes: usize,
    chaos: ChaosConfig,
    crashes_total: AtomicU64,
    recoveries_total: AtomicU64,
    checkpoints_total: AtomicU64,
}

impl Registry {
    /// An empty registry spooling checkpoints under `spool`, passing
    /// `workers` (its whole-design runs' thread bound) to each session and hosting at
    /// most `max_sessions` sessions (live or dormant). Default policies: 256
    /// in-flight requests, quarantine after 3 crashes in 60 s, no chaos.
    pub fn new(spool: PathBuf, workers: usize, max_sessions: usize) -> Registry {
        Registry {
            slots: Mutex::new(HashMap::new()),
            spool,
            workers: workers.max(1),
            max_sessions: max_sessions.max(1),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            max_inflight: 256,
            crash_window: Duration::from_secs(60),
            max_crashes: 3,
            chaos: ChaosConfig::default(),
            crashes_total: AtomicU64::new(0),
            recoveries_total: AtomicU64::new(0),
            checkpoints_total: AtomicU64::new(0),
        }
    }

    /// Set the in-flight request budget (`0` disables shedding).
    pub fn with_admission(mut self, max_inflight: u64) -> Registry {
        self.max_inflight = max_inflight;
        self
    }

    /// Set the quarantine policy: `max_crashes` crashes within `window`
    /// quarantine the session.
    pub fn with_crash_policy(mut self, window: Duration, max_crashes: usize) -> Registry {
        self.crash_window = window;
        self.max_crashes = max_crashes.max(1);
        self
    }

    /// Install a chaos schedule, injected into every session at create,
    /// restore, and recovery.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Registry {
        self.chaos = chaos;
        self
    }

    /// The `workers` passed to each session.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured session capacity.
    pub fn max_sessions(&self) -> usize {
        self.max_sessions
    }

    /// The spool directory checkpoints are written into.
    pub fn spool(&self) -> &Path {
        &self.spool
    }

    /// Count one served request (monotonic statistics counter).
    pub fn count_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Session crashes caught so far.
    pub fn crashes_total(&self) -> u64 {
        self.crashes_total.load(Ordering::Relaxed)
    }

    /// Crash recoveries completed so far.
    pub fn recoveries_total(&self) -> u64 {
        self.recoveries_total.load(Ordering::Relaxed)
    }

    /// Background checkpoints taken so far.
    pub fn checkpoints_total(&self) -> u64 {
        self.checkpoints_total.load(Ordering::Relaxed)
    }

    /// Requests currently being served under [`try_admit`](Self::try_admit).
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// The configured in-flight budget (`0` = unlimited).
    pub fn max_inflight(&self) -> u64 {
        self.max_inflight
    }

    /// Admit one request into the in-flight budget, or shed it.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Overloaded`] when the budget is exhausted (the
    /// wire layer turns it into `503` + `Retry-After`).
    pub fn try_admit(&self) -> Result<AdmissionGuard<'_>, RegistryError> {
        let now = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        if self.max_inflight > 0 && now > self.max_inflight {
            self.inflight.fetch_sub(1, Ordering::Relaxed);
            return Err(RegistryError::Overloaded {
                max: self.max_inflight,
            });
        }
        Ok(AdmissionGuard { registry: self })
    }

    /// Flag the process for shutdown. The accept/read loop observes the
    /// flag and stops taking new requests; the final persist pass then
    /// spools every live session.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release); // hb: serve-shutdown
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) // hb: serve-shutdown
    }

    /// Whether the spool directory accepts writes (the readiness probe:
    /// a daemon that cannot checkpoint cannot keep its durability
    /// promise).
    pub fn spool_writable(&self) -> bool {
        if std::fs::create_dir_all(&self.spool).is_err() {
            return false;
        }
        let probe = self
            .spool
            .join(format!(".readyz-probe-{}", std::process::id()));
        let ok = std::fs::write(&probe, b"ok").is_ok();
        std::fs::remove_file(&probe).ok();
        ok
    }

    fn ckpt_path(&self, name: &str) -> PathBuf {
        self.spool.join(format!("{name}.ckpt"))
    }

    fn validate_name(name: &str) -> Result<(), RegistryError> {
        let ok = !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
        if ok {
            Ok(())
        } else {
            Err(RegistryError::BadName(name.to_string()))
        }
    }

    /// The chaos plan a session named `name` runs under, if any.
    fn chaos_plan_for(&self, name: &str) -> Option<FaultPlan> {
        if !self.chaos.is_active() {
            return None;
        }
        let plan = FaultPlan::random(
            self.chaos.seed ^ checksum(name.as_bytes()),
            self.chaos.rate,
            &self.chaos.kinds,
        )
        .with_targets(
            self.chaos
                .targeted
                .iter()
                .filter(|(n, _, _, _)| n == name)
                .map(|&(_, update, attempt, kind)| (update, attempt, kind)),
        );
        Some(plan)
    }

    /// Swap `name`'s slot to `slot` iff `sup`'s generation is still
    /// `expected`; bumps the generation on success. Atomic with respect
    /// to every other swap (all go through the slots lock).
    fn swap_slot_if(
        &self,
        name: &str,
        sup: &Arc<Supervisor>,
        expected: u64,
        slot: SessionSlot,
    ) -> bool {
        let mut slots = self.slots.lock();
        if sup.generation.load(Ordering::Relaxed) != expected {
            return false;
        }
        sup.generation.fetch_add(1, Ordering::Relaxed);
        slots.insert(name.to_string(), slot);
        true
    }

    /// Create a session: parse the sources, run the initial full analysis,
    /// and register the result live. The analysis runs outside the registry lock, so concurrent
    /// creates (of different names) proceed in parallel.
    ///
    /// # Errors
    ///
    /// [`RegistryError::BadName`] / [`RegistryError::Duplicate`] /
    /// [`RegistryError::Full`] for registry constraints,
    /// [`RegistryError::Session`] when the sources fail to build.
    pub fn create(
        &self,
        name: &str,
        sources: DesignSources,
    ) -> Result<Arc<Mutex<Session>>, RegistryError> {
        Self::validate_name(name)?;
        {
            let slots = self.slots.lock();
            if slots.contains_key(name) {
                return Err(RegistryError::Duplicate(name.to_string()));
            }
            if slots.len() >= self.max_sessions {
                return Err(RegistryError::Full {
                    max: self.max_sessions,
                });
            }
        }
        let mut session = Session::create(name, sources.clone(), self.workers)?;
        session.set_chaos(self.chaos_plan_for(name), 0);
        let arc = Arc::new(Mutex::new(session));
        let sup = Supervisor::new(sources, None);
        let mut slots = self.slots.lock();
        // Re-check: another create may have won the race while we were
        // analysing.
        if slots.contains_key(name) {
            return Err(RegistryError::Duplicate(name.to_string()));
        }
        if slots.len() >= self.max_sessions {
            return Err(RegistryError::Full {
                max: self.max_sessions,
            });
        }
        slots.insert(
            name.to_string(),
            SessionSlot::Live {
                arc: arc.clone(),
                sup,
            },
        );
        Ok(arc)
    }

    /// The live slot for `name` plus the generation the `Arc` was read
    /// at (consistent: both read under the one slots lock).
    fn live_slot(&self, name: &str) -> Result<LiveSlotRef, RegistryError> {
        let quarantined_sup = {
            let slots = self.slots.lock();
            match slots.get(name) {
                Some(SessionSlot::Live { arc, sup }) => {
                    let generation = sup.generation.load(Ordering::Relaxed);
                    return Ok((arc.clone(), sup.clone(), generation));
                }
                Some(SessionSlot::Dormant(_)) => {
                    return Err(RegistryError::NotLive(name.to_string()))
                }
                Some(SessionSlot::Quarantined { sup }) => sup.clone(),
                None => return Err(RegistryError::NotFound(name.to_string())),
            }
        };
        // Slots lock released before touching the supervisor lock (lock
        // order: supervisor < slots holds only in that direction).
        let crashes = quarantined_sup.state.lock().crashes.len();
        Err(RegistryError::Quarantined {
            name: name.to_string(),
            crashes,
        })
    }

    /// The live session named `name`, for callers that manage their own
    /// locking (tests, benches). Supervised request paths should prefer
    /// [`with_live`](Self::with_live).
    ///
    /// # Errors
    ///
    /// [`RegistryError::NotFound`] / [`RegistryError::NotLive`] /
    /// [`RegistryError::Quarantined`].
    pub fn live(&self, name: &str) -> Result<Arc<Mutex<Session>>, RegistryError> {
        self.live_slot(name).map(|(arc, _, _)| arc)
    }

    /// Run `f` against the live session named `name`, supervised: the
    /// session lock is taken here, `f` runs inside `catch_unwind`, and a
    /// panic triggers crash-only recovery (discard the session, rebuild
    /// from the last checkpoint, replay the edit journal) or quarantine.
    ///
    /// # Errors
    ///
    /// Slot lookup errors as in [`live`](Self::live);
    /// [`RegistryError::Crashed`] / [`RegistryError::Quarantined`] when
    /// `f` panicked (the operation did *not* complete — `recovered`
    /// says whether an immediate retry can succeed).
    pub fn with_live<T>(
        &self,
        name: &str,
        f: impl FnOnce(&mut Session) -> T,
    ) -> Result<T, RegistryError> {
        let (arc, sup, generation) = self.live_slot(name)?;
        let mut session = arc.lock();
        match catch_unwind(AssertUnwindSafe(|| f(&mut session))) {
            Ok(value) => Ok(value),
            Err(payload) => {
                drop(session);
                Err(self.handle_crash(name, &sup, generation, panic_message(&*payload)))
            }
        }
    }

    /// Apply `edits` in order to the live session named `name`,
    /// journaling each applied edit (under the session lock, so journal
    /// order is application order) for crash replay.
    ///
    /// # Errors
    ///
    /// Slot lookup and crash errors as in [`with_live`](Self::with_live).
    /// A *rejected* edit (client error) is not an `Err`: it is reported
    /// in [`EditReceipt::rejected`] with earlier edits applied.
    pub fn apply_edits(&self, name: &str, edits: &[Edit]) -> Result<EditReceipt, RegistryError> {
        let (arc, sup, generation) = self.live_slot(name)?;
        let mut session = arc.lock();
        let mut applied = 0usize;
        let mut rejected = None;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            for (i, edit) in edits.iter().enumerate() {
                match session.apply_edit(edit) {
                    Ok(()) => {
                        sup.state.lock().journal.push(edit.clone());
                        applied += 1;
                    }
                    Err(e) => {
                        rejected = Some((i, e));
                        break;
                    }
                }
            }
        }));
        match outcome {
            Ok(()) => Ok(EditReceipt {
                applied,
                pending: session.has_pending_changes(),
                rejected,
            }),
            Err(payload) => {
                drop(session);
                Err(self.handle_crash(name, &sup, generation, panic_message(&*payload)))
            }
        }
    }

    /// Contain one caught panic: count it against the crash window, then
    /// either quarantine or rebuild-and-swap. Returns the error the
    /// failed request reports. Holds the supervisor lock across the
    /// rebuild so concurrent crashes of one session recover once.
    fn handle_crash(
        &self,
        name: &str,
        sup: &Arc<Supervisor>,
        generation: u64,
        panic: String,
    ) -> RegistryError {
        self.crashes_total.fetch_add(1, Ordering::Relaxed);
        let mut st = sup.state.lock();
        if sup.generation.load(Ordering::Relaxed) != generation {
            // The slot moved on (concurrent recovery, eviction, removal)
            // while this request ran against a detached Arc; whatever is
            // registered now is healthy — nothing to repair.
            return RegistryError::Crashed {
                name: name.to_string(),
                recovered: true,
                panic,
            };
        }
        let now = Instant::now();
        st.crashes.push_back(now);
        while let Some(front) = st.crashes.front() {
            if now.duration_since(*front) > self.crash_window {
                st.crashes.pop_front();
            } else {
                break;
            }
        }
        if st.crashes.len() >= self.max_crashes {
            let crashes = st.crashes.len();
            self.swap_slot_if(
                name,
                sup,
                generation,
                SessionSlot::Quarantined { sup: sup.clone() },
            );
            return RegistryError::Quarantined {
                name: name.to_string(),
                crashes,
            };
        }
        st.recoveries += 1;
        let attempt = st.recoveries;
        // The rebuild itself runs under catch_unwind too: a panic during
        // restore or journal replay must quarantine, not kill the
        // handler thread.
        let rebuilt = catch_unwind(AssertUnwindSafe(|| self.rebuild(name, &st)));
        let mut session = match rebuilt {
            Ok(Ok(session)) => session,
            Ok(Err(e)) => {
                self.swap_slot_if(
                    name,
                    sup,
                    generation,
                    SessionSlot::Quarantined { sup: sup.clone() },
                );
                return RegistryError::Crashed {
                    name: name.to_string(),
                    recovered: false,
                    panic: format!("{panic}; recovery failed: {e}"),
                };
            }
            Err(payload) => {
                let why = panic_message(&*payload);
                self.swap_slot_if(
                    name,
                    sup,
                    generation,
                    SessionSlot::Quarantined { sup: sup.clone() },
                );
                return RegistryError::Crashed {
                    name: name.to_string(),
                    recovered: false,
                    panic: format!("{panic}; recovery panicked: {why}"),
                };
            }
        };
        session.set_chaos(self.chaos_plan_for(name), attempt);
        let arc = Arc::new(Mutex::new(session));
        let swapped = self.swap_slot_if(
            name,
            sup,
            generation,
            SessionSlot::Live {
                arc,
                sup: sup.clone(),
            },
        );
        if swapped {
            self.recoveries_total.fetch_add(1, Ordering::Relaxed);
        }
        RegistryError::Crashed {
            name: name.to_string(),
            recovered: true,
            panic,
        }
    }

    /// Rebuild a replacement session from the supervisor's residue (last
    /// checkpoint) or, before any checkpoint exists, from the sources —
    /// then replay the post-checkpoint edit journal. Deterministic: the
    /// result converges to the same bits as the crashed session would
    /// have.
    fn rebuild(&self, name: &str, st: &SupState) -> Result<Session, SessionError> {
        let mut session = match &st.residue {
            Some(dormant) => dormant.restore(self.workers)?,
            None => Session::create(name, st.sources.clone(), self.workers)?,
        };
        for edit in &st.journal {
            session.apply_edit(edit)?;
        }
        Ok(session)
    }

    /// Every slot, sorted by name.
    pub fn list(&self) -> Vec<SessionInfo> {
        // Snapshot under the slots lock; supervisor locks only after it
        // is released (lock order: supervisor < slots).
        #[allow(clippy::type_complexity)]
        let snapshot: Vec<(
            String,
            SessionState,
            Option<PathBuf>,
            Option<Arc<Supervisor>>,
        )> = {
            let slots = self.slots.lock();
            slots
                .iter()
                .map(|(name, slot)| match slot {
                    SessionSlot::Live { sup, .. } => {
                        (name.clone(), SessionState::Live, None, Some(sup.clone()))
                    }
                    SessionSlot::Dormant(d) => (
                        name.clone(),
                        SessionState::Dormant,
                        Some(d.checkpoint_path().to_path_buf()),
                        None,
                    ),
                    SessionSlot::Quarantined { sup } => (
                        name.clone(),
                        SessionState::Quarantined,
                        None,
                        Some(sup.clone()),
                    ),
                })
                .collect()
        };
        let mut rows: Vec<SessionInfo> = snapshot
            .into_iter()
            .map(|(name, state, checkpoint, sup)| SessionInfo {
                name,
                state,
                checkpoint,
                recoveries: sup.map_or(0, |s| s.state.lock().recoveries),
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    /// Evict a session: write its `GPCKPT04` checkpoint (the edit state,
    /// pending edits included) into the spool, and swap the slot to
    /// dormant. Idempotent — evicting a dormant session returns its
    /// existing residue. The write runs no update, so no chaos point and
    /// no task can panic inside it: unlike a request, it is not
    /// supervised.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NotFound`] / [`RegistryError::Quarantined`], or
    /// [`RegistryError::Session`] when the checkpoint cannot be written.
    pub fn evict(&self, name: &str) -> Result<DormantSession, RegistryError> {
        // The generation check-and-swap can lose to a concurrent crash
        // recovery; retry the whole eviction a couple of times before
        // settling for checkpoint-written-but-slot-still-live.
        let mut last = None;
        for _ in 0..3 {
            let (arc, sup, generation) = match self.live_slot(name) {
                Ok(found) => found,
                Err(RegistryError::NotLive(_)) => {
                    let slots = self.slots.lock();
                    return match slots.get(name) {
                        Some(SessionSlot::Dormant(d)) => Ok(d.clone()),
                        _ => Err(RegistryError::NotFound(name.to_string())),
                    };
                }
                Err(e) => return Err(e),
            };
            let path = self.ckpt_path(name);
            // Waits for in-flight requests against this session to
            // drain; no registry lock is held across the checkpoint I/O.
            let session = arc.lock();
            let dormant = session.evict_to(&path)?;
            // The checkpoint captures every journaled edit (appends need
            // the session lock we hold), so the journal restarts empty.
            {
                let mut st = sup.state.lock();
                st.residue = Some(dormant.clone());
                st.journal.clear();
            }
            drop(session);
            if self.swap_slot_if(
                name,
                &sup,
                generation,
                SessionSlot::Dormant(dormant.clone()),
            ) {
                return Ok(dormant);
            }
            last = Some(dormant);
        }
        match last {
            // Three straight swap races: give up swapping, but the
            // checkpoint on disk is valid and current.
            Some(dormant) => Ok(dormant),
            None => Err(RegistryError::NotFound(name.to_string())),
        }
    }

    /// Re-admit a dormant session from its checkpoint, or heal a
    /// quarantined one (rebuild from residue + journal, clearing its
    /// crash history). Idempotent — restoring a live session returns it
    /// as-is.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NotFound`], or [`RegistryError::Session`] when
    /// the checkpoint is unreadable, no longer matches the sources, or
    /// the quarantined rebuild fails (the slot stays quarantined).
    pub fn restore(&self, name: &str) -> Result<Arc<Mutex<Session>>, RegistryError> {
        enum Found {
            Dormant(DormantSession),
            Quarantined(Arc<Supervisor>, u64),
        }
        let found = {
            let slots = self.slots.lock();
            match slots.get(name) {
                Some(SessionSlot::Live { arc, .. }) => return Ok(arc.clone()),
                Some(SessionSlot::Dormant(d)) => Found::Dormant(d.clone()),
                Some(SessionSlot::Quarantined { sup }) => {
                    Found::Quarantined(sup.clone(), sup.generation.load(Ordering::Relaxed))
                }
                None => return Err(RegistryError::NotFound(name.to_string())),
            }
        };
        match found {
            Found::Dormant(dormant) => {
                let mut session = dormant.restore(self.workers)?;
                session.set_chaos(self.chaos_plan_for(name), 0);
                let sources = session.sources().clone();
                let arc = Arc::new(Mutex::new(session));
                let sup = Supervisor::new(sources, Some(dormant));
                let mut slots = self.slots.lock();
                match slots.get(name) {
                    // A concurrent restore won the race; use its session
                    // so both callers observe the same object.
                    Some(SessionSlot::Live { arc: existing, .. }) => Ok(existing.clone()),
                    _ => {
                        slots.insert(
                            name.to_string(),
                            SessionSlot::Live {
                                arc: arc.clone(),
                                sup,
                            },
                        );
                        Ok(arc)
                    }
                }
            }
            Found::Quarantined(sup, generation) => {
                let mut st = sup.state.lock();
                st.recoveries += 1;
                let attempt = st.recoveries;
                let mut session = self.rebuild(name, &st)?;
                session.set_chaos(self.chaos_plan_for(name), attempt);
                // An explicit heal wipes the crash history: the operator
                // (or test harness) asked for a fresh start.
                st.crashes.clear();
                let arc = Arc::new(Mutex::new(session));
                if self.swap_slot_if(
                    name,
                    &sup,
                    generation,
                    SessionSlot::Live {
                        arc: arc.clone(),
                        sup: sup.clone(),
                    },
                ) {
                    self.recoveries_total.fetch_add(1, Ordering::Relaxed);
                    Ok(arc)
                } else {
                    // Swapped under us (e.g. removed); report the current
                    // state instead of installing a zombie.
                    drop(st);
                    self.live(name)
                }
            }
        }
    }

    /// Drop a session entirely (live, dormant, or quarantined). The
    /// spooled checkpoint, if any, is left on disk.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NotFound`].
    pub fn remove(&self, name: &str) -> Result<(), RegistryError> {
        let mut slots = self.slots.lock();
        match slots.remove(name) {
            Some(SessionSlot::Live { sup, .. }) | Some(SessionSlot::Quarantined { sup }) => {
                // Invalidate outstanding Arcs so a late crash on one is
                // recognised as stale.
                sup.generation.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Some(SessionSlot::Dormant(_)) => Ok(()),
            None => Err(RegistryError::NotFound(name.to_string())),
        }
    }

    /// Background-checkpoint every live session: write each to its spool
    /// path via the eviction serializer *without* evicting, then reset
    /// its supervisor residue/journal. A session with a residue and an
    /// empty journal has applied no edit since its last checkpoint and is
    /// skipped. Returns how many checkpoints were written.
    ///
    /// The checkpointer only reads: it runs no update, so it never
    /// consumes an update index (or a chaos fault keyed on one) out of
    /// band, and nothing in it can panic. The live list is snapshotted
    /// under the registry lock; checkpoint I/O runs with only the
    /// per-session lock held, so a slow disk cannot stall unrelated
    /// requests.
    pub fn checkpoint_all(&self) -> usize {
        let mut written = 0usize;
        for (name, arc, sup, _) in self.live_slots() {
            if self.is_shutting_down() {
                break;
            }
            let session = arc.lock();
            {
                let st = sup.state.lock();
                if st.residue.is_some() && st.journal.is_empty() {
                    continue;
                }
            }
            // On disk trouble the old residue + journal stay; the next
            // tick retries.
            if let Ok(dormant) = session.evict_to(&self.ckpt_path(&name)) {
                // Still holding the session lock: no edit can have been
                // journaled since the checkpoint, so the journal restarts
                // empty.
                let mut st = sup.state.lock();
                st.residue = Some(dormant);
                st.journal.clear();
                written += 1;
                self.checkpoints_total.fetch_add(1, Ordering::Relaxed);
            }
        }
        written
    }

    /// Every live slot, as one read under the slots lock.
    fn live_slots(&self) -> Vec<NamedLiveSlot> {
        let slots = self.slots.lock();
        slots
            .iter()
            .filter_map(|(name, slot)| match slot {
                SessionSlot::Live { arc, sup } => Some((
                    name.clone(),
                    arc.clone(),
                    sup.clone(),
                    sup.generation.load(Ordering::Relaxed),
                )),
                _ => None,
            })
            .collect()
    }

    /// The shutdown persist pass: evict every live session to the
    /// spool. Returns `(name, result)` per live session, sorted by
    /// name. Quarantined sessions are skipped (their last good
    /// checkpoint is already on disk).
    pub fn persist_all(&self) -> Vec<(String, Result<PathBuf, SessionError>)> {
        let mut results = Vec::new();
        for (name, arc, sup, generation) in self.live_slots() {
            let path = self.ckpt_path(&name);
            // The session guard is a temporary, dropped before the slots
            // lock is touched, so checkpoint I/O never overlaps the
            // registry lock.
            let outcome = arc.lock().evict_to(&path);
            let outcome = match outcome {
                Ok(dormant) => {
                    self.swap_slot_if(&name, &sup, generation, SessionSlot::Dormant(dormant));
                    Ok(path)
                }
                Err(e) => Err(e),
            };
            results.push((name, outcome));
        }
        results.sort_by(|a, b| a.0.cmp(&b.0));
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::RunBudget;

    const FIXTURE: &str = "\
module reg_fixture (a, b, y);
  input a, b;
  output y;
  wire n0;
  NAND2 u0 (.a(a), .b(b), .y(n0));
  INV u1 (.a(n0), .y(y));
endmodule
";

    fn tmp_spool(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gpasta-registry-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create spool");
        dir
    }

    fn sources() -> DesignSources {
        DesignSources::verilog_only(FIXTURE)
    }

    fn repower(gate: &str, drive: f32) -> Edit {
        Edit::Repower {
            gate: gate.to_string(),
            drive,
        }
    }

    #[test]
    fn create_list_evict_restore_cycle() {
        let spool = tmp_spool("cycle");
        let reg = Registry::new(spool.clone(), 2, 4);
        reg.create("alpha", sources()).expect("create");
        assert_eq!(reg.list().len(), 1);
        assert!(reg.list()[0].is_live());

        let dormant = reg.evict("alpha").expect("evict");
        assert!(dormant.checkpoint_path().exists());
        assert_eq!(reg.list()[0].state, SessionState::Dormant);
        assert!(matches!(reg.live("alpha"), Err(RegistryError::NotLive(_))));
        // Idempotent eviction.
        reg.evict("alpha").expect("evict twice");

        reg.restore("alpha").expect("restore");
        assert!(reg.list()[0].is_live());
        reg.live("alpha").expect("live again");
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn capacity_duplicates_and_names_are_enforced() {
        let spool = tmp_spool("caps");
        let reg = Registry::new(spool.clone(), 1, 1);
        reg.create("only", sources()).expect("create");
        assert!(matches!(
            reg.create("only", sources()),
            Err(RegistryError::Duplicate(_))
        ));
        assert!(matches!(
            reg.create("more", sources()),
            Err(RegistryError::Full { max: 1 })
        ));
        assert!(matches!(
            reg.create("../escape", sources()),
            Err(RegistryError::BadName(_))
        ));
        assert!(matches!(reg.live("ghost"), Err(RegistryError::NotFound(_))));
        reg.remove("only").expect("remove");
        assert!(reg.list().is_empty());
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn persist_all_spools_every_live_session() {
        let spool = tmp_spool("persist");
        let reg = Registry::new(spool.clone(), 2, 4);
        reg.create("a", sources()).expect("create");
        reg.create("b", sources()).expect("create");
        let results = reg.persist_all();
        assert_eq!(results.len(), 2);
        for (name, outcome) in &results {
            let path = outcome.as_ref().expect("persisted");
            assert!(path.exists(), "{name} checkpoint written");
        }
        assert!(reg.list().iter().all(|row| !row.is_live()));
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn shutdown_flag_and_request_counter() {
        let reg = Registry::new(PathBuf::from("unused"), 1, 1);
        assert!(!reg.is_shutting_down());
        reg.count_request();
        reg.count_request();
        assert_eq!(reg.requests_served(), 2);
        reg.request_shutdown();
        assert!(reg.is_shutting_down());
    }

    #[test]
    fn admission_budget_sheds_and_releases() {
        let reg = Registry::new(PathBuf::from("unused"), 1, 1).with_admission(2);
        let g1 = reg.try_admit().expect("first");
        let _g2 = reg.try_admit().expect("second");
        assert_eq!(reg.inflight(), 2);
        assert!(matches!(
            reg.try_admit(),
            Err(RegistryError::Overloaded { max: 2 })
        ));
        drop(g1);
        assert_eq!(reg.inflight(), 1);
        reg.try_admit().expect("slot freed");
    }

    #[test]
    fn crash_recovers_from_journal_before_any_checkpoint() {
        let spool = tmp_spool("crash-journal");
        let reg = Registry::new(spool.clone(), 2, 4);
        reg.create("s", sources()).expect("create");
        reg.apply_edits("s", &[repower("u1", 2.0), repower("u0", 3.0)])
            .expect("edits");
        let err = reg
            .with_live("s", |_s| panic!("injected test panic"))
            .expect_err("panic surfaces as Crashed");
        match err {
            RegistryError::Crashed {
                recovered, panic, ..
            } => {
                assert!(recovered, "single crash auto-restores");
                assert!(panic.contains("injected test panic"));
            }
            other => panic!("expected Crashed, got {other:?}"),
        }
        assert_eq!(reg.crashes_total(), 1);
        assert_eq!(reg.recoveries_total(), 1);
        assert!(reg.list()[0].is_live());
        assert_eq!(reg.list()[0].recoveries, 1);

        // The recovered session replays the journal and converges to the
        // same bits as an uninterrupted session.
        let bits = reg
            .with_live("s", |s| {
                s.update_timing(&RunBudget::unbounded()).expect("update");
                s.report(1).wns_ps.to_bits()
            })
            .expect("recovered session serves");
        let mut oracle = Session::create("oracle", sources(), 2).expect("oracle");
        oracle.apply_edit(&repower("u1", 2.0)).expect("edit");
        oracle.apply_edit(&repower("u0", 3.0)).expect("edit");
        oracle
            .update_timing(&RunBudget::unbounded())
            .expect("update");
        assert_eq!(bits, oracle.report(1).wns_ps.to_bits());
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn crash_recovers_from_checkpoint_plus_journal() {
        let spool = tmp_spool("crash-ckpt");
        let reg = Registry::new(spool.clone(), 2, 4);
        reg.create("s", sources()).expect("create");
        reg.apply_edits("s", &[repower("u1", 2.0)]).expect("edit");
        reg.with_live("s", |s| {
            s.update_timing(&RunBudget::unbounded()).expect("update")
        })
        .expect("update");
        assert_eq!(reg.checkpoint_all(), 1, "dirty session checkpoints");
        assert_eq!(reg.checkpoint_all(), 0, "clean session skipped");

        // Post-checkpoint edit lands in the journal, then the crash.
        reg.apply_edits("s", &[repower("u0", 0.5)]).expect("edit");
        let err = reg
            .with_live("s", |_s| panic!("boom after checkpoint"))
            .expect_err("crash");
        assert!(matches!(
            err,
            RegistryError::Crashed {
                recovered: true,
                ..
            }
        ));

        let bits = reg
            .with_live("s", |s| {
                s.update_timing(&RunBudget::unbounded()).expect("update");
                s.report(1).wns_ps.to_bits()
            })
            .expect("serves after heal");
        let mut oracle = Session::create("oracle", sources(), 2).expect("oracle");
        oracle.apply_edit(&repower("u1", 2.0)).expect("edit");
        oracle
            .update_timing(&RunBudget::unbounded())
            .expect("update");
        oracle.apply_edit(&repower("u0", 0.5)).expect("edit");
        oracle
            .update_timing(&RunBudget::unbounded())
            .expect("update");
        assert_eq!(bits, oracle.report(1).wns_ps.to_bits());
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn repeated_crashes_quarantine_and_restore_heals() {
        let spool = tmp_spool("quarantine");
        let reg = Registry::new(spool.clone(), 2, 4).with_crash_policy(Duration::from_secs(600), 2);
        reg.create("s", sources()).expect("create");
        reg.apply_edits("s", &[repower("u1", 2.0)]).expect("edit");

        let first = reg
            .with_live("s", |_s| panic!("crash 1"))
            .expect_err("crash 1");
        assert!(matches!(
            first,
            RegistryError::Crashed {
                recovered: true,
                ..
            }
        ));
        let second = reg
            .with_live("s", |_s| panic!("crash 2"))
            .expect_err("crash 2");
        assert!(matches!(
            second,
            RegistryError::Quarantined { crashes: 2, .. }
        ));
        assert_eq!(reg.list()[0].state, SessionState::Quarantined);
        assert!(matches!(
            reg.with_live("s", |_s| ()),
            Err(RegistryError::Quarantined { .. })
        ));
        assert!(matches!(
            reg.evict("s"),
            Err(RegistryError::Quarantined { .. })
        ));

        // Explicit restore heals the quarantined slot and clears its
        // crash history.
        reg.restore("s").expect("heal");
        assert!(reg.list()[0].is_live());
        let bits = reg
            .with_live("s", |s| {
                s.update_timing(&RunBudget::unbounded()).expect("update");
                s.report(1).wns_ps.to_bits()
            })
            .expect("healed session serves");
        let mut oracle = Session::create("oracle", sources(), 2).expect("oracle");
        oracle.apply_edit(&repower("u1", 2.0)).expect("edit");
        oracle
            .update_timing(&RunBudget::unbounded())
            .expect("update");
        assert_eq!(bits, oracle.report(1).wns_ps.to_bits());
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn targeted_chaos_fires_once_and_heals() {
        let spool = tmp_spool("chaos");
        let chaos = ChaosConfig {
            targeted: vec![("s".to_string(), 1, 0, FaultKind::Panic)],
            ..ChaosConfig::default()
        };
        let reg = Registry::new(spool.clone(), 2, 4).with_chaos(chaos);
        reg.create("s", sources()).expect("create");
        reg.apply_edits("s", &[repower("u1", 2.0)]).expect("edit");
        reg.with_live("s", |s| {
            s.update_timing(&RunBudget::unbounded()).expect("update 0")
        })
        .expect("update 0 clean");

        // Update index 1 at attempt 0 panics mid-operation.
        reg.apply_edits("s", &[repower("u0", 3.0)]).expect("edit");
        let err = reg
            .with_live("s", |s| {
                let _ = s.update_timing(&RunBudget::unbounded());
            })
            .expect_err("chaos fires");
        match &err {
            RegistryError::Crashed {
                recovered, panic, ..
            } => {
                assert!(recovered);
                assert!(panic.contains("injected chaos"), "{panic}");
            }
            other => panic!("expected Crashed, got {other:?}"),
        }

        // The recovered session runs at attempt 1: the same key no
        // longer fires, the retry completes, bits match the oracle.
        let bits = reg
            .with_live("s", |s| {
                s.update_timing(&RunBudget::unbounded()).expect("retry");
                s.report(1).wns_ps.to_bits()
            })
            .expect("heals");
        let mut oracle = Session::create("oracle", sources(), 2).expect("oracle");
        for e in [repower("u1", 2.0), repower("u0", 3.0)] {
            oracle.apply_edit(&e).expect("edit");
            oracle
                .update_timing(&RunBudget::unbounded())
                .expect("update");
        }
        assert_eq!(bits, oracle.report(1).wns_ps.to_bits());
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn rejected_edit_reports_index_and_keeps_prefix() {
        let spool = tmp_spool("reject");
        let reg = Registry::new(spool.clone(), 2, 4);
        reg.create("s", sources()).expect("create");
        let receipt = reg
            .apply_edits("s", &[repower("u1", 2.0), repower("ghost", 1.0)])
            .expect("registry-level ok");
        assert_eq!(receipt.applied, 1);
        assert!(receipt.pending);
        let (idx, err) = receipt.rejected.expect("second edit rejected");
        assert_eq!(idx, 1);
        assert!(matches!(err, SessionError::BadEdit(_)));
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn registry_stays_responsive_while_one_session_is_busy() {
        let spool = tmp_spool("responsive");
        let reg = Arc::new(Registry::new(spool.clone(), 2, 4));
        reg.create("busy", sources()).expect("create");
        reg.create("calm", sources()).expect("create");

        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let busy_reg = reg.clone();
        let busy = std::thread::spawn(move || {
            busy_reg
                .with_live("busy", move |_s| {
                    started_tx.send(()).expect("signal");
                    release_rx.recv().expect("release");
                })
                .expect("busy op");
        });
        started_rx.recv().expect("busy op started");

        // With `busy`'s session mutex held, unrelated registry paths —
        // lookup, listing, another session's op — must not block.
        reg.list();
        reg.live("calm").expect("lookup");
        reg.with_live("calm", |s| s.report(1))
            .expect("other session");

        release_tx.send(()).expect("release busy");
        busy.join().expect("join");
        std::fs::remove_dir_all(&spool).ok();
    }
}
