//! Device sanitizer: shadow-memory instrumentation for the simulated GPU.
//!
//! A sanitized [`Device`] (see [`Device::sanitized`]) attaches a shadow word
//! to every element of buffers allocated through the device's named helpers
//! (`buf_zeroed` / `buf_uninit` / `buf_from_slice` / ...). Each kernel launch
//! opens a fresh *epoch*; every buffer access records an `(epoch, gid)` tag
//! in the shadow and cross-checks it against the tags left by other logical
//! threads of the same launch. This is a software analogue of CUDA's
//! `compute-sanitizer` tool suite:
//!
//! - **racecheck** — a plain `store` or `load` that touches a word another
//!   gid of the same launch stored to (or read-modify-wrote) is a data race:
//!   nothing orders the two logical threads within a launch. Atomic-vs-atomic
//!   access is *never* flagged — racing `atomicAdd`s are well-defined (that
//!   is the whole point of Algorithm 1), merely order-sensitive.
//! - **initcheck** — reading a word of a [`Device::buf_uninit`] allocation
//!   that no one has written since allocation is flagged. Buffers created
//!   zeroed or from a host slice are born initialised.
//! - **boundscheck** — sanitized buffers panic with a named diagnostic
//!   (buffer, index, length) instead of a bare slice panic, and the
//!   checked-view API ([`AtomicBuf::checked`](crate::AtomicBuf::checked))
//!   returns [`BoundsError`] instead of panicking.
//! - **determinism audit** — [`audit_determinism`] re-runs a computation
//!   under perturbed interleavings (worker counts × [`Schedule`]s × repeats),
//!   diffs the outputs, and classifies the computation as
//!   [`Verdict::Deterministic`], [`Verdict::AtomicOrderSensitive`] or
//!   [`Verdict::Racy`].
//!
//! Instrumentation is strictly opt-in: buffers built with the plain
//! [`AtomicBuf`](crate::AtomicBuf) constructors carry no shadow, and every
//! access on them pays only one predictable `Option` null-check.

use gpasta_check::sync::{AtomicU32, AtomicU64, Ordering, StaticAtomicU64};
use std::cell::Cell;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::Device;

/// The gid recorded for host-side accesses (outside any kernel launch).
pub const HOST_GID: u32 = u32::MAX;

/// Cap on distinct violation records kept per sanitizer; further *distinct*
/// violations only bump [`SanitizerReport::dropped`]. Repeats of an already
/// recorded violation bump its [`Violation::count`] instead.
const MAX_RECORDED: usize = 256;

// Which launch epoch and logical thread the current OS thread is executing.
// Epoch 0 with HOST_GID means "host code, outside any launch".
thread_local! {
    static CTX: Cell<(u64, u32)> = const { Cell::new((0, HOST_GID)) };
}

/// Launch epochs are drawn from a process-global counter so tags from two
/// sanitized devices can never collide on the same epoch number.
static GLOBAL_EPOCH: StaticAtomicU64 = StaticAtomicU64::new(0);

pub(crate) fn set_ctx(epoch: u64, gid: u32) {
    CTX.with(|c| c.set((epoch, gid)));
}

/// Reset the calling thread to host context. The inline launch fast path
/// runs kernels on the calling (host) thread, so it must clear the context
/// afterwards or host code would be mis-attributed to the last gid.
pub(crate) fn clear_ctx() {
    CTX.with(|c| c.set((0, HOST_GID)));
}

fn ctx() -> (u64, u32) {
    CTX.with(|c| c.get())
}

/// Pack an access tag. Tag `0` means "never accessed": host tags have epoch
/// 0 but gid [`HOST_GID`], and device tags have epoch >= 1, so no real
/// access produces tag `0`.
fn tag_of(epoch: u64, gid: u32) -> u64 {
    (epoch << 32) | u64::from(gid)
}

fn tag_epoch(tag: u64) -> u64 {
    tag >> 32
}

fn tag_gid(tag: u64) -> u32 {
    tag as u32
}

/// How a launch iterates gids — the interleaving perturbation knob used by
/// [`audit_determinism`]. On real hardware block scheduling order is
/// arbitrary; varying the schedule here makes order-dependence observable
/// even on a single worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Ascending gid order (the default, matching the seed behaviour).
    #[default]
    Forward,
    /// Descending gid order; flips the winner of every atomic race even in
    /// fully sequential execution.
    Reverse,
    /// Even gids first, then odd gids, within each scheduled chunk.
    Interleaved,
}

impl Schedule {
    /// All schedules, in the order the audit tries them.
    pub const ALL: [Schedule; 3] = [Schedule::Forward, Schedule::Reverse, Schedule::Interleaved];
}

/// What a recorded violation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two plain stores to one word from different gids of one launch.
    StoreStoreRace,
    /// A plain store and a plain load of one word from different gids of
    /// one launch.
    StoreLoadRace,
    /// An atomic RMW and a plain access to one word from different gids of
    /// one launch.
    AtomicPlainRace,
    /// A read of a word never written since `buf_uninit` allocation.
    UninitRead,
    /// An out-of-bounds access caught by boundscheck.
    OutOfBounds,
}

impl ViolationKind {
    /// Whether this kind is a data race (racecheck family).
    pub fn is_race(self) -> bool {
        matches!(
            self,
            ViolationKind::StoreStoreRace
                | ViolationKind::StoreLoadRace
                | ViolationKind::AtomicPlainRace
        )
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::StoreStoreRace => "store/store race",
            ViolationKind::StoreLoadRace => "store/load race",
            ViolationKind::AtomicPlainRace => "atomic/plain race",
            ViolationKind::UninitRead => "uninitialised read",
            ViolationKind::OutOfBounds => "out-of-bounds access",
        };
        f.write_str(s)
    }
}

/// One sanitizer finding: what happened, where, and which logical threads
/// were involved.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What kind of violation this is.
    pub kind: ViolationKind,
    /// Name of the buffer (as given to the `Device::buf_*` helper).
    pub buffer: String,
    /// Word index within the buffer.
    pub index: usize,
    /// The two gids involved: `(previously recorded, current)`. For
    /// single-thread findings (uninit read, bounds) both are the offender.
    /// [`HOST_GID`] marks host-side accesses.
    pub gids: (u32, u32),
    /// The launch epoch the violation was observed in (0 = host context).
    pub epoch: u64,
    /// How many times this exact `(kind, buffer, index)` was observed.
    pub count: u64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on `{}`[{}] (gids {} vs {}, epoch {}, seen {}x)",
            self.kind, self.buffer, self.index, self.gids.0, self.gids.1, self.epoch, self.count
        )
    }
}

/// An out-of-bounds access reported by the checked-view API instead of a
/// panic: carries the buffer name and extent so the kernel author sees
/// *which* device allocation overflowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundsError {
    /// Name of the buffer, or `"<unnamed>"` for plain allocations.
    pub buffer: String,
    /// The offending index.
    pub index: usize,
    /// The buffer length.
    pub len: usize,
}

impl fmt::Display for BoundsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out-of-bounds access on `{}`: index {} but len {}",
            self.buffer, self.index, self.len
        )
    }
}

impl std::error::Error for BoundsError {}

/// Per-device sanitizer state shared by the [`Device`] and every shadow it
/// hands out.
#[derive(Debug, Default)]
pub(crate) struct SanitizerCore {
    launches: AtomicU64,
    violations: Mutex<Vec<Violation>>,
    dropped: AtomicU64,
}

impl SanitizerCore {
    pub(crate) fn new() -> Self {
        SanitizerCore::default()
    }

    /// Open a new launch epoch; returns the (globally unique) epoch id.
    pub(crate) fn begin_launch(&self) -> u64 {
        self.launches.fetch_add(1, Ordering::Relaxed);
        GLOBAL_EPOCH.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn record(
        &self,
        kind: ViolationKind,
        buffer: &str,
        index: usize,
        gids: (u32, u32),
        epoch: u64,
    ) {
        let mut v = self.violations.lock().expect("sanitizer mutex poisoned");
        if let Some(existing) = v
            .iter_mut()
            .find(|x| x.kind == kind && x.index == index && x.buffer == buffer)
        {
            existing.count += 1;
            return;
        }
        if v.len() >= MAX_RECORDED {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        v.push(Violation {
            kind,
            buffer: buffer.to_string(),
            index,
            gids,
            epoch,
            count: 1,
        });
    }

    pub(crate) fn report(&self) -> SanitizerReport {
        SanitizerReport {
            launches: self.launches.load(Ordering::Relaxed),
            violations: self
                .violations
                .lock()
                .expect("sanitizer mutex poisoned")
                .clone(),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of everything a sanitized device observed so far.
#[derive(Debug, Clone, Default)]
pub struct SanitizerReport {
    /// Number of kernel launches instrumented.
    pub launches: u64,
    /// Distinct violations, each with an occurrence count.
    pub violations: Vec<Violation>,
    /// Distinct violations discarded after the record cap was hit.
    pub dropped: u64,
}

impl SanitizerReport {
    /// Whether no violation of any kind was observed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.dropped == 0
    }

    /// The recorded data races (racecheck findings).
    pub fn races(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| v.kind.is_race())
    }

    /// Number of distinct race records.
    pub fn race_count(&self) -> usize {
        self.races().count()
    }

    /// Number of distinct uninitialised-read records.
    pub fn uninit_count(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.kind == ViolationKind::UninitRead)
            .count()
    }

    /// Number of distinct out-of-bounds records.
    pub fn bounds_count(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.kind == ViolationKind::OutOfBounds)
            .count()
    }

    /// Fold another report into this one (used by the audit to merge the
    /// per-run reports).
    pub fn merge(&mut self, other: &SanitizerReport) {
        self.launches += other.launches;
        self.dropped += other.dropped;
        for v in &other.violations {
            if let Some(existing) = self
                .violations
                .iter_mut()
                .find(|x| x.kind == v.kind && x.index == v.index && x.buffer == v.buffer)
            {
                existing.count += v.count;
            } else if self.violations.len() >= MAX_RECORDED {
                self.dropped += 1;
            } else {
                self.violations.push(v.clone());
            }
        }
    }
}

impl fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sanitizer: {} launch(es), {} race(s), {} uninit read(s), {} bounds error(s)",
            self.launches,
            self.race_count(),
            self.uninit_count(),
            self.bounds_count()
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        if self.dropped > 0 {
            writeln!(
                f,
                "  ... and {} distinct violation(s) dropped (cap {})",
                self.dropped, MAX_RECORDED
            )?;
        }
        Ok(())
    }
}

/// Shadow memory for one buffer: one [`ShadowWord`] per element plus the
/// buffer's identity and init policy.
#[derive(Debug)]
pub(crate) struct Shadow {
    name: String,
    core: Arc<SanitizerCore>,
    words: Box<[ShadowWord]>,
    /// Buffers born zeroed / from a host slice are initialised at birth;
    /// `buf_uninit` allocations are not (initcheck applies).
    pre_initialized: bool,
}

/// Per-word shadow state: the last plain-store, plain-load and atomic-RMW
/// access tags, plus an init flag.
#[derive(Debug, Default)]
struct ShadowWord {
    writer: AtomicU64,
    reader: AtomicU64,
    rmw: AtomicU64,
    init: AtomicU32,
}

impl Shadow {
    pub(crate) fn new(
        name: &str,
        core: Arc<SanitizerCore>,
        len: usize,
        pre_initialized: bool,
    ) -> Self {
        Shadow {
            name: name.to_string(),
            core,
            words: (0..len).map(|_| ShadowWord::default()).collect(),
            pre_initialized,
        }
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Bounds-check `i` for an unchecked access: record the violation and
    /// panic with a named diagnostic (the sanitized replacement for the
    /// bare slice panic).
    fn word(&self, i: usize, op: &str) -> &ShadowWord {
        if i >= self.words.len() {
            let (epoch, gid) = ctx();
            self.core
                .record(ViolationKind::OutOfBounds, &self.name, i, (gid, gid), epoch);
            panic!(
                "gpasta-gpu sanitizer: out-of-bounds {op} on `{}`: index {i} but len {}",
                self.name,
                self.words.len()
            );
        }
        &self.words[i]
    }

    /// Record an out-of-bounds finding without panicking (checked-view API).
    pub(crate) fn record_out_of_bounds(&self, i: usize) {
        let (epoch, gid) = ctx();
        self.core
            .record(ViolationKind::OutOfBounds, &self.name, i, (gid, gid), epoch);
    }

    /// Instrument a plain store to word `i`.
    pub(crate) fn on_store(&self, i: usize) {
        let (epoch, gid) = ctx();
        let w = self.word(i, "store");
        let prev_writer = w.writer.swap(tag_of(epoch, gid), Ordering::Relaxed);
        if epoch != 0 {
            self.check_conflict(ViolationKind::StoreStoreRace, prev_writer, i, epoch, gid);
            let reader = w.reader.load(Ordering::Relaxed);
            self.check_conflict(ViolationKind::StoreLoadRace, reader, i, epoch, gid);
            let rmw = w.rmw.load(Ordering::Relaxed);
            self.check_conflict(ViolationKind::AtomicPlainRace, rmw, i, epoch, gid);
        }
        w.init.store(1, Ordering::Relaxed);
    }

    /// Instrument a plain load of word `i`.
    pub(crate) fn on_load(&self, i: usize) {
        let (epoch, gid) = ctx();
        let w = self.word(i, "load");
        if epoch != 0 {
            if !self.pre_initialized && w.init.load(Ordering::Relaxed) == 0 {
                self.core
                    .record(ViolationKind::UninitRead, &self.name, i, (gid, gid), epoch);
            }
            let writer = w.writer.load(Ordering::Relaxed);
            self.check_conflict(ViolationKind::StoreLoadRace, writer, i, epoch, gid);
            let rmw = w.rmw.load(Ordering::Relaxed);
            self.check_conflict(ViolationKind::AtomicPlainRace, rmw, i, epoch, gid);
        }
        w.reader.store(tag_of(epoch, gid), Ordering::Relaxed);
    }

    /// Instrument an atomic read-modify-write (add/sub/max/CAS) of word `i`.
    /// RMW-vs-RMW is never a race; RMW reads, so initcheck applies.
    pub(crate) fn on_rmw(&self, i: usize) {
        let (epoch, gid) = ctx();
        let w = self.word(i, "atomic RMW");
        if epoch != 0 {
            if !self.pre_initialized && w.init.load(Ordering::Relaxed) == 0 {
                self.core
                    .record(ViolationKind::UninitRead, &self.name, i, (gid, gid), epoch);
            }
            let writer = w.writer.load(Ordering::Relaxed);
            self.check_conflict(ViolationKind::AtomicPlainRace, writer, i, epoch, gid);
            let reader = w.reader.load(Ordering::Relaxed);
            self.check_conflict(ViolationKind::AtomicPlainRace, reader, i, epoch, gid);
        }
        w.rmw.store(tag_of(epoch, gid), Ordering::Relaxed);
        w.init.store(1, Ordering::Relaxed);
    }

    /// Mark the first `n` words initialised (host memset / H2D copy).
    pub(crate) fn mark_initialized(&self, n: usize) {
        for w in self.words.iter().take(n) {
            w.init.store(1, Ordering::Relaxed);
        }
    }

    /// A recorded tag conflicts if it is from the *same* launch epoch but a
    /// *different* gid — nothing orders two logical threads of one launch.
    fn check_conflict(&self, kind: ViolationKind, tag: u64, i: usize, epoch: u64, gid: u32) {
        if tag != 0 && tag_epoch(tag) == epoch && tag_gid(tag) != gid {
            self.core
                .record(kind, &self.name, i, (tag_gid(tag), gid), epoch);
        }
    }
}

/// Classification produced by [`audit_determinism`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Identical outputs under every perturbation and no races: safe.
    Deterministic,
    /// No data races, but outputs depend on atomic execution order — the
    /// signature of Algorithm 1's `atomicAdd` partition allocation.
    AtomicOrderSensitive,
    /// The sanitizer observed at least one data race.
    Racy,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Verdict::Deterministic => "Deterministic",
            Verdict::AtomicOrderSensitive => "AtomicOrderSensitive",
            Verdict::Racy => "Racy",
        };
        f.write_str(s)
    }
}

/// Everything [`audit_determinism`] learned about a computation.
#[derive(Debug, Clone)]
pub struct AuditOutcome {
    /// The overall classification.
    pub verdict: Verdict,
    /// Total runs executed (workers × schedules × repeats).
    pub runs: usize,
    /// Number of distinct outputs observed across all runs.
    pub distinct_outputs: usize,
    /// Sanitizer findings merged across every run.
    pub report: SanitizerReport,
}

impl fmt::Display for AuditOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "audit: {} ({} runs, {} distinct output(s))",
            self.verdict, self.runs, self.distinct_outputs
        )?;
        write!(f, "{}", self.report)
    }
}

/// Re-run `run` under perturbed interleavings and classify the result.
///
/// For every worker count in `workers`, every [`Schedule`], and
/// `repeats` repetitions, a fresh sanitized [`Device`] is built and handed
/// to `run`, which must execute the computation under audit on that device
/// and return its output. The outcomes:
///
/// - any data race recorded in any run → [`Verdict::Racy`];
/// - more than one distinct output → [`Verdict::AtomicOrderSensitive`];
/// - otherwise → [`Verdict::Deterministic`].
///
/// The [`Schedule::Reverse`] pass is what makes atomic-order sensitivity
/// observable even at one worker, where OS-level interleaving noise is
/// absent.
pub fn audit_determinism<F>(workers: &[usize], repeats: usize, mut run: F) -> AuditOutcome
where
    F: FnMut(&Device) -> Vec<u32>,
{
    assert!(!workers.is_empty(), "audit needs at least one worker count");
    assert!(repeats > 0, "audit needs at least one repetition");
    let mut outputs: Vec<Vec<u32>> = Vec::new();
    let mut report = SanitizerReport::default();
    let mut runs = 0;
    for &w in workers {
        for sched in Schedule::ALL {
            for _ in 0..repeats {
                let dev = Device::sanitized(w).with_schedule(sched);
                let out = run(&dev);
                report.merge(
                    &dev.sanitizer_report()
                        .expect("sanitized device has a report"),
                );
                if !outputs.contains(&out) {
                    outputs.push(out);
                }
                runs += 1;
            }
        }
    }
    let verdict = if report.race_count() > 0 {
        Verdict::Racy
    } else if outputs.len() > 1 {
        Verdict::AtomicOrderSensitive
    } else {
        Verdict::Deterministic
    };
    AuditOutcome {
        verdict,
        runs,
        distinct_outputs: outputs.len(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip() {
        let t = tag_of(7, 42);
        assert_eq!(tag_epoch(t), 7);
        assert_eq!(tag_gid(t), 42);
        assert_ne!(
            tag_of(0, HOST_GID),
            0,
            "host tag must differ from never-accessed"
        );
    }

    #[test]
    fn record_dedups_and_caps() {
        let core = SanitizerCore::new();
        core.record(ViolationKind::UninitRead, "b", 3, (1, 1), 9);
        core.record(ViolationKind::UninitRead, "b", 3, (2, 2), 9);
        let rep = core.report();
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].count, 2);
        for i in 0..2 * MAX_RECORDED {
            core.record(ViolationKind::UninitRead, "b", 100 + i, (1, 1), 9);
        }
        let rep = core.report();
        assert_eq!(rep.violations.len(), MAX_RECORDED);
        assert!(rep.dropped > 0);
        assert!(!rep.is_clean());
    }

    #[test]
    fn merge_combines_reports() {
        let a = SanitizerCore::new();
        a.begin_launch();
        a.record(ViolationKind::StoreStoreRace, "x", 0, (1, 2), 1);
        let b = SanitizerCore::new();
        b.begin_launch();
        b.record(ViolationKind::StoreStoreRace, "x", 0, (3, 4), 2);
        b.record(ViolationKind::UninitRead, "y", 5, (0, 0), 2);
        let mut m = a.report();
        m.merge(&b.report());
        assert_eq!(m.launches, 2);
        assert_eq!(m.race_count(), 1);
        assert_eq!(
            m.violations.iter().find(|v| v.buffer == "x").unwrap().count,
            2
        );
        assert_eq!(m.uninit_count(), 1);
    }

    #[test]
    fn verdict_and_violation_display() {
        assert_eq!(Verdict::Racy.to_string(), "Racy");
        assert_eq!(
            Verdict::AtomicOrderSensitive.to_string(),
            "AtomicOrderSensitive"
        );
        let v = Violation {
            kind: ViolationKind::StoreStoreRace,
            buffer: "pid".into(),
            index: 4,
            gids: (1, 2),
            epoch: 3,
            count: 5,
        };
        let s = v.to_string();
        assert!(s.contains("store/store race"), "{s}");
        assert!(s.contains("`pid`[4]"), "{s}");
        let e = BoundsError {
            buffer: "pid".into(),
            index: 9,
            len: 4,
        };
        assert!(e.to_string().contains("index 9 but len 4"));
    }

    #[test]
    fn epochs_are_globally_unique() {
        let a = SanitizerCore::new();
        let b = SanitizerCore::new();
        let e1 = a.begin_launch();
        let e2 = b.begin_launch();
        let e3 = a.begin_launch();
        assert!(e1 < e2 && e2 < e3);
    }
}
