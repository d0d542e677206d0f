//! Deterministic fault injection for executor payloads.
//!
//! The harness mirrors the spirit of the device sanitizer: faults are a
//! *test oracle*, so every decision must replay exactly. A [`FaultPlan`]
//! decides whether a fault fires purely from `(task, attempt)` — never from
//! wall-clock time, thread identity, or scheduling order — so the same plan
//! produces the same fault sequence under any worker count or interleaving.
//! That keying is what makes the recovering executor's salvage set a
//! deterministic function of the plan (a property `gpasta sanitize` audits).
//!
//! [`FaultyWork`] wraps any [`TaskWork`] payload and consults a plan before
//! each attempt, translating fired faults into the failure modes the
//! recovering executor must contain: panics, transient errors (retryable),
//! delays (slow but correct), and detected wrong results (permanent).
//!
//! The plan is deliberately layer-agnostic: the executor keys it by
//! `(task, attempt)`, and the serve supervision layer reuses the same
//! schedule keyed by `(update index, recovery count)` to inject seeded
//! panics and delays into live sessions (`gpasta::serve`). Both layers
//! share the replay guarantee — a key either fires or it does not,
//! independent of threads and wall clock.

use crate::executor::TaskWork;
use crate::outcome::{RecoverableWork, TaskError};
use gpasta_check::sync::{AtomicU64, Ordering};
use gpasta_tdg::TaskId;
use std::collections::BTreeMap;
use std::time::Duration;

/// The classes of fault the harness can inject into a task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The payload panics mid-execution (models an assertion failure or an
    /// index out of bounds inside a propagation step).
    Panic,
    /// The payload fails with a retryable error and does *not* run (models
    /// a lost GPU launch or a spurious allocation failure). A later attempt
    /// may succeed if the plan does not fire again.
    Transient,
    /// The payload runs correctly but only after sleeping `micros`
    /// microseconds (models scheduling jitter; never fails).
    Delay {
        /// Sleep duration in microseconds before the payload runs.
        micros: u32,
    },
    /// The payload is detected to have produced a corrupt result (models a
    /// checksum mismatch). Permanent: retrying cannot help, so the task's
    /// partition is quarantined immediately.
    WrongResult,
}

impl std::str::FromStr for FaultKind {
    type Err = String;

    /// Parse a CLI fault-kind name. `delay` accepts an optional
    /// microsecond suffix: `delay:500`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "panic" => Ok(FaultKind::Panic),
            "transient" => Ok(FaultKind::Transient),
            "wrong_result" => Ok(FaultKind::WrongResult),
            "delay" => Ok(FaultKind::Delay { micros: 1_000 }),
            other => match other.strip_prefix("delay:") {
                Some(micros) => micros
                    .parse()
                    .map(|micros| FaultKind::Delay { micros })
                    .map_err(|e| format!("bad delay micros in `{other}`: {e}")),
                None => Err(format!(
                    "unknown fault kind `{other}`; expected panic, transient, \
                     wrong_result, delay, or delay:<micros>"
                )),
            },
        }
    }
}

/// SplitMix64 — tiny, high-quality mixer: the one hash behind every seeded
/// schedule in the workspace (fault sampling here; modifier batches, shard
/// kill points and run fingerprints in `gpasta`), so none of them pulls in
/// the `rand` stack and all keep their bits across refactors.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The hash of a seeded fault schedule at `(key, attempt)`: what
/// [`FaultPlan`]'s random rule samples per `(task, attempt)`, and what
/// places the kill point of a shard attempt in `gpasta`.
#[inline]
pub fn fault_hash(seed: u64, key: u32, attempt: u32) -> u64 {
    splitmix64(seed ^ splitmix64((u64::from(key) << 32) | u64::from(attempt)))
}

/// A deterministic injection schedule keyed by `(task, attempt)`.
///
/// Two sources compose:
///
/// * **targeted** faults registered with [`inject`](FaultPlan::inject) —
///   exact `(task, attempt)` hits for directed tests;
/// * a **seeded random rule** ([`random`](FaultPlan::random)) that fires on
///   a hash of `(seed, task, attempt)` with a given probability.
///
/// Targeted entries win over the random rule when both match. The plan
/// counts fired faults ([`fired`](FaultPlan::fired)) for reporting; the
/// counter is the only mutable state and does not influence decisions.
#[derive(Debug, Default)]
pub struct FaultPlan {
    targeted: BTreeMap<(u32, u32), FaultKind>,
    seed: u64,
    /// Fire probability of the random rule in [0, 1].
    rate: f64,
    kinds: Vec<FaultKind>,
    fired: AtomicU64,
}

impl Clone for FaultPlan {
    /// Clones the schedule; the fired counter restarts at zero (it is
    /// reporting state, not part of the deterministic decision).
    fn clone(&self) -> Self {
        FaultPlan {
            targeted: self.targeted.clone(),
            seed: self.seed,
            rate: self.rate,
            kinds: self.kinds.clone(),
            fired: AtomicU64::new(0),
        }
    }
}

impl FaultPlan {
    /// A plan that never fires. Running under it must be behaviourally
    /// identical to the non-recovering path.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan whose random rule fires with probability `rate` per attempt,
    /// choosing uniformly among `kinds`. Empty `kinds` or a non-positive
    /// `rate` yields a plan that never fires randomly.
    pub fn random(seed: u64, rate: f64, kinds: &[FaultKind]) -> Self {
        FaultPlan {
            targeted: BTreeMap::new(),
            seed,
            rate: rate.clamp(0.0, 1.0),
            kinds: kinds.to_vec(),
            fired: AtomicU64::new(0),
        }
    }

    /// Register a targeted fault: attempt `attempt` of `task` hits `kind`.
    pub fn inject(mut self, task: u32, attempt: u32, kind: FaultKind) -> Self {
        self.targeted.insert((task, attempt), kind);
        self
    }

    /// Register a batch of targeted faults (`(task, attempt, kind)`
    /// triples) — the session-supervision chaos harness builds its
    /// per-session plans from slices of these.
    pub fn with_targets(
        mut self,
        targets: impl IntoIterator<Item = (u32, u32, FaultKind)>,
    ) -> Self {
        for (task, attempt, kind) in targets {
            self.targeted.insert((task, attempt), kind);
        }
        self
    }

    /// The fault (if any) for attempt `attempt` of `task`. Pure: depends
    /// only on the plan and the key.
    #[inline]
    pub fn fault_at(&self, task: u32, attempt: u32) -> Option<FaultKind> {
        if let Some(&k) = self.targeted.get(&(task, attempt)) {
            return Some(k);
        }
        if self.kinds.is_empty() || self.rate <= 0.0 {
            return None;
        }
        let h = fault_hash(self.seed, task, attempt);
        // 53 uniform bits -> [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.rate {
            let pick = splitmix64(h) as usize % self.kinds.len();
            Some(self.kinds[pick])
        } else {
            None
        }
    }

    /// Number of faults that have fired through [`FaultyWork`] so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    fn note_fired(&self) {
        self.fired.fetch_add(1, Ordering::Relaxed);
    }
}

/// A fault-injecting adapter: wraps a [`TaskWork`] payload and consults a
/// [`FaultPlan`] before every attempt.
///
/// With [`FaultPlan::none`] this is a zero-fault pass-through, which is how
/// the `fault_recovery` bench measures the recovering path's overhead.
#[derive(Debug)]
pub struct FaultyWork<'a, W: TaskWork> {
    inner: &'a W,
    plan: &'a FaultPlan,
}

impl<'a, W: TaskWork> FaultyWork<'a, W> {
    /// Wrap `inner` so its attempts are filtered through `plan`.
    pub fn new(inner: &'a W, plan: &'a FaultPlan) -> Self {
        FaultyWork { inner, plan }
    }
}

impl<W: TaskWork> RecoverableWork for FaultyWork<'_, W> {
    fn execute(&self, task: TaskId, attempt: u32) -> Result<(), TaskError> {
        match self.plan.fault_at(task.0, attempt) {
            None => {
                self.inner.execute(task);
                Ok(())
            }
            Some(kind) => {
                self.plan.note_fired();
                match kind {
                    FaultKind::Panic => {
                        panic!("injected fault: panic in task {task} (attempt {attempt})")
                    }
                    FaultKind::Transient => Err(TaskError::Transient(format!(
                        "injected transient fault (attempt {attempt})"
                    ))),
                    FaultKind::Delay { micros } => {
                        std::thread::sleep(Duration::from_micros(u64::from(micros)));
                        self.inner.execute(task);
                        Ok(())
                    }
                    FaultKind::WrongResult => Err(TaskError::Fatal(format!(
                        "injected wrong result detected (attempt {attempt})"
                    ))),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fires() {
        let plan = FaultPlan::none();
        for t in 0..100 {
            for a in 0..4 {
                assert_eq!(plan.fault_at(t, a), None);
            }
        }
        assert_eq!(plan.fired(), 0);
    }

    #[test]
    fn targeted_faults_hit_exactly() {
        let plan =
            FaultPlan::none()
                .inject(3, 0, FaultKind::Panic)
                .inject(3, 1, FaultKind::Transient);
        assert_eq!(plan.fault_at(3, 0), Some(FaultKind::Panic));
        assert_eq!(plan.fault_at(3, 1), Some(FaultKind::Transient));
        assert_eq!(plan.fault_at(3, 2), None);
        assert_eq!(plan.fault_at(2, 0), None);
    }

    #[test]
    fn random_rule_is_deterministic_and_rate_bounded() {
        let kinds = [FaultKind::Panic, FaultKind::Transient];
        let a = FaultPlan::random(42, 0.1, &kinds);
        let b = FaultPlan::random(42, 0.1, &kinds);
        let mut hits = 0usize;
        for t in 0..10_000u32 {
            let fa = a.fault_at(t, 0);
            assert_eq!(fa, b.fault_at(t, 0), "same seed must replay exactly");
            if fa.is_some() {
                hits += 1;
            }
        }
        // 10k Bernoulli(0.1) draws: expect ~1000, allow generous slack.
        assert!((600..1400).contains(&hits), "hit rate way off: {hits}");
    }

    #[test]
    fn different_seeds_differ() {
        let kinds = [FaultKind::Transient];
        let a = FaultPlan::random(1, 0.2, &kinds);
        let b = FaultPlan::random(2, 0.2, &kinds);
        let differs = (0..1000u32).any(|t| a.fault_at(t, 0) != b.fault_at(t, 0));
        assert!(differs, "distinct seeds should produce distinct schedules");
    }

    #[test]
    fn attempts_are_independent_keys() {
        let kinds = [FaultKind::Transient];
        let plan = FaultPlan::random(7, 0.5, &kinds);
        // At 50% rate some task must fail on attempt 0 yet pass on attempt 1:
        // exactly the shape retries rely on.
        let recovers =
            (0..1000u32).any(|t| plan.fault_at(t, 0).is_some() && plan.fault_at(t, 1).is_none());
        assert!(recovers);
    }

    #[test]
    fn faulty_work_translates_kinds() {
        use gpasta_tdg::TaskId;
        let ran = AtomicU64::new(0);
        let payload = |_t: TaskId| {
            ran.fetch_add(1, Ordering::Relaxed);
        };
        let plan = FaultPlan::none()
            .inject(0, 0, FaultKind::Transient)
            .inject(1, 0, FaultKind::WrongResult)
            .inject(2, 0, FaultKind::Delay { micros: 1 });
        let work = FaultyWork::new(&payload, &plan);
        assert!(matches!(
            work.execute(TaskId(0), 0),
            Err(TaskError::Transient(_))
        ));
        assert!(matches!(
            work.execute(TaskId(1), 0),
            Err(TaskError::Fatal(_))
        ));
        assert_eq!(ran.load(Ordering::Relaxed), 0, "failed attempts skip work");
        assert!(work.execute(TaskId(2), 0).is_ok());
        assert!(work.execute(TaskId(0), 1).is_ok(), "retry clears transient");
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        assert_eq!(plan.fired(), 3);
    }

    #[test]
    fn kind_names_parse_and_reject() {
        assert_eq!("panic".parse(), Ok(FaultKind::Panic));
        assert_eq!("transient".parse(), Ok(FaultKind::Transient));
        assert_eq!("wrong_result".parse(), Ok(FaultKind::WrongResult));
        assert_eq!("delay".parse(), Ok(FaultKind::Delay { micros: 1_000 }));
        assert_eq!("delay:250".parse(), Ok(FaultKind::Delay { micros: 250 }));
        assert!("explode".parse::<FaultKind>().is_err());
        assert!("delay:lots".parse::<FaultKind>().is_err());
    }

    #[test]
    fn batch_targets_and_clone_replay_identically() {
        let plan = FaultPlan::random(9, 0.05, &[FaultKind::Transient])
            .with_targets([(1, 0, FaultKind::Panic), (2, 1, FaultKind::Transient)]);
        let copy = plan.clone();
        for t in 0..500u32 {
            for a in 0..3 {
                assert_eq!(plan.fault_at(t, a), copy.fault_at(t, a));
            }
        }
        assert_eq!(copy.fault_at(1, 0), Some(FaultKind::Panic));
        assert_eq!(copy.fired(), 0, "clone restarts the fired counter");
    }

    #[test]
    fn faulty_work_panics_on_panic_fault() {
        let payload = |_t: TaskId| {};
        let plan = FaultPlan::none().inject(5, 0, FaultKind::Panic);
        let work = FaultyWork::new(&payload, &plan);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = work.execute(TaskId(5), 0);
        }));
        assert!(caught.is_err());
    }
}
