//! Cooperative cancellation for long-running graph operations.
//!
//! A [`CancelToken`] is a shared generation counter: every call to
//! [`CancelToken::cancel`] bumps the generation, and an observer created
//! *before* the bump reports cancelled afterwards. Workers poll at unit
//! boundaries (a partition dispatch, a wavefront level), so
//! cancellation is prompt — bounded by one dispatch unit — but costs a
//! single relaxed-ish atomic load per poll.
//!
//! The generation scheme (rather than a latching `AtomicBool`) lets one
//! token be reused across runs: each run snapshots the generation at start
//! via [`CancelToken::observe`] and only reacts to cancellations issued
//! *during* that run, so a cancel aimed at run *k* can never leak into run
//! *k + 1*.

use gpasta_check::sync::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cloneable cancellation handle backed by a shared atomic generation
/// counter. Cloning is cheap (an `Arc` bump) and every clone addresses the
/// same counter.
///
/// # Example
///
/// ```
/// use gpasta_tdg::CancelToken;
///
/// let token = CancelToken::new();
/// let obs = token.observe();
/// assert!(!obs.is_cancelled());
/// token.cancel();
/// assert!(obs.is_cancelled());
/// // A new run starts a fresh observation: the old cancel does not leak.
/// assert!(!token.observe().is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    generation: Arc<AtomicU64>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation: every observer created before this call
    /// reports cancelled from now on.
    ///
    /// The `Release` bump pairs with the `Acquire` polls in
    /// [`CancelToken::generation`]: an observer that sees the new
    /// generation also sees everything the canceller wrote before calling
    /// `cancel` (e.g. a stop reason). The `model_check` harness below
    /// explores exactly this function at the `u64` wrap.
    pub fn cancel(&self) {
        self.generation.fetch_add(1, Ordering::Release); // hb: cancel-gen
    }

    /// The current generation (number of `cancel` calls so far).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire) // hb: cancel-gen
    }

    /// Snapshot the current generation; the returned observer reports
    /// cancelled exactly when [`CancelToken::cancel`] fires after this
    /// call.
    pub fn observe(&self) -> CancelObserver {
        CancelObserver {
            token: self.clone(),
            seen: self.generation(),
        }
    }
}

/// A run-scoped view of a [`CancelToken`]: compares the token's live
/// generation against the generation captured at [`CancelToken::observe`]
/// time.
#[derive(Debug, Clone)]
pub struct CancelObserver {
    token: CancelToken,
    seen: u64,
}

impl CancelObserver {
    /// Whether the token was cancelled since this observer was created.
    /// One atomic load; safe to poll per dispatch unit.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.token.generation() != self.seen
    }

    /// An observer that can never report cancelled (no token attached to
    /// the run). Lets bounded code paths hold a concrete observer instead
    /// of an `Option`.
    pub fn never() -> Self {
        let token = CancelToken::new();
        let seen = token.generation();
        CancelObserver { token, seen }
    }
}

/// Exhaustive model-check harness for [`CancelToken`] at the `u64` wrap
/// boundary, driving the shipped `cancel` / `observe` / `is_cancelled`.
/// Run with `RUSTFLAGS="--cfg gpasta_model_check" cargo test -p
/// gpasta-tdg --lib model_check`.
#[cfg(all(test, gpasta_model_check))]
mod model_check {
    use super::*;
    use gpasta_check::model::sync::TrackedCell;
    use gpasta_check::model::{
        assert_exhausted, check, count, explore, run_threads, HARNESS_BOUNDS,
    };

    /// One execution of the cancel-generation instance. The counter starts
    /// at `u64::MAX` so the single concurrent cancel exercises the
    /// wraparound to 0; observers compare generations by inequality,
    /// which survives the wrap (an ABA collision would need 2^64 in-flight
    /// cancels).
    fn cancel_once() {
        let token = CancelToken {
            generation: Arc::new(AtomicU64::named("generation", u64::MAX)),
        };
        let reason = TrackedCell::named("reason", 0u32);
        let run_k_saw = TrackedCell::named("run_k_saw", false);
        let (canceller, why, saw) = (token.clone(), &reason, &run_k_saw);
        let runner = token.clone();
        run_threads(vec![
            // Canceller: publish the reason, then cancel.
            Box::new(move || {
                why.write(9);
                canceller.cancel();
            }),
            // Runner: run k observes at the wrap boundary, polls twice,
            // then run k+1 starts a fresh observation.
            Box::new(move || {
                let run_k = runner.observe();
                let c1 = run_k.is_cancelled();
                let c2 = run_k.is_cancelled();
                check(!c1 || c2, "cancellation must latch per observer");
                if c2 {
                    // Delivered cancels may consume the canceller's
                    // payload.
                    check(
                        why.read() == 9,
                        "a delivered cancel must publish its reason",
                    );
                }
                saw.write(c2);
                let c3 = runner.observe().is_cancelled();
                check(
                    !(c2 && c3),
                    "a cancel consumed by run k must not re-deliver to run k+1",
                );
            }),
        ]);
        check(token.generation() == 0, "generation must wrap MAX -> 0");
        check(
            !token.observe().is_cancelled(),
            "post-run observer must start uncancelled",
        );
        count(if run_k_saw.read() {
            "run-k-saw-cancel"
        } else {
            "run-k-missed-cancel"
        });
    }

    #[test]
    fn cancel_generation_wrap_exhaustive_no_violation() {
        // Both delivery outcomes must be reached: run k seeing the cancel
        // and run k missing it (cancel lands in a later run's window).
        assert_exhausted(
            &explore(&HARNESS_BOUNDS, cancel_once),
            &["run-k-saw-cancel", "run-k-missed-cancel"],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_uncancelled() {
        let t = CancelToken::new();
        assert!(!t.observe().is_cancelled());
        assert_eq!(t.generation(), 0);
    }

    #[test]
    fn cancel_flips_existing_observers_only() {
        let t = CancelToken::new();
        let before = t.observe();
        t.cancel();
        assert!(before.is_cancelled());
        let after = t.observe();
        assert!(!after.is_cancelled(), "new runs ignore old cancels");
        t.cancel();
        assert!(after.is_cancelled());
    }

    #[test]
    fn clones_share_the_counter() {
        let t = CancelToken::new();
        let obs = t.observe();
        let clone = t.clone();
        clone.cancel();
        assert!(obs.is_cancelled());
        assert_eq!(t.generation(), 1);
    }

    #[test]
    fn never_observer_stays_false() {
        let obs = CancelObserver::never();
        assert!(!obs.is_cancelled());
    }

    #[test]
    fn generation_wraps_at_u64_max_without_sticking() {
        // Regression: `is_cancelled` must compare generations for
        // *inequality*, not order — after 2^64 cancels the counter wraps
        // and any `>`-based comparison would make observers permanently
        // uncancellable (or permanently cancelled).
        let t = CancelToken {
            generation: Arc::new(AtomicU64::new(u64::MAX)),
        };
        let obs = t.observe();
        assert_eq!(t.generation(), u64::MAX);
        assert!(!obs.is_cancelled());

        t.cancel(); // wraps MAX -> 0
        assert_eq!(t.generation(), 0);
        assert!(obs.is_cancelled(), "wraparound cancel must still register");

        // A fresh run snapshots the wrapped generation and is clean again:
        // the cancel aimed at the old run does not leak through the wrap.
        let next = t.observe();
        assert!(!next.is_cancelled());
        t.cancel();
        assert!(next.is_cancelled());
    }

    #[test]
    fn cancellation_is_visible_across_threads() {
        let t = CancelToken::new();
        let obs = t.observe();
        std::thread::scope(|s| {
            let t2 = t.clone();
            s.spawn(move || t2.cancel());
        });
        assert!(obs.is_cancelled());
    }
}
