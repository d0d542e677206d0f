//! The bounded model-check harness with no production step of its own:
//! poison publication, stated as a small instance (2 threads, 4 units)
//! and explored to exhaustion by [`crate::model`].
//!
//! | harness | protocol (production site) | property |
//! |---|---|---|
//! | [`poison_publication`] | Release-before-decrement poison publication (`gpasta-sched::bounded::run_stealing_bounded`) | poisoned set = exact forward closure of the failed unit; a poisoned unit never runs its payload |
//!
//! Every other protocol is explored through the function that ships, by a
//! `#[cfg(all(test, gpasta_model_check))] mod model_check` beside it (see
//! the crate docs and DESIGN.md §11). Poison publication is inline in the
//! worker loop, so this instance restates it; the `hb:` tags on its
//! ordering sites mirror the production tags.
//!
//! # Mutation gate
//!
//! [`Mutation::PoisonDecrementRelaxed`] (available only under
//! `cfg(test)`) downgrades the dependency decrement from `AcqRel` to
//! `Relaxed`, severing the release half of the handoff edge; a test
//! asserts the explorer produces a replayable counterexample for it.

use crate::model::sync::{AtomicBool, AtomicU32, TrackedCell};
use crate::model::{check, count, explore, run_threads, Bounds, Report};
use crate::sync::Ordering;

/// Seeded ordering weakenings for the mutation gate. The weakened
/// variant exists only under `cfg(test)`, so no non-test caller can
/// request it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The shipped protocol orderings.
    None,
    /// Downgrade the dependency-decrement `fetch_sub` in poison
    /// publication from `AcqRel` to `Relaxed`. This severs the release
    /// half of the `hb: dep-handoff` edge: the worker that performs the
    /// *last* decrement no longer observes the failed parent's
    /// `Release`-published poison flag, so a poisoned unit can run.
    #[cfg(test)]
    PoisonDecrementRelaxed,
}

// ---------------------------------------------------------------------------
// Poison publication
// ---------------------------------------------------------------------------

/// Bounded instance: units `0 → 2 ← 1`, `1 → 3`; unit 0 fails its payload.
/// The forward closure of 0 is exactly `{2}`: unit 2 must be poisoned and
/// skipped, units 1 and 3 must run normally.
struct PoisonInstance {
    poisoned: [AtomicBool; 4],
    dep2: AtomicU32,
    dep3: AtomicU32,
    result: [TrackedCell<u32>; 4],
    /// Which worker performed the final handoff to unit 2.
    unit2_runner: TrackedCell<u32>,
    dep_sub_ord: Ordering,
}

fn poison_succ(unit: usize) -> &'static [usize] {
    match unit {
        0 => &[2],
        1 => &[2, 3],
        _ => &[],
    }
}

impl PoisonInstance {
    /// Mirror of the executor's per-unit step: check poison, run payload,
    /// publish poison on failure, hand off dependents.
    fn exec(&self, unit: usize, worker: u32) {
        // hb: poison-publish
        let is_poisoned = self.poisoned[unit].load(Ordering::Acquire);
        if unit == 2 {
            self.unit2_runner.write(worker);
        }
        // Unit 0's payload fails; everything else succeeds when clean.
        let ok = !is_poisoned && unit != 0;
        if ok {
            if unit == 2 {
                // A unit's payload consumes its parents' outputs.
                let _ = self.result[1].read();
            }
            self.result[unit].write(100 + unit as u32);
        } else {
            for &s in poison_succ(unit) {
                // hb: poison-publish
                self.poisoned[s].store(true, Ordering::Release);
            }
        }
        for &s in poison_succ(unit) {
            let dep = if s == 2 { &self.dep2 } else { &self.dep3 };
            // The release half of `hb: dep-handoff` is what the
            // `PoisonDecrementRelaxed` mutation severs.
            if dep.fetch_sub(1, self.dep_sub_ord) == 1 {
                self.exec(s, worker);
            }
        }
    }
}

/// One execution of the poison-publication instance (call under
/// [`explore`]/[`crate::model::replay`]).
pub fn poison_once(mutation: Mutation) {
    let dep_sub_ord = match mutation {
        #[cfg(test)]
        Mutation::PoisonDecrementRelaxed => Ordering::Relaxed,
        // hb: dep-handoff
        _ => Ordering::AcqRel,
    };
    let inst = PoisonInstance {
        poisoned: [
            AtomicBool::named("poisoned0", false),
            AtomicBool::named("poisoned1", false),
            AtomicBool::named("poisoned2", false),
            AtomicBool::named("poisoned3", false),
        ],
        dep2: AtomicU32::named("dep2", 2),
        dep3: AtomicU32::named("dep3", 1),
        result: [
            TrackedCell::named("result0", 0),
            TrackedCell::named("result1", 0),
            TrackedCell::named("result2", 0),
            TrackedCell::named("result3", 0),
        ],
        unit2_runner: TrackedCell::named("unit2_runner", u32::MAX),
        dep_sub_ord,
    };
    let r = &inst;
    run_threads(vec![
        Box::new(move || r.exec(0, 1)),
        Box::new(move || r.exec(1, 2)),
    ]);
    // Post-join (happens-after every worker op): the poison set must be
    // the exact forward closure of the failed unit.
    check(
        inst.poisoned[2].load(Ordering::Relaxed),
        "failed parent must poison its forward closure",
    );
    check(
        !inst.poisoned[1].load(Ordering::Relaxed) && !inst.poisoned[3].load(Ordering::Relaxed),
        "poison must not leak outside the forward closure",
    );
    check(
        inst.result[2].read() == 0,
        "poisoned unit must never run its payload",
    );
    check(
        inst.result[1].read() == 101 && inst.result[3].read() == 103,
        "unpoisoned units must run",
    );
    check(
        inst.dep2.load(Ordering::Relaxed) == 0 && inst.dep3.load(Ordering::Relaxed) == 0,
        "every dependency handoff must fire",
    );
    match inst.unit2_runner.read() {
        1 => count("unit2-handed-to-failing-worker"),
        2 => count("unit2-handed-to-clean-worker"),
        _ => count("unit2-never-reached"),
    }
}

/// Explore the poison-publication instance. With [`Mutation::None`] this
/// must be exhausted with zero violations; with the decrement mutation it
/// must produce a counterexample.
pub fn poison_publication(bounds: &Bounds, mutation: Mutation) -> Report {
    explore(bounds, || poison_once(mutation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{assert_caught, assert_exhausted, HARNESS_BOUNDS};

    #[test]
    fn poison_protocol_exhaustive_no_violation() {
        // Both workers must receive the final unit-2 handoff in some
        // schedule — otherwise the instance never exercised the
        // cross-thread half of the dep-handoff edge.
        assert_exhausted(
            &poison_publication(&HARNESS_BOUNDS, Mutation::None),
            &[
                "unit2-handed-to-failing-worker",
                "unit2-handed-to-clean-worker",
            ],
        );
    }

    #[test]
    fn poison_decrement_mutation_caught_with_replayable_trace() {
        assert_caught(
            poison_publication(&HARNESS_BOUNDS, Mutation::PoisonDecrementRelaxed),
            &[],
            || poison_once(Mutation::PoisonDecrementRelaxed),
        );
    }
}
