//! Bounded model-check harnesses for the five lock-free scheduler
//! protocols, each stated as a small instance (2–3 threads, 2–4 units)
//! and explored to exhaustion by [`crate::model`].
//!
//! | harness | protocol (production site) | property |
//! |---|---|---|
//! | [`poison_publication`] | Release-before-decrement poison publication (`gpasta-sched::bounded::run_stealing_bounded`) | poisoned set = exact forward closure of the failed unit; a poisoned unit never runs its payload |
//! | [`chunked_flush`] | worker-local decrement batches, flushed before a worker steals or parks (`DecrementBatch` in `gpasta-sched::bounded::run_stealing_bounded`) | every unit is admitted exactly once, after all its predecessors; a poisoned unit never runs its payload; the run terminates |
//! | [`watchdog_claim`] | pending→stalled CAS claim (`gpasta-sched::bounded`) | a unit is claimed by at most one of worker/watchdog, and the winner's claim publishes its payload |
//! | [`cancel_generation`] | generation-counted `CancelToken` (`gpasta-tdg::cancel`), at the `u64` wrap boundary | cancellation latches per observer; a cancel consumed by run *k* never re-delivers to run *k+1* |
//! | [`slack_min`] | NaN-preserving `AtomicF32` slack-min (`gpasta-sta::atomic_f32`) | concurrent min-reduction is order-insensitive and NaN-preserving |
//!
//! The `hb:` tags on ordering sites here mirror the tags on the
//! production sites (see DESIGN.md §11), so the lint's pairing check ties
//! each production edge to the harness that covers it.
//!
//! # Mutation gate
//!
//! [`Mutation`] seeds four deliberate weakenings (available only under
//! `cfg(test)`): the poison path's dependency-decrement `AcqRel` →
//! `Relaxed` (severing the release half of the handoff edge), the same
//! downgrade on the *batched* decrement, a batch that is published only
//! after a successful steal (so a worker can park on it), and the
//! watchdog's claim-CAS success ordering `AcqRel` → `Relaxed` (severing
//! the claim's publication). Tests assert the explorer produces a
//! replayable counterexample for each — proof the checker has teeth.

use crate::model::sync::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, TrackedCell};
use crate::model::{check, count, explore, run_threads, Bounds, Report};
use crate::sync::Ordering;

/// Pinned bounds for the poison-publication harness (CI uses exactly
/// these; tests assert exhaustion under them).
pub const POISON_BOUNDS: Bounds = Bounds {
    max_schedules: 400_000,
    max_steps: 2_000,
    preemption_bound: None,
};

/// Pinned bounds for the chunked-flush harness.
pub const CHUNK_BOUNDS: Bounds = Bounds {
    max_schedules: 400_000,
    max_steps: 2_000,
    preemption_bound: None,
};

/// Pinned bounds for the watchdog-claim harness.
pub const WATCHDOG_BOUNDS: Bounds = Bounds {
    max_schedules: 400_000,
    max_steps: 2_000,
    preemption_bound: None,
};

/// Pinned bounds for the cancel-generation harness.
pub const CANCEL_BOUNDS: Bounds = Bounds {
    max_schedules: 400_000,
    max_steps: 2_000,
    preemption_bound: None,
};

/// Pinned bounds for the slack-min harness.
pub const SLACK_BOUNDS: Bounds = Bounds {
    max_schedules: 400_000,
    max_steps: 2_000,
    preemption_bound: None,
};

/// Seeded ordering weakenings for the mutation gate. The weakened
/// variants exist only under `cfg(test)`, so no non-test caller can
/// request them.
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
    /// Downgrade the watchdog's pending→stalled claim-CAS *success*
    /// ordering from `AcqRel` to `Relaxed`. The claim still wins
    /// exclusively (CAS atomicity is ordering-independent) but no longer
    /// publishes the evidence written before it, so an observer that
    /// `Acquire`-loads the STALLED state races on the evidence cell.
    #[cfg(test)]
    WatchdogClaimRelaxed,
    /// Publish a worker's decrement batch only after a steal *succeeds*
    /// instead of before the steal is attempted. A worker whose steal
    /// finds nothing then parks on its batch: the shared successor's
    /// counter never reaches zero and the run never completes.
    #[cfg(test)]
    FlushAfterSteal,
    /// Downgrade the *batched* `fetch_sub(count)` from `AcqRel` to
    /// `Relaxed`: the worker whose batch brings the counter to zero no
    /// longer acquires the other worker's `Release`-published poison, so
    /// a poisoned unit can run.
    #[cfg(test)]
    ChunkDecrementRelaxed,
}

// ---------------------------------------------------------------------------
// 1. Poison publication
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

// ---------------------------------------------------------------------------
// 2. Chunked decrement flush
// ---------------------------------------------------------------------------

/// Units a worker runs before the chunk rule publishes its batch.
const CHUNK: u32 = 2;
const CHUNK_UNITS: u32 = 4;

/// Bounded instance: sources `0`, `1`, `3` all feed the shared successor
/// `2`; unit 0 fails its payload, so unit 2 is poisoned and must be
/// admitted (exactly once, after all three predecessors) but never run.
struct ChunkInstance {
    poisoned: [AtomicBool; 4],
    /// Fan-in countdown of the shared successor (the sources have none).
    dep2: AtomicU32,
    completed: AtomicU32,
    output: [TrackedCell<u32>; 4],
    /// Which worker's flush readied unit 2.
    unit2_admitter: TrackedCell<u32>,
    dep_sub_ord: Ordering,
    flush_before_steal: bool,
}

fn chunk_succ(unit: usize) -> &'static [usize] {
    match unit {
        0 | 1 | 3 => &[2],
        _ => &[],
    }
}

/// Mirror of one stealing worker: a private LIFO of ready units and the
/// `DecrementBatch` (`note` / `flush`) it accumulates between flushes.
struct ChunkWorker<'a> {
    inst: &'a ChunkInstance,
    id: u32,
    local: Vec<usize>,
    pending: Vec<(usize, u32)>,
    executed: u32,
}

impl ChunkWorker<'_> {
    fn note(&mut self, succ: usize) {
        match self.pending.iter_mut().find(|e| e.0 == succ) {
            Some(e) => e.1 += 1,
            None => self.pending.push((succ, 1)),
        }
    }

    /// One `fetch_sub(count)` per distinct successor; the flush whose
    /// operand is everything that was left claims the successor.
    fn flush(&mut self) {
        for &(s, c) in &self.pending {
            debug_assert_eq!(s, 2, "only unit 2 has predecessors");
            // The release half of `hb: dep-handoff` is what the
            // `ChunkDecrementRelaxed` mutation severs.
            if self.inst.dep2.fetch_sub(c, self.inst.dep_sub_ord) == c {
                self.local.push(s);
            }
        }
        self.pending.clear();
        if self.executed > 0 {
            // hb: run-complete
            self.inst
                .completed
                .fetch_add(self.executed, Ordering::Release);
            self.executed = 0;
        }
    }

    /// Admit one unit: inherit poison or run the payload, publish poison
    /// on failure, and batch (not publish) the successor decrements.
    fn admit(&mut self, unit: usize) {
        let inst = self.inst;
        // hb: poison-publish
        let is_poisoned = inst.poisoned[unit].load(Ordering::Acquire);
        if unit == 2 {
            inst.unit2_admitter.write(self.id);
            // Admission happens-after every predecessor, poisoned or not:
            // reading their outputs makes the race detector prove it.
            check(
                inst.output[1].read() == 101 && inst.output[3].read() == 103,
                "a unit must be admitted after all its predecessors",
            );
        }
        // Unit 0's payload fails; everything else succeeds when clean.
        let ok = !is_poisoned && unit != 0;
        if ok {
            inst.output[unit].write(100 + unit as u32);
        }
        for &s in chunk_succ(unit) {
            if !ok {
                // hb: poison-publish
                inst.poisoned[s].store(true, Ordering::Release);
            }
            self.note(s);
        }
        self.executed += 1;
    }

    fn run(mut self) {
        loop {
            let unit = match self.local.pop() {
                Some(unit) => unit,
                None => {
                    // Out of local work. The seeds are already dealt out,
                    // so the steal that follows finds nothing and the
                    // worker parks; the mutant only flushes once a steal
                    // has succeeded, i.e. never.
                    if self.inst.flush_before_steal {
                        self.flush();
                    }
                    match self.local.pop() {
                        Some(unit) => unit,
                        None => return,
                    }
                }
            };
            self.admit(unit);
            if self.executed >= CHUNK {
                self.flush();
            }
        }
    }
}

/// One execution of the chunked-flush instance: worker 1 is dealt the
/// failing unit 0 (its batch is published by the flush-before-steal
/// rule), worker 2 the clean units 1 and 3 (its batch merges their two
/// decrements of unit 2 into one `fetch_sub(2)`, published by the chunk
/// rule).
pub fn chunked_flush_once(mutation: Mutation) {
    let dep_sub_ord = match mutation {
        #[cfg(test)]
        Mutation::ChunkDecrementRelaxed => Ordering::Relaxed,
        // hb: dep-handoff
        _ => Ordering::AcqRel,
    };
    let flush_before_steal = match mutation {
        #[cfg(test)]
        Mutation::FlushAfterSteal => false,
        _ => true,
    };
    let inst = ChunkInstance {
        poisoned: [
            AtomicBool::named("poisoned0", false),
            AtomicBool::named("poisoned1", false),
            AtomicBool::named("poisoned2", false),
            AtomicBool::named("poisoned3", false),
        ],
        dep2: AtomicU32::named("dep2", 3),
        completed: AtomicU32::named("completed", 0),
        output: [
            TrackedCell::named("output0", 0),
            TrackedCell::named("output1", 0),
            TrackedCell::named("output2", 0),
            TrackedCell::named("output3", 0),
        ],
        unit2_admitter: TrackedCell::named("unit2_admitter", u32::MAX),
        dep_sub_ord,
        flush_before_steal,
    };
    let worker = |id: u32, local: Vec<usize>| ChunkWorker {
        inst: &inst,
        id,
        local,
        pending: Vec::new(),
        executed: 0,
    };
    let (w1, w2) = (worker(1, vec![0]), worker(2, vec![1, 3]));
    run_threads(vec![Box::new(move || w1.run()), Box::new(move || w2.run())]);
    // A parked worker exits once `completed` reaches the unit count; with
    // both workers parked, anything short of it is a run that never ends.
    check(
        inst.completed.load(Ordering::Relaxed) == CHUNK_UNITS,
        "the run must terminate with every unit accounted for exactly once",
    );
    check(
        inst.dep2.load(Ordering::Relaxed) == 0,
        "every batched decrement must be published",
    );
    check(
        inst.poisoned[2].load(Ordering::Relaxed),
        "failed parent must poison the shared successor",
    );
    check(
        !inst.poisoned[1].load(Ordering::Relaxed) && !inst.poisoned[3].load(Ordering::Relaxed),
        "poison must not leak outside the forward closure",
    );
    check(
        inst.output[2].read() == 0,
        "poisoned unit must never run its payload",
    );
    check(
        inst.output[1].read() == 101 && inst.output[3].read() == 103,
        "unpoisoned units must run",
    );
    match inst.unit2_admitter.read() {
        1 => count("unit2-readied-by-failing-worker"),
        2 => count("unit2-readied-by-batched-decrement"),
        _ => count("unit2-never-reached"),
    }
}

/// Explore the chunked-flush instance. With [`Mutation::None`] this must
/// be exhausted with zero violations; each of its two mutations must
/// produce a counterexample.
pub fn chunked_flush(bounds: &Bounds, mutation: Mutation) -> Report {
    explore(bounds, || chunked_flush_once(mutation))
}

// ---------------------------------------------------------------------------
// 3. Watchdog stall claim
// ---------------------------------------------------------------------------

const PENDING: u8 = 0;
const DONE: u8 = 1;
const STALLED: u8 = 2;

/// One execution of the watchdog-claim instance: a worker runs the unit
/// and claims DONE, a watchdog that saw the in-flight beacon claims
/// STALLED, and an observer consumes whichever claim it sees.
pub fn watchdog_once(mutation: Mutation) {
    let (claim_ok, claim_err) = match mutation {
        #[cfg(test)]
        Mutation::WatchdogClaimRelaxed => (Ordering::Relaxed, Ordering::Relaxed),
        // hb: unit-claim
        _ => (Ordering::AcqRel, Ordering::Acquire),
    };
    let inflight = AtomicU32::named("inflight", 0);
    let state = AtomicU8::named("unit_state", PENDING);
    let result = TrackedCell::named("result", 0u32);
    let evidence = TrackedCell::named("evidence", 0u32);
    let observed = TrackedCell::named("observed", u8::MAX);
    let (fl, st, res, ev, obs) = (&inflight, &state, &result, &evidence, &observed);
    run_threads(vec![
        // Worker: announce, run, claim DONE.
        Box::new(move || {
            // hb: inflight-publish
            fl.store(1, Ordering::Release);
            res.write(42);
            // hb: unit-claim
            let _ = st.compare_exchange(PENDING, DONE, Ordering::AcqRel, Ordering::Acquire);
        }),
        // Watchdog: if the unit is visibly in flight, record evidence and
        // claim STALLED. The claim's success ordering is the mutation
        // point: it must publish the evidence.
        Box::new(move || {
            // hb: inflight-publish
            let beacon = fl.load(Ordering::Acquire);
            if beacon == 1 {
                ev.write(7);
                let _ = st.compare_exchange(PENDING, STALLED, claim_ok, claim_err);
            }
        }),
        // Observer: consume whichever claim is visible.
        Box::new(move || {
            // hb: unit-claim
            let s = st.load(Ordering::Acquire);
            obs.write(s);
            match s {
                DONE => check(
                    res.read() == 42,
                    "DONE claim must publish the unit's result",
                ),
                STALLED => {
                    check(
                        ev.read() == 7,
                        "STALLED claim must publish the watchdog's evidence",
                    );
                }
                _ => {}
            }
        }),
    ]);
    // CAS atomicity: the unit has exactly one owner, and the worker always
    // claims, so PENDING cannot survive.
    let final_state = state.load(Ordering::Relaxed);
    check(
        final_state != PENDING,
        "exactly one of worker/watchdog must claim the unit",
    );
    match final_state {
        DONE => count("worker-won"),
        _ => count("watchdog-won"),
    }
    match observed.read() {
        PENDING => count("observer-saw-pending"),
        DONE => count("observer-saw-done"),
        STALLED => count("observer-saw-stalled"),
        _ => count("observer-unreached"),
    }
}

/// Explore the watchdog-claim instance.
pub fn watchdog_claim(bounds: &Bounds, mutation: Mutation) -> Report {
    explore(bounds, || watchdog_once(mutation))
}

// ---------------------------------------------------------------------------
// 4. Cancel generations at the wrap boundary
// ---------------------------------------------------------------------------

/// One execution of the cancel-generation instance. The counter starts at
/// `u64::MAX` so the single concurrent cancel exercises the wraparound to
/// 0; observers compare generations by inequality, which survives the
/// wrap (an ABA collision would need 2^64 in-flight cancels).
pub fn cancel_once() {
    let generation = AtomicU64::named("generation", u64::MAX);
    let reason = TrackedCell::named("reason", 0u32);
    let run_k_saw = TrackedCell::named("run_k_saw", false);
    let (gen, why, saw) = (&generation, &reason, &run_k_saw);
    run_threads(vec![
        // Canceller: publish the reason, then bump the generation.
        Box::new(move || {
            why.write(9);
            // hb: cancel-gen
            gen.fetch_add(1, Ordering::Release);
        }),
        // Runner: run k observes at the wrap boundary, polls twice, then
        // run k+1 starts a fresh observation.
        Box::new(move || {
            // hb: cancel-gen
            let seen = gen.load(Ordering::Acquire);
            // hb: cancel-gen
            let c1 = gen.load(Ordering::Acquire) != seen;
            // hb: cancel-gen
            let c2 = gen.load(Ordering::Acquire) != seen;
            check(!c1 || c2, "cancellation must latch per observer");
            if c2 {
                // Delivered cancels may consume the canceller's payload.
                check(
                    why.read() == 9,
                    "a delivered cancel must publish its reason",
                );
            }
            saw.write(c2);
            // hb: cancel-gen
            let seen_next = gen.load(Ordering::Acquire);
            // hb: cancel-gen
            let c3 = gen.load(Ordering::Acquire) != seen_next;
            check(
                !(c2 && c3),
                "a cancel consumed by run k must not re-deliver to run k+1",
            );
        }),
    ]);
    check(
        generation.load(Ordering::Relaxed) == 0,
        "generation must wrap MAX -> 0",
    );
    // An observer created after the cancel settles starts clean.
    let seen = generation.load(Ordering::Relaxed);
    check(
        generation.load(Ordering::Relaxed) == seen,
        "post-run observer must start uncancelled",
    );
    if run_k_saw.read() {
        count("run-k-saw-cancel");
    } else {
        count("run-k-missed-cancel");
    }
}

/// Explore the cancel-generation instance.
pub fn cancel_generation(bounds: &Bounds) -> Report {
    explore(bounds, cancel_once)
}

// ---------------------------------------------------------------------------
// 5. NaN-preserving slack-min
// ---------------------------------------------------------------------------

fn nan_min(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else {
        a.min(b)
    }
}

/// Mirror of `gpasta_sta::AtomicF32::fetch_min_nan_preserving`: a CAS
/// loop over the bit representation. The reduction transfers only the
/// value itself (no payload), so `Relaxed` is correct — the harness
/// proves order-insensitivity rather than publication.
fn model_fetch_min(bits: &AtomicU32, value: f32) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let new = nan_min(f32::from_bits(cur), value).to_bits();
        if new == cur {
            return;
        }
        match bits.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// One execution of the slack-min instance: two threads fold `inputs`
/// into an accumulator seeded with `init`; every interleaving must end at
/// `expected` (bitwise, so NaN compares like any value).
pub fn slack_min_once(init: f32, inputs: [f32; 2], expected: f32) {
    let acc = AtomicU32::named("slack_bits", init.to_bits());
    let a = &acc;
    run_threads(vec![
        Box::new(move || model_fetch_min(a, inputs[0])),
        Box::new(move || model_fetch_min(a, inputs[1])),
    ]);
    let got = acc.load(Ordering::Relaxed);
    check(
        got == expected.to_bits(),
        "slack-min must be order-insensitive and NaN-preserving",
    );
}

/// Explore the slack-min instance for one input set.
pub fn slack_min(bounds: &Bounds, init: f32, inputs: [f32; 2], expected: f32) -> Report {
    explore(bounds, || slack_min_once(init, inputs, expected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::replay;

    #[test]
    fn poison_protocol_exhaustive_no_violation() {
        let report = poison_publication(&POISON_BOUNDS, Mutation::None);
        assert!(
            report.violation.is_none(),
            "unexpected violation:\n{}",
            report.violation.unwrap()
        );
        assert!(report.exhausted, "must drain the DFS frontier");
        // Both workers must receive the final unit-2 handoff in some
        // schedule — otherwise the instance never exercised the
        // cross-thread half of the dep-handoff edge.
        assert!(
            report
                .counters
                .contains_key("unit2-handed-to-failing-worker"),
            "handoff coverage: {:?}",
            report.counters
        );
        assert!(
            report.counters.contains_key("unit2-handed-to-clean-worker"),
            "handoff coverage: {:?}",
            report.counters
        );
    }

    #[test]
    fn poison_decrement_mutation_caught_with_replayable_trace() {
        let report = poison_publication(&POISON_BOUNDS, Mutation::PoisonDecrementRelaxed);
        let v = report
            .violation
            .expect("Relaxed dep-decrement must yield a counterexample");
        assert!(!v.trace.is_empty(), "counterexample carries a trace");
        let replayed = replay(&v.decisions, || {
            poison_once(Mutation::PoisonDecrementRelaxed)
        });
        let rv = replayed.violation.expect("replay reproduces the violation");
        assert_eq!(rv.message, v.message, "replay is deterministic");
    }

    #[test]
    fn chunked_flush_exhaustive_no_violation() {
        let report = chunked_flush(&CHUNK_BOUNDS, Mutation::None);
        assert!(
            report.violation.is_none(),
            "unexpected violation:\n{}",
            report.violation.unwrap()
        );
        assert!(report.exhausted, "must drain the DFS frontier");
        // Either worker's flush must be the one that readies unit 2 in
        // some schedule: the lone decrement acquiring the batched one and
        // the batched `fetch_sub(2)` acquiring the poison.
        for key in [
            "unit2-readied-by-failing-worker",
            "unit2-readied-by-batched-decrement",
        ] {
            assert!(
                report.counters.contains_key(key),
                "handoff coverage: {:?}",
                report.counters
            );
        }
        assert!(!report.counters.contains_key("unit2-never-reached"));
    }

    #[test]
    fn flush_after_steal_mutation_caught_with_replayable_trace() {
        let report = chunked_flush(&CHUNK_BOUNDS, Mutation::FlushAfterSteal);
        let v = report
            .violation
            .expect("a worker parking on its batch must yield a counterexample");
        assert!(
            v.message.contains("terminate"),
            "counterexample should be the run that never ends: {}",
            v.message
        );
        let replayed = replay(&v.decisions, || {
            chunked_flush_once(Mutation::FlushAfterSteal)
        });
        let rv = replayed.violation.expect("replay reproduces the violation");
        assert_eq!(rv.message, v.message, "replay is deterministic");
    }

    #[test]
    fn chunk_decrement_mutation_caught_with_replayable_trace() {
        let report = chunked_flush(&CHUNK_BOUNDS, Mutation::ChunkDecrementRelaxed);
        let v = report
            .violation
            .expect("Relaxed batched decrement must yield a counterexample");
        assert!(
            v.message.contains("poisoned unit") || v.message.contains("data race"),
            "counterexample should be the stale poison read: {}",
            v.message
        );
        let replayed = replay(&v.decisions, || {
            chunked_flush_once(Mutation::ChunkDecrementRelaxed)
        });
        let rv = replayed.violation.expect("replay reproduces the violation");
        assert_eq!(rv.message, v.message, "replay is deterministic");
    }

    #[test]
    fn watchdog_protocol_exhaustive_no_violation() {
        let report = watchdog_claim(&WATCHDOG_BOUNDS, Mutation::None);
        assert!(
            report.violation.is_none(),
            "unexpected violation:\n{}",
            report.violation.unwrap()
        );
        assert!(report.exhausted, "must drain the DFS frontier");
        // Exploration must reach both claim outcomes and an observer that
        // actually saw the stalled claim.
        assert!(
            report.counters.contains_key("worker-won"),
            "{:?}",
            report.counters
        );
        assert!(
            report.counters.contains_key("watchdog-won"),
            "{:?}",
            report.counters
        );
        assert!(
            report.counters.contains_key("observer-saw-stalled"),
            "{:?}",
            report.counters
        );
    }

    #[test]
    fn watchdog_claim_mutation_caught_with_replayable_trace() {
        let report = watchdog_claim(&WATCHDOG_BOUNDS, Mutation::WatchdogClaimRelaxed);
        let v = report
            .violation
            .expect("Relaxed claim-CAS success ordering must yield a counterexample");
        assert!(
            v.message.contains("evidence") || v.message.contains("data race"),
            "counterexample should implicate the unpublished evidence: {}",
            v.message
        );
        let replayed = replay(&v.decisions, || {
            watchdog_once(Mutation::WatchdogClaimRelaxed)
        });
        let rv = replayed.violation.expect("replay reproduces the violation");
        assert_eq!(rv.message, v.message, "replay is deterministic");
    }

    #[test]
    fn cancel_generation_wrap_exhaustive_no_violation() {
        let report = cancel_generation(&CANCEL_BOUNDS);
        assert!(
            report.violation.is_none(),
            "unexpected violation:\n{}",
            report.violation.unwrap()
        );
        assert!(report.exhausted, "must drain the DFS frontier");
        // Both delivery outcomes must be reached: run k seeing the cancel
        // and run k missing it (cancel lands in a later run's window).
        assert!(
            report.counters.contains_key("run-k-saw-cancel"),
            "{:?}",
            report.counters
        );
        assert!(
            report.counters.contains_key("run-k-missed-cancel"),
            "{:?}",
            report.counters
        );
    }

    #[test]
    fn slack_min_plain_values_order_insensitive() {
        let report = slack_min(&SLACK_BOUNDS, 5.0, [3.5, 7.0], 3.5);
        assert!(
            report.violation.is_none(),
            "unexpected violation:\n{}",
            report.violation.unwrap()
        );
        assert!(report.exhausted);
    }

    #[test]
    fn slack_min_nan_preserving_in_every_interleaving() {
        let report = slack_min(&SLACK_BOUNDS, 5.0, [3.5, f32::NAN], f32::NAN);
        assert!(
            report.violation.is_none(),
            "unexpected violation:\n{}",
            report.violation.unwrap()
        );
        assert!(report.exhausted);
    }
}
