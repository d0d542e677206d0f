//! Bounded model-check harnesses for the five lock-free scheduler
//! protocols and the serve frontend's connection-thread handoff, each
//! stated as a small instance (2–3 threads, 2–4 units) and explored to
//! exhaustion by [`crate::model`].
//!
//! | harness | protocol (production site) | property |
//! |---|---|---|
//! | [`poison_publication`] | Release-before-decrement poison publication (`gpasta-sched::bounded::run_stealing_bounded`) | poisoned set = exact forward closure of the failed unit; a poisoned unit never runs its payload |
//! | [`chunked_flush`] | worker-local decrement batches, flushed before a worker steals or parks (`DecrementBatch` in `gpasta-sched::bounded::run_stealing_bounded`) | every unit is admitted exactly once, after all its predecessors; a poisoned unit never runs its payload; the run terminates |
//! | [`stop_latch`] | the first-cause-wins stop latch (`gpasta-sched::bounded::run_stealing_bounded`) | of a deadline and a cancel observed at once, exactly one cause latches and the run reports it |
//! | [`cancel_generation`] | generation-counted `CancelToken` (`gpasta-tdg::cancel`), at the `u64` wrap boundary | cancellation latches per observer; a cancel consumed by run *k* never re-delivers to run *k+1* |
//! | [`slack_min`] | NaN-preserving `AtomicF32` slack-min (`gpasta-sta::atomic_f32`) | concurrent min-reduction is order-insensitive and NaN-preserving |
//! | [`park_handoff`] | park-slot claim vs retire CAS and the shutdown drain (`gpasta::serve::http`) | an accepted stream is served by exactly one thread and never dropped unread; shutdown releases a parked thread at once |
//!
//! The `hb:` tags on ordering sites here mirror the tags on the
//! production sites (see DESIGN.md §11), so the lint's pairing check ties
//! each production edge to the harness that covers it.
//!
//! # Mutation gate
//!
//! [`Mutation`] seeds six deliberate weakenings (available only under
//! `cfg(test)`): the poison path's dependency-decrement `AcqRel` →
//! `Relaxed` (severing the release half of the handoff edge), the same
//! downgrade on the *batched* decrement, a batch that is published only
//! after a successful steal (so a worker can park on it), a stop latch
//! taken by a plain store instead of a CAS, a park-slot retire by
//! load-then-store instead of a CAS, and a parked thread that holds a
//! sender to its own slot. Tests assert the explorer produces a replayable counterexample
//! for each — proof the checker has teeth.

use crate::model::sync::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Mutex, TrackedCell};
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

/// Pinned bounds for the stop-latch harness.
pub const STOP_BOUNDS: Bounds = Bounds {
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

/// Pinned bounds for the park-handoff harness.
pub const PARK_BOUNDS: Bounds = Bounds {
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
    /// Latch the stop cause with a plain store instead of the
    /// `compare_exchange` from running. Two workers that both find the
    /// latch open then both latch, and the second overwrites the first's
    /// cause.
    #[cfg(test)]
    StopLatchStore,
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
    /// Retire a parked connection thread by a load of `PARKED` followed
    /// by a plain store of `RETIRED` instead of one CAS. The accept
    /// loop's claim can land between the two, so it sends a stream to a
    /// thread that then leaves, and the stream is dropped unread.
    #[cfg(test)]
    RetireByStore,
    /// The parked thread holds a sender to its own slot, so the accept
    /// loop's shutdown drain does not close the channel: the thread
    /// waits out its idle deadline instead of being released.
    #[cfg(test)]
    ParkedHoldsSender,
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
// 3. Stop latch
// ---------------------------------------------------------------------------

const STOP_RUNNING: u8 = 0;
const STOP_DEADLINE: u8 = 1;
const STOP_CANCELLED: u8 = 2;

/// One worker of the stop-latch instance about to admit a unit, whose
/// budget poll finds `cause`: it reads the latch and, finding the run
/// still running, tries to latch its cause. Records whether it did.
fn latch_stop(stop: &AtomicU8, cause: u8, latched: &TrackedCell<bool>, mutation: Mutation) {
    // hb: stop-latch
    if stop.load(Ordering::Acquire) != STOP_RUNNING {
        count("saw-the-latch-before-polling");
        return;
    }
    let won = match mutation {
        #[cfg(test)]
        Mutation::StopLatchStore => {
            stop.store(cause, Ordering::Release);
            true
        }
        // hb: stop-latch
        _ => stop
            .compare_exchange(STOP_RUNNING, cause, Ordering::AcqRel, Ordering::Acquire)
            .is_ok(),
    };
    latched.write(won);
    if won {
        count(match cause {
            STOP_DEADLINE => "deadline-latched",
            _ => "cancel-latched",
        });
    }
}

/// One execution of the stop-latch instance, the shape of
/// `run_stealing_bounded`'s latch: two workers, one whose budget poll
/// finds the deadline expired and one that finds the token cancelled.
pub fn stop_latch_once(mutation: Mutation) {
    let stop = AtomicU8::named("stop", STOP_RUNNING);
    let deadline = TrackedCell::named("deadline_latched", false);
    let cancel = TrackedCell::named("cancel_latched", false);
    let (st, dl, cl) = (&stop, &deadline, &cancel);
    run_threads(vec![
        Box::new(move || latch_stop(st, STOP_DEADLINE, dl, mutation)),
        Box::new(move || latch_stop(st, STOP_CANCELLED, cl, mutation)),
    ]);
    let winners: Vec<u8> = [(STOP_DEADLINE, &deadline), (STOP_CANCELLED, &cancel)]
        .into_iter()
        .filter_map(|(cause, cell)| cell.read().then_some(cause))
        .collect();
    check(winners.len() == 1, "exactly one cause must latch");
    check(
        winners.first() == Some(&stop.load(Ordering::Relaxed)),
        "the run must report the cause that latched",
    );
}

/// Explore the stop-latch instance.
pub fn stop_latch(bounds: &Bounds, mutation: Mutation) -> Report {
    explore(bounds, || stop_latch_once(mutation))
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

// ---------------------------------------------------------------------------
// 6. Connection-thread park handoff
// ---------------------------------------------------------------------------

const SLOT_SERVING: u8 = 0;
const SLOT_PARKED: u8 = 1;
const SLOT_RETIRED: u8 = 2;

/// A park slot's `mpsc` channel: whether a stream is queued, the live
/// senders, whether the receiver is still held, and whether the accept
/// loop has run its shutdown drain.
struct SlotChannel {
    queued: bool,
    senders: u32,
    receiver: bool,
    drained: bool,
}

/// What became of the parked thread and of the accepted stream. Kept
/// outside the model (a plain mutex adds no scheduling points) and read
/// after the join.
#[derive(Default)]
struct ParkLog {
    accepted: bool,
    /// Who served the stream, once per serve.
    served: Vec<&'static str>,
    claim_won: bool,
    /// Whether the deadline's retire won; a lost retire leaves the
    /// thread in `recv` for the stream the claim sends.
    retire: Option<bool>,
    released: bool,
}

/// One execution of the park-handoff instance: a connection thread
/// parked on its slot, whose idle deadline fires unless a stream or the
/// close reaches it first; the accept loop placing one accepted stream;
/// and the accept loop's shutdown drain.
///
/// The claim's CAS and its send run under the channel lock here. The
/// parked thread touches the channel only to poll it or to drop its
/// receiver, and a poll between a claim and its send sees what a poll
/// before the claim sees, so no production schedule is lost; the lock
/// also keeps the drain (the same thread as the claim in production)
/// from landing between them, while either may still run first.
pub fn park_handoff_once(mutation: Mutation) {
    let senders = match mutation {
        #[cfg(test)]
        Mutation::ParkedHoldsSender => 2,
        _ => 1,
    };
    let retire_by_store = match mutation {
        #[cfg(test)]
        Mutation::RetireByStore => true,
        _ => false,
    };
    let state = AtomicU8::named("slot_state", SLOT_PARKED);
    let channel = Mutex::named(
        "slot_channel",
        SlotChannel {
            queued: false,
            senders,
            receiver: true,
            drained: false,
        },
    );
    let log = std::sync::Mutex::new(ParkLog::default());
    let record = |f: &dyn Fn(&mut ParkLog)| f(&mut log.lock().unwrap_or_else(|e| e.into_inner()));
    let (st, ch, rec) = (&state, &channel, &record);
    run_threads(vec![
        // The parked connection thread.
        Box::new(move || {
            // `recv_timeout`: a queued stream, a closed channel (the
            // thread exits and drops its receiver), or the deadline.
            {
                let mut c = ch.lock();
                if std::mem::take(&mut c.queued) {
                    rec(&|l| l.served.push("parked"));
                    return;
                }
                if c.senders == 0 {
                    c.receiver = false;
                    rec(&|l| l.released = true);
                    return;
                }
                check(
                    !c.drained,
                    "shutdown must release a parked thread at once, not at its idle deadline",
                );
            }
            let retired = if retire_by_store {
                let parked = st.load(Ordering::Relaxed) == SLOT_PARKED;
                if parked {
                    st.store(SLOT_RETIRED, Ordering::Relaxed);
                }
                parked
            } else {
                st.compare_exchange(
                    SLOT_PARKED,
                    SLOT_RETIRED,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok()
            };
            rec(&|l| l.retire = Some(retired));
            if retired {
                // The thread exits and drops its receiver; a stream
                // still queued is lost.
                let mut c = ch.lock();
                c.receiver = false;
                check(
                    !c.queued,
                    "a stream was dropped unread: sent to a thread that had left",
                );
            }
        }),
        // The accept loop with one accepted stream.
        Box::new(move || {
            let mut c = ch.lock();
            if c.drained {
                // The loop has already stopped accepting.
                return;
            }
            rec(&|l| l.accepted = true);
            let claimed = st
                .compare_exchange(
                    SLOT_PARKED,
                    SLOT_SERVING,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok();
            rec(&|l| l.claim_won = claimed);
            // `send` fails once the receiver is gone: the stream comes
            // back.
            if claimed && c.receiver {
                c.queued = true;
                return;
            }
            drop(c);
            // No parked thread: spawn one for the stream.
            rec(&|l| l.served.push("spawned"));
        }),
        // The accept loop's shutdown drain: drop its sender.
        Box::new(move || {
            let mut c = ch.lock();
            c.senders -= 1;
            c.drained = true;
        }),
    ]);
    let mut log = log.into_inner().unwrap_or_else(|e| e.into_inner());
    if log.retire == Some(false) {
        // The thread whose retire lost is still in `recv`.
        let sent = std::mem::take(&mut channel.lock().queued);
        check(sent, "a thread whose retire lost must be sent its stream");
        log.served.push("parked");
    }
    check(
        log.served.len() == usize::from(log.accepted),
        "an accepted stream is served by exactly one thread",
    );
    let served_by = log.served.first().copied();
    for (reached, name) in [
        (log.claim_won, "claim-won"),
        (log.retire == Some(true), "retire-won"),
        (log.retire == Some(false), "retire-lost"),
        (log.released, "released-by-shutdown"),
        (!log.accepted, "accepted-after-drain"),
        (served_by == Some("parked"), "served-by-parked-thread"),
        (served_by == Some("spawned"), "served-by-spawned-thread"),
    ] {
        if reached {
            count(name);
        }
    }
}

/// Explore the park-handoff instance.
pub fn park_handoff(bounds: &Bounds, mutation: Mutation) -> Report {
    explore(bounds, || park_handoff_once(mutation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::replay;

    /// A seeded mutation is caught: `report` holds a counterexample with a
    /// trace, whose message names one of `expected` (any, if empty), and
    /// replaying its decisions against `once` reproduces it exactly.
    fn assert_caught(report: Report, expected: &[&str], once: impl FnMut()) {
        let v = report
            .violation
            .expect("the mutation must yield a counterexample");
        assert!(!v.trace.is_empty(), "counterexample carries a trace");
        assert!(
            expected.is_empty() || expected.iter().any(|e| v.message.contains(e)),
            "counterexample should name one of {expected:?}: {}",
            v.message
        );
        let replayed = replay(&v.decisions, once);
        let rv = replayed.violation.expect("replay reproduces the violation");
        assert_eq!(rv.message, v.message, "replay is deterministic");
    }

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
        assert_caught(
            poison_publication(&POISON_BOUNDS, Mutation::PoisonDecrementRelaxed),
            &[],
            || poison_once(Mutation::PoisonDecrementRelaxed),
        );
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
        assert_caught(
            chunked_flush(&CHUNK_BOUNDS, Mutation::FlushAfterSteal),
            &["terminate"],
            || chunked_flush_once(Mutation::FlushAfterSteal),
        );
    }

    #[test]
    fn chunk_decrement_mutation_caught_with_replayable_trace() {
        assert_caught(
            chunked_flush(&CHUNK_BOUNDS, Mutation::ChunkDecrementRelaxed),
            &["poisoned unit", "data race"],
            || chunked_flush_once(Mutation::ChunkDecrementRelaxed),
        );
    }

    #[test]
    fn stop_latch_exhaustive_no_violation() {
        let report = stop_latch(&STOP_BOUNDS, Mutation::None);
        assert!(
            report.violation.is_none(),
            "unexpected violation:\n{}",
            report.violation.unwrap()
        );
        assert!(report.exhausted, "must drain the DFS frontier");
        // Either cause can win, and a worker can find the latch already
        // taken before it polls.
        for key in [
            "deadline-latched",
            "cancel-latched",
            "saw-the-latch-before-polling",
        ] {
            assert!(
                report.counters.contains_key(key),
                "{key} never reached: {:?}",
                report.counters
            );
        }
    }

    #[test]
    fn stop_latch_store_mutation_caught_with_replayable_trace() {
        assert_caught(
            stop_latch(&STOP_BOUNDS, Mutation::StopLatchStore),
            &["exactly one cause"],
            || stop_latch_once(Mutation::StopLatchStore),
        );
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

    #[test]
    fn park_handoff_exhaustive_no_violation() {
        let report = park_handoff(&PARK_BOUNDS, Mutation::None);
        assert!(
            report.violation.is_none(),
            "unexpected violation:\n{}",
            report.violation.unwrap()
        );
        assert!(report.exhausted, "must drain the DFS frontier");
        // Both sides of the claim/retire race, a retire that lost and
        // still served, the drain's release, and an accept loop that had
        // already stopped must all be reached.
        for key in [
            "claim-won",
            "retire-won",
            "retire-lost",
            "released-by-shutdown",
            "accepted-after-drain",
            "served-by-parked-thread",
            "served-by-spawned-thread",
        ] {
            assert!(
                report.counters.contains_key(key),
                "{key} never reached: {:?}",
                report.counters
            );
        }
    }

    #[test]
    fn retire_by_store_mutation_caught_with_replayable_trace() {
        assert_caught(
            park_handoff(&PARK_BOUNDS, Mutation::RetireByStore),
            &["dropped unread"],
            || park_handoff_once(Mutation::RetireByStore),
        );
    }

    #[test]
    fn parked_holds_sender_mutation_caught_with_replayable_trace() {
        assert_caught(
            park_handoff(&PARK_BOUNDS, Mutation::ParkedHoldsSender),
            &["release a parked thread"],
            || park_handoff_once(Mutation::ParkedHoldsSender),
        );
    }
}
