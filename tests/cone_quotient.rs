//! The quotient a partition cache restricts to a dirty cone schedules the
//! update the public-step path schedules, and no path shows in a bit.
//!
//! The **differential** cases feed one seeded Fig. 7 edit stream (gate
//! repowers and net-capacitance changes, a clock edit now and then, and a
//! zero-deadline update followed by the one that heals it) to three lanes:
//!
//! * **public-step**: `Timer::update_timing` → `full_space_ids` →
//!   `repair_and_project` (the installed assignment at those ids) →
//!   `QuotientTdg::build_in` → run;
//! * **restriction**: `Timer::dirty_cone`, and the cache's one full-space
//!   quotient restricted to the cone
//!   (`IncrementalPartitioner::cone_quotient`, what `ScheduledTimer` runs);
//! * **session**: the product, which runs every cone in order.
//!
//! Every step asserts the two quotients agree (partitions, weights, member
//! orders, edges), that the two caches still hold one assignment, that the
//! session's `UpdateOutcome` equals the public-step counts, and that all
//! three `TimingSnapshot`s are bit-identical. After every step the session
//! is evicted and a copy restored from its edit state alone: the copy
//! matches, except right after a stop, where it reads no unknown endpoint
//! and matches once the session's next update heals it.
//!
//! The **path-independence** cases feed the stream to a session, to a
//! `ScheduledTimer` and to a bare `Timer` run sequentially, on 1, 2 and 4
//! workers: their bits and counts
//! must agree, across an evict → restore of the session too, and the
//! `ScheduledTimer`'s partition must stay the one a bare cache installs.
//!
//! On every session, after every step, `Session::report` (a read of the
//! summary the session keeps) is `Timer::report` from scratch: names,
//! order and bits. In `--release`, where the session's own debug assertion
//! is off, these checks catch the mutations named at
//! `assert_report_is_from_scratch`.

use std::time::Duration;

use gpasta::circuits::PaperCircuit;
use gpasta::core::{IncrementalPartitioner, PartitionerOptions, RepairStats, SeqGPasta};
use gpasta::sched::{Executor, FaultPlan, RetryPolicy, RunBudget, StopCause};
use gpasta::scheduled::ScheduledTimer;
use gpasta::session::{DesignSources, Edit, Session};
use gpasta::sta::{
    parse_verilog, write_verilog, CellLibrary, GateId, RecoveredUpdate, Timer, TimingReport,
};
use gpasta::tdg::{QuotientArena, QuotientTdg};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;

/// What one lane's update reports, in `UpdateOutcome`'s terms.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    stop: StopCause,
    tasks: usize,
    repair_moved: usize,
    repair_fresh: usize,
    unknown_endpoints: u32,
}

fn unknown_endpoints(rec: &RecoveredUpdate) -> u32 {
    if rec.outcome.stop == StopCause::Completed {
        0
    } else {
        (rec.unfinished_endpoints.len() + rec.poisoned_endpoints.len()) as u32
    }
}

/// A timer with the cache installed on its full-space TDG, after the
/// initial full analysis.
struct Lane {
    timer: Timer,
    inc: IncrementalPartitioner<SeqGPasta>,
    arena: QuotientArena,
}

/// One lane's quotient, flattened: the coarse graph and every partition's
/// members as full-space ids.
type Flat = (gpasta::tdg::Tdg, Vec<Vec<u32>>);

/// The timer `Session::create` builds from `verilog`, not yet analysed.
fn timer_of(verilog: &str) -> Timer {
    let netlist = parse_verilog(verilog).expect("generated netlists parse");
    let mut timer = Timer::new(netlist, CellLibrary::typical());
    timer.set_clock_period(1_000.0);
    timer
}

impl Lane {
    fn new(verilog: &str) -> Lane {
        let mut timer = timer_of(verilog);
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        let full = timer.update_timing();
        inc.install(full.tdg(), &PartitionerOptions::default())
            .expect("install on the full-space TDG");
        full.run_sequential();
        drop(full);
        Lane {
            timer,
            inc,
            arena: QuotientArena::new(),
        }
    }

    /// The update through every public step, per-update TDG included.
    fn public_step(&mut self, exec: &Executor, budget: &RunBudget) -> (Counts, Option<Flat>) {
        let update = self.timer.update_timing();
        let tasks = update.tdg().num_tasks();
        if tasks == 0 {
            drop(update);
            return (self.idle(), None);
        }
        let ids = update.full_space_ids();
        let (stats, sub) = self.inc.repair_and_project(&ids).expect("ids in range");
        let quotient =
            QuotientTdg::build_in(update.tdg(), &sub, &mut self.arena).expect("schedulable");
        let rec = update.run_partitioned_recovering_bounded(
            exec,
            &quotient,
            &FaultPlan::none(),
            &RetryPolicy::default(),
            budget,
        );
        let flat = (
            quotient.graph().clone(),
            quotient
                .execution_orders()
                .map(|order| order.iter().map(|&t| ids[t as usize]).collect())
                .collect(),
        );
        self.arena.recycle(quotient);
        if rec.outcome.stop != StopCause::Completed {
            update.mark_unknown(&rec);
        }
        drop(update);
        (self.finish(tasks, stats, &rec), Some(flat))
    }

    /// The update from stage one alone: cone ids, and the cache's quotient
    /// restricted to them.
    fn restriction(&mut self, exec: &Executor, budget: &RunBudget) -> (Counts, Option<Flat>) {
        let cone = self.timer.dirty_cone();
        let tasks = cone.num_tasks();
        if tasks == 0 {
            drop(cone);
            return (self.idle(), None);
        }
        let full_space = 2 * cone.graph().num_nodes();
        let quotient = self
            .inc
            .cone_quotient(cone.ids(), &mut self.arena)
            .expect("warm cache")
            .expect("schedulable");
        assert_eq!(quotient.num_tasks(), tasks);
        assert_eq!(
            matches!(quotient, Cow::Borrowed(_)),
            tasks == full_space,
            "the whole design borrows the cache's quotient, a cone copies out of it"
        );
        let rec = cone.run_partitioned_recovering_bounded(
            exec,
            &quotient,
            &FaultPlan::none(),
            &RetryPolicy::default(),
            budget,
        );
        let flat = (
            quotient.graph().clone(),
            quotient.execution_orders().map(<[u32]>::to_vec).collect(),
        );
        if let Cow::Owned(restricted) = quotient {
            self.arena.recycle(restricted);
        }
        if rec.outcome.stop != StopCause::Completed {
            cone.mark_unknown(&rec);
        }
        drop(cone);
        (self.finish(tasks, RepairStats::default(), &rec), Some(flat))
    }

    fn idle(&self) -> Counts {
        Counts {
            stop: StopCause::Completed,
            tasks: 0,
            repair_moved: 0,
            repair_fresh: 0,
            unknown_endpoints: 0,
        }
    }

    fn finish(&mut self, tasks: usize, stats: RepairStats, rec: &RecoveredUpdate) -> Counts {
        if rec.outcome.stop != StopCause::Completed {
            self.timer.invalidate_all();
        }
        Counts {
            stop: rec.outcome.stop,
            tasks,
            repair_moved: stats.moved,
            repair_fresh: stats.fresh_partitions,
            unknown_endpoints: unknown_endpoints(rec),
        }
    }
}

/// A report field by field, slacks and sums by bit pattern (an unknown
/// endpoint is a NaN, which `==` would not find equal to itself).
fn report_bits(report: &TimingReport) -> (u32, u32, usize, Vec<(u32, &str, u32)>) {
    let worst = report.worst.iter();
    (
        report.wns_ps.to_bits(),
        report.tns_ps.to_bits(),
        report.num_endpoints,
        worst
            .map(|e| (e.node.0, e.name.as_str(), e.slack_ps.to_bits()))
            .collect(),
    )
}

/// The summary `session` kept up to date reads as one built from its
/// timer's values, for no, one, a few and all endpoints.
///
/// Mutation `fed-if-stored` (`run_changed` notes an endpoint only if its
/// fprop stored a new bit, so a slack that moves with a required time alone
/// is not re-read) fails
/// `a_lone_output_delay_moves_the_report_through_a_required_time`, and
/// mutation `stopped-fed` (a stopped run point-updates: `let fed =
/// cone.point_update(..)`) fails the two `*_direct_quotient_*` tests at
/// their first zero-deadline step. Both with `--release`; a debug build
/// stops earlier, at the session's own assertion.
fn assert_report_is_from_scratch(session: &Session, what: &str) {
    let all = session.timer().graph().endpoints().len();
    for k in [0, 1, 5, all] {
        let (kept, scratch) = (session.report(k), session.timer().report(k));
        assert_eq!(
            report_bits(&kept),
            report_bits(&scratch),
            "{what}: report({k})"
        );
    }
}

/// One step of the stream, in a form every lane can take.
#[derive(Debug, Clone, Copy)]
enum Step {
    Repower {
        gate: u32,
        drive: f32,
    },
    NetCap {
        net: u32,
        cap_ff: f32,
    },
    Clock {
        period_ps: f32,
    },
    /// No edit: update whatever is pending (nothing, or a healing rerun).
    Nothing,
}

impl Step {
    fn apply_to_timer(self, timer: &mut Timer) {
        match self {
            Step::Repower { gate, drive } => timer.repower_gate(GateId(gate), drive),
            Step::NetCap { net, cap_ff } => timer.set_net_cap(net, cap_ff),
            Step::Clock { period_ps } => timer.set_clock_period(period_ps),
            Step::Nothing => {}
        }
    }

    fn apply_to_session(self, session: &mut Session) {
        let edit = match self {
            Step::Repower { gate, drive } => Edit::Repower {
                gate: session.timer().netlist().gates()[gate as usize]
                    .name
                    .clone(),
                drive,
            },
            Step::NetCap { net, cap_ff } => Edit::SetNetCap { net, cap_ff },
            Step::Clock { period_ps } => Edit::SetClockPeriod { period_ps },
            Step::Nothing => return,
        };
        session
            .apply_edit(&edit)
            .expect("generated edits are valid");
    }
}

/// `edits` Fig. 7 edits, every 29th op a clock flip and every 37th a
/// zero-deadline update followed by the update that heals it; idle at the
/// end.
fn stream(num_gates: u32, num_nets: u32, seed: u64, edits: usize) -> Vec<(Step, RunBudget)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut steps: Vec<(Step, RunBudget)> = Vec::new();
    for op in 0..edits {
        let edit = if op % 29 == 28 {
            Step::Clock {
                period_ps: if op % 2 == 0 { 900.0 } else { 1_000.0 },
            }
        } else if rng.gen_bool(0.5) {
            Step::Repower {
                gate: rng.gen_range(0..num_gates),
                drive: *[0.5f32, 1.0, 2.0, 4.0].choose(&mut rng).expect("non-empty"),
            }
        } else {
            Step::NetCap {
                net: rng.gen_range(0..num_nets),
                cap_ff: rng.gen_range(0.0..6.0),
            }
        };
        if op % 37 == 36 {
            let expired = RunBudget::unbounded().with_deadline(Duration::ZERO);
            steps.push((edit, expired));
            steps.push((Step::Nothing, RunBudget::unbounded()));
        } else {
            steps.push((edit, RunBudget::unbounded()));
        }
    }
    // Idle at the end: nothing pending, an empty cone on every lane.
    steps.push((Step::Nothing, RunBudget::unbounded()));
    steps
}

/// The [`stream`] on `circuit`, through the three quotient lanes.
fn differential(circuit: PaperCircuit, scale: f64, seed: u64, edits: usize) {
    let verilog = write_verilog(&circuit.build(scale), circuit.name());
    let exec = Executor::new(2);
    let mut public = Lane::new(&verilog);
    let mut restricted = Lane::new(&verilog);
    let mut session =
        Session::create("product", DesignSources::verilog_only(verilog), 2).expect("session");
    let (num_gates, num_nets) = {
        let netlist = public.timer.netlist();
        (netlist.num_gates() as u32, netlist.num_nets() as u32)
    };
    let steps = stream(num_gates, num_nets, seed, edits);
    let ckpt = std::env::temp_dir().join(format!(
        "gpasta-differential-{}-{circuit}.ckpt",
        std::process::id()
    ));
    // The copy restored right after a stopped update, kept for one step.
    let mut restored_after_stop: Option<Session> = None;

    let (mut cones, mut full, mut stopped) = (0, 0, 0);
    for (i, (step, budget)) in steps.iter().enumerate() {
        let what = format!("{circuit} seed {seed:#x}, step {i} ({step:?})");
        step.apply_to_timer(&mut public.timer);
        step.apply_to_timer(&mut restricted.timer);
        step.apply_to_session(&mut session);

        let full_space = 2 * public.timer.graph().num_nodes();
        let (want, want_quotient) = public.public_step(&exec, budget);
        let (got, got_quotient) = restricted.restriction(&exec, budget);
        assert_eq!(got, want, "{what}: restriction lane counts");
        match (&got_quotient, &want_quotient) {
            (Some((graph, members)), Some((want_graph, want_members))) => {
                assert_eq!(members, want_members, "{what}: partitions, member order");
                assert!(graph.weights() == want_graph.weights(), "{what}: weights");
                for (a, b) in want_graph.edges() {
                    assert!(
                        graph.successors(a).contains(&b.0),
                        "{what}: lost {a} -> {b}"
                    );
                }
                assert!(
                    want.tasks < full_space || graph == want_graph,
                    "{what}: a full update runs the exact quotient"
                );
            }
            (None, None) => {}
            _ => panic!("{what}: one lane had an empty cone"),
        }

        let outcome = session.update_timing(budget).expect("update");
        let product = Counts {
            stop: outcome.stop,
            tasks: outcome.tasks,
            repair_moved: outcome.repair_moved,
            repair_fresh: outcome.repair_fresh,
            unknown_endpoints: outcome.unknown_endpoints,
        };
        assert_eq!(product, want, "{what}: UpdateOutcome");
        assert_report_is_from_scratch(&session, &what);
        let all = session.timer().graph().endpoints().len();
        let ranked = session.report(all).worst;
        let unknown = ranked.iter().filter(|e| e.slack_ps.is_nan()).count();
        assert!(
            unknown >= outcome.unknown_endpoints as usize,
            "{what}: a stopped update's endpoints read unknown"
        );

        let snapshot = public.timer.snapshot();
        assert!(
            restricted.timer.snapshot() == snapshot,
            "{what}: restriction bits"
        );
        assert!(
            session.timer().snapshot() == snapshot,
            "{what}: session bits"
        );
        assert_eq!(
            restricted.inc.raw_assignment(),
            public.inc.raw_assignment(),
            "{what}: restriction lane's cached partition"
        );

        // The step after a stop, on the copy restored at the stop: both
        // agree once the session's update has healed it.
        if let Some(mut copy) = restored_after_stop.take() {
            step.apply_to_session(&mut copy);
            copy.update_timing(budget).expect("update");
            assert!(
                copy.timer().snapshot() == snapshot,
                "{what}: the copy restored at the stop, updated"
            );
        }
        // Evict → restore a copy: the checkpoint holds only the edit state,
        // and the restore derives every value from it.
        let copy = session
            .evict_to(&ckpt)
            .expect("evict")
            .restore(2)
            .expect("restore");
        assert_report_is_from_scratch(&copy, &format!("{what}, restored"));
        if want.stop == StopCause::Completed {
            assert!(copy.timer().snapshot() == snapshot, "{what}: restored bits");
        } else {
            let unknown = copy.report(all).worst;
            let unknown = unknown.iter().filter(|e| e.slack_ps.is_nan()).count();
            assert_eq!(unknown, 0, "{what}: the restored copy reads no unknown");
            restored_after_stop = Some(copy);
        }

        stopped += usize::from(want.stop != StopCause::Completed);
        full += usize::from(want.tasks == full_space);
        cones += usize::from(want.tasks > 0 && want.tasks < full_space);
    }
    std::fs::remove_file(&ckpt).ok();
    assert!(cones >= edits * 3 / 4, "{cones} proper cones in {edits}");
    assert!(full >= edits / 29, "{full} full-dirty updates");
    assert!(stopped >= edits / 37, "{stopped} zero-deadline updates");

    // The members of the last non-trivial quotient really are partitions
    // of the cache: spot-check the flattening itself on one more cone.
    public.timer.repower_gate(GateId(0), 2.0);
    restricted.timer.repower_gate(GateId(0), 2.0);
    let (_, flat) = restricted.restriction(&exec, &RunBudget::unbounded());
    let (_, members) = flat.expect("a repower dirties a cone");
    let raw = restricted.inc.raw_assignment().expect("warm cache");
    for part in &members {
        assert!(part.windows(2).all(|w| w[0] < w[1]), "members ascend");
        assert!(
            part.iter()
                .all(|&t| raw[t as usize] == raw[part[0] as usize]),
            "a quotient node is one cached partition"
        );
    }
    assert_eq!(
        restricted.inc.quotient_builds(),
        1,
        "every cone and every full update of the stream, off one quotient"
    );
}

/// Edits per circuit: 110 (220 over the suite), or `PROPTEST_CASES` when
/// that is larger (the nightly CI job raises it).
fn edits() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or(110, |cases: usize| cases.max(110))
}

#[test]
fn aes_core_direct_quotient_equals_the_public_step_path() {
    differential(PaperCircuit::AesCore, 0.004, 0xC0DE, edits());
}

#[test]
fn vga_lcd_direct_quotient_equals_the_public_step_path() {
    differential(PaperCircuit::VgaLcd, 0.002, 0x7A57E, edits());
}

/// Evict → restore → full update → cone update: every bit matches a
/// session that never left memory.
#[test]
fn restored_session_matches_one_that_was_never_evicted() {
    let circuit = PaperCircuit::AesCore;
    let verilog = write_verilog(&circuit.build(0.004), circuit.name());
    let sources = DesignSources::verilog_only(verilog);
    let mut kept = Session::create("evicted", sources.clone(), 2).expect("session");
    let mut evicted = Session::create("evicted", sources, 2).expect("session");
    let unbounded = RunBudget::unbounded();
    let warm_up = [
        Step::Repower {
            gate: 3,
            drive: 2.0,
        },
        Step::NetCap {
            net: 5,
            cap_ff: 3.5,
        },
    ];
    for step in warm_up {
        for session in [&mut kept, &mut evicted] {
            step.apply_to_session(session);
            session.update_timing(&unbounded).expect("update");
        }
    }

    let path =
        std::env::temp_dir().join(format!("gpasta-cone-quotient-{}.ckpt", std::process::id()));
    let dormant = evicted.evict_to(&path).expect("evict");
    drop(evicted);
    let mut restored = dormant.restore(2).expect("restore");
    std::fs::remove_file(&path).ok();

    let full_space = 2 * kept.timer().graph().num_nodes();
    let after = [
        Step::Clock { period_ps: 900.0 },
        Step::Repower {
            gate: 11,
            drive: 0.5,
        },
    ];
    for (i, step) in after.into_iter().enumerate() {
        step.apply_to_session(&mut kept);
        step.apply_to_session(&mut restored);
        let want = kept.update_timing(&unbounded).expect("update");
        let got = restored.update_timing(&unbounded).expect("update");
        assert_eq!(got, want, "step {i}: UpdateOutcome");
        assert_eq!(
            want.tasks == full_space,
            i == 0,
            "a full update, then a cone"
        );
        assert!(
            restored.timer().snapshot() == kept.timer().snapshot(),
            "step {i}: bits"
        );
    }
}

/// The [`stream`]'s edits (no update stops early, so nothing degrades)
/// through a session under an unbounded budget, which runs every cone in
/// order, a `ScheduledTimer`, and an unpartitioned sequential twin, beside
/// a bare partition cache installed once on the same design. Half way the
/// session is evicted and restored.
fn path_independence(circuit: PaperCircuit, scale: f64, seed: u64, edits: usize, workers: usize) {
    let verilog = write_verilog(&circuit.build(scale), circuit.name());
    let sources = DesignSources::verilog_only(verilog.clone());
    let mut free = Session::create("lane", sources, workers).expect("session");
    let mut pinned =
        ScheduledTimer::new(timer_of(&verilog), Executor::new(workers)).expect("install");
    let unbounded = RunBudget::unbounded();
    pinned.update(&unbounded).expect("initial analysis");
    let Lane {
        timer: mut twin,
        inc: installed,
        ..
    } = Lane::new(&verilog);
    let netlist = twin.netlist();
    let steps = stream(
        netlist.num_gates() as u32,
        netlist.num_nets() as u32,
        seed,
        edits,
    );

    let mut before_eviction = 0;
    let (mut pinned_tasks, mut pinned_executed) = (0, 0);
    for (i, (step, _)) in steps.iter().enumerate() {
        let what = format!("{circuit} seed {seed:#x}, {workers} worker(s), step {i} ({step:?})");
        if i == steps.len() / 2 {
            let path = std::env::temp_dir().join(format!(
                "gpasta-path-independence-{}-{circuit}-{workers}.ckpt",
                std::process::id()
            ));
            before_eviction = free.task_counts().0;
            free = free
                .evict_to(&path)
                .expect("evict")
                .restore(workers)
                .expect("restore");
            std::fs::remove_file(&path).ok();
            assert_eq!(
                free.task_counts(),
                (0, 0),
                "{what}: the counts are not checkpointed"
            );
            assert_report_is_from_scratch(&free, &format!("{what}, restored"));
        }
        let ran_before = free.task_counts();
        step.apply_to_session(&mut free);
        step.apply_to_timer(pinned.timer_mut());
        step.apply_to_timer(&mut twin);

        let got = free.update_timing(&unbounded).expect("update");
        let rec = pinned.update(&unbounded).expect("update");
        let outcome = &rec.outcome;
        let want = Counts {
            stop: outcome.stop,
            tasks: outcome.salvaged_tasks
                + outcome.poisoned_tasks.len()
                + outcome.unfinished_tasks.len(),
            repair_moved: 0,
            repair_fresh: 0,
            unknown_endpoints: unknown_endpoints(&rec),
        };
        let update = twin.update_timing();
        let ids = update.full_space_ids();
        update.run_sequential();
        drop(update);
        let product = Counts {
            stop: got.stop,
            tasks: got.tasks,
            repair_moved: got.repair_moved,
            repair_fresh: got.repair_fresh,
            unknown_endpoints: got.unknown_endpoints,
        };
        assert_eq!(product, want, "{what}: UpdateOutcome");
        assert_eq!(got.stop, StopCause::Completed, "{what}");
        assert_report_is_from_scratch(&free, &format!("{what}, unbounded"));
        assert_eq!(
            (got.tasks, got.repair_moved, got.repair_fresh),
            (ids.len(), 0, 0),
            "{what}: the session's counts against the twin's cone"
        );
        // In order, a partial cone runs only what changed; `tasks` is the
        // structural size either way.
        let ran = free.task_counts();
        let (structural, executed) = (ran.0 - ran_before.0, ran.1 - ran_before.1);
        assert_eq!(structural, got.tasks as u64, "{what}: structural count");
        match step {
            Step::Clock { .. } => assert_eq!(executed, structural, "{what}: all of it"),
            Step::Repower { .. } | Step::NetCap { .. } => {
                assert!(executed < structural, "{what}: {executed} of {structural}");
            }
            Step::Nothing => assert_eq!((structural, executed), (0, 0), "{what}: idle"),
        }
        pinned_tasks += got.tasks;
        pinned_executed += outcome.report.tasks_executed;

        let snapshot = twin.snapshot();
        assert!(free.timer().snapshot() == snapshot, "{what}: free bits");
        assert!(pinned.timer().snapshot() == snapshot, "{what}: pinned bits");
        assert_eq!(
            Some(pinned.partition_assignment()),
            installed.raw_assignment(),
            "{what}: the installed partition"
        );
    }

    assert!(
        before_eviction > 0 && free.task_counts().0 > 0,
        "both halves ran"
    );
    assert_eq!(
        pinned_executed, pinned_tasks,
        "the executor runs the whole structural cone"
    );
}

#[test]
fn aes_core_updates_do_not_depend_on_the_path_taken() {
    for workers in [1, 2, 4] {
        path_independence(PaperCircuit::AesCore, 0.004, 0xC0DE, edits(), workers);
    }
}

#[test]
fn vga_lcd_updates_do_not_depend_on_the_path_taken() {
    for workers in [1, 2, 4] {
        path_independence(PaperCircuit::VgaLcd, 0.002, 0x7A57E, edits(), workers);
    }
}

/// A `set_output_delay` on its own moves no arrival: the output's slack
/// moves with its required time, and the kept summary has to follow — as it
/// has to stand still through an idle update, and through an edit to the
/// value already there.
#[test]
fn a_lone_output_delay_moves_the_report_through_a_required_time() {
    let circuit = PaperCircuit::AesCore;
    let verilog = write_verilog(&circuit.build(0.004), circuit.name());
    let mut session =
        Session::create("outputs", DesignSources::verilog_only(verilog), 2).expect("session");
    assert_report_is_from_scratch(&session, "created");
    let unbounded = RunBudget::unbounded();
    let outputs = session.timer().netlist().num_outputs();
    assert!(outputs > 1, "{outputs} outputs");
    let full_space = 2 * session.timer().graph().num_nodes();
    let mut moved = 0;
    for (i, delay_ps) in [400.0f32, 400.0, 900.0, 0.0].into_iter().enumerate() {
        for port in 0..outputs {
            let what = format!("output {port}, delay {delay_ps}");
            let before = session.report(1).tns_ps.to_bits();
            let edit = Edit::SetOutputDelay {
                port: port.to_string(),
                delay_ps,
            };
            session.apply_edit(&edit).expect("valid edit");
            let outcome = session.update_timing(&unbounded).expect("update");
            assert!(
                0 < outcome.tasks && outcome.tasks < full_space,
                "{what}: a cone"
            );
            assert_report_is_from_scratch(&session, &what);
            let after = session.report(1).tns_ps.to_bits();
            assert!(i != 1 || after == before, "{what}: the same delay again");
            moved += usize::from(after != before);
        }
        let idle = session.update_timing(&unbounded).expect("update");
        assert_eq!(idle.tasks, 0);
        assert_report_is_from_scratch(&session, "idle");
    }
    assert!(moved > 0, "a 900 ps output delay breaks a 1 ns clock");
}
