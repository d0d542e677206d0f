//! Graceful degradation for `update_timing`: run the update TDG through the
//! recovering executor, salvage every timing value outside the poisoned
//! cone, mark poisoned endpoints unknown, and optionally *heal* — re-run
//! just the quarantined cone sequentially to converge to the bit-identical
//! fault-free answer.
//!
//! The recovery contract leans on two properties of the engine:
//!
//! * the poisoned task set returned by the executor is the exact forward
//!   closure of the permanently failed tasks, so every salvaged task's
//!   inputs were produced by salvaged tasks — salvaged values are exactly
//!   the fault-free values;
//! * `fprop`/`bprop` fully overwrite everything they produce from upstream
//!   state, so re-running the poisoned tasks in topological order (after
//!   the salvage) converges to the same bits a fault-free run produces.

use crate::analysis::TimingData;
use crate::graph::{bit_is_set, set_bit, NodeId, TimingGraph};
use crate::report::EndpointSummary;
use crate::timer::{ConeBits, DirtyCone, TaskKind, TimingUpdateTdg};
use gpasta_sched::{
    panic_message, Executor, FaultPlan, FaultyWork, RetryPolicy, RunBudget, RunOutcome, TaskError,
};
use gpasta_tdg::{QuotientTdg, TaskId};

/// Result of a recovering timing update: the executor's [`RunOutcome`]
/// plus its projection onto the timing graph.
#[derive(Debug, Clone)]
pub struct RecoveredUpdate {
    /// The executor-level outcome (salvaged/poisoned/unfinished tasks,
    /// failures, retries, stop cause, scheduling report).
    pub outcome: RunOutcome,
    /// Nodes whose forward state (arrival/slew) is poisoned: their fprop
    /// task is in the quarantine. Sorted by node id.
    pub poisoned_fprop_nodes: Vec<NodeId>,
    /// Nodes whose required times are poisoned: their bprop task is in the
    /// quarantine. Sorted by node id.
    pub poisoned_bprop_nodes: Vec<NodeId>,
    /// Endpoints whose slack cannot be trusted (their fprop or bprop task
    /// is poisoned). Sorted, deduplicated.
    pub poisoned_endpoints: Vec<NodeId>,
    /// Nodes whose fprop task was never admitted because the run stopped
    /// early (deadline or cancellation). Disjoint from the poisoned set.
    /// Sorted by node id.
    pub unfinished_fprop_nodes: Vec<NodeId>,
    /// Nodes whose bprop task was never admitted. Sorted by node id.
    pub unfinished_bprop_nodes: Vec<NodeId>,
    /// Endpoints whose slack is stale because a task feeding it was never
    /// admitted. Sorted, deduplicated.
    pub unfinished_endpoints: Vec<NodeId>,
}

impl RecoveredUpdate {
    /// `true` when nothing failed *and* the run ran to completion: every
    /// value is the fault-free value.
    pub fn is_clean(&self) -> bool {
        self.outcome.is_clean()
    }
}

/// Project an executor outcome onto the timing graph: split the poisoned
/// and unfinished task sets by propagation direction and collect the
/// affected endpoints. `decode` names a task's `(kind, node)` in whichever
/// id space the run was dispatched in.
fn project(
    graph: &TimingGraph,
    outcome: RunOutcome,
    decode: impl Fn(u32) -> (TaskKind, NodeId),
) -> RecoveredUpdate {
    let split = |tasks: &[u32]| {
        let mut fprop = Vec::new();
        let mut bprop = Vec::new();
        let mut endpoints = Vec::new();
        for &t in tasks {
            let (kind, v) = decode(t);
            match kind {
                TaskKind::Fprop => fprop.push(v),
                TaskKind::Bprop => bprop.push(v),
            }
            if graph.is_endpoint(v) {
                endpoints.push(v);
            }
        }
        fprop.sort_unstable_by_key(|v| v.0);
        bprop.sort_unstable_by_key(|v| v.0);
        endpoints.sort_unstable_by_key(|v| v.0);
        endpoints.dedup();
        (fprop, bprop, endpoints)
    };
    let (poisoned_fprop_nodes, poisoned_bprop_nodes, poisoned_endpoints) =
        split(&outcome.poisoned_tasks);
    let (unfinished_fprop_nodes, unfinished_bprop_nodes, unfinished_endpoints) =
        split(&outcome.unfinished_tasks);
    RecoveredUpdate {
        outcome,
        poisoned_fprop_nodes,
        poisoned_bprop_nodes,
        poisoned_endpoints,
        unfinished_fprop_nodes,
        unfinished_bprop_nodes,
        unfinished_endpoints,
    }
}

/// Store NaN into every poisoned *and unfinished* value of `rec`: arrival
/// and slew for affected fprop nodes, required times for affected bprop
/// nodes. Salvaged values are untouched.
fn mark_unknown(data: &TimingData, rec: &RecoveredUpdate) {
    for nodes in [&rec.poisoned_fprop_nodes, &rec.unfinished_fprop_nodes] {
        for &v in nodes {
            data.mark_arrival_unknown(v);
        }
    }
    for nodes in [&rec.poisoned_bprop_nodes, &rec.unfinished_bprop_nodes] {
        for &v in nodes {
            data.mark_required_unknown(v);
        }
    }
}

/// Run `cone` through `payload` on the calling thread and return how many
/// tasks ran: a whole-design cone front to back, a partial one by
/// [`run_changed`]. The first panic stops the run and is reported as the
/// executor reports a contained payload panic.
fn run_in_order(cone: &DirtyCone<'_>, payload: impl Fn(TaskId)) -> Result<usize, TaskError> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let mut bits = cone.bits.lock();
    let partial = !bits.seeds.is_empty();
    let executed = catch_unwind(AssertUnwindSafe(|| {
        if partial {
            return run_changed(cone, &mut bits, &payload);
        }
        cone.ids().iter().for_each(|&id| payload(TaskId(id)));
        cone.num_tasks()
    }))
    .map_err(|panic| {
        // A sweep that stopped half way leaves bits set.
        *bits = ConeBits::default();
        TaskError::Fatal(panic_message(panic.as_ref()))
    })?;
    // The referee of every skip, outside the net that would turn its panic
    // into a scheduled rerun: the whole cone stores the bits it finds.
    if partial && cfg!(debug_assertions) {
        let settled = cone.data().snapshot();
        cone.ids().iter().for_each(|&id| payload(TaskId(id)));
        debug_assert!(settled == cone.data().snapshot(), "a skipped task was due");
    }
    Ok(executed)
}

/// Run only what changed: the two sweeps of cone discovery, reaching a
/// task's neighbours only if it stored a different bit than it found. So a
/// task runs if its node is a seed or an input of it changed — for fprop a
/// fan-in's arrival or slew; for bprop a fan-out's required time, or a
/// fan-out's fprop having changed its arrival, its slew or a delay it
/// caches on its fan-in arcs. A seed counts as changed whatever it stores:
/// what the edit wrote (a net's delay and load, a drive, a port constraint)
/// is read by the seed's tasks *and its neighbours'*, and is not a value
/// compared here. Sound because, on entry, every other node's stored
/// values are the function of its stored inputs (DESIGN.md §8). Bit
/// patterns compare: an unknown (NaN) equals itself, `-0.0` is not `0.0`.
///
/// Every endpoint whose fprop ran is noted in `bits.endpoints`, for
/// [`DirtyCone::point_update`] to re-read: ran, not changed — the slack is
/// compared there, once, instead of eight stored values here. The forward
/// sweep's note covers the backward sweep: an endpoint has no fan-out, so its
/// bprop runs only as a seed, and a seed's fprop runs too. Mutation
/// `fed-if-stored` (note an endpoint only `if found != data.fprop_bits(v)`)
/// fails `an_output_delay_alone_reruns_the_backward_cone`.
fn run_changed(cone: &DirtyCone<'_>, bits: &mut ConeBits, payload: &impl Fn(TaskId)) -> usize {
    let ConeBits {
        seeds,
        f,
        b,
        arcs,
        endpoints,
    } = bits;
    endpoints.clear();
    let (graph, data) = (cone.graph(), cone.data());
    let (view, order) = (graph.level_view(), graph.level_order());
    let is_seed = |r| bit_is_set(seeds, r);
    let delays = |v| graph.fanin(v).iter().map(|&a| data.arc_delay_bits(a));
    f.copy_from_slice(seeds);
    b.copy_from_slice(seeds);
    let mut executed = 0;
    view.sweep::<true>(f, |r| {
        let v = NodeId(order[r as usize]);
        let found = data.fprop_bits(v);
        arcs.clear();
        arcs.extend(delays(v));
        payload(TaskId(r));
        executed += 1;
        endpoints.extend(graph.endpoint_index(v));
        let moved = is_seed(r) || found != data.fprop_bits(v);
        if moved || delays(v).ne(arcs.iter().copied()) {
            view.pred(r as usize).iter().for_each(|&p| set_bit(b, p));
        }
        moved
    });
    let top = 2 * order.len() as u32 - 1;
    view.sweep::<false>(b, |r| {
        let v = NodeId(order[r as usize]);
        let found = data.required_bits(v);
        payload(TaskId(top - r));
        executed += 1;
        is_seed(r) || found != data.required_bits(v)
    });
    executed
}

impl DirtyCone<'_> {
    /// Run this cone unscheduled, on the calling thread, in ascending
    /// full-space id — a topological order of the cone (see [`DirtyCone`]),
    /// so no dependency graph, quotient or executor is involved — and
    /// return the number of tasks executed: all
    /// [`num_tasks`](DirtyCone::num_tasks) of a whole-design cone, and of a
    /// partial one only the tasks a changed value reaches, which assumes
    /// the timing state was consistent before the edits (as it is after any
    /// completed update or restore). Bit-identical to any scheduled run of
    /// the same cone; debug builds then run every task and assert that.
    ///
    /// # Errors
    ///
    /// [`TaskError::Fatal`] with the text of the first payload panic; the
    /// tasks after it have not run. The payload is idempotent, so the
    /// whole cone can be run again — through
    /// [`run_partitioned_recovering_bounded`](DirtyCone::run_partitioned_recovering_bounded),
    /// which runs every task of it, when the failure should be contained
    /// to its forward closure.
    pub fn run_in_order(&self) -> Result<usize, TaskError> {
        run_in_order(self, self.task_fn())
    }

    /// After a [`run_in_order`](DirtyCone::run_in_order) that returned
    /// `Ok`: bring `summary` — the late-mode summary of the design as it
    /// stood before that run — up to date by re-reading the slack of the
    /// endpoints a task ran on (nothing else writes an endpoint's arrival or
    /// required time) and
    /// [`set`](EndpointSummary::set)ting those that moved. Returns `false`,
    /// with `summary` untouched, if the run was of a whole-design cone and
    /// kept no such list: every endpoint may have moved.
    pub fn point_update(&self, summary: &mut EndpointSummary) -> bool {
        let bits = self.bits.lock();
        if bits.seeds.is_empty() {
            return false;
        }
        for &i in &bits.endpoints {
            let v = NodeId(self.graph().endpoints()[i as usize]);
            summary.set(i as usize, self.data().slack_late(v));
        }
        true
    }

    /// Whether both sweep bitsets are all zero, as discovery and every run
    /// leave them.
    #[doc(hidden)]
    pub fn sweep_bits_are_zero(&self) -> bool {
        let bits = self.bits.lock();
        bits.f.iter().chain(&bits.b).all(|&w| w == 0)
    }

    /// Run this cone through the recovering executor, dispatching the nodes
    /// of `quotient` — a quotient whose members are this cone's full-space
    /// ids, i.e. one built over the full-space TDG restricted to
    /// [`ids`](DirtyCone::ids). Faults, budget and the returned
    /// [`RecoveredUpdate`] are exactly as for
    /// [`TimingUpdateTdg::run_partitioned_recovering_bounded`].
    pub fn run_partitioned_recovering_bounded(
        &self,
        exec: &Executor,
        quotient: &QuotientTdg,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        budget: &RunBudget,
    ) -> RecoveredUpdate {
        let payload = self.task_fn();
        let work = FaultyWork::new(&payload, plan);
        let outcome = exec.run_partitioned_recovering_bounded(quotient, &work, policy, budget);
        project(self.graph(), outcome, |id| self.decode(id))
    }

    /// Degrade explicitly, as [`TimingUpdateTdg::mark_unknown`].
    pub fn mark_unknown(&self, rec: &RecoveredUpdate) {
        mark_unknown(self.data(), rec);
    }
}

impl<'a> TimingUpdateTdg<'a> {
    /// Run this update through the recovering executor with faults drawn
    /// from `plan` (use [`FaultPlan::none`] in production for a
    /// fault-transparent run) under `budget` (use [`RunBudget::unbounded`]
    /// to run to completion). Never unwinds: failures are contained to
    /// their forward closure and reported in the returned
    /// [`RecoveredUpdate`]; when `budget` expires (deadline or
    /// cancellation) the run stops admitting tasks and the forward closure
    /// of everything unadmitted is reported as *unfinished*. Every other
    /// timing value is salvaged — it carries its exact fault-free value, so
    /// a later [`heal`](TimingUpdateTdg::heal) converges to the
    /// bit-identical complete answer.
    pub fn run_recovering_bounded(
        &self,
        exec: &Executor,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        budget: &RunBudget,
    ) -> RecoveredUpdate {
        let payload = self.task_fn();
        let work = FaultyWork::new(&payload, plan);
        let outcome = exec.run_tdg_recovering_bounded(self.tdg(), &work, policy, budget);
        self.project(outcome)
    }

    /// Partitioned variant of
    /// [`run_recovering_bounded`](TimingUpdateTdg::run_recovering_bounded):
    /// dispatches `quotient` nodes, so a failure quarantines the whole
    /// partition plus its quotient-graph forward closure, and the budget is
    /// polled at partition boundaries (the stop latency is one partition's
    /// worth of propagation work). `quotient` must be built over this
    /// update's TDG.
    pub fn run_partitioned_recovering_bounded(
        &self,
        exec: &Executor,
        quotient: &QuotientTdg,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        budget: &RunBudget,
    ) -> RecoveredUpdate {
        let payload = self.task_fn();
        let work = FaultyWork::new(&payload, plan);
        let outcome = exec.run_partitioned_recovering_bounded(quotient, &work, policy, budget);
        self.project(outcome)
    }

    fn project(&self, outcome: RunOutcome) -> RecoveredUpdate {
        project(self.graph(), outcome, |t| {
            (self.kind(TaskId(t)), self.node(TaskId(t)))
        })
    }

    /// Degrade explicitly: store NaN into every poisoned *and unfinished*
    /// value so reports show *unknown* instead of a stale-but-plausible
    /// number. Arrival and slew are marked for affected fprop nodes,
    /// required times for affected bprop nodes. Salvaged values are
    /// untouched.
    ///
    /// A subsequent [`heal`](TimingUpdateTdg::heal) overwrites the NaNs
    /// with the converged values.
    pub fn mark_unknown(&self, rec: &RecoveredUpdate) {
        mark_unknown(self.data(), rec);
    }

    /// Re-run exactly the degraded region — the poisoned cone plus the
    /// unfinished closure of an early-stopped run — sequentially
    /// (fault-free), in topological order, converging the whole design to
    /// the bit-identical fault-free answer: the salvaged region is already
    /// exact, and propagation tasks rebuild everything they produce from
    /// upstream state. Returns the number of tasks re-executed.
    pub fn heal(&self, rec: &RecoveredUpdate) -> usize {
        if rec.outcome.poisoned_tasks.is_empty() && rec.outcome.unfinished_tasks.is_empty() {
            return 0;
        }
        let mut rerun = vec![false; self.tdg().num_tasks()];
        for &t in rec
            .outcome
            .poisoned_tasks
            .iter()
            .chain(&rec.outcome.unfinished_tasks)
        {
            rerun[t as usize] = true;
        }
        let mut healed = 0usize;
        for &t in self.tdg().levels().order() {
            if rerun[t as usize] {
                self.execute_task(TaskId(t));
                healed += 1;
            }
        }
        healed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{CellKind, CellLibrary};
    use crate::netlist::NetlistBuilder;
    use crate::timer::Timer;
    use gpasta_sched::FaultKind;

    /// A small multi-cone design: two mostly-independent chains sharing
    /// the input stage, so one cone can be poisoned while the other is
    /// salvaged.
    fn two_cone_timer() -> Timer {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let b = nb.add_primary_input("b");
        let y0 = nb.add_primary_output("y0");
        let y1 = nb.add_primary_output("y1");
        let mut prev0 = None;
        let mut prev1 = None;
        for i in 0..4 {
            let g0 = nb.add_gate(format!("u0_{i}"), CellKind::Inv);
            let g1 = nb.add_gate(format!("u1_{i}"), CellKind::Buf);
            match prev0 {
                None => nb.connect_to_gate(a, g0, 0).expect("valid"),
                Some(p) => nb.connect_gates(p, g0, 0).expect("valid"),
            }
            match prev1 {
                None => nb.connect_to_gate(b, g1, 0).expect("valid"),
                Some(p) => nb.connect_gates(p, g1, 0).expect("valid"),
            }
            prev0 = Some(g0);
            prev1 = Some(g1);
        }
        nb.connect_to_output(prev0.expect("built"), y0)
            .expect("valid");
        nb.connect_to_output(prev1.expect("built"), y1)
            .expect("valid");
        Timer::new(nb.build().expect("well-formed"), CellLibrary::typical())
    }

    /// Bit-exact snapshot of every endpoint's late slack.
    fn slack_bits(timer: &Timer) -> Vec<u32> {
        timer
            .graph()
            .endpoints()
            .iter()
            .map(|&v| timer.data().slack_late(NodeId(v)).to_bits())
            .collect()
    }

    #[test]
    fn clean_plan_recovers_everything() {
        let mut timer = two_cone_timer();
        let update = timer.update_timing();
        let rec = update.run_recovering_bounded(
            &Executor::new(2),
            &FaultPlan::none(),
            &RetryPolicy::default(),
            &RunBudget::unbounded(),
        );
        assert!(rec.is_clean());
        assert_eq!(rec.outcome.salvaged_tasks, update.tdg().num_tasks());
        assert!(rec.poisoned_endpoints.is_empty());
        drop(update);
        assert!(timer.report(1).wns_ps.is_finite());
    }

    #[test]
    fn poisoned_cone_is_contained_and_marked_unknown() {
        // Reference: fault-free run.
        let mut ref_timer = two_cone_timer();
        let ref_update = ref_timer.update_timing();
        ref_update.run_sequential();
        drop(ref_update);
        let reference = slack_bits(&ref_timer);

        let mut timer = two_cone_timer();
        let update = timer.update_timing();
        // Poison the fprop of the first cone's second gate output — found
        // by walking tasks for a node on cone 0.
        let seed_task = (0..update.num_fprop_tasks() as u32)
            .map(TaskId)
            .find(|&t| {
                !update.graph().fanin(update.node(t)).is_empty()
                    && !update.graph().is_endpoint(update.node(t))
            })
            .expect("an interior fprop task exists");
        let plan = FaultPlan::none().inject(seed_task.0, 0, FaultKind::WrongResult);
        let rec = update.run_recovering_bounded(
            &Executor::new(2),
            &plan,
            &RetryPolicy::no_retries(),
            &RunBudget::unbounded(),
        );
        assert!(!rec.is_clean());
        assert!(!rec.poisoned_endpoints.is_empty(), "cone reaches endpoints");
        assert!(
            rec.poisoned_endpoints.len() < update.graph().endpoints().len(),
            "the other cone's endpoints are salvaged"
        );
        update.mark_unknown(&rec);
        let data = update.data();
        for &v in &rec.poisoned_fprop_nodes {
            assert!(data.is_unknown(v), "poisoned node {v:?} must read unknown");
        }
        drop(update);
        // Salvaged endpoints carry the bit-exact fault-free slack.
        let damaged = slack_bits(&timer);
        let poisoned: Vec<u32> = rec.poisoned_endpoints.iter().map(|v| v.0).collect();
        for (i, &v) in timer.graph().endpoints().iter().enumerate() {
            if poisoned.contains(&v) {
                assert!(
                    f32::from_bits(damaged[i]).is_nan(),
                    "poisoned endpoint {v} must be unknown"
                );
            } else {
                assert_eq!(damaged[i], reference[i], "salvaged endpoint {v}");
            }
        }
    }

    #[test]
    fn in_order_run_of_a_cone_matches_the_sequential_run() {
        let mut ref_timer = two_cone_timer();
        let mut timer = two_cone_timer();
        for t in [&mut ref_timer, &mut timer] {
            t.update_timing().run_sequential();
            t.repower_gate(crate::GateId(2), 4.0);
        }
        ref_timer.update_timing().run_sequential();
        let cone = timer.dirty_cone();
        assert!(cone.num_tasks() < 2 * cone.graph().num_nodes(), "a cone");
        let executed = cone.run_in_order().expect("no task panics");
        assert!(0 < executed && executed <= cone.num_tasks());
        assert!(cone.sweep_bits_are_zero());
        drop(cone);
        assert!(timer.snapshot() == ref_timer.snapshot());
    }

    /// Settle `make()` and a twin, apply `edit` to both, run the twin's
    /// update TDG sequentially and the timer's cone in order: the same bits
    /// everywhere, and the settled design's endpoint summary, point-updated
    /// by the cone, is the summary of the new values. Returns the timer and
    /// `(executed, structural)`.
    fn in_order_against_a_twin(
        make: fn() -> Timer,
        edit: impl Fn(&mut Timer),
    ) -> (Timer, usize, usize) {
        let (mut timer, mut twin) = (make(), make());
        for t in [&mut timer, &mut twin] {
            t.update_timing().run_sequential();
            edit(t);
        }
        twin.update_timing().run_sequential();
        let mut summary = timer.endpoint_summary();
        let cone = timer.dirty_cone();
        let structural = cone.num_tasks();
        let executed = cone.run_in_order().expect("no task panics");
        assert!(cone.sweep_bits_are_zero());
        assert!(cone.point_update(&mut summary), "a partial cone");
        drop(cone);
        assert!(
            timer.snapshot() == twin.snapshot(),
            "a skipped task was due"
        );
        assert!(
            summary == twin.endpoint_summary(),
            "an endpoint that moved was not re-read"
        );
        (timer, executed, structural)
    }

    /// The net driven by `pin`.
    fn net_of(timer: &Timer, pin: crate::PinRef) -> u32 {
        let nets = timer.netlist().nets();
        nets.iter().position(|n| n.driver == pin).expect("driven") as u32
    }

    // Mutation `seed-compared` (a seed's stored bits decide like any other
    // task's: drop `is_seed(r) ||` from both sweeps) fails this test.
    #[test]
    fn a_net_edit_on_a_primary_input_reaches_the_sinks_of_the_net() {
        let a = crate::PortId(0);
        let (timer, executed, structural) = in_order_against_a_twin(two_cone_timer, |t| {
            t.set_net_cap(net_of(t, crate::PinRef::PrimaryInput(a)), 35.0)
        });
        assert!(executed < structural, "{executed} of {structural}");
        assert!(
            structural < 2 * timer.graph().num_nodes(),
            "one cone of two"
        );
        // The premise: the input's own arrival and slew did not move.
        let mut settled = two_cone_timer();
        settled.update_timing().run_sequential();
        let port = NodeId(a.0);
        assert_eq!(
            timer.data().fprop_bits(port),
            settled.data().fprop_bits(port)
        );
    }

    // Mutation `seed-forward-only` (`b` starts empty instead of as a copy
    // of the seeds) fails this test. The slack that moves here moves with a
    // required time alone; the output is re-read because its fprop, a
    // seed's, ran — storing what it found.
    #[test]
    fn an_output_delay_alone_reruns_the_backward_cone() {
        let (mut timer, executed, structural) = in_order_against_a_twin(two_cone_timer, |t| {
            t.set_output_delay(crate::PortId(1), 120.0)
        });
        // fprop of the output stores what it found; every bprop up its
        // chain stores a new required time.
        let chain = structural - 1;
        assert_eq!(executed, structural, "1 fprop + {chain} bprop tasks");
        let before = timer.report(1);
        timer.set_output_delay(crate::PortId(1), 0.0);
        timer.dirty_cone().run_in_order().expect("no task panics");
        assert!(timer.report(1).wns_ps > before.wns_ps, "the margin is back");
    }

    /// `long`, `mid` and `short` paths into one NAND3: with the wire caps
    /// set below, pin 0 carries the latest and slowest edge, pin 2 the
    /// earliest and sharpest, in every corner.
    fn dominated_pin_timer() -> Timer {
        let mut nb = NetlistBuilder::new();
        let y = nb.add_primary_output("y");
        let nand = nb.add_gate("nand", CellKind::Nand3);
        for (pin, len) in [4, 2, 0].into_iter().enumerate() {
            let port = nb.add_primary_input(format!("i{pin}"));
            let mut prev = None;
            for i in 0..len {
                let g = nb.add_gate(format!("u{pin}_{i}"), CellKind::Buf);
                match prev {
                    None => nb.connect_to_gate(port, g, 0).expect("valid"),
                    Some(p) => nb.connect_gates(p, g, 0).expect("valid"),
                }
                prev = Some(g);
            }
            match prev {
                None => nb.connect_to_gate(port, nand, pin as u8),
                Some(p) => nb.connect_gates(p, nand, pin as u8),
            }
            .expect("valid");
        }
        nb.connect_to_output(nand, y).expect("valid");
        let mut timer = Timer::new(nb.build().expect("well-formed"), CellLibrary::typical());
        let nand = crate::GateId(0);
        for (pin, cap_ff) in [(0, 40.0), (1, 20.0)] {
            let driver = timer.graph().gate_input_node(nand, pin);
            let driver = timer.graph().arc(timer.graph().fanin(driver)[0]).from;
            let crate::NodeKind::GateOutput(g) = timer.graph().node_kind(driver) else {
                unreachable!("pins 0 and 1 hang off buffers");
            };
            let net = net_of(&timer, crate::PinRef::GateOutput(crate::GateId(g)));
            timer.set_net_cap(net, cap_ff);
        }
        timer
    }

    // Mutation `arc-delays-unseen` (drop the `delays(v)` comparison:
    // `if moved {`) fails this test.
    #[test]
    fn a_dominated_fan_in_still_reruns_the_bprop_behind_its_arc() {
        let nand = crate::GateId(0);
        let mid_net = |t: &Timer| {
            let pin = t.graph().gate_input_node(nand, 1);
            let from = t.graph().arc(t.graph().fanin(pin)[0]).from;
            let crate::NodeKind::GateOutput(g) = t.graph().node_kind(from) else {
                unreachable!("pin 1 hangs off a buffer");
            };
            net_of(t, crate::PinRef::GateOutput(crate::GateId(g)))
        };
        let settled = {
            let mut t = dominated_pin_timer();
            t.update_timing().run_sequential();
            t
        };
        let (timer, executed, structural) =
            in_order_against_a_twin(dominated_pin_timer, |t| t.set_net_cap(mid_net(t), 21.0));
        assert!(executed < structural, "{executed} of {structural}");

        // The premise: the NAND's output holds its merged bits, the cached
        // delay of the arc from pin 1 moved, and so did pin 1's required time.
        let (graph, was, now) = (timer.graph(), settled.data(), timer.data());
        let out = graph.gate_output_node(nand);
        assert_eq!(now.fprop_bits(out), was.fprop_bits(out), "dominated");
        let arc = graph.fanin(out)[1];
        assert_eq!(graph.arc(arc).from, graph.gate_input_node(nand, 1));
        assert_ne!(now.arc_delay_bits(arc), was.arc_delay_bits(arc));
        let pin = graph.gate_input_node(nand, 1);
        assert_ne!(now.required_bits(pin), was.required_bits(pin));
    }

    #[test]
    fn an_edit_to_the_value_already_there_runs_the_seeds_and_their_neighbours() {
        let edit = |t: &mut Timer| t.repower_gate(crate::GateId(2), 4.0);
        let (mut timer, _, structural) = in_order_against_a_twin(two_cone_timer, edit);
        let settled = timer.snapshot();
        edit(&mut timer);
        let cone = timer.dirty_cone();
        assert_eq!(cone.num_tasks(), structural, "the same structural cone");
        // A shared driver is dirtied once per pin it feeds: count positions.
        let view = cone.graph().level_view();
        let seeds: std::collections::BTreeSet<u32> = {
            let bits = cone.bits.lock();
            let n = cone.graph().num_nodes() as u32;
            (0..n).filter(|&r| bit_is_set(&bits.seeds, r)).collect()
        };
        let with = |neighbours: Vec<u32>| {
            let mut all = seeds.clone();
            all.extend(neighbours);
            all.len()
        };
        let succ = seeds.iter().flat_map(|&r| view.succ(r as usize));
        let pred = seeds.iter().flat_map(|&r| view.pred(r as usize));
        let want = with(succ.copied().collect()) + with(pred.copied().collect());
        assert_eq!(cone.run_in_order(), Ok(want), "seeds and neighbours");
        assert!(want < structural);
        drop(cone);
        assert!(timer.snapshot() == settled, "no bit changed");
    }

    #[test]
    fn stored_values_compare_as_bit_patterns() {
        // Edits to the value already there, and payloads that store what
        // they find: only the seed counts as changed.
        let mut timer = two_cone_timer();
        timer.update_timing().run_sequential();
        let far_end = |graph: &TimingGraph, arcs: &[u32]| *graph.arc(arcs[0]);

        // An unknown mark equals itself. Seed: input `a`; its fprop, the
        // fprop of its one sink, its bprop. NaN != NaN would run one more.
        let graph = timer.graph();
        let sink = far_end(graph, graph.fanout(NodeId(0))).to;
        timer.data().mark_arrival_unknown(sink);
        timer.set_input_delay(crate::PortId(0), 0.0);
        let cone = timer.dirty_cone();
        assert_eq!(run_in_order(&cone, |_| {}), Ok(3));
        drop(cone);

        // -0.0 is not 0.0. Seed: output `y0`; its fprop, its bprop, the
        // bprop of its driver — which turns one zero into the other the
        // first time, and so reaches *its* fan-in, and not the second time.
        let graph = timer.graph();
        let n = graph.num_nodes() as u32;
        let y0 = NodeId(n - 2);
        let driver = far_end(graph, graph.fanin(y0)).from;
        let bprop_of_driver = 2 * n - 1 - graph.level_view().rank[driver.index()];
        timer
            .data()
            .set_required_bits(driver, [0.0f32.to_bits(); 4]);
        for want in [4, 3] {
            timer.set_output_delay(crate::PortId(0), 0.0);
            let cone = timer.dirty_cone();
            let minus_zero = |t: TaskId| {
                if t.0 == bprop_of_driver {
                    let bits = [(-0.0f32).to_bits(); 4];
                    cone.data().set_required_bits(driver, bits);
                }
            };
            assert_eq!(run_in_order(&cone, minus_zero), Ok(want));
        }
    }

    #[test]
    fn in_order_panic_then_scheduled_rerun_equals_a_scheduled_only_run() {
        use gpasta_core::{Partitioner, PartitionerOptions, SeqGPasta};
        use std::sync::atomic::{AtomicUsize, Ordering};

        // A fresh timer's cone is the whole task space, so a twin's full
        // update TDG hosts the quotient that schedules it.
        let mut twin = two_cone_timer();
        let full = twin.update_timing();
        let p = SeqGPasta::new()
            .partition(full.tdg(), &PartitionerOptions::default())
            .expect("valid options");
        let quotient = QuotientTdg::build(full.tdg(), &p).expect("acyclic");
        let k = (0..full.num_fprop_tasks() as u32)
            .find(|&t| {
                let v = full.node(TaskId(t));
                !full.graph().fanin(v).is_empty() && !full.graph().is_endpoint(v)
            })
            .expect("an interior fprop task exists");
        drop(full);

        let exec = Executor::new(2);
        let plan = FaultPlan::none().inject(k, 0, FaultKind::Panic);
        let policy = RetryPolicy::no_retries();
        let budget = RunBudget::unbounded();

        let mut want_timer = two_cone_timer();
        let cone = want_timer.dirty_cone();
        let want =
            cone.run_partitioned_recovering_bounded(&exec, &quotient, &plan, &policy, &budget);
        cone.mark_unknown(&want);
        drop(cone);
        assert!(
            !want.poisoned_endpoints.is_empty(),
            "cone reaches endpoints"
        );

        // The same task panics in order: the loop stops there, the text is
        // the executor's, and the scheduled rerun of the whole cone
        // contains it exactly as if the in-order attempt never happened.
        let mut timer = two_cone_timer();
        let cone = timer.dirty_cone();
        let ran = AtomicUsize::new(0);
        let err = run_in_order(&cone, |t| {
            assert!(t.0 != k, "task {k} exploded");
            ran.fetch_add(1, Ordering::Relaxed);
            cone.execute_task(t);
        })
        .expect_err("task k panics");
        assert_eq!(err, TaskError::Fatal(format!("task {k} exploded")));
        assert_eq!(ran.into_inner(), k as usize, "nothing after task k ran");
        let got =
            cone.run_partitioned_recovering_bounded(&exec, &quotient, &plan, &policy, &budget);
        cone.mark_unknown(&got);
        drop(cone);
        assert_eq!(got.outcome.poisoned_tasks, want.outcome.poisoned_tasks);
        assert_eq!(got.poisoned_endpoints, want.poisoned_endpoints);
        assert_eq!(got.outcome.failures, want.outcome.failures);
        assert!(
            timer.snapshot() == want_timer.snapshot(),
            "same salvaged bits, same NaNs"
        );
    }

    #[test]
    fn pre_expired_deadline_yields_a_fully_unknown_partial_report() {
        use std::time::Duration;
        let mut timer = two_cone_timer();
        let update = timer.update_timing();
        let budget = RunBudget::default().with_deadline(Duration::ZERO);
        let rec = update.run_recovering_bounded(
            &Executor::new(2),
            &FaultPlan::none(),
            &RetryPolicy::no_retries(),
            &budget,
        );
        assert!(!rec.is_clean());
        assert_eq!(rec.outcome.stop, gpasta_sched::StopCause::DeadlineExpired);
        assert_eq!(
            rec.outcome.unfinished_tasks.len(),
            update.tdg().num_tasks(),
            "nothing was admitted"
        );
        assert_eq!(
            rec.unfinished_endpoints.len(),
            update.graph().endpoints().len()
        );
        // Degraded projection: every endpoint reads unknown, not stale.
        update.mark_unknown(&rec);
        drop(update);
        for bits in slack_bits(&timer) {
            assert!(f32::from_bits(bits).is_nan(), "endpoint must be unknown");
        }
    }

    #[test]
    fn heal_after_deadline_expiry_converges_bit_identically() {
        use std::time::Duration;
        let mut ref_timer = two_cone_timer();
        let ref_update = ref_timer.update_timing();
        ref_update.run_sequential();
        drop(ref_update);
        let reference = slack_bits(&ref_timer);

        let mut timer = two_cone_timer();
        let update = timer.update_timing();
        let budget = RunBudget::default().with_deadline(Duration::ZERO);
        let rec = update.run_recovering_bounded(
            &Executor::new(2),
            &FaultPlan::none(),
            &RetryPolicy::no_retries(),
            &budget,
        );
        update.mark_unknown(&rec);
        // Heal with no budget pressure: re-runs exactly the unfinished
        // closure (the poisoned set is empty on a fault-free plan).
        assert!(rec.outcome.poisoned_tasks.is_empty());
        let healed = update.heal(&rec);
        assert_eq!(healed, rec.outcome.unfinished_tasks.len());
        drop(update);
        assert_eq!(
            slack_bits(&timer),
            reference,
            "healed partial run must be bit-identical to the complete run"
        );
    }

    #[test]
    fn deadline_expired_partitioned_run_reports_unfinished_and_heals() {
        use gpasta_core::{Partitioner, PartitionerOptions, SeqGPasta};
        use std::time::Duration;

        let mut ref_timer = two_cone_timer();
        let ref_update = ref_timer.update_timing();
        ref_update.run_sequential();
        drop(ref_update);
        let reference = slack_bits(&ref_timer);

        let mut timer = two_cone_timer();
        let update = timer.update_timing();
        let p = SeqGPasta::new()
            .partition(update.tdg(), &PartitionerOptions::default())
            .expect("valid options");
        let quotient = gpasta_tdg::QuotientTdg::build(update.tdg(), &p).expect("acyclic");
        let budget = RunBudget::default().with_deadline(Duration::ZERO);
        let rec = update.run_partitioned_recovering_bounded(
            &Executor::new(2),
            &quotient,
            &FaultPlan::none(),
            &RetryPolicy::no_retries(),
            &budget,
        );
        assert_eq!(rec.outcome.stop, gpasta_sched::StopCause::DeadlineExpired);
        assert!(!rec.is_clean());
        assert_eq!(
            rec.outcome.unfinished_tasks.len(),
            update.tdg().num_tasks(),
            "a pre-expired deadline admits no partition"
        );
        update.mark_unknown(&rec);
        update.heal(&rec);
        drop(update);
        assert_eq!(slack_bits(&timer), reference);
    }

    #[test]
    fn heal_converges_to_bit_identical_results() {
        let mut ref_timer = two_cone_timer();
        let ref_update = ref_timer.update_timing();
        ref_update.run_sequential();
        drop(ref_update);
        let reference = slack_bits(&ref_timer);

        let mut timer = two_cone_timer();
        let update = timer.update_timing();
        let kinds = [
            FaultKind::Panic,
            FaultKind::Transient,
            FaultKind::WrongResult,
        ];
        let plan = FaultPlan::random(0xBEEF, 0.08, &kinds);
        let rec = update.run_recovering_bounded(
            &Executor::new(2),
            &plan,
            &RetryPolicy {
                max_retries: 1,
                base_backoff: std::time::Duration::ZERO,
                max_backoff: std::time::Duration::ZERO,
            },
            &RunBudget::unbounded(),
        );
        update.mark_unknown(&rec);
        let healed = update.heal(&rec);
        assert_eq!(healed, rec.outcome.poisoned_tasks.len());
        drop(update);
        assert_eq!(
            slack_bits(&timer),
            reference,
            "healed results must be bit-identical to the fault-free run"
        );
    }
}
