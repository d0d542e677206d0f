//! The mirror driver: the sequence `Session::create` and
//! `Session::update_timing` perform, through the layers' public functions,
//! with a span around each call. It exists because a `Session` update is
//! one opaque call from outside; the mirror's result bits are checked
//! against the `Session`'s on every op.

use gpasta::core::{IncrementalPartitioner, PartitionerOptions, SeqGPasta};
use gpasta::sched::{simulate_makespan, Executor, FaultPlan, RetryPolicy, RunBudget};
use gpasta::sta::{parse_verilog, CellLibrary, Timer};
use gpasta::tdg::{QuotientArena, QuotientTdg};

use crate::trace::Tracer;

/// The paper's many-core regime for the simulated gain: eight workers,
/// 800 ns per dispatch (OpenTimer's Taskflow costs 0.2-3 us per task).
const SIM_WORKERS: usize = 8;
const SIM_DISPATCH_NS: f64 = 800.0;

pub struct Mirror {
    timer: Timer,
    inc: IncrementalPartitioner<SeqGPasta>,
    exec: Executor,
    policy: RetryPolicy,
    arena: QuotientArena,
}

/// Exact counts of one mirrored update.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UpdateCounts {
    pub tasks: usize,
    pub deps: usize,
    pub parts: usize,
    pub quotient_edges: usize,
    pub moved: usize,
    pub fresh: usize,
    pub dispatches: u64,
    /// Quotient depth / TDG depth, and simulated plain / partitioned
    /// makespan; only computed when probing (both cost a graph pass).
    pub depth_ratio: f64,
    pub sim_gain: f64,
}

/// A netlist text parsed into a timer with the default library and a 1 ns
/// clock, as `Session::create` builds it.
pub fn timer_from_text(text: &str, tr: &mut Tracer) -> Timer {
    let span = tr.begin("sta.parse_verilog");
    let netlist = parse_verilog(text).expect("generated netlists parse");
    tr.end(span);
    let span = tr.begin("sta.timer_new");
    let mut timer =
        Timer::try_new(netlist, CellLibrary::typical()).expect("generated netlists are acyclic");
    timer.set_clock_period(1_000.0);
    tr.end(span);
    timer
}

impl Mirror {
    pub fn create(text: &str, workers: usize, tr: &mut Tracer) -> Mirror {
        let mut timer = timer_from_text(text, tr);
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        let span = tr.begin("sta.tdg_build_full");
        let full = timer.update_timing();
        tr.end(span);
        let span = tr.begin("core.install");
        inc.install(full.tdg(), &PartitionerOptions::default())
            .expect("install on the full-space TDG");
        tr.end(span);
        let span = tr.begin("sta.run_sequential");
        full.run_sequential();
        tr.end(span);
        drop(full);
        Mirror {
            timer,
            inc,
            exec: Executor::new(workers),
            policy: RetryPolicy::default(),
            arena: QuotientArena::new(),
        }
    }

    pub fn timer(&self) -> &Timer {
        &self.timer
    }

    pub fn timer_mut(&mut self) -> &mut Timer {
        &mut self.timer
    }

    /// One update, as `Session::update_timing(&RunBudget::unbounded())`.
    pub fn update(&mut self, tr: &mut Tracer, probe: bool) -> UpdateCounts {
        let span = tr.begin("sta.tdg_build");
        let update = self.timer.update_timing();
        tr.end(span);
        let tasks = update.tdg().num_tasks();
        if tasks == 0 {
            return UpdateCounts::default();
        }
        let span = tr.begin("sta.full_space_ids");
        let ids = update.full_space_ids();
        tr.end(span);
        let span = tr.begin("core.repair");
        let (stats, sub) = self
            .inc
            .repair_and_project(&ids)
            .expect("repair inside a forward-closed cone");
        tr.end(span);
        let span = tr.begin("tdg.quotient");
        let quotient = QuotientTdg::build_in(update.tdg(), &sub, &mut self.arena)
            .expect("repaired partitions are schedulable");
        tr.end(span);
        let mut counts = UpdateCounts {
            tasks,
            deps: update.tdg().num_deps(),
            parts: quotient.num_partitions(),
            quotient_edges: quotient.graph().num_deps(),
            moved: stats.moved,
            fresh: stats.fresh_partitions,
            ..UpdateCounts::default()
        };
        if probe {
            counts.depth_ratio =
                quotient.graph().levels().depth() as f64 / update.tdg().levels().depth() as f64;
            let sim = |g| simulate_makespan(g, SIM_WORKERS, SIM_DISPATCH_NS).makespan_ns;
            counts.sim_gain = sim(update.tdg()) / sim(quotient.graph());
        }
        let span = tr.begin("sched.run");
        let rec = update.run_partitioned_recovering_bounded(
            &self.exec,
            &quotient,
            &FaultPlan::none(),
            &self.policy,
            &RunBudget::unbounded(),
        );
        tr.end(span);
        assert!(rec.is_clean(), "a fault-free unbounded run completes");
        counts.dispatches = rec.outcome.report.dispatches;
        self.arena.recycle(quotient);
        counts
    }
}
