//! `ScheduledTimer` — the paper's update path in one place: every update
//! runs its dirty cone on a G-PASTA partition, through the executor.
//!
//! [`ScheduledTimer::new`] installs seq-G-PASTA once, on
//! [`Timer::full_space_tdg`]. Every edit a [`Timer`] accepts changes
//! delays, never the task graph, so that partition serves every later cone
//! (Theorem 1) as it was installed. An update takes its cone's quotient
//! from it — a restriction of its one full-space quotient, built on first
//! use, or that quotient itself when the whole design is dirty; no
//! per-update task graph is built — and runs it through the bounded
//! recovering executor. A completed update's values are bit-identical to an
//! in-order run of the same cone ([`DirtyCone::run_in_order`]), which is
//! how a [`Session`](crate::session::Session) runs every update.
//!
//! [`DirtyCone::run_in_order`]: crate::sta::DirtyCone::run_in_order

use std::borrow::Cow;

use crate::core::{IncrementalError, IncrementalPartitioner, PartitionerOptions, SeqGPasta};
use crate::sched::{Executor, FaultPlan, RetryPolicy, RunBudget};
use crate::sta::{RecoveredUpdate, Timer};
use crate::tdg::{QuotientArena, ValidatePartitionError};

/// A [`Timer`] whose updates are scheduled: its seq-G-PASTA partition, the
/// arena its cone quotients are recycled through, and the [`Executor`]
/// that runs them. See the [module docs](self).
pub struct ScheduledTimer {
    timer: Timer,
    inc: IncrementalPartitioner<SeqGPasta>,
    arena: QuotientArena,
    exec: Executor,
}

impl ScheduledTimer {
    /// Install seq-G-PASTA on `timer`'s full-space TDG. The timer's dirty
    /// set and values are left as they are: a fresh timer's first
    /// [`update`](ScheduledTimer::update) runs the whole design.
    ///
    /// # Errors
    ///
    /// The partitioner's, through [`IncrementalError::Partition`].
    pub fn new(timer: Timer, exec: Executor) -> Result<ScheduledTimer, IncrementalError> {
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        inc.install(&timer.full_space_tdg(), &PartitionerOptions::default())?;
        Ok(ScheduledTimer {
            timer,
            inc,
            arena: QuotientArena::new(),
            exec,
        })
    }

    /// The timer: values, reports, the graph.
    pub fn timer(&self) -> &Timer {
        &self.timer
    }

    /// The timer, to edit. Edits leave the task graph, and so the
    /// partition, as they are.
    pub fn timer_mut(&mut self) -> &mut Timer {
        &mut self.timer
    }

    /// The partition's raw per-task assignment over the full-space TDG.
    pub fn partition_assignment(&self) -> &[u32] {
        self.inc.raw_assignment().unwrap_or_default()
    }

    /// Bring the timing up to date under `budget`: discover the dirty cone,
    /// take its quotient from the partition and run it through the
    /// recovering executor. A run that is not clean — stopped early, or
    /// with a panicking task quarantined — marks every value it left stale
    /// *unknown* (NaN) and the whole design dirty, so the next update
    /// converges to the exact answer.
    ///
    /// # Errors
    ///
    /// A partition with no valid quotient, which the install rules out: a
    /// library bug, reported instead of panicking.
    pub fn update(
        &mut self,
        budget: &RunBudget,
    ) -> Result<RecoveredUpdate, ValidatePartitionError> {
        let cone = self.timer.dirty_cone();
        let Some(quotient) = self.inc.cone_quotient(cone.ids(), &mut self.arena) else {
            unreachable!("ScheduledTimer::new installs the partition")
        };
        let quotient = quotient?;
        let rec = cone.run_partitioned_recovering_bounded(
            &self.exec,
            &quotient,
            &FaultPlan::none(),
            &RetryPolicy::default(),
            budget,
        );
        if let Cow::Owned(restricted) = quotient {
            self.arena.recycle(restricted);
        }
        if !rec.is_clean() {
            cone.mark_unknown(&rec);
            drop(cone);
            self.timer.invalidate_all();
        }
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::iscas::c17;
    use crate::sched::StopCause;
    use crate::sta::{CellLibrary, GateId};
    use std::time::Duration;

    fn c17_timer() -> Timer {
        let mut timer = Timer::new(c17(), CellLibrary::typical());
        timer.set_clock_period(1_000.0);
        timer
    }

    fn scheduled() -> ScheduledTimer {
        ScheduledTimer::new(c17_timer(), Executor::new(2)).expect("install")
    }

    #[test]
    fn warm_updates_share_one_full_space_quotient() {
        let mut s = scheduled();
        assert_eq!(s.inc.quotient_builds(), 0, "new builds no quotient");
        let full_space = 2 * s.timer().graph().num_nodes();
        let unbounded = RunBudget::unbounded();
        for i in 0..20 {
            let period_ps = if i % 2 == 0 { 900.0 } else { 1_000.0 };
            s.timer_mut().set_clock_period(period_ps);
            let rec = s.update(&unbounded).expect("update");
            assert_eq!(rec.outcome.salvaged_tasks, full_space, "the whole design");
        }
        for i in 0..20u32 {
            let drive = [0.5, 1.0, 2.0, 4.0][(i / 4 % 4) as usize];
            s.timer_mut().repower_gate(GateId(i % 4), drive);
            s.update(&unbounded).expect("update");
        }
        assert_eq!(s.inc.quotient_builds(), 1, "40 updates, one build");
    }

    #[test]
    fn new_installs_the_partition_once() {
        let mut s = scheduled();
        s.timer_mut().repower_gate(GateId(2), 2.0);
        assert_eq!(s.inc.epoch(), 1, "new installs");
        for i in 0..6u32 {
            let rec = s.update(&RunBudget::unbounded()).expect("update");
            assert_eq!(rec.outcome.stop, StopCause::Completed);
            assert_eq!(s.inc.epoch(), 1, "update {i}: one install");
            s.timer_mut()
                .repower_gate(GateId(i % 4), [0.5, 4.0][i as usize % 2]);
        }
        assert!(s.timer().has_pending_changes(), "the last edit is pending");
        assert_eq!(s.inc.quotient_builds(), 1);

        // The oracle: seq-G-PASTA installed on a full update's own TDG.
        let mut timer = c17_timer();
        let full = timer.update_timing();
        let mut oracle = IncrementalPartitioner::new(SeqGPasta::new());
        oracle
            .install(full.tdg(), &PartitionerOptions::default())
            .expect("install");
        assert_eq!(Some(s.partition_assignment()), oracle.raw_assignment());
        assert_eq!(s.inc.epoch(), 1, "reading it builds nothing more");

        let fresh = scheduled();
        assert_eq!(Some(fresh.partition_assignment()), oracle.raw_assignment());
        assert_eq!(fresh.inc.quotient_builds(), 0, "a read builds no quotient");
    }

    #[test]
    fn zero_deadline_leaves_unknowns_and_the_next_update_heals() {
        let mut s = scheduled();
        s.update(&RunBudget::unbounded()).expect("initial analysis");
        s.timer_mut().repower_gate(GateId(1), 4.0);
        let rec = s
            .update(&RunBudget::unbounded().with_deadline(Duration::ZERO))
            .expect("bounded update");
        assert_eq!(rec.outcome.stop, StopCause::DeadlineExpired);
        let unknown = &rec.unfinished_endpoints;
        assert!(!unknown.is_empty());
        let data = s.timer().data();
        assert!(
            unknown.iter().all(|&v| data.slack_late(v).is_nan()),
            "unknown endpoints read NaN"
        );
        assert!(s.timer().report(1).wns_ps.is_nan());

        // The whole design is dirty, and the next update heals it.
        let full_space = 2 * s.timer().graph().num_nodes();
        let rec = s.update(&RunBudget::unbounded()).expect("update");
        assert_eq!(rec.outcome.stop, StopCause::Completed);
        assert_eq!(rec.outcome.salvaged_tasks, full_space, "the whole design");

        // Reference: the same edit on a timer run sequentially.
        let mut reference = c17_timer();
        reference.update_timing().run_sequential();
        reference.repower_gate(GateId(1), 4.0);
        reference.update_timing().run_sequential();
        assert!(s.timer().snapshot() == reference.snapshot(), "healed bits");
    }
}
