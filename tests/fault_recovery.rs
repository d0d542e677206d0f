//! Differential fault-recovery suite: whatever faults fire, a recovering
//! timing update (1) never aborts the process, (2) salvages *exactly* the
//! complement of the poisoned forward closure, and (3) converges to the
//! bit-identical fault-free analysis after `heal` — on both the plain and
//! the partition-quarantine scheduling paths, at every worker count.

use gpasta::circuits::{generate_netlist, CircuitSpec};
use gpasta::core::{GPasta, Partitioner, PartitionerOptions};
use gpasta::sched::{Executor, FaultKind, FaultPlan, RetryPolicy, RunBudget, RunOutcome};
use gpasta::sta::{CellLibrary, NodeId, Timer};
use gpasta::tdg::{QuotientTdg, TaskId, Tdg};
use std::time::Duration;

/// A few hundred gates: big enough for distinct cones, small enough to
/// heal in milliseconds.
fn test_timer() -> Timer {
    let mut spec = CircuitSpec::small("fault_recovery", 0xD1FF);
    spec.num_gates = 300;
    Timer::new(generate_netlist(&spec), CellLibrary::typical())
}

/// Forward closure of `seeds` in `tdg`, sorted.
fn forward_closure(tdg: &Tdg, seeds: &[u32]) -> Vec<u32> {
    let mut mark = vec![false; tdg.num_tasks()];
    let mut stack: Vec<u32> = Vec::new();
    for &s in seeds {
        if !mark[s as usize] {
            mark[s as usize] = true;
            stack.push(s);
        }
    }
    while let Some(t) = stack.pop() {
        for &s in tdg.successors(TaskId(t)) {
            if !mark[s as usize] {
                mark[s as usize] = true;
                stack.push(s);
            }
        }
    }
    (0..tdg.num_tasks() as u32)
        .filter(|&t| mark[t as usize])
        .collect()
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

fn reference_bits() -> Vec<u32> {
    let mut timer = test_timer();
    timer.update_timing().run_sequential();
    slack_bits(&timer)
}

/// Poisoned set must be the exact forward closure of the permanently
/// failed tasks; salvage is its exact complement.
fn assert_exact_quarantine(tdg: &Tdg, outcome: &RunOutcome) {
    let failed: Vec<u32> = outcome.failures.iter().map(|f| f.task).collect();
    let closure = forward_closure(tdg, &failed);
    assert_eq!(
        outcome.poisoned_tasks, closure,
        "poisoned set != forward closure of failed tasks"
    );
    assert_eq!(
        outcome.salvaged_tasks,
        tdg.num_tasks() - closure.len(),
        "salvage is not the exact complement"
    );
}

#[test]
fn every_fault_class_is_contained_on_the_plain_path() {
    let policy = RetryPolicy {
        max_retries: 1,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    };
    for kind in [
        FaultKind::Panic,
        FaultKind::Transient,
        FaultKind::WrongResult,
        FaultKind::Delay { micros: 50 },
    ] {
        let mut timer = test_timer();
        let update = timer.update_timing();
        let victim = (update.tdg().num_tasks() / 3) as u32;
        // Fault every attempt so retries cannot rescue Transient.
        let plan = FaultPlan::none()
            .inject(victim, 0, kind)
            .inject(victim, 1, kind);
        let rec = update.run_recovering_bounded(
            &Executor::new(3),
            &plan,
            &policy,
            &RunBudget::unbounded(),
        );
        match kind {
            // A delay is not a failure: everything completes.
            FaultKind::Delay { .. } => assert!(rec.is_clean(), "{kind:?} must salvage all"),
            _ => {
                assert!(!rec.is_clean(), "{kind:?} at task {victim} must poison");
                assert_exact_quarantine(update.tdg(), &rec.outcome);
                assert!(
                    rec.outcome.poisoned_tasks.contains(&victim),
                    "the failed task itself is quarantined"
                );
            }
        }
    }
}

#[test]
fn transient_faults_heal_through_retries() {
    let mut timer = test_timer();
    let update = timer.update_timing();
    let victim = (update.tdg().num_tasks() / 2) as u32;
    // Fails twice, succeeds on the third attempt.
    let plan = FaultPlan::none()
        .inject(victim, 0, FaultKind::Transient)
        .inject(victim, 1, FaultKind::Transient);
    let rec = update.run_recovering_bounded(
        &Executor::new(2),
        &plan,
        &RetryPolicy::default(),
        &RunBudget::unbounded(),
    );
    assert!(rec.is_clean(), "retries absorb a transient fault");
    assert_eq!(rec.outcome.retries, 2);
    drop(update);
    assert_eq!(slack_bits(&timer), reference_bits());
}

#[test]
fn salvage_is_exact_complement_under_a_fault_storm() {
    // Half of all first attempts fail across every class; recovery must
    // still terminate with a full accounting of the task space.
    let kinds = [
        FaultKind::Panic,
        FaultKind::Transient,
        FaultKind::WrongResult,
    ];
    let plan = FaultPlan::random(0x5704, 0.5, &kinds);
    let policy = RetryPolicy {
        max_retries: 1,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    };
    let mut timer = test_timer();
    let update = timer.update_timing();
    let rec =
        update.run_recovering_bounded(&Executor::new(4), &plan, &policy, &RunBudget::unbounded());
    assert!(!rec.is_clean(), "a 50% fault rate certainly fires");
    assert_exact_quarantine(update.tdg(), &rec.outcome);
    // Degrade, then heal back to the exact fault-free analysis.
    update.mark_unknown(&rec);
    let healed = update.heal(&rec);
    assert_eq!(healed, rec.outcome.poisoned_tasks.len());
    drop(update);
    assert_eq!(slack_bits(&timer), reference_bits());
}

#[test]
fn heal_is_bit_identical_across_seeds_and_worker_counts() {
    let reference = reference_bits();
    let kinds = [
        FaultKind::Panic,
        FaultKind::Transient,
        FaultKind::WrongResult,
    ];
    let policy = RetryPolicy {
        max_retries: 1,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    };
    for seed in [0xFA17u64, 1, 2] {
        for workers in [1usize, 2, 4] {
            let plan = FaultPlan::random(seed, 0.1, &kinds);
            let mut timer = test_timer();
            let update = timer.update_timing();
            let rec = update.run_recovering_bounded(
                &Executor::new(workers),
                &plan,
                &policy,
                &RunBudget::unbounded(),
            );
            update.mark_unknown(&rec);
            update.heal(&rec);
            drop(update);
            assert_eq!(
                slack_bits(&timer),
                reference,
                "seed {seed:#x}, {workers} workers"
            );
        }
    }
}

#[test]
fn partition_quarantine_poisons_whole_partitions_and_heals() {
    let reference = reference_bits();
    let mut timer = test_timer();
    let update = timer.update_timing();
    let partition = GPasta::new()
        .partition(update.tdg(), &PartitionerOptions::default())
        .expect("valid options");
    let quotient = QuotientTdg::build(update.tdg(), &partition).expect("schedulable");

    let victim = (update.tdg().num_tasks() / 3) as u32;
    let plan = FaultPlan::none()
        .inject(victim, 0, FaultKind::Panic)
        .inject(victim, 1, FaultKind::Panic);
    let policy = RetryPolicy {
        max_retries: 1,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    };
    let rec = update.run_partitioned_recovering_bounded(
        &Executor::new(3),
        &quotient,
        &plan,
        &policy,
        &RunBudget::unbounded(),
    );
    assert!(!rec.is_clean());

    // Units are quotient nodes: the poisoned unit set is the forward
    // closure *in the quotient graph* of the victim's partition...
    let failed_units: Vec<u32> = rec.outcome.failures.iter().map(|f| f.unit).collect();
    assert_eq!(
        rec.outcome.poisoned_units,
        forward_closure(quotient.graph(), &failed_units)
    );
    // ...and every member of every quarantined partition is poisoned,
    // including the victim's partition-mates that never themselves failed.
    for &p in &rec.outcome.poisoned_units {
        for &t in quotient.execution_order(gpasta::tdg::PartitionId(p)) {
            assert!(
                rec.outcome.poisoned_tasks.binary_search(&t).is_ok(),
                "member {t} of quarantined partition {p} must be poisoned"
            );
        }
    }
    assert!(rec.outcome.poisoned_tasks.contains(&victim));

    update.mark_unknown(&rec);
    update.heal(&rec);
    drop(update);
    assert_eq!(slack_bits(&timer), reference);
}

#[test]
fn plain_and_partitioned_salvage_agree_on_task_failures() {
    // The same targeted fault through both scheduling paths: partitioned
    // quarantine is coarser (whole partitions), so its poisoned task set
    // must be a superset of the plain path's exact closure.
    let mut timer = test_timer();
    let update = timer.update_timing();
    let victim = (update.tdg().num_tasks() / 4) as u32;
    let plan = FaultPlan::none()
        .inject(victim, 0, FaultKind::WrongResult)
        .inject(victim, 1, FaultKind::WrongResult);
    let policy = RetryPolicy {
        max_retries: 1,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    };
    let plain =
        update.run_recovering_bounded(&Executor::new(2), &plan, &policy, &RunBudget::unbounded());

    let partition = GPasta::new()
        .partition(update.tdg(), &PartitionerOptions::default())
        .expect("valid options");
    let quotient = QuotientTdg::build(update.tdg(), &partition).expect("schedulable");
    let part = update.run_partitioned_recovering_bounded(
        &Executor::new(2),
        &quotient,
        &plan,
        &policy,
        &RunBudget::unbounded(),
    );

    for t in &plain.outcome.poisoned_tasks {
        assert!(
            part.outcome.poisoned_tasks.binary_search(t).is_ok(),
            "task {t} poisoned on the plain path must be poisoned under quarantine"
        );
    }
}
