//! Property tests for the bounded recovering executor's outcome algebra.
//!
//! On arbitrary DAGs under arbitrary fault plans, budgets, worker counts
//! and decrement chunk sizes, a [`RunOutcome`] must partition the task set
//! exactly: `salvaged ∪ poisoned ∪ unfinished = tasks` with the three sets
//! pairwise disjoint. The poisoned set must be the exact forward closure of
//! the failed units, the unfinished set closed under successors (modulo
//! poison), and the stop cause must agree with the unfinished set being
//! empty.

use gpasta::sched::{
    Executor, FaultKind, FaultPlan, FaultyWork, RetryPolicy, RunBudget, StopCause,
    DEFAULT_CHUNK_SIZE,
};
use gpasta::tdg::{TaskId, Tdg, TdgBuilder};
use proptest::prelude::*;
use std::time::Duration;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

/// Random DAG via low-to-high edge orientation (same shape as the
/// partitioner property suite).
fn arb_dag(max_n: usize) -> impl Strategy<Value = Tdg> {
    (2usize..=max_n)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n);
            (Just(n), edges)
        })
        .prop_map(|(n, edges)| {
            let mut b = TdgBuilder::new(n);
            for (a, c) in edges {
                if a < c {
                    b.add_edge(TaskId(a), TaskId(c));
                } else if c < a {
                    b.add_edge(TaskId(c), TaskId(a));
                }
            }
            b.build().expect("low->high orientation is acyclic")
        })
}

/// Chunk 1 publishes after every unit; 4096 exceeds every generated graph,
/// so batches are flushed only when a worker runs out of local work.
const CHUNK_SIZES: [usize; 4] = [1, 2, DEFAULT_CHUNK_SIZE, 4096];

/// Assert the outcome algebra on one run.
fn check_outcome_partition(tdg: &Tdg, outcome: &gpasta::sched::RunOutcome) {
    let n = tdg.num_tasks();
    let mut mark = vec![0u8; n]; // 1 = poisoned, 2 = unfinished
    for &t in &outcome.poisoned_tasks {
        assert!((t as usize) < n, "poisoned task {t} out of range");
        assert_eq!(mark[t as usize], 0, "task {t} poisoned twice");
        mark[t as usize] = 1;
    }
    for &t in &outcome.unfinished_tasks {
        assert!((t as usize) < n, "unfinished task {t} out of range");
        assert_eq!(
            mark[t as usize], 0,
            "task {t} both poisoned/duplicated and unfinished"
        );
        mark[t as usize] = 2;
    }
    // Exact partition: everything not poisoned/unfinished was salvaged.
    assert_eq!(
        outcome.salvaged_tasks,
        n - outcome.poisoned_tasks.len() - outcome.unfinished_tasks.len(),
        "salvaged ∪ poisoned ∪ unfinished must equal the task set"
    );
    // Poison is exactly the forward closure of the failed units (on a
    // plain TDG a unit is its task), however the decrements were batched.
    let mut closure = vec![false; n];
    let mut stack: Vec<u32> = outcome.failures.iter().map(|f| f.unit).collect();
    while let Some(t) = stack.pop() {
        if !std::mem::replace(&mut closure[t as usize], true) {
            stack.extend_from_slice(tdg.successors(TaskId(t)));
        }
    }
    for t in 0..n {
        assert_eq!(
            mark[t] == 1,
            closure[t],
            "poisoned set must be the exact forward closure of the failures (task {t})"
        );
    }
    // Both quarantine classes are closed under successors: a task whose
    // predecessor is poisoned or unfinished cannot have been salvaged.
    for t in 0..n as u32 {
        if mark[t as usize] == 0 {
            continue;
        }
        for &s in tdg.successors(TaskId(t)) {
            assert_ne!(
                mark[s as usize], 0,
                "salvaged task {s} has a non-salvaged predecessor {t}"
            );
        }
    }
    // Stop cause agrees with the unfinished set.
    if outcome.stop == StopCause::Completed {
        assert!(
            outcome.unfinished_tasks.is_empty(),
            "a completed run cannot leave tasks unfinished"
        );
    }
    assert_eq!(
        outcome.is_clean(),
        outcome.failures.is_empty()
            && outcome.poisoned_tasks.is_empty()
            && outcome.unfinished_tasks.is_empty()
            && outcome.stop == StopCause::Completed,
        "is_clean must mean exactly: nothing failed, nothing left behind"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn bounded_recovering_outcome_partitions_the_task_set(
        tdg in arb_dag(48),
        seed in any::<u64>(),
        rate in 0.0f64..0.4,
        bounded in any::<bool>(),
        deadline_us in 0u64..500,
        (workers, chunk) in (1usize..4, 0usize..CHUNK_SIZES.len()),
    ) {
        let plan = FaultPlan::random(seed, rate, &[FaultKind::Panic, FaultKind::Transient]);
        let payload = |_: TaskId| {};
        let work = FaultyWork::new(&payload, &plan);
        let exec = Executor::new(workers).with_chunk_size(CHUNK_SIZES[chunk]);
        let budget = if bounded {
            RunBudget::unbounded().with_deadline(Duration::from_micros(deadline_us))
        } else {
            RunBudget::unbounded()
        };
        let outcome = exec.run_tdg_recovering_bounded(
            &tdg,
            &work,
            &RetryPolicy::default(),
            &budget,
        );
        check_outcome_partition(&tdg, &outcome);
    }

    #[test]
    fn unbounded_runs_always_complete(
        tdg in arb_dag(32),
        seed in any::<u64>(),
        (workers, chunk) in (1usize..4, 0usize..CHUNK_SIZES.len()),
    ) {
        let plan = FaultPlan::random(seed, 0.2, &[FaultKind::Transient]);
        let payload = |_: TaskId| {};
        let work = FaultyWork::new(&payload, &plan);
        let exec = Executor::new(workers).with_chunk_size(CHUNK_SIZES[chunk]);
        let outcome = exec.run_tdg_recovering_bounded(
            &tdg,
            &work,
            &RetryPolicy::default(),
            &RunBudget::unbounded(),
        );
        // Transient faults always retry into success under the default
        // policy's budget... unless retries run out; either way the run
        // itself must complete rather than stop early.
        prop_assert_eq!(outcome.stop, StopCause::Completed);
        prop_assert!(outcome.unfinished_tasks.is_empty());
        check_outcome_partition(&tdg, &outcome);
    }
}
