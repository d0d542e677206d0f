//! Differential recovery suite for sharded multi-process execution.
//!
//! Every test compares a sharded run — with workers killed, exited, or
//! hung at deterministic points — against the uninterrupted
//! single-process oracle ([`run_single_process`]) and demands *bit*
//! identity: same WNS/TNS bits, same full [`TimingSnapshot`]. That is
//! the module's determinism contract (any topological execution of the
//! update tasks produces identical `f32` bit patterns), and it is what
//! makes "SIGKILL anywhere, recover exactly" checkable with `assert_eq!`.
//!
//! The worker processes are the real `gpasta` binary (`shard-worker`
//! hidden subcommand), so the pipes, SIGKILLs, and respawns in these
//! tests exercise the production code path end to end.

use std::path::PathBuf;
use std::sync::{RwLock, RwLockReadGuard};
use std::time::Duration;

use gpasta::circuits::PaperCircuit;
use gpasta::sched::{FaultKind, FaultPlan, RetryPolicy};
use gpasta::shard::{run_sharded, run_single_process, ShardRunConfig, ShardRunOutcome};
use gpasta::sta::{CellLibrary, Timer};
use gpasta::tdg::{ShardPlan, TaskId};
use proptest::prelude::*;

const CIRCUIT: PaperCircuit = PaperCircuit::AesCore;

/// Case count for the property tests, overridable via `PROPTEST_CASES`.
/// Each case spawns real worker processes, so the default stays small.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
}

/// A config whose workers are the real `gpasta` binary and whose
/// backoffs are test-sized.
fn cfg(scale: f64, seed: u64, shards: usize) -> ShardRunConfig {
    let mut cfg = ShardRunConfig::new(CIRCUIT, scale, seed, shards);
    cfg.worker_exe = PathBuf::from(env!("CARGO_BIN_EXE_gpasta"));
    cfg.retry = RetryPolicy {
        max_retries: 3,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(20),
    };
    cfg.capture_snapshot = true;
    cfg
}

fn assert_bit_identical(outcome: &ShardRunOutcome, scale: f64, seed: u64, label: &str) {
    let oracle = run_single_process(CIRCUIT, scale, seed);
    assert_eq!(outcome.wns_bits, oracle.wns_bits, "{label}: WNS bits");
    assert_eq!(outcome.tns_bits, oracle.tns_bits, "{label}: TNS bits");
    assert_eq!(
        *outcome.snapshot.as_ref().expect("snapshot captured"),
        oracle.snapshot,
        "{label}: full snapshot"
    );
}

/// Tests share this process, and with it the set of child processes:
/// the one test that counts children takes this exclusively, every other
/// test that spawns workers takes it shared.
static CHILDREN: RwLock<()> = RwLock::new(());

fn spawning_workers() -> RwLockReadGuard<'static, ()> {
    CHILDREN.read().unwrap_or_else(|e| e.into_inner())
}

/// Children of this process that are (or were) `gpasta` workers, zombies
/// included.
fn worker_children() -> usize {
    let me = std::process::id().to_string();
    let Ok(proc) = std::fs::read_dir("/proc") else {
        return 0; // not Linux: nothing to inspect
    };
    proc.filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("stat")).ok())
        .filter(|stat| {
            // `pid (comm) state ppid ...`; comm may contain spaces.
            let Some((head, tail)) = stat.rsplit_once(") ") else {
                return false;
            };
            head.ends_with("(gpasta") && tail.split(' ').nth(1) == Some(me.as_str())
        })
        .count()
}

/// The three disposition sets must partition `0..num_shards` exactly:
/// disjoint, complete, no stray ids.
fn assert_partitions_shard_set(outcome: &ShardRunOutcome, label: &str) {
    let mut all: Vec<u32> = outcome
        .salvaged
        .iter()
        .chain(&outcome.poisoned)
        .chain(&outcome.unfinished)
        .copied()
        .collect();
    all.sort_unstable();
    let expected: Vec<u32> = (0..outcome.num_shards as u32).collect();
    assert_eq!(
        all, expected,
        "{label}: salvaged {:?} ⊎ poisoned {:?} ⊎ unfinished {:?} must partition the shard set",
        outcome.salvaged, outcome.poisoned, outcome.unfinished
    );
    assert_eq!(outcome.attempts.len(), outcome.num_shards, "{label}");
}

/// Random kill points × seeds × shard counts: every combination must
/// respawn its victims and still match the oracle bit for bit.
#[test]
fn kill_matrix_respawns_and_heals_bit_identical() {
    let _shared = spawning_workers();
    const SCALE: f64 = 0.005;
    for &seed in &[3u64, 0xC0FFEE] {
        for &shards in &[2usize, 4] {
            for &chaos_seed in &[0u64, 0x9E37] {
                let label = format!("seed={seed:#x} shards={shards} chaos={chaos_seed:#x}");
                let mut c = cfg(SCALE, seed, shards);
                // SIGKILL shard 0's first attempt and exit(1) shard 1's;
                // the chaos seed moves the in-shard kill point.
                c.faults = FaultPlan::none().inject(0, 0, FaultKind::Panic).inject(
                    1,
                    0,
                    FaultKind::Transient,
                );
                c.chaos_seed = chaos_seed;
                let outcome = run_sharded(&c).expect("sharded run");
                assert!(outcome.respawns >= 2, "{label}: both victims respawn");
                assert_eq!(
                    outcome.workers_spawned, 3,
                    "{label}: each victim takes one process with it, nothing else does"
                );
                assert!(outcome.poisoned.is_empty(), "{label}: retries suffice");
                assert_eq!(outcome.salvaged.len(), outcome.num_shards, "{label}");
                assert_partitions_shard_set(&outcome, &label);
                assert_bit_identical(&outcome, SCALE, seed, &label);
            }
        }
    }
}

/// Whether some shard of the plan for `(scale, shards)` does not depend
/// on the shard just before it — the plan is not a chain, so a second
/// shard can be ready while the first worker is busy.
fn plan_is_not_a_chain(scale: f64, shards: usize) -> bool {
    let mut timer = Timer::new(CIRCUIT.build(scale), CellLibrary::typical());
    let update = timer.update_timing();
    let plan = ShardPlan::build(update.tdg(), shards).expect("plan");
    (1..plan.num_shards() as u32).any(|s| !plan.graph().predecessors(TaskId(s)).contains(&(s - 1)))
}

/// Fault-free, one long-lived worker serves every shard whatever the
/// shard count and worker cap: contiguous runs of task ids form a chain,
/// so no second shard is ever ready while the first worker is busy. Only
/// a plan that is not a chain (fifteen shards of a design this small)
/// grows the pool, and then only up to the cap.
#[test]
fn a_fault_free_run_spawns_one_worker_and_is_bit_identical() {
    let _shared = spawning_workers();
    const SEED: u64 = 0x0DD;
    let chain = [1usize, 2, 4, 8]
        .into_iter()
        .flat_map(|shards| [(0.01, shards, 1, 1), (0.01, shards, 2, 1)]);
    let wide = [(0.001, 15, 1, 1), (0.001, 15, 2, 2)];
    assert!(plan_is_not_a_chain(0.001, 15), "the wide plan's premise");
    for (scale, shards, max_workers, spawned) in chain.chain(wide) {
        let label = format!("scale={scale} shards={shards} max_workers={max_workers}");
        let mut c = cfg(scale, SEED, shards);
        c.max_workers = max_workers;
        let outcome = run_sharded(&c).expect("sharded run");
        assert_eq!(outcome.num_shards, shards, "{label}");
        assert_eq!(outcome.workers_spawned, spawned, "{label}");
        assert_eq!(outcome.respawns, 0, "{label}");
        assert_eq!(outcome.salvaged.len(), outcome.num_shards, "{label}");
        assert!(outcome.attempts.iter().all(|&a| a == 1), "{label}");
        assert_partitions_shard_set(&outcome, &label);
        assert_bit_identical(&outcome, scale, SEED, &label);
    }
}

/// A worker that already completed earlier shards dies (SIGKILL, exit,
/// hang) somewhere inside a later one: only the round in flight is lost —
/// the earlier shards' deltas are in the master state and are not redone.
#[test]
fn a_worker_that_served_earlier_shards_loses_only_the_round_in_flight() {
    let _shared = spawning_workers();
    const SCALE: f64 = 0.005;
    const SEED: u64 = 0xACE;
    let kinds = [
        FaultKind::Panic,
        FaultKind::Transient,
        FaultKind::Delay { micros: 1_000_000 },
    ];
    for kind in kinds {
        // The chaos seed moves the kill point across `[0, tasks]`.
        for chaos_seed in [0u64, 1, 0x9E37] {
            let label = format!("{kind:?} chaos={chaos_seed:#x}");
            let mut c = cfg(SCALE, SEED, 4);
            c.max_workers = 2;
            c.stall_after = Duration::from_millis(200);
            c.chaos_seed = chaos_seed;
            c.faults = FaultPlan::none().inject(2, 0, kind);
            let outcome = run_sharded(&c).expect("sharded run");
            assert_eq!(outcome.num_shards, 4, "{label}");
            assert_eq!(outcome.attempts, vec![1, 1, 2, 1], "{label}");
            assert_eq!(outcome.respawns, 1, "{label}");
            assert_eq!(outcome.workers_spawned, 2, "{label}");
            assert_eq!(outcome.salvaged.len(), 4, "{label}");
            assert_partitions_shard_set(&outcome, &label);
            assert_bit_identical(&outcome, SCALE, SEED, &label);
        }
    }
}

/// A worker that dies on every attempt exhausts its retries, poisons its
/// forward closure, and the supervisor heals the whole cone in-process —
/// still bit-identical.
#[test]
fn retry_exhaustion_poisons_then_heals_bit_identical() {
    let _shared = spawning_workers();
    const SCALE: f64 = 0.005;
    const SEED: u64 = 0xBAD5EED;
    let mut c = cfg(SCALE, SEED, 4);
    c.retry.max_retries = 1;
    c.faults = FaultPlan::none()
        .inject(0, 0, FaultKind::Panic)
        .inject(0, 1, FaultKind::Panic);
    let outcome = run_sharded(&c).expect("sharded run");
    assert_eq!(outcome.poisoned, vec![0], "shard 0 exhausts its retries");
    assert!(
        !outcome.unfinished.is_empty(),
        "shard 0's forward closure drains: {outcome:?}"
    );
    assert!(outcome.healed_tasks > 0, "the poisoned cone is re-executed");
    assert_partitions_shard_set(&outcome, "poison");
    assert_bit_identical(&outcome, SCALE, SEED, "poison+heal");
}

/// A hung worker (silent, never exits) is detected by the heartbeat
/// watchdog, reaped, and respawned — still bit-identical.
#[test]
fn hung_workers_are_reaped_by_the_watchdog() {
    let _shared = spawning_workers();
    const SCALE: f64 = 0.005;
    const SEED: u64 = 7;
    let mut c = cfg(SCALE, SEED, 3);
    c.stall_after = Duration::from_millis(200);
    c.faults = FaultPlan::none().inject(1, 0, FaultKind::Delay { micros: 1_000_000 });
    let outcome = run_sharded(&c).expect("sharded run");
    assert!(outcome.respawns >= 1, "the hung worker is replaced");
    assert!(outcome.poisoned.is_empty(), "{outcome:?}");
    assert_partitions_shard_set(&outcome, "watchdog");
    assert_bit_identical(&outcome, SCALE, SEED, "watchdog");
}

/// Supervisor death and hand-off: a run checkpoints, "dies" after two
/// shard completions, and a *new* supervisor with a different shard
/// count resumes from the checkpoint without redoing the completed
/// partitions — final state bit-identical to the oracle.
#[test]
fn shard_count_change_across_a_supervisor_kill_resumes_bit_identical() {
    let _alone = CHILDREN.write().unwrap_or_else(|e| e.into_inner());
    const SCALE: f64 = 0.008;
    const SEED: u64 = 0xFACADE;
    let dir = std::env::temp_dir().join(format!("gpasta-shard-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt = dir.join("hand_off.ckpt");

    let mut first = cfg(SCALE, SEED, 3);
    first.checkpoint_to = Some(ckpt.clone());
    first.kill_after_shards = Some(2);
    let interrupted = run_sharded(&first).expect("first run");
    assert!(interrupted.killed, "the first supervisor dies mid-run");
    assert!(
        !interrupted.completed_ranges.is_empty(),
        "progress was persisted before the kill"
    );

    // Resume under a different shard count: the checkpoint's unit is the
    // partition, which is plan-independent.
    let mut second = cfg(SCALE, SEED, 5);
    second.resume_from = Some(ckpt.clone());
    let resumed = run_sharded(&second).expect("resumed run");
    assert!(!resumed.killed);
    assert!(
        resumed.attempts.contains(&0),
        "some shard completed straight from the checkpoint: {:?}",
        resumed.attempts
    );
    assert_partitions_shard_set(&resumed, "resume");
    assert_bit_identical(&resumed, SCALE, SEED, "kill+resume");

    // Belt and braces: killing the resumed run's workers too must not
    // break the hand-off state.
    let mut third = cfg(SCALE, SEED, 4);
    third.resume_from = Some(ckpt);
    third.faults = FaultPlan::none().inject(2, 0, FaultKind::Panic);
    let hardened = run_sharded(&third).expect("resumed run with kills");
    assert_partitions_shard_set(&hardened, "resume+kill");
    assert_bit_identical(&hardened, SCALE, SEED, "resume+kill");

    // Every worker of all three supervisors — the one that "died"
    // included — was killed and reaped before `run_sharded` returned.
    assert_eq!(worker_children(), 0, "no live or zombie worker is left");

    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// For any chaos schedule, shard count, and retry budget, the three
    /// disposition sets partition the shard set; and whenever healing is
    /// on, the final bits match the oracle regardless of what was killed.
    #[test]
    fn dispositions_partition_the_shard_set(
        seed in 0u64..1000,
        shards in 1usize..6,
        chaos_seed in any::<u64>(),
        rate_pct in 0u32..=100,
        max_retries in 0u32..3,
    ) {
        const SCALE: f64 = 0.002;
        let _shared = spawning_workers();
        let mut c = cfg(SCALE, seed, shards);
        c.retry.max_retries = max_retries;
        c.chaos_seed = chaos_seed;
        // Panic (SIGKILL) and Transient (exit 1) only: a random Delay
        // would serialise the test on the watchdog deadline.
        c.faults = FaultPlan::random(
            chaos_seed,
            f64::from(rate_pct) / 100.0,
            &[FaultKind::Panic, FaultKind::Transient],
        );
        let outcome = run_sharded(&c).expect("sharded run");
        assert_partitions_shard_set(&outcome, "proptest");
        assert_bit_identical(&outcome, SCALE, seed, "proptest");
    }
}
