//! Shape-level assertions for the paper's headline claims, checked on
//! scaled-down workloads. Absolute numbers differ from the paper; these
//! tests pin down *who wins* and *why*.

use gpasta::circuits::{dag, PaperCircuit};
use gpasta::core::{DeterGPasta, GPasta, Gdca, Partitioner, PartitionerOptions, Sarkar, SeqGPasta};
use gpasta::gpu::Device;
use gpasta::sched::simulate_makespan;
use gpasta::sta::{CellLibrary, Timer};
use gpasta::tdg::{validate, ParallelismProfile, Partition, QuotientTdg, TaskId, Tdg};
use std::time::{Duration, Instant};

const DISPATCH_NS: f64 = 800.0;
const SIM_WORKERS: usize = 8;

fn sta_tdg(circuit: PaperCircuit, scale: f64) -> Tdg {
    let mut timer = Timer::new(circuit.build(scale), CellLibrary::typical());
    let update = timer.update_timing();
    update.tdg().clone()
}

fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Table 1 / §4.1: seq-G-PASTA partitions faster than GDCA even without a
/// GPU (paper: 2.4–6.2×; we assert it simply wins).
#[test]
fn seq_gpasta_partitions_faster_than_gdca() {
    let tdg = sta_tdg(PaperCircuit::Leon3mp, 0.005);
    let opts = PartitionerOptions::with_max_size(16);

    // Warm up, then take the best of three to de-noise CI machines.
    let mut best_gdca = Duration::MAX;
    let mut best_seq = Duration::MAX;
    for _ in 0..3 {
        let (_, t) = time(|| Gdca::new().partition(&tdg, &opts).expect("valid"));
        best_gdca = best_gdca.min(t);
        let (_, t) = time(|| SeqGPasta::new().partition(&tdg, &opts).expect("valid"));
        best_seq = best_seq.min(t);
    }
    assert!(
        best_seq < best_gdca,
        "seq-G-PASTA ({best_seq:?}) must beat GDCA ({best_gdca:?})"
    );
}

/// Figure 3: adjacent-level clustering keeps more TDG parallelism than
/// GDCA's within-level clustering at the same partition size.
#[test]
fn gpasta_retains_more_parallelism_than_gdca() {
    let tdg = dag::layered(64, 24, 1, 3);
    let opts = PartitionerOptions::with_max_size(24);
    let q_of = |p: &dyn Partitioner| {
        let partition = p.partition(&tdg, &opts).expect("valid");
        let q = QuotientTdg::build(&tdg, &partition).expect("schedulable");
        ParallelismProfile::of(q.graph()).avg_parallelism
    };
    let gp = q_of(&GPasta::with_device(Device::single()));
    let gdca = q_of(&Gdca::new());
    assert!(
        gp > gdca,
        "G-PASTA parallelism {gp:.2} must exceed GDCA {gdca:.2}"
    );
}

/// seq-G-PASTA with the max rule swapped for first-writer-wins: a successor
/// keeps the *first* desired partition id it receives. Not cycle-free —
/// that is the point.
fn first_writer_partition(tdg: &Tdg, ps: usize) -> Partition {
    const UNSET: u32 = u32::MAX;
    let n = tdg.num_tasks();
    let mut d_pid = vec![UNSET; n];
    let mut f_pid = vec![0u32; n];
    let mut dep = tdg.in_degrees();
    let mut pid_cnt = vec![0u32; 2 * n + 1];
    let mut frontier: Vec<u32> = tdg.sources().iter().map(|s| s.0).collect();
    for (i, &s) in frontier.iter().enumerate() {
        d_pid[s as usize] = i as u32;
    }
    let mut max_pid = (frontier.len() as u32).saturating_sub(1);
    let mut next = Vec::new();
    while !frontier.is_empty() {
        for &cur in &frontier {
            let want = d_pid[cur as usize];
            let fp = if (pid_cnt[want as usize] as usize) < ps {
                want
            } else {
                max_pid += 1;
                max_pid
            };
            pid_cnt[fp as usize] += 1;
            f_pid[cur as usize] = fp;
            for &nb in tdg.successors(TaskId(cur)) {
                if d_pid[nb as usize] == UNSET {
                    d_pid[nb as usize] = fp;
                }
                dep[nb as usize] -= 1;
                if dep[nb as usize] == 0 {
                    next.push(nb);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    Partition::new(f_pid)
}

/// Theorem 1: the max rule (`atomicMax` on the desired partition id) keeps
/// every quotient acyclic, in all three G-PASTA kernels; first-writer-wins,
/// the same walk with the rule swapped, does not.
#[test]
fn first_writer_wins_makes_cyclic_partitions_the_max_rule_never_does() {
    let opts = PartitionerOptions::with_max_size(8);
    let max_rule: [(&str, &dyn Partitioner); 3] = [
        ("seq-G-PASTA", &SeqGPasta::new()),
        ("G-PASTA", &GPasta::with_device(Device::single())),
        ("deter-G-PASTA", &DeterGPasta::with_device(Device::single())),
    ];
    let seeds = 40;
    let mut first_writer_cyclic = 0;
    for seed in 0..seeds {
        let tdg = dag::random_dag(400, 1.8, seed);
        for (name, p) in max_rule {
            let partition = p.partition(&tdg, &opts).expect("valid options");
            if let Err(e) = validate::check_acyclic(&tdg, &partition) {
                panic!("{name} made a cyclic partition on seed {seed}: {e}");
            }
        }
        if validate::check_acyclic(&tdg, &first_writer_partition(&tdg, 8)).is_err() {
            first_writer_cyclic += 1;
        }
    }
    assert_eq!(
        first_writer_cyclic, seeds,
        "first-writer-wins should make a cyclic partition on every seed"
    );
}

/// §4.1: partitioning improves the simulated multi-worker TDG runtime on
/// every circuit (the paper's 1.7–2.0×; we assert > 1.2×).
#[test]
fn partitioning_improves_simulated_tdg_runtime() {
    for &circuit in &[PaperCircuit::Leon3mp, PaperCircuit::Leon2] {
        let tdg = sta_tdg(circuit, 0.01);
        let base = simulate_makespan(&tdg, SIM_WORKERS, DISPATCH_NS).makespan_ns;

        let p = SeqGPasta::new()
            .partition(&tdg, &PartitionerOptions::default())
            .expect("valid");
        let q = QuotientTdg::build(&tdg, &p).expect("schedulable");
        let after = simulate_makespan(q.graph(), SIM_WORKERS, DISPATCH_NS).makespan_ns;
        let speedup = base / after;
        assert!(
            speedup > 1.2,
            "{circuit}: simulated speedup {speedup:.2} too low"
        );
    }
}

/// Figure 8: GDCA's simulated runtime is V-shaped in the partition size,
/// while G-PASTA saturates (large sizes do not blow it up thanks to the
/// partition-count lower bound at the auto granularity).
#[test]
fn gdca_v_shape_and_gpasta_saturation() {
    let tdg = sta_tdg(PaperCircuit::Leon3mp, 0.01);
    let sim_of = |p: &dyn Partitioner, ps: usize| {
        let partition = p
            .partition(&tdg, &PartitionerOptions::with_max_size(ps))
            .expect("valid");
        let q = QuotientTdg::build(&tdg, &partition).expect("schedulable");
        simulate_makespan(q.graph(), SIM_WORKERS, DISPATCH_NS).makespan_ns
    };

    let gdca = Gdca::new();
    let at_1 = sim_of(&gdca, 1);
    let at_mid = sim_of(&gdca, 16);
    let at_huge = sim_of(&gdca, 4096);
    assert!(at_mid < at_1, "GDCA must improve from Ps=1 to Ps=16");
    assert!(at_huge > at_mid, "GDCA must degrade at huge Ps (V-shape)");

    // G-PASTA at its auto granularity is within 1.3x of its best sweep
    // point — no tuning needed.
    let gp = SeqGPasta::new();
    let auto = {
        let partition = gp
            .partition(&tdg, &PartitionerOptions::default())
            .expect("valid");
        let q = QuotientTdg::build(&tdg, &partition).expect("schedulable");
        simulate_makespan(q.graph(), SIM_WORKERS, DISPATCH_NS).makespan_ns
    };
    let best_swept = [2usize, 4, 8, 16, 32, 64]
        .iter()
        .map(|&ps| {
            let partition = gp
                .partition(&tdg, &PartitionerOptions::with_max_size(ps))
                .expect("valid");
            let q = QuotientTdg::build(&tdg, &partition).expect("schedulable");
            simulate_makespan(q.graph(), SIM_WORKERS, DISPATCH_NS).makespan_ns
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        auto < 1.3 * best_swept,
        "auto Ps ({auto:.0} ns) must be near the best swept point ({best_swept:.0} ns)"
    );
}

/// Figure 1(b): Sarkar's partitioning time grows superlinearly while
/// G-PASTA stays near-linear.
#[test]
fn sarkar_grows_superlinearly() {
    let small = dag::layered(40, 25, 2, 1); // 1000 tasks
    let large = dag::layered(80, 50, 2, 1); // 4000 tasks (4x)
    let opts = PartitionerOptions::with_max_size(8);

    let mut sarkar_small = Duration::MAX;
    let mut sarkar_large = Duration::MAX;
    let mut seq_small = Duration::MAX;
    let mut seq_large = Duration::MAX;
    for _ in 0..3 {
        sarkar_small = sarkar_small.min(time(|| Sarkar::new().partition(&small, &opts)).1);
        sarkar_large = sarkar_large.min(time(|| Sarkar::new().partition(&large, &opts)).1);
        seq_small = seq_small.min(time(|| SeqGPasta::new().partition(&small, &opts)).1);
        seq_large = seq_large.min(time(|| SeqGPasta::new().partition(&large, &opts)).1);
    }
    let sarkar_growth = sarkar_large.as_secs_f64() / sarkar_small.as_secs_f64();
    assert!(
        sarkar_growth > 6.0,
        "Sarkar growth {sarkar_growth:.1}x for 4x tasks should be superlinear"
    );
    // And Sarkar is much slower than seq-G-PASTA outright at 4k tasks.
    assert!(
        sarkar_large > 4 * seq_large,
        "{sarkar_large:?} vs {seq_large:?}"
    );
    let _ = seq_small;
}

/// §2: partitioning collapses the number of scheduled units dramatically
/// (the whole premise of reducing scheduling cost).
#[test]
fn partitioning_collapses_dispatch_count() {
    use gpasta::sched::Executor;
    let mut timer = Timer::new(PaperCircuit::DesPerf.build(0.01), CellLibrary::typical());
    let exec = Executor::new(1);
    let update = timer.update_timing();
    let partition = SeqGPasta::new()
        .partition(update.tdg(), &PartitionerOptions::default())
        .expect("valid");
    let q = QuotientTdg::build(update.tdg(), &partition).expect("schedulable");
    let payload = update.task_fn();
    let plain = exec.run_tdg(update.tdg(), &payload);
    let part = exec.run_partitioned(&q, &payload);
    assert!(
        part.dispatches * 5 < plain.dispatches,
        "expected >5x dispatch reduction: {} vs {}",
        part.dispatches,
        plain.dispatches
    );
}
