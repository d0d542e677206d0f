//! seq-G-PASTA: the single-threaded CPU variant of Algorithm 1.

use crate::{check_opts, PartitionError, Partitioner, PartitionerOptions};
use gpasta_tdg::{CancelObserver, Partition, Tdg};

/// The sequential CPU implementation of G-PASTA's clustering rule.
///
/// Identical logic to [`GPasta`](crate::GPasta) — desired ids propagate
/// from parents, the max rule keeps the quotient acyclic, full partitions
/// overflow into fresh ones — but runs on one thread with plain loads and
/// stores. The paper reports it 2.4–6.2× faster than GDCA even without a
/// GPU, because per task it performs only a couple of constant-time
/// operations.
///
/// The result is fully deterministic: tasks are processed in frontier
/// insertion order, which is fixed on a single thread.
#[derive(Debug, Clone, Default)]
pub struct SeqGPasta;

impl SeqGPasta {
    /// Create the sequential partitioner.
    pub fn new() -> Self {
        SeqGPasta
    }
}

impl SeqGPasta {
    /// The wavefront kernel on the flat level-ordered CSR view, polling
    /// `cancel` once per BFS level — the natural unit boundary of the
    /// algorithm, so cancellation latency is one level's worth of
    /// constant-time per-task work.
    ///
    /// Running in CSR space makes each wavefront's touches of `d_pid` /
    /// `f_pid` / `dep_cnt` contiguous (tasks of one level are one id
    /// range). Because the frontier at step `k` is exactly level `k`, the
    /// CSR successor lists keep the original adjacency order, and sources
    /// occupy CSR ids `0..num_sources` in the same ascending-id order as
    /// `Tdg::sources`, the wavefront visits tasks in the order a traversal
    /// of the original ids would, which is also single-worker G-PASTA's
    /// order: the two agree bit for bit.
    fn partition_impl(
        &self,
        tdg: &Tdg,
        opts: &PartitionerOptions,
        cancel: &CancelObserver,
    ) -> Result<Partition, PartitionError> {
        check_opts(opts)?;
        let n = tdg.num_tasks();
        if n == 0 {
            return Ok(Partition::new(Vec::new()));
        }
        let ps = opts.resolve_ps(tdg) as u32;
        let csr = tdg.csr();

        let mut d_pid = vec![0u32; n];
        let mut f_pid = vec![0u32; n];
        let mut dep_cnt = Vec::with_capacity(n);
        csr.fill_in_degrees(&mut dep_cnt);
        let num_sources = csr.num_sources();
        let mut pid_cnt = vec![0u32; n + num_sources + 1];
        let mut max_pid = (num_sources as u32).saturating_sub(1);

        // Frontier seeded with sources (CSR ids 0..num_sources), each with
        // its own desired id.
        let mut frontier: Vec<u32> = (0..num_sources as u32).collect();
        for (i, pid) in d_pid.iter_mut().enumerate().take(num_sources) {
            *pid = i as u32;
        }

        let mut next = Vec::new();
        while !frontier.is_empty() {
            if cancel.is_cancelled() {
                return Err(PartitionError::Cancelled);
            }
            for &cur in &frontier {
                // Step 1: commit or overflow.
                let cur_pid = d_pid[cur as usize];
                let fp = if pid_cnt[cur_pid as usize] < ps {
                    pid_cnt[cur_pid as usize] += 1;
                    cur_pid
                } else {
                    max_pid += 1;
                    pid_cnt[max_pid as usize] += 1;
                    max_pid
                };
                f_pid[cur as usize] = fp;

                // Step 2: max rule + dependency release.
                for &nb in csr.successors(cur) {
                    let d = &mut d_pid[nb as usize];
                    if *d < fp {
                        *d = fp;
                    }
                    dep_cnt[nb as usize] -= 1;
                    if dep_cnt[nb as usize] == 0 {
                        next.push(nb);
                    }
                }
            }
            // Insertion order is already deterministic on one thread; no
            // sort needed (the per-task cost stays constant, which is why
            // seq-G-PASTA beats GDCA even without a GPU).
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }

        Ok(Partition::new(csr.scatter_to_original(&f_pid)))
    }
}

impl Partitioner for SeqGPasta {
    fn name(&self) -> &'static str {
        "seq-G-PASTA"
    }

    fn partition(&self, tdg: &Tdg, opts: &PartitionerOptions) -> Result<Partition, PartitionError> {
        self.partition_impl(tdg, opts, &CancelObserver::never())
    }

    fn partition_cancellable(
        &self,
        tdg: &Tdg,
        opts: &PartitionerOptions,
        cancel: &CancelObserver,
    ) -> Result<Partition, PartitionError> {
        self.partition_impl(tdg, opts, cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpasta_circuits::dag;
    use gpasta_tdg::{validate, TaskId, TdgBuilder};

    #[test]
    fn deterministic_across_runs() {
        let tdg = dag::random_dag(500, 1.7, 3);
        let a = SeqGPasta::new()
            .partition(&tdg, &PartitionerOptions::default())
            .expect("valid options");
        let b = SeqGPasta::new()
            .partition(&tdg, &PartitionerOptions::default())
            .expect("valid options");
        assert_eq!(a, b);
    }

    #[test]
    fn valid_on_random_dags() {
        for seed in 0..8u64 {
            let tdg = dag::random_dag(400, 1.5, seed);
            let p = SeqGPasta::new()
                .partition(&tdg, &PartitionerOptions::default())
                .expect("valid options");
            validate::check_all(&tdg, &p).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn respects_ps() {
        let tdg = dag::layered(16, 12, 2, 1);
        for ps in [1usize, 3, 8] {
            let p = SeqGPasta::new()
                .partition(&tdg, &PartitionerOptions::with_max_size(ps))
                .expect("valid options");
            validate::check_size_bound(&p, ps).expect("size bound");
            validate::check_all(&tdg, &p).expect("valid");
        }
    }

    #[test]
    fn matches_parallel_gpasta_on_single_worker() {
        // One device worker processes the frontier in order, so the racy
        // kernel degenerates to exactly this algorithm — except frontier
        // ordering: the device pushes in traversal order while seq sorts.
        // Both must be valid and produce the same partition *count* on
        // simple graphs.
        let tdg = dag::layered(8, 6, 2, 9);
        let seq = SeqGPasta::new()
            .partition(&tdg, &PartitionerOptions::default())
            .expect("valid options");
        let par = crate::GPasta::with_device(gpasta_gpu::Device::single())
            .partition(&tdg, &PartitionerOptions::default())
            .expect("valid options");
        assert_eq!(seq.num_partitions(), par.num_partitions());
    }

    #[test]
    fn figure4_example() {
        let mut b = TdgBuilder::new(7);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(2), TaskId(3));
        b.add_edge(TaskId(4), TaskId(5));
        b.add_edge(TaskId(1), TaskId(6));
        b.add_edge(TaskId(3), TaskId(6));
        b.add_edge(TaskId(5), TaskId(6));
        let tdg = b.build().expect("figure 4");
        let p = SeqGPasta::new()
            .partition(&tdg, &PartitionerOptions::with_max_size(3))
            .expect("valid options");
        assert_eq!(p.num_partitions(), 3);
        assert_eq!(p.assignment()[6], p.assignment()[5]);
    }

    #[test]
    fn empty_and_zero_ps() {
        let empty = TdgBuilder::new(0).build().expect("empty");
        assert_eq!(
            SeqGPasta::new()
                .partition(&empty, &PartitionerOptions::default())
                .expect("valid options")
                .num_partitions(),
            0
        );
        let tdg = dag::chain(2);
        assert_eq!(
            SeqGPasta::new().partition(&tdg, &PartitionerOptions::with_max_size(0)),
            Err(PartitionError::ZeroPartitionSize)
        );
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(SeqGPasta::new().name(), "seq-G-PASTA");
    }

    #[test]
    fn cancellable_run_matches_plain_run_when_not_cancelled() {
        use gpasta_tdg::CancelToken;
        let tdg = dag::random_dag(300, 1.6, 11);
        let token = CancelToken::new();
        let plain = SeqGPasta::new()
            .partition(&tdg, &PartitionerOptions::default())
            .expect("valid options");
        let cancellable = SeqGPasta::new()
            .partition_cancellable(&tdg, &PartitionerOptions::default(), &token.observe())
            .expect("uncancelled run succeeds");
        assert_eq!(plain, cancellable);
    }

    #[test]
    fn tripped_observer_cancels_partitioning() {
        use gpasta_tdg::CancelToken;
        let tdg = dag::random_dag(300, 1.6, 12);
        let token = CancelToken::new();
        let obs = token.observe();
        token.cancel();
        assert_eq!(
            SeqGPasta::new().partition_cancellable(&tdg, &PartitionerOptions::default(), &obs),
            Err(PartitionError::Cancelled)
        );
    }
}
