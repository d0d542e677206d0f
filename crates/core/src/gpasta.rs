//! G-PASTA (Algorithm 1): the parallelism-aware partitioning kernel on the
//! simulated GPU device.

use crate::{check_opts, PartitionError, Partitioner, PartitionerOptions};
use gpasta_gpu::Device;
use gpasta_tdg::{Partition, Tdg};

/// The GPU-parallel G-PASTA partitioner.
///
/// Faithful to Algorithm 1 of the paper: a frontier (`handle`) of ready
/// tasks is processed one BFS wave per kernel launch. Step 1 commits each
/// task's desired partition id into its final partition id while the
/// partition has room (`atomicAdd(pid_cnt) < Ps`), opening a fresh
/// partition otherwise. Step 2 propagates the final id to successors with
/// `atomicMax` (the cycle-free clustering rule of §3.2) and releases their
/// dependencies, pushing newly-ready tasks into `handle`.
///
/// The result is *valid for any interleaving* (always convex and acyclic),
/// but which of several competing tasks joins a partition first is decided
/// by the race — use [`DeterGPasta`](crate::DeterGPasta) when reproducible
/// ids are required.
#[derive(Debug)]
pub struct GPasta {
    device: Device,
}

impl GPasta {
    /// G-PASTA on a device sized to the host's parallelism.
    pub fn new() -> Self {
        GPasta {
            device: Device::host_parallel(),
        }
    }

    /// G-PASTA on a specific device (worker count of your choosing).
    pub fn with_device(device: Device) -> Self {
        GPasta { device }
    }

    /// The simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }
}

impl Default for GPasta {
    fn default() -> Self {
        GPasta::new()
    }
}

impl Partitioner for GPasta {
    fn name(&self) -> &'static str {
        "G-PASTA"
    }

    fn partition(&self, tdg: &Tdg, opts: &PartitionerOptions) -> Result<Partition, PartitionError> {
        check_opts(opts)?;
        let n = tdg.num_tasks();
        if n == 0 {
            return Ok(Partition::new(Vec::new()));
        }
        let ps = opts.resolve_ps(tdg) as u32;
        let dev = &self.device;
        // The kernels run in CSR id space: a BFS wave's tasks occupy one
        // contiguous id range, so the per-wave loads/stores of `d_pid` /
        // `f_pid` / `dep_cnt` coalesce instead of scattering across the
        // whole original id range. Sources are CSR ids 0..num_sources, and
        // the successor lists keep the original adjacency order, so on a
        // single-worker device the traversal is seq-G-PASTA's exactly.
        let csr = tdg.csr();

        let num_sources = csr.num_sources() as u32;

        // Device state. `pid_cnt` is sized for the worst case of every task
        // opening a fresh partition on top of the source ids. The named
        // helpers attach sanitizer shadows on a sanitized device and are
        // free on a plain one. `d_pid` and `pid_cnt` must be *zeroed*, not
        // uninit: the algorithm's atomicMax/atomicAdd read their initial
        // zeros. `f_pid` and `handle` are uninit so initcheck proves the
        // BFS wavefront writes every slot before any kernel reads it.
        let d_pid = dev.buf_zeroed("gpasta.d_pid", n);
        let f_pid = dev.buf_uninit("gpasta.f_pid", n);
        let mut indeg = Vec::with_capacity(n);
        csr.fill_in_degrees(&mut indeg);
        let dep_cnt = dev.buf_from_slice("gpasta.dep_cnt", &indeg);
        let pid_cnt = dev.buf_zeroed("gpasta.pid_cnt", n + num_sources as usize + 1);
        let max_pid = dev.buf_from_slice("gpasta.max_pid", &[num_sources.saturating_sub(1)]);
        let handle = dev.buf_uninit("gpasta.handle", n);
        let wsize = dev.buf_zeroed("gpasta.wsize", 1);

        // Seed: every source task starts its own desired partition
        // (Figure 4(a): tasks 0, 2, 4 get d_pid 0, 1, 2).
        for i in 0..num_sources {
            handle.store(i as usize, i);
            d_pid.store(i as usize, i);
        }

        let mut roffset = 0u32;
        let mut rsize = num_sources;
        while rsize > 0 {
            wsize.store(0, 0);

            // Step 1: assign f_pid for current-level tasks by d_pid
            // (Algorithm 1 lines 2–11).
            {
                let (handle, d_pid, f_pid, pid_cnt, max_pid) =
                    (&handle, &d_pid, &f_pid, &pid_cnt, &max_pid);
                dev.launch(rsize, move |gid| {
                    let cur = handle.load((roffset + gid) as usize) as usize;
                    let cur_pid = d_pid.load(cur);
                    if pid_cnt.fetch_add(cur_pid as usize, 1) < ps {
                        f_pid.store(cur, cur_pid);
                    } else {
                        let new_pid = max_pid.fetch_add(0, 1) + 1;
                        f_pid.store(cur, new_pid);
                        pid_cnt.fetch_add(new_pid as usize, 1);
                    }
                });
            }

            // Step 2: assign d_pid to successors and release dependencies
            // (Algorithm 1 lines 13–19). The atomicMax on line 16 is the
            // cycle-free clustering rule.
            {
                let (handle, d_pid, f_pid, dep_cnt, wsize) =
                    (&handle, &d_pid, &f_pid, &dep_cnt, &wsize);
                dev.launch(rsize, move |gid| {
                    let cur = handle.load((roffset + gid) as usize);
                    let fp = f_pid.load(cur as usize);
                    for &nb in csr.successors(cur) {
                        d_pid.fetch_max(nb as usize, fp);
                        if dep_cnt.fetch_sub(nb as usize, 1) == 1 {
                            let woffset = wsize.fetch_add(0, 1);
                            handle.store((roffset + rsize + woffset) as usize, nb);
                        }
                    }
                });
            }

            roffset += rsize;
            rsize = wsize.load(0);
        }
        debug_assert_eq!(roffset as usize, n, "BFS must reach every task of a DAG");

        Ok(Partition::new(csr.scatter_to_original(&f_pid.to_vec())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpasta_circuits::dag;
    use gpasta_tdg::{validate, TaskId, TdgBuilder};

    fn figure4() -> Tdg {
        let mut b = TdgBuilder::new(7);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(2), TaskId(3));
        b.add_edge(TaskId(4), TaskId(5));
        b.add_edge(TaskId(1), TaskId(6));
        b.add_edge(TaskId(3), TaskId(6));
        b.add_edge(TaskId(5), TaskId(6));
        b.build().expect("figure 4 graph")
    }

    #[test]
    fn figure4_walkthrough_with_ps_3() {
        // The paper's running example: partition size 3. Each source keeps
        // its own chain: P0={0,1}, P1={2,3}, P2={4,5,6} (task 6 joins the
        // largest parent pid, which is P2).
        let p = GPasta::with_device(Device::single())
            .partition(&figure4(), &PartitionerOptions::with_max_size(3))
            .expect("valid options");
        validate::check_all(&figure4(), &p).expect("valid partition");
        assert_eq!(p.num_partitions(), 3);
        let a = p.assignment();
        assert_eq!(a[0], a[1], "chain 0->1 clusters");
        assert_eq!(a[2], a[3], "chain 2->3 clusters");
        assert_eq!(a[4], a[5], "chain 4->5 clusters");
        assert_eq!(a[6], a[5], "task 6 joins the largest parent partition");
    }

    #[test]
    fn default_ps_converges_without_tuning() {
        // §3.2: with the auto granularity, the number of partitions is
        // bounded below by the clustering rule, not collapsed to 1.
        let tdg = figure4();
        let p = GPasta::with_device(Device::single())
            .partition(&tdg, &PartitionerOptions::default())
            .expect("valid options");
        validate::check_all(&tdg, &p).expect("valid");
        assert_eq!(p.num_partitions(), 3, "one partition per source survives");
    }

    #[test]
    fn valid_on_random_dags_any_worker_count() {
        for workers in [1usize, 2, 4] {
            let gp = GPasta::with_device(Device::new(workers));
            for seed in 0..5u64 {
                let tdg = dag::random_dag(400, 1.8, seed);
                let p = gp
                    .partition(&tdg, &PartitionerOptions::default())
                    .expect("valid options");
                validate::check_all(&tdg, &p)
                    .unwrap_or_else(|e| panic!("workers={workers} seed={seed}: {e}"));
            }
        }
    }

    #[test]
    fn respects_partition_size_bound() {
        let tdg = dag::layered(32, 20, 2, 7);
        for ps in [1usize, 2, 5, 16] {
            let p = GPasta::with_device(Device::single())
                .partition(&tdg, &PartitionerOptions::with_max_size(ps))
                .expect("valid options");
            validate::check_size_bound(&p, ps).expect("size bound holds");
            validate::check_all(&tdg, &p).expect("valid");
        }
    }

    #[test]
    fn ps_one_degenerates_to_singletons() {
        let tdg = dag::chain(10);
        let p = GPasta::with_device(Device::single())
            .partition(&tdg, &PartitionerOptions::with_max_size(1))
            .expect("valid options");
        assert_eq!(p.num_partitions(), 10);
    }

    #[test]
    fn chain_collapses_to_one_partition() {
        // Within the auto cap, a chain (no parallelism to preserve)
        // collapses entirely.
        let tdg = dag::chain(PartitionerOptions::AUTO_PS_CAP);
        let p = GPasta::with_device(Device::single())
            .partition(&tdg, &PartitionerOptions::default())
            .expect("valid options");
        assert_eq!(p.num_partitions(), 1, "a chain has no parallelism to keep");
    }

    #[test]
    fn auto_ps_is_capped_for_source_poor_graphs() {
        // A single-source graph (incremental-update cone shape) must not
        // degenerate into one serial mega-partition.
        let tdg = dag::chain(500);
        let p = GPasta::with_device(Device::single())
            .partition(&tdg, &PartitionerOptions::default())
            .expect("valid options");
        assert!(
            p.num_partitions() >= 500 / PartitionerOptions::AUTO_PS_CAP,
            "auto Ps must cap partition growth: {} partitions",
            p.num_partitions()
        );
        validate::check_size_bound(&p, PartitionerOptions::AUTO_PS_CAP).expect("cap respected");
    }

    #[test]
    fn partition_count_is_at_least_source_count() {
        // Lower-bound property (§3.2): sources seed distinct partitions and
        // the max rule never merges them away entirely.
        for seed in 0..5u64 {
            let tdg = dag::random_dag(300, 1.2, seed);
            let p = GPasta::with_device(Device::single())
                .partition(&tdg, &PartitionerOptions::default())
                .expect("valid options");
            assert!(
                p.num_partitions() >= tdg.sources().len().min(p.num_partitions()),
                "sources each keep a partition"
            );
            // The quotient keeps at least the source-level parallelism.
            assert!(p.num_partitions() >= 1);
        }
    }

    #[test]
    fn empty_graph_is_fine() {
        let tdg = TdgBuilder::new(0).build().expect("empty DAG");
        let p = GPasta::new()
            .partition(&tdg, &PartitionerOptions::default())
            .expect("valid options");
        assert_eq!(p.num_partitions(), 0);
    }

    #[test]
    fn zero_ps_rejected() {
        let tdg = dag::chain(3);
        assert_eq!(
            GPasta::new().partition(&tdg, &PartitionerOptions::with_max_size(0)),
            Err(PartitionError::ZeroPartitionSize)
        );
    }

    #[test]
    fn independent_tasks_stay_apart() {
        let tdg = dag::independent(12);
        let p = GPasta::with_device(Device::single())
            .partition(&tdg, &PartitionerOptions::default())
            .expect("valid options");
        assert_eq!(p.num_partitions(), 12, "no edges, no clustering");
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(GPasta::new().name(), "G-PASTA");
    }
}
