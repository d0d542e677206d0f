//! deter-G-PASTA (Algorithm 2): the deterministic GPU kernel.

use crate::{check_opts, PartitionError, Partitioner, PartitionerOptions};
use gpasta_gpu::{prims, Device};
use gpasta_tdg::{Partition, Tdg};

/// The deterministic variant of G-PASTA.
///
/// Algorithm 1's step 1 races: when a partition has room for `k` more
/// tasks and `k + m` tasks desire it, *which* `k` win is decided by thread
/// interleaving (Figure 6). Algorithm 2 removes the race in four
/// deterministic steps per BFS level:
///
/// 1. sort the level's tasks by the 64-bit key `d_pid << 32 | task_id`, so
///    tasks contending for a partition are grouped and ordered;
/// 2. locate each partition's first task with `reduce_by_key` +
///    `exclusive_scan` (`fir_tid_arr`);
/// 3. mark tasks beyond the partition's remaining capacity as overflowing
///    (`is_full`), and prefix-sum the marks (`num_full_arr`);
/// 4. commit: in-capacity tasks take their desired id, overflowing tasks
///    take `max_pid + num_full_arr[gid]` — fresh ids assigned by sorted
///    position rather than by a racy counter.
///
/// The step-2 successor update is one `atomicMax` per edge, order-insensitive
/// in its final value. The levels are not discovered: each is the id range
/// the level-ordered CSR view already holds, and it is sorted before use, so
/// the order in which a level would be discovered never mattered. The
/// complete partition assignment is identical for every worker count and
/// every run — the property the test suite checks.
#[derive(Debug)]
pub struct DeterGPasta {
    device: Device,
}

impl DeterGPasta {
    /// deter-G-PASTA on a device sized to the host's parallelism.
    pub fn new() -> Self {
        DeterGPasta {
            device: Device::host_parallel(),
        }
    }

    /// deter-G-PASTA on a specific device.
    pub fn with_device(device: Device) -> Self {
        DeterGPasta { device }
    }

    /// The simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }
}

impl Default for DeterGPasta {
    fn default() -> Self {
        DeterGPasta::new()
    }
}

impl Partitioner for DeterGPasta {
    fn name(&self) -> &'static str {
        "deter-G-PASTA"
    }

    fn partition(&self, tdg: &Tdg, opts: &PartitionerOptions) -> Result<Partition, PartitionError> {
        check_opts(opts)?;
        let n = tdg.num_tasks();
        if n == 0 {
            return Ok(Partition::new(Vec::new()));
        }
        let ps = opts.resolve_ps(tdg) as u32;
        let dev = &self.device;
        // CSR id space: every sorted batch is one BFS level, and within a
        // level CSR id order equals original id order, so the packed sort
        // key `d_pid << 32 | id` ranks tasks identically in either space,
        // and the output is the same for every worker count.
        let csr = tdg.csr();

        let num_sources = csr.num_sources() as u32;

        // `d_pid`/`pid_cnt` rely on their zeros (atomicMax / occupancy
        // counts); `f_pid` is uninit so a sanitized run's initcheck proves
        // that the levels cover every task.
        let d_pid = dev.buf_zeroed("deter.d_pid", n);
        let f_pid = dev.buf_uninit("deter.f_pid", n);
        let pid_cnt = dev.buf_zeroed("deter.pid_cnt", n + num_sources as usize + 1);
        let mut max_pid = num_sources.saturating_sub(1);

        for i in 0..num_sources {
            d_pid.store(i as usize, i);
        }

        for l in 0..csr.depth() {
            let level = csr.level_range(l);
            let m = level.len();

            // Step 1: sort the level by the packed 64-bit key (Algorithm 2
            // lines 1–6).
            let mut keys: Vec<u64> = level
                .clone()
                .map(|t| (u64::from(d_pid.load(t)) << 32) | t as u64)
                .collect();
            prims::sort_u64(dev, &mut keys);
            let tasks_sorted: Vec<u32> = keys.iter().map(|&k| (k & 0xffff_ffff) as u32).collect();
            let dpid_sorted: Vec<u32> = keys.iter().map(|&k| (k >> 32) as u32).collect();

            // Step 2: identify the first task of each desired partition
            // (lines 7–10): segment sizes via reduce_by_key over ones, then
            // exclusive scan for the segment starts.
            let ones = vec![1u32; m];
            let (_uniq, sizes) = prims::reduce_by_key(dev, &dpid_sorted, &ones);
            let fir_tid_arr = prims::exclusive_scan(dev, &sizes);

            // Step 3: determine if each task's desired partition is full
            // (lines 11–20).
            let is_full = dev.buf_uninit("deter.is_full", m);
            {
                let (is_full, pid_cnt) = (&is_full, &pid_cnt);
                let (fir_tid_arr, dpid_sorted) = (&fir_tid_arr, &dpid_sorted);
                dev.launch(m as u32, move |gid| {
                    let seg = prims::try_segment_of(fir_tid_arr, gid)
                        .expect("deter.is_full: gid precedes the first segment start");
                    let used = pid_cnt.load(dpid_sorted[gid as usize] as usize);
                    let num_left = ps.saturating_sub(used);
                    let full = u32::from(gid >= fir_tid_arr[seg] + num_left);
                    is_full.store(gid as usize, full);
                });
            }
            let num_full_arr = prims::inclusive_scan(dev, &is_full.to_vec());
            let new_partitions = *num_full_arr.last().expect("level is non-empty");

            // Step 4: assign deterministic results (lines 21–29).
            {
                let (f_pid, pid_cnt, is_full) = (&f_pid, &pid_cnt, &is_full);
                let (tasks_sorted, dpid_sorted, num_full_arr) =
                    (&tasks_sorted, &dpid_sorted, &num_full_arr);
                dev.launch(m as u32, move |gid| {
                    let g = gid as usize;
                    let fp = if is_full.load(g) == 1 {
                        max_pid + num_full_arr[g]
                    } else {
                        dpid_sorted[g]
                    };
                    f_pid.store(tasks_sorted[g] as usize, fp);
                    pid_cnt.fetch_add(fp as usize, 1);
                });
            }
            max_pid += new_partitions;

            // Successor update — Algorithm 1 step 2 without the dependency
            // release: atomicMax commutes, so the next level's desired ids
            // are the same for every schedule.
            {
                let (d_pid, f_pid) = (&d_pid, &f_pid);
                let first = level.start as u32;
                dev.launch(m as u32, move |gid| {
                    let cur = first + gid;
                    let fp = f_pid.load(cur as usize);
                    for &nb in csr.successors(cur) {
                        d_pid.fetch_max(nb as usize, fp);
                    }
                });
            }
        }

        Ok(Partition::new(csr.scatter_to_original(&f_pid.to_vec())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpasta_circuits::dag;
    use gpasta_tdg::{validate, TaskId};

    #[test]
    fn identical_across_worker_counts_and_runs() {
        let tdg = dag::layered(64, 12, 2, 5);
        let reference = DeterGPasta::with_device(Device::single())
            .partition(&tdg, &PartitionerOptions::with_max_size(4))
            .expect("valid options");
        for workers in [1usize, 2, 4, 8] {
            for _run in 0..3 {
                let p = DeterGPasta::with_device(Device::new(workers))
                    .partition(&tdg, &PartitionerOptions::with_max_size(4))
                    .expect("valid options");
                assert_eq!(p, reference, "workers={workers} diverged");
            }
        }
    }

    #[test]
    fn valid_on_random_dags() {
        let deter = DeterGPasta::with_device(Device::new(2));
        for seed in 0..6u64 {
            let tdg = dag::random_dag(350, 1.6, seed);
            let p = deter
                .partition(&tdg, &PartitionerOptions::default())
                .expect("valid options");
            validate::check_all(&tdg, &p).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn respects_ps() {
        let tdg = dag::layered(16, 10, 2, 2);
        for ps in [1usize, 2, 6] {
            let p = DeterGPasta::with_device(Device::single())
                .partition(&tdg, &PartitionerOptions::with_max_size(ps))
                .expect("valid options");
            validate::check_size_bound(&p, ps).expect("size bound");
            validate::check_all(&tdg, &p).expect("valid");
        }
    }

    #[test]
    fn overflow_assigns_fresh_ids_in_sorted_task_order() {
        // Figure 6 shape: four sources feed… simpler: 6 independent tasks
        // whose d_pids collide pairwise is impossible without edges, so use
        // a two-level fan: one source, five children, Ps = 2. The source's
        // partition takes 1 child (it already holds the source); the
        // remaining children must get fresh, deterministic ids ordered by
        // task id.
        let mut b = gpasta_tdg::TdgBuilder::new(6);
        for c in 1..6u32 {
            b.add_edge(TaskId(0), TaskId(c));
        }
        let tdg = b.build().expect("fan DAG");
        let p = DeterGPasta::with_device(Device::new(4))
            .partition(&tdg, &PartitionerOptions::with_max_size(2))
            .expect("valid options");
        validate::check_all(&tdg, &p).expect("valid");
        let a = p.assignment();
        // Task 1 (smallest id) wins the source's partition.
        assert_eq!(a[1], a[0]);
        // Tasks 2..5 get distinct fresh partitions in ascending order.
        assert!(a[2] < a[3] && a[3] < a[4] && a[4] < a[5]);
        assert_eq!(p.num_partitions(), 5);
    }

    #[test]
    fn matches_gpasta_partition_quality() {
        // Determinism must not cost clustering quality: partition counts
        // stay within a small factor of the racy kernel's.
        let tdg = dag::layered(32, 16, 2, 11);
        let racy = crate::GPasta::with_device(Device::single())
            .partition(&tdg, &PartitionerOptions::default())
            .expect("valid options");
        let deter = DeterGPasta::with_device(Device::single())
            .partition(&tdg, &PartitionerOptions::default())
            .expect("valid options");
        let (a, b) = (racy.num_partitions() as f64, deter.num_partitions() as f64);
        assert!(b <= 2.0 * a + 4.0, "deter {b} vs racy {a}");
    }

    #[test]
    fn empty_graph() {
        let tdg = gpasta_tdg::TdgBuilder::new(0).build().expect("empty");
        let p = DeterGPasta::new()
            .partition(&tdg, &PartitionerOptions::default())
            .expect("valid options");
        assert_eq!(p.num_tasks(), 0);
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(DeterGPasta::new().name(), "deter-G-PASTA");
    }
}
