//! GDCA baseline: level-by-level greedy DAG clustering
//! [Bramas & Ketterlin, PeerJ CS 2020].

use crate::{check_opts, PartitionError, Partitioner, PartitionerOptions};
use gpasta_tdg::{Partition, Tdg};

/// The General DAG Clustering Algorithm, the paper's CPU baseline.
///
/// GDCA removes Sarkar-style cycle checking by clustering strictly *within*
/// BFS levels: it levelises the TDG, sorts each level's tasks by the
/// cluster affinity of their predecessors (tasks whose parents share a
/// cluster are packed together to reduce cross-cluster edges), and fills
/// fixed-size clusters greedily. Same-level tasks are incomparable, so the
/// result is trivially convex and acyclic — but clustering tasks that could
/// have run *in parallel* serialises them, which is exactly the parallelism
/// loss G-PASTA's adjacent-level rule avoids (Figure 3).
///
/// Practical notes faithful to the original:
/// * the partition size is a hard target — GDCA wants *equal-size*
///   clusters, so quality depends on tuning `Ps` (Figure 8's V-shape);
/// * the per-level affinity sort plus predecessor scans make its
///   single-threaded runtime several times that of seq-G-PASTA's two
///   constant-time operations per task (Table 1).
#[derive(Debug, Clone, Default)]
pub struct Gdca;

impl Gdca {
    /// Create the GDCA baseline.
    pub fn new() -> Self {
        Gdca
    }
}

impl Partitioner for Gdca {
    fn name(&self) -> &'static str {
        "GDCA"
    }

    fn partition(&self, tdg: &Tdg, opts: &PartitionerOptions) -> Result<Partition, PartitionError> {
        check_opts(opts)?;
        let n = tdg.num_tasks();
        if n == 0 {
            return Ok(Partition::new(Vec::new()));
        }
        let ps = opts.resolve_ps(tdg);

        // CSR space: each level is one contiguous id range (no `tasks_at`
        // gather), the levelisation itself is cached on the graph (the
        // fig8 Ps sweep re-partitions the same TDG dozens of times), and
        // within a level CSR id order equals original id order, so the
        // affinity sort key `best << 32 | id` ranks tasks as it would in
        // original id space.
        let csr = tdg.csr();
        let mut assignment = vec![0u32; n];
        let mut next_cluster = 0u32;

        // Affinity key per task: the smallest cluster id among its
        // predecessors (tasks sharing parents end up adjacent after the
        // sort and get packed into the same cluster).
        let mut affinity: Vec<u64> = vec![u64::MAX; n];

        let mut order: Vec<u32> = Vec::new();
        for l in 0..csr.depth() {
            let range = csr.level_range(l);
            order.clear();
            order.extend(range.start as u32..range.end as u32);

            // Compute affinities (scan predecessors — this is the bulk of
            // GDCA's per-node cost).
            for &t in order.iter() {
                let mut best = u64::MAX;
                for &p in csr.predecessors(t) {
                    let c = u64::from(assignment[p as usize]);
                    if c < best {
                        best = c;
                    }
                }
                affinity[t as usize] = (best << 32) | u64::from(t);
            }
            order.sort_unstable_by_key(|&t| affinity[t as usize]);

            // Greedy fixed-size fill.
            let mut in_cluster = 0usize;
            let mut started = false;
            for &t in order.iter() {
                if !started || in_cluster == ps {
                    if started {
                        next_cluster += 1;
                    }
                    started = true;
                    in_cluster = 0;
                }
                assignment[t as usize] = next_cluster;
                in_cluster += 1;
            }
            // Clusters never span levels.
            next_cluster += 1;
        }

        Ok(Partition::new(csr.scatter_to_original(&assignment)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpasta_circuits::dag;
    use gpasta_tdg::{validate, ParallelismProfile, QuotientTdg, TaskId, TdgBuilder};

    #[test]
    fn valid_on_random_dags() {
        let gdca = Gdca::new();
        for seed in 0..8u64 {
            let tdg = dag::random_dag(400, 1.6, seed);
            for ps in [2usize, 8, 64] {
                let p = gdca
                    .partition(&tdg, &PartitionerOptions::with_max_size(ps))
                    .expect("valid options");
                validate::check_all(&tdg, &p).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                validate::check_size_bound(&p, ps).expect("size bound");
            }
        }
    }

    #[test]
    fn clusters_within_levels_only() {
        let tdg = dag::layered(12, 6, 2, 3);
        let levels = tdg.levels();
        let p = Gdca::new()
            .partition(&tdg, &PartitionerOptions::with_max_size(4))
            .expect("valid options");
        for members in p.members() {
            let l0 = levels.level_of(TaskId(members[0]));
            for &m in &members {
                assert_eq!(levels.level_of(TaskId(m)), l0, "cluster spans levels");
            }
        }
    }

    #[test]
    fn figure3a_serialisation_effect() {
        // A wide, shallow DAG: GDCA with a large Ps merges same-level
        // parallel tasks into one cluster, collapsing parallelism, while
        // G-PASTA keeps one partition per chain.
        let width = 16;
        let tdg = dag::layered(width, 4, 1, 1);
        let gdca = Gdca::new()
            .partition(&tdg, &PartitionerOptions::with_max_size(width))
            .expect("valid options");
        let gp = crate::GPasta::with_device(gpasta_gpu::Device::single())
            .partition(&tdg, &PartitionerOptions::default())
            .expect("valid options");
        let q_gdca = QuotientTdg::build(&tdg, &gdca).expect("valid");
        let q_gp = QuotientTdg::build(&tdg, &gp).expect("valid");
        let par_gdca = ParallelismProfile::of(q_gdca.graph()).avg_parallelism;
        let par_gp = ParallelismProfile::of(q_gp.graph()).avg_parallelism;
        assert!(
            par_gp > par_gdca,
            "G-PASTA must keep more parallelism: {par_gp:.2} vs {par_gdca:.2}"
        );
    }

    #[test]
    fn ps_one_is_singletons() {
        let tdg = dag::chain(6);
        let p = Gdca::new()
            .partition(&tdg, &PartitionerOptions::with_max_size(1))
            .expect("valid options");
        assert_eq!(p.num_partitions(), 6);
    }

    #[test]
    fn empty_graph_and_zero_ps() {
        let empty = TdgBuilder::new(0).build().expect("empty");
        assert_eq!(
            Gdca::new()
                .partition(&empty, &PartitionerOptions::default())
                .expect("valid options")
                .num_partitions(),
            0
        );
        let tdg = dag::chain(2);
        assert_eq!(
            Gdca::new().partition(&tdg, &PartitionerOptions::with_max_size(0)),
            Err(PartitionError::ZeroPartitionSize)
        );
    }

    #[test]
    fn deterministic() {
        let tdg = dag::random_dag(300, 1.4, 7);
        let opts = PartitionerOptions::with_max_size(8);
        assert_eq!(
            Gdca::new().partition(&tdg, &opts).expect("valid"),
            Gdca::new().partition(&tdg, &opts).expect("valid")
        );
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(Gdca::new().name(), "GDCA");
    }
}
