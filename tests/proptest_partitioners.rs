//! Property-based tests: every partitioner produces valid, schedulable
//! partitions on arbitrary DAGs, for arbitrary partition sizes.

use gpasta::core::{
    forward_closure, DeterGPasta, GPasta, Gdca, IncrementalError, IncrementalPartitioner,
    Partitioner, PartitionerOptions, Sarkar, SeqGPasta,
};
use gpasta::gpu::Device;
use gpasta::tdg::{validate, Partition, QuotientTdg, TaskId, Tdg, TdgBuilder};
use proptest::prelude::*;

/// Case count for the incremental suite, overridable via `PROPTEST_CASES`
/// (the nightly CI job raises it).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

/// Random DAG via low-to-high edge orientation.
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

fn check_partitioner(p: &dyn Partitioner, tdg: &Tdg, opts: &PartitionerOptions) {
    let partition = p.partition(tdg, opts).expect("options are valid");
    assert_eq!(
        partition.num_tasks(),
        tdg.num_tasks(),
        "{}: coverage",
        p.name()
    );
    validate::check_all(tdg, &partition)
        .unwrap_or_else(|e| panic!("{} produced an invalid partition: {e}", p.name()));
    if let Some(ps) = opts.max_partition_size {
        validate::check_size_bound(&partition, ps)
            .unwrap_or_else(|e| panic!("{} violated the size bound: {e}", p.name()));
    }
    // The quotient must be buildable (schedulable).
    let q = QuotientTdg::build(tdg, &partition).expect("schedulable");
    assert_eq!(q.num_partitions(), partition.num_partitions());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gpasta_always_valid(tdg in arb_dag(120), ps in 1usize..40) {
        let p = GPasta::with_device(Device::new(2));
        check_partitioner(&p, &tdg, &PartitionerOptions::with_max_size(ps));
        check_partitioner(&p, &tdg, &PartitionerOptions::default());
    }

    #[test]
    fn deter_gpasta_always_valid_and_reproducible(tdg in arb_dag(100), ps in 1usize..30) {
        let opts = PartitionerOptions::with_max_size(ps);
        let p1 = DeterGPasta::with_device(Device::new(1));
        let p3 = DeterGPasta::with_device(Device::new(3));
        check_partitioner(&p1, &tdg, &opts);
        let a = p1.partition(&tdg, &opts).expect("valid");
        let b = p3.partition(&tdg, &opts).expect("valid");
        prop_assert_eq!(a, b, "worker count changed the deterministic result");
    }

    #[test]
    fn seq_gpasta_always_valid(tdg in arb_dag(150), ps in 1usize..40) {
        check_partitioner(&SeqGPasta::new(), &tdg, &PartitionerOptions::with_max_size(ps));
        check_partitioner(&SeqGPasta::new(), &tdg, &PartitionerOptions::default());
    }

    #[test]
    fn gdca_always_valid(tdg in arb_dag(150), ps in 1usize..40) {
        check_partitioner(&Gdca::new(), &tdg, &PartitionerOptions::with_max_size(ps));
    }

    #[test]
    fn sarkar_always_valid(tdg in arb_dag(60), ps in 1usize..20) {
        check_partitioner(&Sarkar::new(), &tdg, &PartitionerOptions::with_max_size(ps));
    }

    #[test]
    fn gpasta_partition_ids_never_decrease_along_edges(tdg in arb_dag(100)) {
        // The §3.2 ordering argument: along every edge, the (pre-compaction
        // order-preserved) partition id is non-decreasing, which is what
        // makes the quotient acyclic.
        let p = SeqGPasta::new()
            .partition(&tdg, &PartitionerOptions::default())
            .expect("valid");
        let levels_ok = tdg.edges().all(|(u, v)| p.pid_of(u) <= p.pid_of(v));
        prop_assert!(levels_ok, "an edge goes from a larger to a smaller partition id");
    }

    #[test]
    fn partition_count_lower_bound_holds(tdg in arb_dag(120)) {
        // §3.2: with the auto granularity, every source seeds a partition
        // and the count never drops below the source count.
        let sources = tdg.sources().len();
        let p = SeqGPasta::new()
            .partition(&tdg, &PartitionerOptions::default())
            .expect("valid");
        prop_assert!(
            p.num_partitions() >= sources,
            "{} partitions < {} sources",
            p.num_partitions(),
            sources
        );
    }

    #[test]
    fn compaction_preserves_clustering(raw in proptest::collection::vec(0u32..50, 1..200)) {
        // Two tasks share a partition before compaction iff they share one
        // after.
        let p = Partition::new(raw.clone());
        for i in 0..raw.len() {
            for j in (i + 1)..raw.len().min(i + 10) {
                prop_assert_eq!(
                    raw[i] == raw[j],
                    p.assignment()[i] == p.assignment()[j]
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn warm_repair_of_empty_dirty_set_is_identity(tdg in arb_dag(100), ps in 1usize..30) {
        let opts = PartitionerOptions::with_max_size(ps);
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        inc.install(&tdg, &opts).expect("install");
        let before = inc.raw_assignment().expect("warm").to_vec();
        let stats = inc.repair(&[]).expect("empty repair");
        prop_assert_eq!(stats.moved, 0);
        prop_assert_eq!(stats.fresh_partitions, 0);
        prop_assert_eq!(inc.raw_assignment().expect("warm"), before.as_slice());
        // Compacted, the warm cache equals what the trait entry serves —
        // i.e. the inner partitioner's cold result.
        let served = inc.partition(&tdg, &opts).expect("served from cache");
        prop_assert_eq!(served, inc.full_partition().expect("warm"));
    }

    #[test]
    fn invalidate_all_forces_a_full_repartition(tdg in arb_dag(80), ps in 1usize..20) {
        let opts = PartitionerOptions::with_max_size(ps);
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        inc.install(&tdg, &opts).expect("install");
        inc.invalidate_all();
        prop_assert!(!inc.is_warm());
        prop_assert_eq!(inc.repair(&[]), Err(IncrementalError::NotInstalled));
        // Cold trait partition falls through to the inner partitioner.
        let cold = inc.partition(&tdg, &opts).expect("cold");
        let direct = SeqGPasta::new().partition(&tdg, &opts).expect("direct");
        prop_assert_eq!(cold, direct);
    }

    #[test]
    fn repaired_partitions_stay_valid_on_random_dirty_cones(
        tdg in arb_dag(100),
        ps in 1usize..30,
        seeds in proptest::collection::vec(0usize..100, 1..6),
    ) {
        let opts = PartitionerOptions::with_max_size(ps);
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        inc.install(&tdg, &opts).expect("install");
        let n = tdg.num_tasks();
        for chunk in seeds.chunks(2) {
            let seed_ids: Vec<u32> = chunk.iter().map(|&s| (s % n) as u32).collect();
            let dirty = forward_closure(&tdg, &seed_ids);
            inc.repair(&dirty).expect("forward closures are successor-closed");
            let full = inc.full_partition().expect("warm");
            validate::check_all(&tdg, &full).expect("valid after repair");
            validate::check_size_bound(&full, ps).expect("size bound after repair");
            validate::check_edge_monotone(&tdg, inc.raw_assignment().expect("warm"))
                .expect("monotone certificate after repair");
        }
    }

    #[test]
    fn fused_projections_match_the_unfused_pair_on_random_cones(
        tdg in arb_dag(100),
        ps in 1usize..30,
        seeds in proptest::collection::vec(0usize..100, 1..6),
    ) {
        let opts = PartitionerOptions::with_max_size(ps);
        let mut unfused = IncrementalPartitioner::new(SeqGPasta::new());
        let mut fused = IncrementalPartitioner::new(SeqGPasta::new());
        unfused.install(&tdg, &opts).expect("install");
        fused.install(&tdg, &opts).expect("install");
        let n = tdg.num_tasks();
        for chunk in seeds.chunks(2) {
            let seed_ids: Vec<u32> = chunk.iter().map(|&s| (s % n) as u32).collect();
            let dirty = forward_closure(&tdg, &seed_ids);
            let su = unfused.repair(&dirty).expect("repair");
            let pu = unfused.sub_partition(&dirty).expect("project");
            let (sf, pf) = fused.repair_and_project(&dirty).expect("fused");
            prop_assert_eq!(su, sf);
            prop_assert_eq!(&pu, &pf);
        }
    }

    #[test]
    fn deter_backed_incremental_identical_across_workers_and_repeats(
        tdg in arb_dag(80),
        ps in 1usize..20,
        seed in 0usize..80,
    ) {
        let opts = PartitionerOptions::with_max_size(ps);
        let n = tdg.num_tasks();
        let dirty = forward_closure(&tdg, &[(seed % n) as u32]);
        let run = |workers: usize| {
            let mut inc =
                IncrementalPartitioner::new(DeterGPasta::with_device(Device::new(workers)));
            inc.install(&tdg, &opts).expect("install");
            inc.repair(&dirty).expect("repair");
            inc.raw_assignment().expect("warm").to_vec()
        };
        let a = run(1);
        let b = run(3);
        let c = run(1);
        prop_assert_eq!(&a, &b, "worker count changed the incremental result");
        prop_assert_eq!(&a, &c, "repeated run changed the incremental result");
    }
}
