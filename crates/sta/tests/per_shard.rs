//! The whole-design shard code that reads the timing graph's arrays
//! against its references, on random designs and shard counts from one to
//! more than there are tasks: for every shard of `ShardPlan::cut`,
//! `ValueSet::per_range` equals `writes_of(ids)` and
//! `reads_of(ids).minus(writes)` over that shard's task ids, and the plan
//! cut along the graph's own edge walk equals the plan cut along
//! `DirtyCone::successors`.

use gpasta_circuits::{generate_netlist, CircuitSpec};
use gpasta_sta::{CellLibrary, Timer, ValueSet};
use gpasta_tdg::ShardPlan;
use proptest::prelude::*;

/// Case count, overridable via `PROPTEST_CASES` (the nightly CI job
/// raises it).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The sets of every run of the cut against the references, and the
    /// plan whose runs they are, cut along the graph's edge walk, against
    /// the plan cut along the cone's successors.
    #[test]
    fn per_shard_is_the_reference_projection_of_each_shards_tasks(
        design in (20usize..300, 3usize..16, 0.0f64..0.3, any::<u64>()),
        shards in 1usize..=10,
    ) {
        // Ten stands for more shards than tasks: singleton runs.
        let shards = if shards == 10 { 10_000 } else { shards };
        let (gates, depth, seq_ratio, seed) = design;
        let mut spec = CircuitSpec::small("per_shard", seed);
        spec.num_gates = gates;
        spec.depth = depth;
        spec.seq_ratio = seq_ratio;
        let mut timer = Timer::new(generate_netlist(&spec), CellLibrary::typical());
        let cone = timer.dirty_cone();
        let n = cone.num_tasks();

        let runs = ShardPlan::cut(n, shards).expect("runs");
        let got = ValueSet::per_range(cone.graph(), &runs);
        prop_assert_eq!(got.len(), runs.len());
        for (s, ((writes, needed), run)) in got.iter().zip(&runs).enumerate() {
            let ids: Vec<u32> = run.clone().collect();
            let want_writes = ValueSet::writes_of(&cone, &ids);
            let want_needed = ValueSet::reads_of(&cone, &ids).minus(&want_writes);
            prop_assert_eq!(writes, &want_writes, "writes of shard {} of {}", s, runs.len());
            prop_assert_eq!(needed, &want_needed, "boundary of shard {} of {}", s, runs.len());
        }

        let plan = ShardPlan::build(cone.graph(), shards).expect("plan");
        let by_successors = ShardPlan::build(&(n, |t| cone.successors(t)), shards);
        prop_assert_eq!(Ok(&plan), by_successors.as_ref());
        let plan_runs: Vec<_> = (0..plan.num_shards() as u32).map(|s| plan.range(s)).collect();
        prop_assert_eq!(runs, plan_runs);
    }
}
