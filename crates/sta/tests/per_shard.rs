//! `ValueSet::per_shard` against its reference: for every shard, the
//! one-pass projection of a dirty cone equals `writes_of(ids)` and
//! `reads_of(ids).minus(writes)` over that shard's full-space task ids —
//! on random designs, random owner maps (non-convex ones included), empty
//! shards, `k` from 1 to 8, whole designs and partial cones.

use gpasta_circuits::{generate_netlist, CircuitSpec};
use gpasta_sched::splitmix64;
use gpasta_sta::{CellLibrary, DirtyCone, GateId, Timer, ValueSet};
use proptest::prelude::*;

/// Case count, overridable via `PROPTEST_CASES` (the nightly CI job
/// raises it).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

/// Deal `n` tasks to `k` shards in one of four styles.
fn owners(n: usize, k: usize, style: u8, seed: u64) -> Vec<u32> {
    let (n, k) = (n as u64, k as u64);
    let coin = |t: u64| splitmix64(seed ^ t);
    (0..n)
        .map(|t| {
            (match style {
                // Anything anywhere: non-convex, a node's fprop and bprop
                // usually in different shards.
                0 => coin(t) % k,
                // Contiguous id ranges, as a level-major plan cuts them.
                1 => t * k / n,
                // Only the first and the last shard own tasks.
                2 => (coin(t) & 1) * (k - 1),
                // Stripes of a random width.
                _ => t / (1 + seed % 7) % k,
            }) as u32
        })
        .collect()
}

/// `owner[i]` is the shard of the cone's `i`-th task.
fn check(cone: &DirtyCone<'_>, owner: &[u32], k: usize) -> Result<(), TestCaseError> {
    let got = ValueSet::per_shard(cone, owner, k);
    prop_assert_eq!(got.len(), k);
    for (s, (writes, needed)) in got.iter().enumerate() {
        let ids: Vec<u32> = cone
            .ids()
            .iter()
            .zip(owner)
            .filter(|&(_, &o)| o == s as u32)
            .map(|(&id, _)| id)
            .collect();
        let want_writes = ValueSet::writes_of(cone, &ids);
        let want_needed = ValueSet::reads_of(cone, &ids).minus(&want_writes);
        prop_assert_eq!(writes, &want_writes, "writes of shard {} of {}", s, k);
        prop_assert_eq!(needed, &want_needed, "boundary of shard {} of {}", s, k);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn per_shard_is_the_reference_projection_of_each_shards_tasks(
        design in (20usize..300, 3usize..16, 0.0f64..0.3, any::<u64>()),
        k in 1usize..=8,
        style in 0u8..4,
        owner_seed in any::<u64>(),
        edits in proptest::collection::vec((any::<bool>(), any::<u32>(), 0.5f32..4.0), 1..4),
    ) {
        let (gates, depth, seq_ratio, seed) = design;
        let mut spec = CircuitSpec::small("per_shard", seed);
        spec.num_gates = gates;
        spec.depth = depth;
        spec.seq_ratio = seq_ratio;
        let mut timer = Timer::new(generate_netlist(&spec), CellLibrary::typical());

        let cone = timer.dirty_cone();
        let owner = owners(cone.num_tasks(), k, style, owner_seed);
        check(&cone, &owner, k)?;
        cone.run_in_order();
        drop(cone);

        // A partial cone: most nodes have no task in it.
        let (num_gates, num_nets) = (timer.netlist().num_gates(), timer.netlist().num_nets());
        for &(repower, i, x) in &edits {
            if repower {
                timer.repower_gate(GateId(i % num_gates as u32), x);
            } else {
                timer.set_net_cap(i % num_nets as u32, 10.0 * x);
            }
        }
        let cone = timer.dirty_cone();
        let owner = owners(cone.num_tasks(), k, style, !owner_seed);
        check(&cone, &owner, k)?;
    }
}
