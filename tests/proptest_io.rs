//! Property-based round-trip tests for every interchange format on
//! randomly generated inputs.

use gpasta::circuits::{generate_netlist, CircuitSpec};
use gpasta::sta::{parse_verilog, write_verilog};
use gpasta::tdg::{parse_edge_list, write_edge_list, TaskId, Tdg, TdgBuilder};
use proptest::prelude::*;

fn arb_dag(max_n: usize) -> impl Strategy<Value = Tdg> {
    (1usize..=max_n)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n);
            let weights = proptest::collection::vec(1.0f32..10_000.0, n);
            (Just(n), edges, weights)
        })
        .prop_map(|(n, edges, weights)| {
            let mut b = TdgBuilder::new(n);
            for (a, c) in edges {
                if a < c {
                    b.add_edge(TaskId(a), TaskId(c));
                } else if c < a {
                    b.add_edge(TaskId(c), TaskId(a));
                }
            }
            for (t, w) in weights.into_iter().enumerate() {
                b.set_weight(TaskId(t as u32), w);
            }
            b.build().expect("low->high orientation is acyclic")
        })
}

/// Case count: `default`, unless `PROPTEST_CASES` overrides it (the
/// nightly CI job raises it).
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    #[test]
    fn edge_lists_round_trip_arbitrary_dags(tdg in arb_dag(80)) {
        let text = write_edge_list(&tdg);
        let back = parse_edge_list(&text).expect("own output parses");
        prop_assert_eq!(tdg, back);
    }

    #[test]
    fn verilog_round_trips_arbitrary_circuits(
        gates in 5usize..120,
        depth in 2usize..12,
        seq_ratio in 0.0f64..0.4,
        seed in any::<u64>(),
    ) {
        let mut spec = CircuitSpec::small("prop", seed);
        spec.num_gates = gates;
        spec.depth = depth;
        spec.seq_ratio = seq_ratio;
        let netlist = generate_netlist(&spec);
        let text = write_verilog(&netlist, "prop");
        let back = parse_verilog(&text)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?;
        prop_assert_eq!(netlist, back);
    }
}
