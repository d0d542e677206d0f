//! Property-based tests for the [`CsrTdg`] builder: the level-ordered
//! CSR view must uphold the memory-layout contract of DESIGN.md §13 on
//! arbitrary DAGs — permutation round trip, monotone offsets, preserved
//! edge multiset and adjacency order, level-major numbering.
//!
//! The partitioners run in CSR space and visit tasks in the order these
//! invariants fix, which is what keeps single-worker G-PASTA equal to
//! seq-G-PASTA and the assignments pinned by
//! `crates/core/tests/partition_bits.rs` where they are; so they get their
//! own adversarial suite.

use gpasta::tdg::{TaskId, Tdg, TdgBuilder};
use proptest::prelude::*;

/// Case count, overridable via `PROPTEST_CASES` (the nightly CI job
/// raises it).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

/// Random DAG via low-to-high edge orientation (same shape family as
/// the partitioner proptests).
fn arb_dag(max_n: usize) -> impl Strategy<Value = Tdg> {
    (1usize..=max_n)
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

/// Independent levelisation by Kahn's algorithm: `level[v]` is the
/// longest predecessor-path length — computed without touching the
/// [`Levels`]/[`CsrTdg`] machinery under test.
fn kahn_levels(tdg: &Tdg) -> Vec<u32> {
    let n = tdg.num_tasks();
    let mut indeg: Vec<usize> = (0..n)
        .map(|v| tdg.predecessors(TaskId(v as u32)).len())
        .collect();
    let mut level = vec![0u32; n];
    let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        for &s in tdg.successors(TaskId(u)) {
            level[s as usize] = level[s as usize].max(level[u as usize] + 1);
            indeg[s as usize] -= 1;
            if indeg[s as usize] == 0 {
                queue.push(s);
            }
        }
    }
    assert_eq!(head, n, "DAG: every task is reachable by Kahn's algorithm");
    level
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn perm_and_rank_are_inverse_bijections(tdg in arb_dag(150)) {
        let c = tdg.csr();
        let n = tdg.num_tasks();
        prop_assert_eq!(c.perm().len(), n);
        prop_assert_eq!(c.rank().len(), n);
        let mut seen = vec![false; n];
        for (new, &old) in c.perm().iter().enumerate() {
            prop_assert!(!std::mem::replace(&mut seen[old as usize], true),
                "original id {} appears twice in perm", old);
            prop_assert_eq!(c.rank()[old as usize] as usize, new, "rank is not perm's inverse");
        }
    }

    #[test]
    fn offsets_are_monotone_and_bounded(tdg in arb_dag(150)) {
        let c = tdg.csr();
        let offs = c.level_offsets();
        prop_assert_eq!(offs[0], 0);
        prop_assert_eq!(*offs.last().expect("non-empty") as usize, c.num_tasks());
        for w in offs.windows(2) {
            prop_assert!(w[0] < w[1], "level offsets must strictly increase (no empty level)");
        }
    }

    #[test]
    fn numbering_is_level_major_ascending_within_level(tdg in arb_dag(150)) {
        let c = tdg.csr();
        let level = kahn_levels(&tdg);
        for l in 0..c.depth() {
            let range = c.level_range(l);
            let originals = &c.perm()[range];
            for &old in originals {
                prop_assert_eq!(level[old as usize] as usize, l,
                    "csr level {} holds original id {} of level {}", l, old, level[old as usize]);
            }
            for w in originals.windows(2) {
                prop_assert!(w[0] < w[1], "within a level, CSR order must be ascending original id");
            }
        }
        prop_assert_eq!(c.num_sources(), tdg.sources().len());
    }

    #[test]
    fn every_csr_edge_points_strictly_forward(tdg in arb_dag(150)) {
        let c = tdg.csr();
        for u in 0..c.num_tasks() as u32 {
            for &v in c.successors(u) {
                prop_assert!(u < v, "CSR edge {} -> {} does not point forward", u, v);
            }
            for &p in c.predecessors(u) {
                prop_assert!(p < u, "CSR predecessor {} of {} is not earlier", p, u);
            }
        }
    }

    #[test]
    fn adjacency_order_and_edge_multiset_round_trip(tdg in arb_dag(150)) {
        let c = tdg.csr();
        // Adjacency order: each CSR list mapped through perm equals the
        // original list (this is stronger than multiset equality, but
        // check both directions and the multiset explicitly).
        for old in 0..tdg.num_tasks() as u32 {
            let u = c.rank()[old as usize];
            let succ: Vec<u32> = c.successors(u).iter().map(|&v| c.perm()[v as usize]).collect();
            prop_assert_eq!(succ, tdg.successors(TaskId(old)).to_vec(),
                "successor order of original {} not preserved", old);
            let pred: Vec<u32> = c.predecessors(u).iter().map(|&v| c.perm()[v as usize]).collect();
            prop_assert_eq!(pred, tdg.predecessors(TaskId(old)).to_vec(),
                "predecessor order of original {} not preserved", old);
        }
        let mut orig: Vec<(u32, u32)> = tdg.edges().map(|(u, v)| (u.0, v.0)).collect();
        let mut mapped: Vec<(u32, u32)> = (0..c.num_tasks() as u32)
            .flat_map(|u| {
                c.successors(u)
                    .iter()
                    .map(move |&v| (u, v))
                    .collect::<Vec<_>>()
            })
            .map(|(u, v)| (c.perm()[u as usize], c.perm()[v as usize]))
            .collect();
        orig.sort_unstable();
        mapped.sort_unstable();
        prop_assert_eq!(orig, mapped, "edge multiset does not round trip");
        prop_assert_eq!(c.num_deps(), tdg.num_deps());
    }

    #[test]
    fn degrees_and_scatter_match_the_original_space(tdg in arb_dag(150)) {
        let c = tdg.csr();
        let mut deg = vec![99u32; 7]; // dirty buffer: fill must clear it
        c.fill_in_degrees(&mut deg);
        prop_assert_eq!(deg.len(), c.num_tasks());
        for u in 0..c.num_tasks() as u32 {
            prop_assert_eq!(deg[u as usize], c.in_degree(u));
            prop_assert_eq!(c.in_degree(u) as usize, c.predecessors(u).len());
        }
        // Scatter sends CSR-indexed values back to original ids.
        let vals: Vec<u32> = (0..c.num_tasks() as u32).map(|i| i * 3 + 1).collect();
        let back = c.scatter_to_original(&vals);
        for (new, &old) in c.perm().iter().enumerate() {
            prop_assert_eq!(back[old as usize], vals[new]);
        }
    }
}
