//! Plain DAG generators for partitioner tests and sweeps.
//!
//! These produce [`Tdg`]s directly (no netlist), which is what the
//! Figure 1(b) partition-time sweep and the partitioner property tests
//! consume.

use gpasta_tdg::{TaskId, Tdg, TdgBuilder};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// A chain `0 -> 1 -> … -> n-1` (worst case for parallelism).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn chain(n: usize) -> Tdg {
    assert!(n > 0, "chain needs at least one task");
    let mut b = TdgBuilder::with_capacity(n, n - 1);
    for i in 0..n as u32 - 1 {
        b.add_edge(TaskId(i), TaskId(i + 1));
    }
    b.build().expect("chain is a DAG")
}

/// `n` independent tasks (best case for parallelism).
pub fn independent(n: usize) -> Tdg {
    TdgBuilder::new(n).build().expect("edgeless graph is a DAG")
}

/// A layered DAG: `levels` levels of `width` tasks; each non-source task
/// has `fanin` predecessors drawn uniformly from the previous level.
///
/// This is the shape of timing-propagation TDGs (long, moderately wide,
/// short dependency span) and the workload of the Figure 1(b) sweep.
///
/// # Panics
///
/// Panics if any parameter is zero.
pub fn layered(width: usize, levels: usize, fanin: usize, seed: u64) -> Tdg {
    assert!(
        width > 0 && levels > 0 && fanin > 0,
        "parameters must be positive"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = width * levels;
    let mut b = TdgBuilder::with_capacity(n, n * fanin);
    for l in 1..levels {
        for i in 0..width {
            let v = (l * width + i) as u32;
            for _ in 0..fanin {
                let u = ((l - 1) * width + rng.gen_range(0..width)) as u32;
                b.add_edge(TaskId(u), TaskId(v));
            }
        }
    }
    b.build().expect("level-ordered edges form a DAG")
}

/// A complete binary fan-in tree with `leaves` leaves reducing to one root
/// (the reduction-tree shape; tests partitioners on narrowing parallelism).
///
/// # Panics
///
/// Panics if `leaves` is not a power of two or is zero.
pub fn fanin_tree(leaves: usize) -> Tdg {
    assert!(
        leaves > 0 && leaves.is_power_of_two(),
        "leaves must be a power of two"
    );
    let n = 2 * leaves - 1;
    // Tasks 0..leaves are leaves; internal nodes follow level by level.
    let mut b = TdgBuilder::with_capacity(n, n - 1);
    let mut level: Vec<u32> = (0..leaves as u32).collect();
    let mut next_id = leaves as u32;
    while level.len() > 1 {
        let mut parents = Vec::with_capacity(level.len() / 2);
        for pair in level.chunks(2) {
            b.add_edge(TaskId(pair[0]), TaskId(next_id));
            b.add_edge(TaskId(pair[1]), TaskId(next_id));
            parents.push(next_id);
            next_id += 1;
        }
        level = parents;
    }
    b.build().expect("tree is a DAG")
}

/// A series-parallel DAG built by recursive composition: `blocks` diamond
/// blocks of `width` parallel arms chained in series.
///
/// # Panics
///
/// Panics if `blocks` or `width` is zero.
pub fn series_parallel(blocks: usize, width: usize) -> Tdg {
    assert!(blocks > 0 && width > 0, "parameters must be positive");
    // Each block: fork -> width arms -> join. Join of block i is fork of
    // block i+1's predecessor.
    let n = blocks * (width + 2);
    let mut b = TdgBuilder::with_capacity(n, 2 * blocks * width + blocks);
    let mut prev_join: Option<u32> = None;
    let mut id = 0u32;
    for _ in 0..blocks {
        let fork = id;
        id += 1;
        if let Some(j) = prev_join {
            b.add_edge(TaskId(j), TaskId(fork));
        }
        let arms: Vec<u32> = (0..width as u32).map(|k| fork + 1 + k).collect();
        id += width as u32;
        let join = id;
        id += 1;
        for &a in &arms {
            b.add_edge(TaskId(fork), TaskId(a));
            b.add_edge(TaskId(a), TaskId(join));
        }
        prev_join = Some(join);
    }
    b.build().expect("series-parallel composition is a DAG")
}

/// A random DAG: `n` tasks, roughly `avg_degree × n` edges oriented from
/// lower to higher id with bounded span (so levels stay populated).
///
/// # Panics
///
/// Panics if `n == 0` or `avg_degree == 0.0`.
pub fn random_dag(n: usize, avg_degree: f64, seed: u64) -> Tdg {
    assert!(n > 0 && avg_degree > 0.0, "parameters must be positive");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let m = (n as f64 * avg_degree) as usize;
    let span = (n / 8).max(2);
    let mut b = TdgBuilder::with_capacity(n, m);
    for _ in 0..m {
        let u = rng.gen_range(0..n as u32);
        let d = rng.gen_range(1..=span as u32);
        let v = u.saturating_add(d);
        if (v as usize) < n {
            b.add_edge(TaskId(u), TaskId(v));
        }
    }
    b.build().expect("low-to-high orientation is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_shape() {
        let g = chain(10);
        assert_eq!(g.num_tasks(), 10);
        assert_eq!(g.num_deps(), 9);
        assert_eq!(g.levels().depth(), 10);
    }

    #[test]
    fn independent_shape() {
        let g = independent(8);
        assert_eq!(g.num_deps(), 0);
        assert_eq!(g.levels().depth(), 1);
    }

    #[test]
    fn layered_shape() {
        let g = layered(16, 10, 2, 1);
        assert_eq!(g.num_tasks(), 160);
        assert_eq!(g.levels().depth(), 10);
        // Every non-source level-1+ task has at least one predecessor.
        let levels = g.levels();
        assert_eq!(levels.depth(), 10);
        assert_eq!(levels.width(0), 16);
    }

    #[test]
    fn layered_is_seed_deterministic() {
        assert_eq!(layered(8, 5, 2, 42), layered(8, 5, 2, 42));
        assert_ne!(layered(8, 5, 2, 42), layered(8, 5, 2, 43));
    }

    #[test]
    fn fanin_tree_shape() {
        let g = fanin_tree(8);
        assert_eq!(g.num_tasks(), 15);
        assert_eq!(g.num_deps(), 14);
        assert_eq!(g.levels().depth(), 4);
        assert_eq!(g.sinks().len(), 1);
        assert_eq!(g.sources().len(), 8);
    }

    #[test]
    fn series_parallel_shape() {
        let g = series_parallel(3, 4);
        assert_eq!(g.num_tasks(), 18);
        // fork->arm, arm->join per block: 8 edges, plus 2 series links.
        assert_eq!(g.num_deps(), 26);
        assert_eq!(g.levels().depth(), 9);
    }

    #[test]
    fn random_dag_is_valid_and_deterministic() {
        let g = random_dag(500, 1.6, 9);
        assert_eq!(g.num_tasks(), 500);
        assert!(g.num_deps() > 400);
        assert_eq!(g, random_dag(500, 1.6, 9));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fanin_tree_rejects_non_power_of_two() {
        let _ = fanin_tree(6);
    }
}
