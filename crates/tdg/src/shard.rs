//! Sharding: cutting a task graph's ids into K contiguous *shards*, the
//! unit of multi-process distribution.
//!
//! A [`ShardPlan`] is a cut of `0..n`: shard `s` owns the task ids
//! [`range(s)`](ShardPlan::range) and is executed by one OS worker
//! process, with only boundary timing values crossing shard edges. No
//! partition or quotient is involved. A timing update's tasks are numbered
//! so that every dependency goes from a lower to a higher id (fprop by
//! level, then bprop in reverse level order), so the ids are already a
//! topological order and any cut of them into runs is a coarser convex
//! partition (Theorem 1's max-pid rule).
//!
//! The plan reads the dependencies through [`TaskSuccessors`], so the
//! caller need not materialise a [`Tdg`] of the tasks: a timing graph walks
//! its own three edge kinds, a test hands over a [`Tdg`] or a successor
//! function.
//!
//! # Invariants
//!
//! 1. **Contiguity**: the ranges are non-empty and concatenate to `0..n`.
//! 2. **Shard ids are topological**: every edge goes up, so every shard
//!    edge goes from a lower to a higher shard id — the shard graph is
//!    acyclic. [`ShardPlan::build`] refuses an edge that goes down.
//! 3. **Determinism**: the plan is a pure function of the task graph and
//!    the shard count — two processes that rebuild the same design compute
//!    the same plan, which is what lets a worker rediscover its own task
//!    set from `(design, shards, shard)` alone.

use std::ops::Range;

use crate::checksum::Checksum;
use crate::graph::{TaskId, Tdg, TdgBuilder};

/// [`ShardPlan::build`] rejected its inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardPlanError {
    /// A shard count of zero was requested for a non-empty task graph.
    NoShards,
    /// The edge `from -> to` goes to a lower id, so runs of ids are not a
    /// topological cut.
    EdgeGoesDown {
        /// Source task.
        from: u32,
        /// Target task, below `from`.
        to: u32,
    },
}

impl std::fmt::Display for ShardPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardPlanError::NoShards => {
                write!(f, "cannot shard a non-empty task graph into zero shards")
            }
            ShardPlanError::EdgeGoesDown { from, to } => {
                write!(
                    f,
                    "edge {from} -> {to} goes down: task ids are not topological"
                )
            }
        }
    }
}

impl std::error::Error for ShardPlanError {}

/// The dependencies a [`ShardPlan`] is cut along: task ids
/// `0..num_tasks()` and the edges between them. A [`Tdg`] is one; so is a
/// task count paired with a successor function, `(n, |u| …)`, which lets a
/// caller plan without building the graph.
pub trait TaskSuccessors {
    /// Number of tasks.
    fn num_tasks(&self) -> usize;
    /// Call `edge(u, v)` once for every dependency `u → v` (both below
    /// [`num_tasks`](Self::num_tasks)), in whatever order the storage reads
    /// fastest.
    fn for_each_edge(&self, edge: impl FnMut(u32, u32));
}

impl TaskSuccessors for Tdg {
    fn num_tasks(&self) -> usize {
        Tdg::num_tasks(self)
    }

    fn for_each_edge(&self, mut edge: impl FnMut(u32, u32)) {
        for (u, v) in self.edges() {
            edge(u.0, v.0);
        }
    }
}

impl<F, I> TaskSuccessors for (usize, F)
where
    F: Fn(u32) -> I,
    I: IntoIterator<Item = u32>,
{
    fn num_tasks(&self) -> usize {
        self.0
    }

    fn for_each_edge(&self, mut edge: impl FnMut(u32, u32)) {
        for u in 0..self.0 as u32 {
            for v in (self.1)(u) {
                edge(u, v);
            }
        }
    }
}

/// The shard of every task of the cut `bounds`, indexed by task id.
fn owners(bounds: &[u32]) -> Vec<u32> {
    let mut owner = Vec::with_capacity(bounds.last().map_or(0, |&n| n as usize));
    for (s, run) in bounds.windows(2).enumerate() {
        owner.resize(run[1] as usize, s as u32);
    }
    owner
}

/// A cut of a task graph's ids into contiguous, acyclic shards.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// Shard `s` owns task ids `bounds[s]..bounds[s + 1]`.
    bounds: Vec<u32>,
    /// The coarse DAG over shards (deduplicated shard-crossing task
    /// edges). Shard ids are already topologically ordered.
    graph: Tdg,
    /// Task edges crossing shard boundaries.
    edge_cut: usize,
}

impl ShardPlan {
    /// Cut the task ids of `tasks` into (at most) `shards` contiguous
    /// runs. A duplicate successor counts once in the shard graph and every
    /// time in [`edge_cut`](Self::edge_cut).
    ///
    /// The shard count is clamped to the task count — asking for more
    /// shards than tasks yields singleton shards, not empty ones. Each
    /// shard takes an equal share of the tasks still left, so sizes differ
    /// by at most one. No tasks make an empty plan for any requested
    /// count.
    ///
    /// # Errors
    ///
    /// [`ShardPlanError::NoShards`] when `shards == 0` and there are tasks,
    /// and [`ShardPlanError::EdgeGoesDown`] when an edge goes from a higher
    /// id to a lower one.
    pub fn build(
        tasks: &(impl TaskSuccessors + ?Sized),
        shards: usize,
    ) -> Result<Self, ShardPlanError> {
        let runs = Self::cut(tasks.num_tasks(), shards)?;
        let k = runs.len();
        let bounds: Vec<u32> = std::iter::once(0)
            .chain(runs.iter().map(|r| r.end))
            .collect();

        let owner = owners(&bounds);
        // Every crossing edge as a packed (from shard, to shard) pair. A
        // few pairs repeat thousands of times: a small direct-mapped table
        // of the latest pairs drops most repeats, sort + dedup the rest.
        let mut recent = [u64::MAX; 1024];
        let mut crossing = Vec::new();
        let mut edge_cut = 0;
        let mut down = None;
        tasks.for_each_edge(|u, v| {
            if v < u {
                down.get_or_insert(ShardPlanError::EdgeGoesDown { from: u, to: v });
                return;
            }
            let (s, t) = (owner[u as usize], owner[v as usize]);
            if s != t {
                edge_cut += 1;
                let pair = u64::from(s) << 32 | u64::from(t);
                let slot = &mut recent[(pair.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54) as usize];
                if std::mem::replace(slot, pair) != pair {
                    crossing.push(pair);
                }
            }
        });
        if let Some(e) = down {
            return Err(e);
        }
        crossing.sort_unstable();
        crossing.dedup();
        let mut graph = TdgBuilder::new(k);
        for pair in crossing {
            graph.add_edge(TaskId((pair >> 32) as u32), TaskId(pair as u32));
        }
        Ok(ShardPlan {
            bounds,
            graph: graph.build().expect("shard edges go up"),
            edge_cut,
        })
    }

    /// The runs [`build`](Self::build) cuts the task ids `0..n` into for
    /// `shards`, without reading a dependency: shard `s` owns `runs[s]`.
    ///
    /// # Errors
    ///
    /// [`ShardPlanError::NoShards`] when `shards == 0` and `n > 0`.
    pub fn cut(n: usize, shards: usize) -> Result<Vec<Range<u32>>, ShardPlanError> {
        if n > 0 && shards == 0 {
            return Err(ShardPlanError::NoShards);
        }
        let k = shards.min(n);
        let mut lo = 0usize;
        Ok((0..k)
            .map(|s| {
                let start = lo;
                lo += (n - lo).div_ceil(k - s);
                start as u32..lo as u32
            })
            .collect())
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The task ids shard `s` owns — ascending, so a valid execution
    /// order for the shard.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[inline]
    pub fn range(&self, s: u32) -> Range<u32> {
        self.bounds[s as usize]..self.bounds[s as usize + 1]
    }

    /// The shard of every task, indexed by task id.
    pub fn owners(&self) -> Vec<u32> {
        owners(&self.bounds)
    }

    /// The coarse DAG over shards. Shard ids are already a topological
    /// order: every edge goes from a lower to a higher id.
    #[inline]
    pub fn graph(&self) -> &Tdg {
        &self.graph
    }

    /// Task edges crossing shard boundaries.
    #[inline]
    pub fn edge_cut(&self) -> usize {
        self.edge_cut
    }

    /// A structural fingerprint covering the cut and the shard graph —
    /// two processes must agree on this before exchanging boundary values
    /// keyed to the plan.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Checksum::default();
        h.update_words(&[self.num_shards() as u32]);
        h.update_words(&self.bounds);
        h.finish() ^ self.graph.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A layered DAG: `width` chains of length `depth` plus cross links,
    /// numbered level by level, so every edge goes up.
    fn layered(width: u32, depth: u32) -> Tdg {
        let mut b = TdgBuilder::new((width * depth) as usize);
        let id = |l: u32, c: u32| TaskId(l * width + c);
        for l in 0..depth - 1 {
            for c in 0..width {
                b.add_edge(id(l, c), id(l + 1, c));
                b.add_edge(id(l, c), id(l + 1, (c + 1) % width));
            }
        }
        b.build().expect("layered DAG")
    }

    /// Contiguity and coverage, every TDG edge mapped up, and the shard
    /// graph and cut equal to the crossing pairs.
    fn check_invariants(plan: &ShardPlan, tdg: &Tdg) -> Result<(), TestCaseError> {
        let mut next = 0;
        for s in 0..plan.num_shards() as u32 {
            let r = plan.range(s);
            prop_assert_eq!(
                r.start,
                next,
                "shard {} starts where the one before ends",
                s
            );
            prop_assert!(!r.is_empty(), "shard {} is empty", s);
            next = r.end;
        }
        prop_assert_eq!(next as usize, tdg.num_tasks(), "the ranges cover 0..n");
        let owner = plan.owners();
        let mut crossing = std::collections::BTreeSet::new();
        let mut cut = 0;
        for (u, v) in tdg.edges() {
            let (su, sv) = (owner[u.index()], owner[v.index()]);
            prop_assert!(su <= sv, "edge {:?} -> {:?} maps down", u, v);
            if su != sv {
                cut += 1;
                crossing.insert((su, sv));
            }
        }
        let shard_edges: std::collections::BTreeSet<(u32, u32)> =
            plan.graph().edges().map(|(a, b)| (a.0, b.0)).collect();
        prop_assert_eq!(shard_edges, crossing);
        prop_assert_eq!(plan.edge_cut(), cut);
        Ok(())
    }

    #[test]
    fn plans_cover_and_stay_acyclic() {
        let tdg = layered(4, 6);
        for k in [1, 2, 3, 5, usize::MAX >> 1] {
            let plan = ShardPlan::build(&tdg, k).expect("plan");
            assert_eq!(plan.num_shards(), k.min(tdg.num_tasks()));
            check_invariants(&plan, &tdg).expect("invariants");
        }
    }

    #[test]
    fn zero_shards_rejected_nonempty() {
        let tdg = layered(2, 2);
        assert_eq!(ShardPlan::build(&tdg, 0), Err(ShardPlanError::NoShards));
    }

    #[test]
    fn empty_tdg_is_an_empty_plan() {
        let tdg = TdgBuilder::new(0).build().expect("empty");
        for k in [0, 4] {
            let plan = ShardPlan::build(&tdg, k).expect("plan");
            assert_eq!(plan.num_shards(), 0);
            assert_eq!(plan.edge_cut(), 0);
            assert!(plan.owners().is_empty());
        }
    }

    #[test]
    fn plans_are_deterministic() {
        let tdg = layered(6, 8);
        let a = ShardPlan::build(&tdg, 3).expect("plan");
        let b = ShardPlan::build(&tdg, 3).expect("plan");
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = ShardPlan::build(&tdg, 4).expect("plan");
        assert_ne!(a.fingerprint(), c.fingerprint(), "another cut");
    }

    #[test]
    fn sizes_differ_by_at_most_one_without_a_cap() {
        let tdg = layered(5, 7); // 35 tasks
        for k in 1..=35 {
            let plan = ShardPlan::build(&tdg, k).expect("plan");
            let sizes: Vec<usize> = (0..k as u32).map(|s| plan.range(s).len()).collect();
            let (min, max) = (sizes.iter().min(), sizes.iter().max());
            assert!(max.unwrap() - min.unwrap() <= 1, "k={k}: {sizes:?}");
            assert_eq!(sizes.iter().sum::<usize>(), 35);
        }
    }

    #[test]
    fn more_shards_than_tasks_clamps_to_singletons() {
        let tdg = layered(2, 3);
        let plan = ShardPlan::build(&tdg, 100).expect("plan");
        assert_eq!(plan.num_shards(), tdg.num_tasks());
        for s in 0..plan.num_shards() as u32 {
            assert_eq!(plan.range(s), s..s + 1);
        }
    }

    #[test]
    fn an_edge_that_goes_down_is_refused() {
        let mut b = TdgBuilder::new(3);
        b.add_edge(TaskId(0), TaskId(2));
        b.add_edge(TaskId(2), TaskId(1));
        let tdg = b.build().expect("acyclic");
        assert_eq!(
            ShardPlan::build(&tdg, 2),
            Err(ShardPlanError::EdgeGoesDown { from: 2, to: 1 })
        );
    }

    /// Case count, overridable via `PROPTEST_CASES` (the nightly CI job
    /// raises it).
    fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }

    /// A random DAG on `0..n` whose edges all go up.
    fn rising_dag() -> impl Strategy<Value = Tdg> {
        (1u32..80).prop_flat_map(|n| {
            proptest::collection::vec((0..n, 0..n), 0..4 * n as usize).prop_map(move |pairs| {
                let mut b = TdgBuilder::new(n as usize);
                for (a, c) in pairs.into_iter().filter(|(a, c)| a != c) {
                    b.add_edge(TaskId(a.min(c)), TaskId(a.max(c)));
                }
                b.build().expect("edges go up")
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// On any DAG numbered topologically, every shard count cuts a plan
        /// whose TDG edges map to `owner[u] <= owner[v]` and whose shard
        /// graph is exactly the crossing pairs, from a `Tdg` or from its
        /// successor function alike.
        #[test]
        fn range_plans_agree_with_the_tdg_edges(
            tdg in rising_dag(),
            shards in 1usize..12,
        ) {
            let plan = ShardPlan::build(&tdg, shards).expect("plan");
            prop_assert_eq!(plan.num_shards(), shards.min(tdg.num_tasks()));
            check_invariants(&plan, &tdg)?;
            // A task count and a successor function cut the same plan.
            let by_fn = (tdg.num_tasks(), |u| tdg.successors(TaskId(u)).to_vec());
            prop_assert_eq!(ShardPlan::build(&by_fn, shards), Ok(plan));
        }
    }
}
