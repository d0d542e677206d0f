//! The partition cache of the paper's update path.
//!
//! Under §3.2's max-pid rule a partition is a function of the TDG alone
//! (Theorem 1), and no edit a timer accepts changes its TDG — only delays.
//! So one partition, installed on the full task space, serves every later
//! update: [`IncrementalPartitioner`] keeps the inner partitioner's
//! assignment as it returned it, builds the full-space quotient on the
//! first [`IncrementalPartitioner::cone_quotient`], and hands out one
//! restriction of that quotient per dirty cone. A valid partition
//! restricted to any task subset is valid — convexity and an acyclic
//! quotient carry over to induced subgraphs — so a cone is never
//! re-partitioned or repaired.

use crate::{PartitionError, Partitioner, PartitionerOptions};
use gpasta_tdg::{Partition, QuotientArena, QuotientTdg, TaskId, Tdg, ValidatePartitionError};
use std::borrow::Cow;
use std::error::Error;
use std::fmt;

/// Error returned by the partition cache.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IncrementalError {
    /// A query was made before [`IncrementalPartitioner::install`].
    NotInstalled,
    /// The inner partitioner rejected the options.
    Partition(PartitionError),
    /// A task id is `>= num_tasks` of the cached TDG.
    TaskOutOfRange {
        /// The offending task id.
        task: u32,
        /// Task count of the cached TDG.
        num_tasks: usize,
    },
}

impl fmt::Display for IncrementalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            IncrementalError::NotInstalled => {
                f.write_str("no partition cache installed; call install() first")
            }
            IncrementalError::Partition(ref e) => write!(f, "inner partitioner failed: {e}"),
            IncrementalError::TaskOutOfRange { task, num_tasks } => write!(
                f,
                "task {task} out of range (cached TDG has {num_tasks} tasks)"
            ),
        }
    }
}

impl Error for IncrementalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IncrementalError::Partition(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PartitionError> for IncrementalError {
    fn from(e: PartitionError) -> Self {
        IncrementalError::Partition(e)
    }
}

/// What [`IncrementalPartitioner::repair_and_project`] reports: always
/// zero, because the cache is never repaired. Kept, with the fields the
/// `perf_ledger` mirror reads, for as long as that mirror calls it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Always 0.
    pub moved: usize,
    /// Always 0.
    pub fresh_partitions: usize,
}

struct Cache {
    tdg: Tdg,
    /// The inner partitioner's per-task assignment, as it returned it.
    raw: Vec<u32>,
    /// The quotient of `tdg` under `raw`, and `raw` as the [`Partition`]
    /// that numbers its nodes. Built by the first
    /// [`IncrementalPartitioner::cone_quotient`].
    quotient: Option<(Partition, QuotientTdg)>,
}

/// A partition of one TDG, computed once by the inner [`Partitioner`] and
/// restricted to each dirty cone: the per-update partitioning cost is a
/// restriction of one kept quotient, not a partitioner run.
///
/// # Example
///
/// ```
/// use gpasta_core::{IncrementalPartitioner, PartitionerOptions, SeqGPasta};
/// use gpasta_tdg::{QuotientArena, TaskId, TdgBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = TdgBuilder::new(4);
/// b.add_edge(TaskId(0), TaskId(1));
/// b.add_edge(TaskId(0), TaskId(2));
/// b.add_edge(TaskId(1), TaskId(3));
/// b.add_edge(TaskId(2), TaskId(3));
/// let tdg = b.build()?;
///
/// let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
/// inc.install(&tdg, &PartitionerOptions::with_max_size(2))?;
///
/// // The forward cone of task 1 (tasks 1 and 3), scheduled off the
/// // installed partition.
/// let mut arena = QuotientArena::new();
/// let cone = inc.cone_quotient(&[1, 3], &mut arena).expect("installed")?;
/// assert_eq!(cone.num_tasks(), 2);
/// assert_eq!(inc.quotient_builds(), 1);
/// # Ok(())
/// # }
/// ```
pub struct IncrementalPartitioner<P> {
    inner: P,
    cache: Option<Cache>,
    epoch: u64,
    quotient_builds: u64,
}

impl<P: Partitioner> IncrementalPartitioner<P> {
    /// Wrap `inner` with an empty (cold) cache.
    pub fn new(inner: P) -> Self {
        IncrementalPartitioner {
            inner,
            cache: None,
            epoch: 0,
            quotient_builds: 0,
        }
    }

    /// How many times [`Self::install`] has succeeded.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The installed per-task assignment, if warm.
    pub fn raw_assignment(&self) -> Option<&[u32]> {
        self.cache.as_ref().map(|c| c.raw.as_slice())
    }

    /// The quotient that schedules `members` — strictly ascending ids of
    /// the cached TDG, such as a dirty cone — under the installed
    /// assignment, if warm: [`QuotientTdg::restrict_in`] of the cache's one
    /// full-space quotient. That quotient is built here on first use
    /// ([`QuotientTdg::build_in`]) and kept, so a later update never scans
    /// the TDG's edges; when `members` is the whole task space it is
    /// returned borrowed, so a full update copies nothing either. An owned
    /// result can go back to `arena` with [`QuotientArena::recycle`].
    ///
    /// # Errors
    ///
    /// [`ValidatePartitionError::QuotientCycle`] if the installed
    /// assignment has no acyclic quotient: the inner partitioner broke its
    /// contract.
    ///
    /// # Panics
    ///
    /// Panics if `members` is not a strictly ascending list of task ids.
    pub fn cone_quotient(
        &mut self,
        members: &[u32],
        arena: &mut QuotientArena,
    ) -> Option<Result<Cow<'_, QuotientTdg>, ValidatePartitionError>> {
        let cache = self.cache.as_mut()?;
        let (dense, quotient) = match &mut cache.quotient {
            Some(kept) => kept,
            vacant => {
                let dense = Partition::new(cache.raw.clone());
                match QuotientTdg::build_in(&cache.tdg, &dense, arena) {
                    Ok(quotient) => {
                        self.quotient_builds += 1;
                        vacant.insert((dense, quotient))
                    }
                    Err(e) => return Some(Err(e)),
                }
            }
        };
        Some(Ok(quotient.restrict_in(&cache.tdg, dense, members, arena)))
    }

    /// How many times the cache has built its full-space quotient: once per
    /// install that an update ran on, not once per update.
    pub fn quotient_builds(&self) -> u64 {
        self.quotient_builds
    }

    /// Partition `tdg` with the inner partitioner and install the result,
    /// as it is, as the cache. A cache already installed is replaced.
    ///
    /// # Errors
    ///
    /// Propagates the inner partitioner's [`PartitionError`].
    pub fn install(
        &mut self,
        tdg: &Tdg,
        opts: &PartitionerOptions,
    ) -> Result<(), IncrementalError> {
        let p = self.inner.partition(tdg, opts)?;
        self.epoch += 1;
        self.cache = Some(Cache {
            tdg: tdg.clone(),
            raw: p.assignment().to_vec(),
            quotient: None,
        });
        Ok(())
    }

    /// The installed assignment at `ids`, compacted: the partition of a
    /// sub-TDG whose task `i` is cached task `ids[i]` (such as a
    /// `Timer::update_timing` TDG, through its full-space ids), valid on
    /// any induced subgraph. The stats are always zero. Kept under this
    /// name for the `perf_ledger` mirror, its one caller outside tests.
    ///
    /// # Errors
    ///
    /// [`IncrementalError::NotInstalled`] on a cold cache and
    /// [`IncrementalError::TaskOutOfRange`] for an invalid id.
    pub fn repair_and_project(
        &self,
        ids: &[u32],
    ) -> Result<(RepairStats, Partition), IncrementalError> {
        let cache = self.cache.as_ref().ok_or(IncrementalError::NotInstalled)?;
        let num_tasks = cache.raw.len();
        let projected = ids
            .iter()
            .map(|&task| {
                cache
                    .raw
                    .get(task as usize)
                    .copied()
                    .ok_or(IncrementalError::TaskOutOfRange { task, num_tasks })
            })
            .collect::<Result<_, _>>()?;
        Ok((RepairStats::default(), Partition::new(projected)))
    }
}

/// The forward closure of `seeds` in `tdg`: every task reachable from a
/// seed by following successor edges, seeds included. Returned sorted and
/// deduplicated — a successor-closed set, the shape of a timer's dirty
/// cone.
///
/// # Panics
///
/// Panics if a seed is `>= tdg.num_tasks()`.
pub fn forward_closure(tdg: &Tdg, seeds: &[u32]) -> Vec<u32> {
    let n = tdg.num_tasks();
    let mut seen = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    for &s in seeds {
        assert!((s as usize) < n, "seed task {s} out of range");
        if !seen[s as usize] {
            seen[s as usize] = true;
            stack.push(s);
        }
    }
    let mut out = stack.clone();
    while let Some(t) = stack.pop() {
        for &v in tdg.successors(TaskId(t)) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                stack.push(v);
                out.push(v);
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeqGPasta;
    use gpasta_circuits::{dag, PaperCircuit};
    use gpasta_tdg::{validate, TdgBuilder};
    use proptest::prelude::*;

    fn diamond() -> Tdg {
        let mut b = TdgBuilder::new(4);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(0), TaskId(2));
        b.add_edge(TaskId(1), TaskId(3));
        b.add_edge(TaskId(2), TaskId(3));
        b.build().expect("diamond DAG")
    }

    /// The next cone quotient must be the restriction of a from-scratch
    /// quotient of the installed assignment — whatever the cache kept.
    fn assert_cone_quotient_is_fresh<P: Partitioner>(
        inc: &mut IncrementalPartitioner<P>,
        tdg: &Tdg,
        members: &[u32],
    ) {
        let dense = Partition::new(inc.raw_assignment().expect("warm").to_vec());
        let scratch = QuotientTdg::build(tdg, &dense).expect("valid");
        let mut arena = QuotientArena::new();
        let want = scratch.restrict_in(tdg, &dense, members, &mut arena);
        let got = inc
            .cone_quotient(members, &mut QuotientArena::new())
            .expect("warm")
            .expect("schedulable");
        assert_eq!(*got, *want);
    }

    #[test]
    fn cold_cache_errors() {
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        assert_eq!(inc.raw_assignment(), None);
        assert_eq!(
            inc.repair_and_project(&[0]),
            Err(IncrementalError::NotInstalled)
        );
        assert!(inc.cone_quotient(&[0], &mut QuotientArena::new()).is_none());
        assert_eq!((inc.epoch(), inc.quotient_builds()), (0, 0));
    }

    #[test]
    fn out_of_range_dirty_task_is_rejected() {
        let tdg = diamond();
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        inc.install(&tdg, &PartitionerOptions::default())
            .expect("install");
        assert_eq!(
            inc.repair_and_project(&[1, 99]),
            Err(IncrementalError::TaskOutOfRange {
                task: 99,
                num_tasks: 4
            })
        );
    }

    #[test]
    fn sub_partition_projects_the_cache() {
        let tdg = diamond();
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        inc.install(&tdg, &PartitionerOptions::default())
            .expect("install");
        let raw = inc.raw_assignment().expect("warm").to_vec();
        let (_, sub) = inc.repair_and_project(&[1, 3]).expect("projection");
        assert_eq!(sub.num_tasks(), 2);
        // Same-pid tasks stay together, distinct pids stay apart.
        assert_eq!(sub.assignment()[0] == sub.assignment()[1], raw[1] == raw[3]);
    }

    /// With no repair, the projection is the inner partitioner's cold
    /// result read at `ids`, duplicates and all, with zero stats.
    #[test]
    fn repair_and_project_matches_repair_then_sub_partition() {
        let tdg = diamond();
        let opts = PartitionerOptions::with_max_size(2);
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        inc.install(&tdg, &opts).expect("install");
        let raw = SeqGPasta::new().partition(&tdg, &opts).expect("seq");
        assert_eq!(inc.raw_assignment(), Some(raw.assignment()));
        for ids in [vec![1, 3], vec![1, 3, 3, 1], vec![0, 1, 2, 3], vec![]] {
            let (stats, sub) = inc.repair_and_project(&ids).expect("in range");
            assert_eq!(stats, RepairStats::default());
            let at_ids = ids.iter().map(|&t| raw.assignment()[t as usize]).collect();
            assert_eq!(sub, Partition::new(at_ids), "{ids:?}");
        }
        assert_eq!(inc.epoch(), 1, "projecting installs nothing");
    }

    #[test]
    fn quotient_is_built_on_the_first_cone_and_kept_for_every_later_one() {
        let tdg = diamond();
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        inc.install(&tdg, &PartitionerOptions::with_max_size(2))
            .expect("install");
        assert_eq!(inc.quotient_builds(), 0, "install builds no quotient");
        let mut arena = QuotientArena::new();
        for cone in [vec![1, 3], vec![0, 1, 2, 3], vec![3], vec![2, 3]] {
            assert_cone_quotient_is_fresh(&mut inc, &tdg, &cone);
            let q = inc.cone_quotient(&cone, &mut arena).expect("warm");
            let whole = matches!(q.expect("schedulable"), Cow::Borrowed(_));
            assert_eq!(whole, cone.len() == 4, "only the whole space borrows");
        }
        assert_eq!(inc.quotient_builds(), 1);

        // An install over a warm cache replaces it, quotient and all.
        inc.install(&tdg, &PartitionerOptions::with_max_size(1))
            .expect("reinstall");
        assert_eq!(inc.epoch(), 2);
        assert_cone_quotient_is_fresh(&mut inc, &tdg, &[1, 3]);
        assert_eq!(inc.quotient_builds(), 2);
    }

    #[test]
    fn forward_closure_is_successor_closed_and_sorted() {
        let tdg = diamond();
        assert_eq!(forward_closure(&tdg, &[0]), vec![0, 1, 2, 3]);
        assert_eq!(forward_closure(&tdg, &[1]), vec![1, 3]);
        assert_eq!(forward_closure(&tdg, &[3]), vec![3]);
        assert_eq!(forward_closure(&tdg, &[1, 2, 1]), vec![1, 2, 3]);
        assert_eq!(forward_closure(&tdg, &[]), Vec::<u32>::new());
    }

    /// Would §3.2's rule place task `t` elsewhere? True when its seed
    /// partition — the max of its predecessors' pids — is a lower
    /// partition that still has room.
    fn could_merge(tdg: &Tdg, raw: &[u32], sizes: &[u32], ps: usize, t: u32) -> bool {
        let old = raw[t as usize];
        let seed = tdg
            .predecessors(TaskId(t))
            .iter()
            .map(|&u| raw[u as usize])
            .max()
            .unwrap_or(old);
        seed < old && (sizes[seed as usize] as usize) < ps
    }

    /// A seq-G-PASTA install is settled — the rule's own fixed point: its
    /// ids never fall along an edge, and no task sits above a
    /// predecessor's partition that still has room. Re-placing any task
    /// would put it back where it is, which is why the cache is never
    /// repaired and `UpdateOutcome::{repair_moved, repair_fresh}` read zero.
    fn check_settled(tdg: &Tdg, opts: &PartitionerOptions) -> Result<(), TestCaseError> {
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        inc.install(tdg, opts).expect("install");
        let raw = inc.raw_assignment().expect("warm");
        prop_assert!(validate::check_edge_monotone(tdg, raw).is_ok());
        let sizes = Partition::new(raw.to_vec()).sizes();
        let ps = opts.resolve_ps(tdg);
        for t in 0..tdg.num_tasks() as u32 {
            prop_assert!(
                !could_merge(tdg, raw, &sizes, ps, t),
                "task {} could merge into its seed partition",
                t
            );
        }
        Ok(())
    }

    /// Case count of the lemma property, overridable via `PROPTEST_CASES`.
    fn lemma_cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(32)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(lemma_cases()))]

        #[test]
        fn seq_gpasta_installs_on_random_dags_are_settled(
            n in 2usize..150,
            avg_degree in 0.5f64..3.0,
            dag_seed in any::<u64>(),
            ps in 1usize..9,
        ) {
            let tdg = dag::random_dag(n, avg_degree, dag_seed);
            check_settled(&tdg, &PartitionerOptions::with_max_size(ps))?;
        }
    }

    /// What `ScheduledTimer::new` installs is settled on every paper
    /// circuit.
    #[test]
    fn seq_gpasta_installs_on_the_paper_circuits_are_settled() {
        for &circuit in PaperCircuit::all() {
            let netlist = circuit.build(0.002);
            let timer = gpasta_sta::Timer::new(netlist, gpasta_sta::CellLibrary::typical());
            check_settled(&timer.full_space_tdg(), &PartitionerOptions::default())
                .unwrap_or_else(|e| panic!("{circuit}: install is not settled: {e}"));
        }
    }

    #[test]
    fn errors_display_and_convert() {
        let e: IncrementalError = PartitionError::ZeroPartitionSize.into();
        assert!(e.to_string().contains("inner partitioner"));
        assert!(IncrementalError::NotInstalled
            .to_string()
            .contains("install"));
        assert!(IncrementalError::TaskOutOfRange {
            task: 9,
            num_tasks: 4
        }
        .to_string()
        .contains("out of range"));
    }
}
