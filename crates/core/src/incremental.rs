//! Incremental partition maintenance with a dirty-cone partition cache.
//!
//! The paper's Fig. 7 workload re-partitions the TDG from scratch on every
//! `update_timing` iteration even though the timer already knows the exact
//! dirty cone. [`IncrementalPartitioner`] wraps any [`Partitioner`] with a
//! partition + quotient cache keyed on the TDG's structural fingerprint:
//! tasks outside the dirty cone keep their cached `f_pid`, and dirty-cone
//! tasks are re-partitioned by the G-PASTA wavefront rule — each task is
//! seeded from the `atomicMax` of its predecessors' current pids and
//! commits into that partition while it has room. Two refinements keep
//! repeated repairs *convergent* instead of churning: every vacated slot
//! stays **reserved** for its owner, so a merge only happens into genuine
//! slack and never displaces a task that is merely returning; and on
//! overflow the task falls back to its still-consistent cached slot
//! (`old >= seed`) before minting a fresh pid above the cached `max_pid`
//! (§3.2). Fresh pids above `max_pid` and consistent cached slots both
//! keep raw ids monotone along every edge, which *proves* both
//! scheduling-validity conditions (acyclic quotient, convex partitions) in
//! one `O(E)` certificate — re-checked via
//! [`validate::check_edge_monotone`](gpasta_tdg::validate::check_edge_monotone)
//! on every repair in debug builds, alongside the full validator suite on
//! small graphs.
//!
//! # Performance
//!
//! Repair is `O(dirty cone)`, and its common case is far cheaper than a
//! re-partition of the cone: a per-task *merge-candidate bit* records
//! whether the wavefront could move the task, and a cone with no candidate
//! set (and no capacity violation) is already at the wavefront's fixed
//! point — the repair is provably the identity and skips the vacate / sort
//! / re-place passes outright. Wavefront partitioners emit
//! edge-monotone ids natively, so install adopts their assignment directly
//! (it *is* the fixed point, every bit starts false) and steady-state
//! repairs stay on the identity path. An assignment that does not change
//! keeps its quotient: the cache builds the full-space quotient once, on
//! the first [`IncrementalPartitioner::cone_quotient`], hands out
//! restrictions of it, and drops it only where a repair moves a task. The
//! topological ranks only the re-placing path needs are likewise built on
//! first use.
//!
//! # Soundness
//!
//! The cached raw assignment is edge-monotone from install: a wavefront
//! inner partitioner's ids are adopted as-is (each task commits to the max
//! of its predecessors' pids or to a fresh pid above everything minted so
//! far), and any other valid assignment is relabelled by quotient-graph
//! topological rank, so the invariant holds no matter which partitioner is
//! wrapped. Repair preserves it by construction:
//!
//! * the dirty set must be **successor-closed** (every successor of a dirty
//!   task is dirty — exactly the shape of an STA dirty cone, where edits
//!   invalidate everything downstream); [`IncrementalPartitioner::repair`]
//!   verifies this and refuses otherwise, because an edge from a re-placed
//!   dirty task to a clean one could break monotonicity;
//! * dirty tasks are processed in cached topological order, so each task's
//!   predecessors already carry their final pids when it is seeded;
//! * the committed pid is the max predecessor pid (`>=` every in-edge
//!   source), the task's own cached pid when still `>=` that max, or a
//!   fresh pid above every existing id.

use crate::{check_opts, PartitionError, Partitioner, PartitionerOptions};
use gpasta_tdg::{
    topo_order, validate, Partition, QuotientArena, QuotientTdg, TaskId, Tdg,
    ValidatePartitionError,
};
use std::borrow::Cow;
use std::error::Error;
use std::fmt;

/// Error returned by the incremental cache operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IncrementalError {
    /// A repair or query was attempted before [`IncrementalPartitioner::install`].
    NotInstalled,
    /// The inner partitioner rejected the options.
    Partition(PartitionError),
    /// A dirty task id is `>= num_tasks` of the cached TDG.
    TaskOutOfRange {
        /// The offending task id.
        task: u32,
        /// Task count of the cached TDG.
        num_tasks: usize,
    },
    /// The dirty set is not successor-closed: repairing it could break the
    /// monotone-id invariant across a dirty-to-clean edge.
    DirtySetNotClosed {
        /// A dirty task…
        task: u32,
        /// …with this clean successor.
        clean_successor: u32,
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
                "dirty task {task} out of range (cached TDG has {num_tasks} tasks)"
            ),
            IncrementalError::DirtySetNotClosed {
                task,
                clean_successor,
            } => write!(
                f,
                "dirty set is not successor-closed: dirty task {task} has clean successor \
                 {clean_successor}"
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

/// Statistics reported by one [`IncrementalPartitioner::repair`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairStats {
    /// Distinct dirty tasks processed.
    pub num_dirty: usize,
    /// Tasks whose partition id actually changed.
    pub moved: usize,
    /// Fresh partitions allocated above the cached `max_pid`.
    pub fresh_partitions: usize,
    /// Cache epoch after the repair (increments on every install/repair).
    pub epoch: u64,
}

/// When the raw id space grows this far past the task count, repair
/// renormalises it back to dense ids. The bound keeps
/// [`Partition`]'s compaction on its fast counting path
/// (`max_id < 4 * len + 1024`).
const RENORM_SLACK: usize = 512;

struct Cache {
    tdg: Tdg,
    fingerprint: u64,
    ps: usize,
    /// Raw (sparse, edge-monotone) partition id per task.
    raw: Vec<u32>,
    /// Member count per raw pid (indexed by pid).
    sizes: Vec<u32>,
    /// Slots vacated by still-unprocessed dirty tasks, per raw pid. Only
    /// nonzero inside [`IncrementalPartitioner::repair`]; drains back to
    /// all-zero before it returns.
    reserved: Vec<u32>,
    /// Largest raw pid ever allocated.
    max_pid: u32,
    /// Position of each task in a fixed topological order of `tdg`.
    /// Built lazily on the first repair that actually re-places tasks
    /// (empty = unbuilt); identity repairs never sort.
    topo_rank: Vec<u32>,
    /// The quotient of `tdg` under `raw`, and `raw` compacted to the dense
    /// pids that number its nodes. Built by the first
    /// [`IncrementalPartitioner::cone_quotient`] and dropped wherever `raw`
    /// changes, so `Some` always means "of the current assignment".
    quotient: Option<(Partition, QuotientTdg)>,
    /// Per-task visit stamp for O(dirty) dedup without clearing.
    stamp: Vec<u32>,
    stamp_cur: u32,
    /// Scratch: deduped dirty tasks, sorted by `topo_rank`.
    order: Vec<u32>,
    /// Per-task merge-candidate bit: the task could commit into its seed
    /// partition (`seed < pid` with genuine slack), i.e. re-running the
    /// wavefront over it would *move* it. Recomputed for every dirty task
    /// after a moving repair; an occupancy change can leave a clean task's
    /// bit stale, which costs at most a missed merge or one redundant full
    /// pass — never an invalid repair.
    merge_bit: Vec<bool>,
    /// Scratch: `(topo_rank << 32) | task` sort keys for the dirty cone.
    sort_keys: Vec<u64>,
    /// Scratch: projected raw pids for [`IncrementalPartitioner::repair_and_project`].
    proj: Vec<u32>,
}

/// Would the wavefront rule move task `t` out of its cached slot? True
/// exactly when its seed partition (max predecessor pid) is a *different*
/// partition with genuine slack. By edge-monotonicity `seed <= raw[t]`
/// always, so a false bit means re-placing `t` commits it right back.
fn merge_candidate(tdg: &Tdg, raw: &[u32], sizes: &[u32], ps: usize, t: u32) -> bool {
    let old = raw[t as usize];
    let seed = tdg
        .predecessors(TaskId(t))
        .iter()
        .map(|&u| raw[u as usize])
        .max()
        .unwrap_or(old);
    seed < old && (sizes[seed as usize] as usize) < ps
}

/// Wraps any [`Partitioner`] with a partition + quotient cache that is
/// *repaired* inside the dirty cone instead of rebuilt, making the
/// per-iteration partitioning cost proportional to the dirty cone — not
/// `|V|`.
///
/// # Example
///
/// ```
/// use gpasta_core::{forward_closure, IncrementalPartitioner, PartitionerOptions, SeqGPasta};
/// use gpasta_tdg::{validate, TaskId, TdgBuilder};
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
/// inc.install(&tdg, &PartitionerOptions::default())?;
///
/// // Repair the forward cone of task 1; the rest keeps its cached pid.
/// let dirty = forward_closure(&tdg, &[1]);
/// let stats = inc.repair(&dirty)?;
/// assert_eq!(stats.num_dirty, 2); // tasks 1 and 3
/// let p = inc.full_partition().expect("cache is warm");
/// validate::check_all(&tdg, &p)?;
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

    /// Whether a cache is installed.
    pub fn is_warm(&self) -> bool {
        self.cache.is_some()
    }

    /// Cache epoch: increments on every successful install and repair.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The resolved `Ps` of the installed cache, if warm.
    pub fn ps(&self) -> Option<usize> {
        self.cache.as_ref().map(|c| c.ps)
    }

    /// The cached TDG, if warm.
    pub fn cached_tdg(&self) -> Option<&Tdg> {
        self.cache.as_ref().map(|c| &c.tdg)
    }

    /// The raw (sparse, edge-monotone) assignment, if warm.
    pub fn raw_assignment(&self) -> Option<&[u32]> {
        self.cache.as_ref().map(|c| c.raw.as_slice())
    }

    /// The quotient that schedules `members` — strictly ascending ids of
    /// the cached TDG, such as a dirty cone — under the cached assignment,
    /// if warm:
    /// [`QuotientTdg::restrict_in`] of the cache's one full-space quotient.
    /// That quotient is built here on first use
    /// ([`QuotientTdg::build_in`] over [`Self::cached_tdg`]) and kept until
    /// a repair moves a task, so an update whose repair is the identity
    /// never scans the TDG's edges; when `members` is the whole task space
    /// it is returned borrowed, so a full update copies nothing either. An
    /// owned result can go back to `arena` with [`QuotientArena::recycle`].
    ///
    /// # Errors
    ///
    /// [`ValidatePartitionError::QuotientCycle`] if the cached assignment
    /// has no acyclic quotient — which the edge-monotone certificate rules
    /// out, so it reports a bug of this module.
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
        #[cfg(debug_assertions)]
        if cache.tdg.num_tasks() <= 4096 {
            let scratch = QuotientTdg::build(&cache.tdg, &Partition::new(cache.raw.clone()));
            assert!(
                scratch.as_ref() == Ok(&*quotient),
                "cached quotient outlived the assignment it was built from"
            );
        }
        Some(Ok(quotient.restrict_in(&cache.tdg, dense, members, arena)))
    }

    /// How many times the cache has built its full-space quotient: once per
    /// assignment that an update ran on, not once per update.
    pub fn quotient_builds(&self) -> u64 {
        self.quotient_builds
    }

    /// Drop the cache, forcing the next [`Self::install`] (or trait
    /// [`Partitioner::partition`]) to run the inner partitioner from
    /// scratch.
    pub fn invalidate_all(&mut self) {
        self.cache = None;
    }

    /// Partition `tdg` with the inner partitioner and install the result as
    /// the cache. An already edge-monotone assignment (what wavefront
    /// partitioners emit natively) is adopted as-is; anything else is
    /// relabelled by quotient-graph topological rank. Either way raw ids
    /// end up monotone along every TDG edge — the invariant
    /// [`Self::repair`] maintains.
    ///
    /// # Errors
    ///
    /// Propagates the inner partitioner's [`PartitionError`].
    ///
    /// # Panics
    ///
    /// Panics if the inner partitioner violates its contract and returns a
    /// partition with a cyclic quotient.
    pub fn install(
        &mut self,
        tdg: &Tdg,
        opts: &PartitionerOptions,
    ) -> Result<(), IncrementalError> {
        check_opts(opts)?;
        let ps = opts.resolve_ps(tdg);
        let p = self.inner.partition(tdg, opts)?;
        let n = tdg.num_tasks();

        // Wavefront partitioners (seq-G-PASTA, G-PASTA, …) already emit
        // edge-monotone ids: every task commits to the max of its
        // predecessors' pids or to a fresh pid above everything minted so
        // far, and [`Partition`]'s compaction is order-preserving. Adopt
        // those ids directly — they are the wavefront's own fixed point, so
        // steady-state repairs start with no merge candidates at all.
        let (raw, sizes) = if validate::check_edge_monotone(tdg, p.assignment()).is_ok() {
            (p.assignment().to_vec(), p.sizes())
        } else {
            // Generic inner partitioner: relabel dense pids by quotient
            // topological rank. A cross edge p_u -> p_v then satisfies
            // rank(p_u) < rank(p_v), so the relabelled raw assignment is
            // edge-monotone regardless of the inner id scheme.
            let quotient =
                QuotientTdg::build(tdg, &p).expect("inner partitioner produced a cyclic quotient");
            let np = p.num_partitions();
            let mut qrank = vec![0u32; np];
            for (i, &pid) in topo_order(quotient.graph()).iter().enumerate() {
                qrank[pid as usize] = i as u32;
            }
            let mut raw = vec![0u32; n];
            let mut sizes = vec![0u32; np];
            for (t, &pid) in p.assignment().iter().enumerate() {
                let r = qrank[pid as usize];
                raw[t] = r;
                sizes[r as usize] += 1;
            }
            (raw, sizes)
        };

        let max_pid = (sizes.len() as u32).saturating_sub(1);
        let merge_bit = (0..n as u32)
            .map(|t| merge_candidate(tdg, &raw, &sizes, ps, t))
            .collect();
        self.epoch += 1;
        self.cache = Some(Cache {
            tdg: tdg.clone(),
            fingerprint: tdg.fingerprint(),
            ps,
            raw,
            reserved: vec![0; sizes.len()],
            sizes,
            max_pid,
            topo_rank: Vec::new(),
            quotient: None,
            stamp: vec![0; n],
            stamp_cur: 0,
            order: Vec::new(),
            merge_bit,
            sort_keys: Vec::new(),
            proj: Vec::new(),
        });
        Ok(())
    }

    /// Repair the cached partition inside `dirty` (duplicates allowed).
    ///
    /// Every dirty task is re-seeded from the `atomicMax` of its
    /// predecessors' current pids (clean predecessors keep their cached
    /// pid; dirty predecessors are processed first, in topological order).
    /// The task commits into the seed partition while it has room beyond
    /// the slots *reserved* for its own still-unprocessed dirty members —
    /// a merge never displaces a task that is merely returning, which is
    /// what makes repeated repairs converge to a fixed point. On overflow
    /// the task keeps its cached slot when that is still consistent
    /// (`old >= seed`) and has room, and only otherwise takes a fresh pid
    /// above the cached `max_pid`. A dirty source task keeps its cached
    /// pid. A repair that moves a task or mints a pid drops the cached
    /// quotient; an identity repair keeps it.
    ///
    /// In debug builds every repair re-proves validity: the `O(E)`
    /// monotone-id certificate plus quotient acyclicity and the `Ps` bound
    /// always, and the full convexity sweep on graphs up to 4096 tasks.
    ///
    /// # Errors
    ///
    /// [`IncrementalError::NotInstalled`] on a cold cache,
    /// [`IncrementalError::TaskOutOfRange`] for an invalid id, and
    /// [`IncrementalError::DirtySetNotClosed`] if some successor of a dirty
    /// task is clean (the cache is left unchanged in every error case).
    pub fn repair(&mut self, dirty: &[u32]) -> Result<RepairStats, IncrementalError> {
        self.repair_impl(dirty, false)
    }

    /// [`Self::repair`] and [`Self::sub_partition`] over the same ids, fused:
    /// the projected pids are gathered during the repair's own pass over
    /// `dirty`, so an identity repair touches each task's cache entry once
    /// instead of twice. Equivalent to `repair(ids)` followed by
    /// `sub_partition(ids)` in every observable way, including errors.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Self::repair`]; the cache is unchanged on error.
    pub fn repair_and_project(
        &mut self,
        ids: &[u32],
    ) -> Result<(RepairStats, Partition), IncrementalError> {
        let stats = self.repair_impl(ids, true)?;
        let cache = self
            .cache
            .as_mut()
            .expect("repair succeeded on a warm cache");
        let proj = std::mem::take(&mut cache.proj);
        Ok((stats, Partition::new(proj)))
    }

    fn repair_impl(
        &mut self,
        dirty: &[u32],
        project: bool,
    ) -> Result<RepairStats, IncrementalError> {
        let cache = self.cache.as_mut().ok_or(IncrementalError::NotInstalled)?;
        let n = cache.tdg.num_tasks();

        // Stamp-dedup the dirty set without clearing an O(n) bitmap.
        if cache.stamp_cur == u32::MAX {
            cache.stamp.iter_mut().for_each(|s| *s = 0);
            cache.stamp_cur = 0;
        }
        cache.stamp_cur += 1;
        let cur = cache.stamp_cur;
        cache.order.clear();
        if project {
            cache.proj.clear();
            cache.proj.reserve(dirty.len());
        }
        // A cone with no merge candidate and no capacity violation is
        // already at the wavefront fixed point: re-placing it is the
        // identity (see the fast path below), so the heavy passes can be
        // skipped entirely.
        let mut needs_full = false;
        for &t in dirty {
            if (t as usize) >= n {
                return Err(IncrementalError::TaskOutOfRange {
                    task: t,
                    num_tasks: n,
                });
            }
            let r = cache.raw[t as usize];
            if project {
                cache.proj.push(r);
            }
            if cache.stamp[t as usize] != cur {
                cache.stamp[t as usize] = cur;
                cache.order.push(t);
                needs_full |=
                    cache.merge_bit[t as usize] || cache.sizes[r as usize] as usize > cache.ps;
            }
        }

        // Successor-closedness: an edge from a re-placed dirty task to a
        // clean task could otherwise end up decreasing.
        for &t in &cache.order {
            for &v in cache.tdg.successors(TaskId(t)) {
                if cache.stamp[v as usize] != cur {
                    return Err(IncrementalError::DirtySetNotClosed {
                        task: t,
                        clean_successor: v,
                    });
                }
            }
        }

        let mut fresh = 0usize;
        let mut moved = 0usize;
        if needs_full {
            // Vacate the whole dirty cone first so repair can re-pack it;
            // each vacated slot stays reserved for its owner until that
            // owner is processed, so re-packing never displaces a returning
            // task. The reservation counters drain back to all-zero by
            // construction.
            for &t in &cache.order {
                let pid = cache.raw[t as usize] as usize;
                cache.sizes[pid] -= 1;
                cache.reserved[pid] += 1;
            }

            // Re-place in cached topological order: predecessors (dirty or
            // clean) already carry their final pids when a task is seeded.
            // Sorting packed `(rank, task)` keys avoids the random
            // `topo_rank` lookups a by-key sort would do per comparison.
            if cache.topo_rank.len() != n {
                cache.topo_rank = vec![0u32; n];
                for (i, &t) in topo_order(&cache.tdg).iter().enumerate() {
                    cache.topo_rank[t as usize] = i as u32;
                }
            }
            let topo_rank = &cache.topo_rank;
            cache.sort_keys.clear();
            cache.sort_keys.extend(
                cache
                    .order
                    .iter()
                    .map(|&t| (u64::from(topo_rank[t as usize]) << 32) | u64::from(t)),
            );
            cache.sort_keys.sort_unstable();
            cache.order.clear();
            cache
                .order
                .extend(cache.sort_keys.iter().map(|&k| k as u32));
            let ps = cache.ps as u32;
            for i in 0..cache.order.len() {
                let t = cache.order[i];
                let old = cache.raw[t as usize];
                cache.reserved[old as usize] -= 1;
                let preds = cache.tdg.predecessors(TaskId(t));
                // atomicMax over predecessor pids; sources keep their slot.
                let seed = preds
                    .iter()
                    .map(|&u| cache.raw[u as usize])
                    .max()
                    .unwrap_or(old);
                let fp = if cache.sizes[seed as usize] + cache.reserved[seed as usize] < ps {
                    seed
                } else if old >= seed && cache.sizes[old as usize] < ps {
                    // The seed partition has no genuine slack, but the
                    // cached slot is still consistent with every
                    // predecessor and has room: keep it rather than minting
                    // a fresh pid.
                    old
                } else {
                    // Only reachable from a cache whose invariants were
                    // weakened externally (e.g. a capacity-violated slot):
                    // the §3.2 safety valve that keeps the quotient
                    // acyclic.
                    cache.max_pid += 1;
                    cache.sizes.resize(cache.max_pid as usize + 1, 0);
                    cache.reserved.resize(cache.max_pid as usize + 1, 0);
                    fresh += 1;
                    cache.max_pid
                };
                cache.sizes[fp as usize] += 1;
                cache.raw[t as usize] = fp;
                moved += usize::from(fp != old);
            }
            if moved > 0 {
                cache.quotient = None;
            }

            // Refresh the candidate bits over the cone: every moved task
            // and every task whose seed could have changed (successors of
            // moved tasks) is dirty, because the dirty set is
            // successor-closed.
            let (tdg, raw, sizes, ps) = (&cache.tdg, &cache.raw, &cache.sizes, cache.ps);
            let merge_bit = &mut cache.merge_bit;
            for &t in &cache.order {
                merge_bit[t as usize] = merge_candidate(tdg, raw, sizes, ps, t);
            }
            if project {
                // The cone was re-placed after the gather: project again
                // from the repaired assignment.
                cache.proj.clear();
                cache
                    .proj
                    .extend(dirty.iter().map(|&t| cache.raw[t as usize]));
            }
        }
        // Fast path: no dirty task can merge and none overflows, so the
        // wavefront re-derives exactly the cached placement. Per task the
        // commit rule yields `fp == old`: with `seed == old` trivially, and
        // with `seed < old` because `sizes[seed] + reserved[seed]` equals
        // the (full) steady-state occupancy of `seed` throughout an
        // identity repair — no genuine slack — while the cached slot always
        // has room for its returning owner. Nothing is vacated, sorted or
        // re-placed, and the cached quotient stands.

        #[cfg(debug_assertions)]
        {
            validate::check_edge_monotone(&cache.tdg, &cache.raw)
                .expect("repair broke the monotone-id certificate");
            let p = Partition::new(cache.raw.clone());
            validate::check_acyclic(&cache.tdg, &p).expect("repair produced a cyclic quotient");
            validate::check_size_bound(&p, cache.ps).expect("repair overfilled a partition");
            if n <= 4096 {
                validate::check_convex(&cache.tdg, &p)
                    .expect("repair produced a non-convex partition");
            }
        }

        let stats = RepairStats {
            num_dirty: cache.order.len(),
            moved,
            fresh_partitions: fresh,
            epoch: self.epoch + 1,
        };

        // Keep the raw id space dense enough for Partition's fast
        // compaction path; the remap is order-preserving so monotonicity
        // survives.
        if cache.max_pid as usize > 4 * n + RENORM_SLACK {
            let mut remap = vec![u32::MAX; cache.max_pid as usize + 1];
            let mut next = 0u32;
            for (pid, &size) in cache.sizes.iter().enumerate() {
                if size > 0 {
                    remap[pid] = next;
                    next += 1;
                }
            }
            let mut sizes = vec![0u32; next as usize];
            for r in cache.raw.iter_mut() {
                *r = remap[*r as usize];
                sizes[*r as usize] += 1;
            }
            cache.sizes = sizes;
            cache.reserved = vec![0; next as usize];
            cache.max_pid = next.saturating_sub(1);
            cache.quotient = None;
        }
        self.epoch += 1;
        Ok(stats)
    }

    /// The full cached partition (raw ids compacted).
    ///
    /// # Errors
    ///
    /// [`IncrementalError::NotInstalled`] on a cold cache.
    pub fn full_partition(&self) -> Result<Partition, IncrementalError> {
        let c = self.cache.as_ref().ok_or(IncrementalError::NotInstalled)?;
        Ok(Partition::new(c.raw.clone()))
    }

    /// Project the cached assignment onto a task subset: `ids[i]` is the
    /// cached-TDG task backing task `i` of some induced sub-TDG (e.g. an
    /// incremental `update_timing` TDG whose tasks map into the full task
    /// space). The projected raw ids inherit edge-monotonicity on any
    /// induced subgraph, so compacting them yields a valid partition of
    /// that sub-TDG under the cached `Ps`.
    ///
    /// # Errors
    ///
    /// [`IncrementalError::NotInstalled`] on a cold cache and
    /// [`IncrementalError::TaskOutOfRange`] for an invalid id.
    pub fn sub_partition(&self, ids: &[u32]) -> Result<Partition, IncrementalError> {
        let cache = self.cache.as_ref().ok_or(IncrementalError::NotInstalled)?;
        let n = cache.tdg.num_tasks();
        let mut raw = Vec::with_capacity(ids.len());
        for &t in ids {
            if (t as usize) >= n {
                return Err(IncrementalError::TaskOutOfRange {
                    task: t,
                    num_tasks: n,
                });
            }
            raw.push(cache.raw[t as usize]);
        }
        Ok(Partition::new(raw))
    }
}

impl<P: Partitioner> Partitioner for IncrementalPartitioner<P> {
    fn name(&self) -> &'static str {
        "incremental"
    }

    /// Serve from the cache when it matches `(tdg, Ps)` — the cache key is
    /// the TDG's structural [`fingerprint`](Tdg::fingerprint) plus the
    /// resolved partition size — and fall through to the inner partitioner
    /// otherwise. Through this `&self` entry point a miss cannot update the
    /// cache; use [`IncrementalPartitioner::install`] to warm it.
    fn partition(&self, tdg: &Tdg, opts: &PartitionerOptions) -> Result<Partition, PartitionError> {
        check_opts(opts)?;
        if let Some(c) = &self.cache {
            if c.raw.len() == tdg.num_tasks()
                && c.ps == opts.resolve_ps(tdg)
                && c.fingerprint == tdg.fingerprint()
            {
                return Ok(Partition::new(c.raw.clone()));
            }
        }
        self.inner.partition(tdg, opts)
    }
}

/// The forward closure of `seeds` in `tdg`: every task reachable from a
/// seed by following successor edges, seeds included. Returned sorted and
/// deduplicated — by construction a successor-closed set, i.e. a valid
/// dirty set for [`IncrementalPartitioner::repair`].
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
    use gpasta_tdg::TdgBuilder;
    use proptest::prelude::*;

    fn diamond() -> Tdg {
        let mut b = TdgBuilder::new(4);
        b.add_edge(TaskId(0), TaskId(1));
        b.add_edge(TaskId(0), TaskId(2));
        b.add_edge(TaskId(1), TaskId(3));
        b.add_edge(TaskId(2), TaskId(3));
        b.build().expect("diamond DAG")
    }

    fn chain(n: u32) -> Tdg {
        let mut b = TdgBuilder::new(n as usize);
        for i in 1..n {
            b.add_edge(TaskId(i - 1), TaskId(i));
        }
        b.build().expect("chain DAG")
    }

    /// A mock partitioner returning a fixed assignment, for precise
    /// control over the installed cache.
    struct Fixed(Vec<u32>);
    impl Partitioner for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn partition(&self, _: &Tdg, _: &PartitionerOptions) -> Result<Partition, PartitionError> {
            Ok(Partition::new(self.0.clone()))
        }
    }

    /// The next cone quotient must be the restriction of a from-scratch
    /// quotient of the current assignment — whatever the cache kept.
    fn assert_cone_quotient_is_fresh<P: Partitioner>(
        inc: &mut IncrementalPartitioner<P>,
        members: &[u32],
    ) {
        let tdg = inc.cached_tdg().expect("warm").clone();
        let dense = inc.full_partition().expect("warm");
        let scratch = QuotientTdg::build(&tdg, &dense).expect("valid");
        let mut arena = QuotientArena::new();
        let want = scratch.restrict_in(&tdg, &dense, members, &mut arena);
        let got = inc
            .cone_quotient(members, &mut QuotientArena::new())
            .expect("warm")
            .expect("schedulable");
        assert_eq!(*got, *want);
    }

    #[test]
    fn cold_cache_errors() {
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        assert!(!inc.is_warm());
        assert_eq!(inc.repair(&[0]), Err(IncrementalError::NotInstalled));
        assert_eq!(inc.sub_partition(&[0]), Err(IncrementalError::NotInstalled));
        assert!(matches!(
            inc.full_partition(),
            Err(IncrementalError::NotInstalled)
        ));
        assert!(inc.cone_quotient(&[0], &mut QuotientArena::new()).is_none());
        assert_eq!(inc.quotient_builds(), 0);
    }

    #[test]
    fn empty_dirty_set_is_identity() {
        let tdg = diamond();
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        inc.install(&tdg, &PartitionerOptions::default())
            .expect("install");
        let before = inc.raw_assignment().expect("warm").to_vec();
        let e0 = inc.epoch();
        let stats = inc.repair(&[]).expect("empty repair");
        assert_eq!(stats.num_dirty, 0);
        assert_eq!(stats.moved, 0);
        assert_eq!(stats.fresh_partitions, 0);
        assert_eq!(inc.raw_assignment().expect("warm"), before.as_slice());
        assert_eq!(inc.epoch(), e0 + 1);
    }

    #[test]
    fn install_relabels_to_monotone_ids() {
        // The inner assignment is valid but anti-monotone in its id order.
        let tdg = chain(3);
        let mut inc = IncrementalPartitioner::new(Fixed(vec![2, 1, 0]));
        inc.install(&tdg, &PartitionerOptions::with_max_size(1))
            .expect("install");
        let raw = inc.raw_assignment().expect("warm");
        validate::check_edge_monotone(&tdg, raw).expect("relabelled to monotone");
        assert_eq!(raw, &[0, 1, 2]);
    }

    #[test]
    fn repair_merges_into_predecessor_partition_when_room() {
        let tdg = chain(2);
        let mut inc = IncrementalPartitioner::new(Fixed(vec![0, 1]));
        inc.install(&tdg, &PartitionerOptions::with_max_size(2))
            .expect("install");
        let stats = inc.repair(&[1]).expect("repair");
        assert_eq!(stats.moved, 1);
        assert_eq!(stats.fresh_partitions, 0);
        // Task 1 merged into its predecessor's partition.
        assert_eq!(inc.raw_assignment().expect("warm"), &[0, 0]);
        assert_cone_quotient_is_fresh(&mut inc, &[0, 1]);
        let mut arena = QuotientArena::new();
        let q = inc.cone_quotient(&[0, 1], &mut arena).expect("warm");
        assert_eq!(q.expect("schedulable").num_partitions(), 1);
    }

    #[test]
    fn repair_keeps_cached_slot_when_seed_is_full() {
        let tdg = chain(2);
        let mut inc = IncrementalPartitioner::new(Fixed(vec![0, 1]));
        inc.install(&tdg, &PartitionerOptions::with_max_size(1))
            .expect("install");
        let stats = inc.repair(&[1]).expect("repair");
        // Seed partition 0 is full (Ps = 1); the cached slot 1 is still
        // consistent (>= seed) and has room, so the task stays put rather
        // than minting a fresh pid.
        assert_eq!(stats.moved, 0);
        assert_eq!(stats.fresh_partitions, 0);
        assert_eq!(inc.raw_assignment().expect("warm"), &[0, 1]);
        validate::check_all(&tdg, &inc.full_partition().expect("warm")).expect("valid");
    }

    #[test]
    fn repair_never_displaces_a_returning_task() {
        // Tasks: c=0, d1=1, d2=2, u=3, t=4; edges c->u and d1->t.
        // Cached partitions (Ps = 2): {d1, d2} = pid 0, {c, t} = pid 1,
        // {u} = pid 2 — edge-monotone as installed.
        let mut b = TdgBuilder::new(5);
        b.add_edge(TaskId(0), TaskId(3));
        b.add_edge(TaskId(1), TaskId(4));
        let tdg = b.build().expect("DAG");
        let mut inc = IncrementalPartitioner::new(Fixed(vec![1, 0, 0, 2, 1]));
        inc.install(&tdg, &PartitionerOptions::with_max_size(2))
            .expect("install");
        assert_eq!(inc.raw_assignment().expect("warm"), &[1, 0, 0, 2, 1]);

        // Repair {u, t}: u's seed is partition 1, whose only free slot is
        // reserved for the returning t — without the reservation, u would
        // grab it, displace t into a fresh pid, and repeated repairs would
        // churn. With it, both tasks keep their slots: a fixed point.
        let stats = inc.repair(&[3, 4]).expect("repair");
        assert_eq!(stats.moved, 0);
        assert_eq!(stats.fresh_partitions, 0);
        assert_eq!(inc.raw_assignment().expect("warm"), &[1, 0, 0, 2, 1]);
        validate::check_all(&tdg, &inc.full_partition().expect("warm")).expect("valid");
    }

    #[test]
    fn repair_restores_a_capacity_violated_cache_with_a_fresh_pid() {
        // Simulate an externally weakened cache: both chain tasks crammed
        // into partition 0 with Ps = 1. Repairing the sink cannot use its
        // seed (full) or its cached slot (also partition 0, full), so the
        // §3.2 safety valve mints a fresh pid above max_pid and the repair
        // restores a valid partition.
        let tdg = chain(2);
        let mut inc = IncrementalPartitioner::new(Fixed(vec![0, 1]));
        inc.install(&tdg, &PartitionerOptions::with_max_size(1))
            .expect("install");
        {
            let cache = inc.cache.as_mut().expect("warm");
            cache.raw = vec![0, 0];
            cache.sizes = vec![2, 0];
            cache.reserved = vec![0, 0];
            cache.max_pid = 0;
        }
        // The quotient of the crammed assignment: one partition.
        assert_cone_quotient_is_fresh(&mut inc, &[1]);
        assert_eq!(inc.quotient_builds(), 1);
        let stats = inc.repair(&[1]).expect("repair");
        assert_eq!(stats.fresh_partitions, 1);
        assert_eq!(stats.moved, 1);
        assert_eq!(inc.raw_assignment().expect("warm"), &[0, 1]);
        validate::check_all(&tdg, &inc.full_partition().expect("warm")).expect("valid");
        // A fresh pid is a move: the kept quotient went with it.
        assert_cone_quotient_is_fresh(&mut inc, &[1]);
        assert_eq!(inc.quotient_builds(), 2);
    }

    #[test]
    fn dirty_source_keeps_its_slot() {
        let tdg = diamond();
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        inc.install(&tdg, &PartitionerOptions::default())
            .expect("install");
        let before = inc.raw_assignment().expect("warm")[0];
        let dirty = forward_closure(&tdg, &[0]); // everything
        inc.repair(&dirty).expect("repair");
        assert_eq!(inc.raw_assignment().expect("warm")[0], before);
    }

    #[test]
    fn unclosed_dirty_set_is_rejected_and_cache_unchanged() {
        let tdg = diamond();
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        inc.install(&tdg, &PartitionerOptions::default())
            .expect("install");
        let before = inc.raw_assignment().expect("warm").to_vec();
        // Task 1's successor 3 is clean.
        let err = inc.repair(&[1]).expect_err("not successor-closed");
        assert_eq!(
            err,
            IncrementalError::DirtySetNotClosed {
                task: 1,
                clean_successor: 3
            }
        );
        assert_eq!(inc.raw_assignment().expect("warm"), before.as_slice());
        // The closed version goes through.
        inc.repair(&forward_closure(&tdg, &[1])).expect("closed");
        validate::check_all(&tdg, &inc.full_partition().expect("warm")).expect("valid");
    }

    #[test]
    fn out_of_range_dirty_task_is_rejected() {
        let tdg = diamond();
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        inc.install(&tdg, &PartitionerOptions::default())
            .expect("install");
        assert_eq!(
            inc.repair(&[99]),
            Err(IncrementalError::TaskOutOfRange {
                task: 99,
                num_tasks: 4
            })
        );
        assert!(matches!(
            inc.sub_partition(&[99]),
            Err(IncrementalError::TaskOutOfRange { .. })
        ));
    }

    #[test]
    fn duplicate_dirty_tasks_are_deduped() {
        let tdg = chain(2);
        let mut inc = IncrementalPartitioner::new(Fixed(vec![0, 1]));
        inc.install(&tdg, &PartitionerOptions::with_max_size(2))
            .expect("install");
        let stats = inc.repair(&[1, 1, 1]).expect("repair");
        assert_eq!(stats.num_dirty, 1);
    }

    #[test]
    fn trait_partition_serves_warm_cache_and_misses_fall_through() {
        let tdg = diamond();
        let opts = PartitionerOptions::default();
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        // Cold: falls through to the inner partitioner.
        let cold = inc.partition(&tdg, &opts).expect("cold partition");
        assert_eq!(cold, SeqGPasta::new().partition(&tdg, &opts).expect("seq"));
        // Warm: serves the (identical, compacted) cached assignment.
        inc.install(&tdg, &opts).expect("install");
        let warm = inc.partition(&tdg, &opts).expect("warm partition");
        assert_eq!(warm.num_tasks(), 4);
        validate::check_all(&tdg, &warm).expect("valid");
        // A different TDG is a miss.
        let other = chain(4);
        let missed = inc.partition(&other, &opts).expect("miss partition");
        validate::check_all(&other, &missed).expect("valid on the other TDG");
        // Invalidation forces cold behaviour again.
        inc.invalidate_all();
        assert!(!inc.is_warm());
        assert_eq!(inc.repair(&[]), Err(IncrementalError::NotInstalled));
        assert_eq!(inc.name(), "incremental");
    }

    #[test]
    fn sub_partition_projects_the_cache() {
        let tdg = diamond();
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        inc.install(&tdg, &PartitionerOptions::default())
            .expect("install");
        let raw = inc.raw_assignment().expect("warm").to_vec();
        let sub = inc.sub_partition(&[1, 3]).expect("projection");
        assert_eq!(sub.num_tasks(), 2);
        // Same-pid tasks stay together, distinct pids stay apart.
        assert_eq!(sub.assignment()[0] == sub.assignment()[1], raw[1] == raw[3]);
    }

    #[test]
    fn repair_and_project_matches_repair_then_sub_partition() {
        // Identity (fast-path) repair, duplicate ids included.
        let tdg = diamond();
        let opts = PartitionerOptions::with_max_size(2);
        let mut a = IncrementalPartitioner::new(SeqGPasta::new());
        let mut b = IncrementalPartitioner::new(SeqGPasta::new());
        a.install(&tdg, &opts).expect("install");
        b.install(&tdg, &opts).expect("install");
        let ids = [1, 3, 3, 1];
        let sa = a.repair(&ids).expect("repair");
        let pa = a.sub_partition(&ids).expect("project");
        let (sb, pb) = b.repair_and_project(&ids).expect("fused");
        assert_eq!(sa, sb);
        assert_eq!(pa, pb);

        // A repair that re-places the cone projects the *repaired* pids.
        let chain = chain(2);
        let mut inc = IncrementalPartitioner::new(Fixed(vec![0, 1]));
        inc.install(&chain, &PartitionerOptions::with_max_size(2))
            .expect("install");
        let (stats, sub) = inc.repair_and_project(&[1]).expect("fused");
        assert_eq!(stats.moved, 1);
        assert_eq!(inc.raw_assignment().expect("warm"), &[0, 0]);
        assert_eq!(sub.assignment(), &[0]);

        // Same errors as the unfused pair.
        assert!(matches!(
            inc.repair_and_project(&[99]),
            Err(IncrementalError::TaskOutOfRange { .. })
        ));
        let mut cold = IncrementalPartitioner::new(SeqGPasta::new());
        assert!(matches!(
            cold.repair_and_project(&[0]),
            Err(IncrementalError::NotInstalled)
        ));
    }

    #[test]
    fn repeated_repairs_converge_to_the_cached_assignment() {
        let tdg = diamond();
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        inc.install(&tdg, &PartitionerOptions::with_max_size(2))
            .expect("install");
        let dirty = forward_closure(&tdg, &[1]);
        inc.repair(&dirty).expect("first repair may reshuffle");
        let settled = inc.raw_assignment().expect("warm").to_vec();
        // Re-repairing the same cone re-derives the same wavefront, so
        // the assignment is a fixed point: no moves, no fresh pids.
        for _ in 0..3 {
            let stats = inc.repair(&dirty).expect("repair");
            assert_eq!(stats.moved, 0);
            assert_eq!(stats.fresh_partitions, 0);
            assert_eq!(inc.raw_assignment().expect("warm"), settled.as_slice());
        }
    }

    #[test]
    fn repair_renormalises_an_inflated_id_space() {
        let tdg = chain(3);
        let mut inc = IncrementalPartitioner::new(Fixed(vec![0, 1, 2]));
        inc.install(&tdg, &PartitionerOptions::with_max_size(1))
            .expect("install");
        // Inflate the raw id space far past the renormalisation bound, as
        // a long adversarial sequence of overflowing repairs would; the
        // spread is monotone, so the cache stays valid.
        {
            let cache = inc.cache.as_mut().expect("warm");
            let stride = (4 * 3 + RENORM_SLACK) as u32;
            for (t, r) in cache.raw.iter_mut().enumerate() {
                *r = t as u32 * stride;
            }
            cache.max_pid = 2 * stride;
            cache.sizes = vec![0; cache.max_pid as usize + 1];
            for t in 0..3 {
                cache.sizes[cache.raw[t] as usize] += 1;
            }
        }
        assert_cone_quotient_is_fresh(&mut inc, &[1, 2]);
        let stats = inc.repair(&[]).expect("repair");
        assert_eq!(stats.moved, 0);
        let raw = inc.raw_assignment().expect("warm");
        assert_eq!(raw, &[0, 1, 2], "order-preserving remap back to dense ids");
        validate::check_all(&tdg, &inc.full_partition().expect("warm")).expect("valid");
        // Renormalisation rewrote every raw pid: the quotient is rebuilt.
        assert_cone_quotient_is_fresh(&mut inc, &[1, 2]);
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

    #[test]
    fn repair_stats_epoch_advances() {
        let tdg = diamond();
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        assert_eq!(inc.epoch(), 0);
        inc.install(&tdg, &PartitionerOptions::default())
            .expect("install");
        assert_eq!(inc.epoch(), 1);
        let s1 = inc.repair(&[]).expect("repair");
        assert_eq!(s1.epoch, 2);
        let s2 = inc.repair(&forward_closure(&tdg, &[1])).expect("repair");
        assert_eq!(s2.epoch, 3);
        assert_eq!(inc.epoch(), 3);
    }

    #[test]
    fn quotient_is_built_once_and_dropped_only_by_a_moving_repair() {
        // A warm cache at its fixed point: cones and the whole space, again
        // and again, are one build.
        let tdg = diamond();
        let opts = PartitionerOptions::with_max_size(2);
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        inc.install(&tdg, &opts).expect("install");
        assert_eq!(inc.quotient_builds(), 0, "install builds no quotient");
        let mut arena = QuotientArena::new();
        for dirty in [vec![1, 3], vec![0, 1, 2, 3], vec![3], vec![2, 3]] {
            let stats = inc.repair(&dirty).expect("repair");
            assert_eq!((stats.moved, stats.fresh_partitions), (0, 0));
            assert_cone_quotient_is_fresh(&mut inc, &dirty);
            let q = inc.cone_quotient(&dirty, &mut arena).expect("warm");
            let whole = matches!(q.expect("schedulable"), Cow::Borrowed(_));
            assert_eq!(whole, dirty.len() == 4, "only the whole space borrows");
        }
        assert_eq!(inc.quotient_builds(), 1);

        // A moving repair (the merge of `repair_merges_…`) drops it.
        let chain = chain(2);
        let mut inc = IncrementalPartitioner::new(Fixed(vec![0, 1]));
        inc.install(&chain, &PartitionerOptions::with_max_size(2))
            .expect("install");
        assert_cone_quotient_is_fresh(&mut inc, &[1]);
        assert_eq!(inc.repair(&[1]).expect("repair").moved, 1);
        assert_cone_quotient_is_fresh(&mut inc, &[1]);
        assert_eq!(inc.quotient_builds(), 2);

        // So does an install over a warm cache…
        inc.install(&chain, &PartitionerOptions::with_max_size(1))
            .expect("reinstall");
        assert_eq!(inc.raw_assignment().expect("warm"), &[0, 1]);
        assert_cone_quotient_is_fresh(&mut inc, &[1]);
        assert_eq!(inc.quotient_builds(), 3);
        assert_eq!(inc.repair(&[1]).expect("identity repair").moved, 0);
        assert_cone_quotient_is_fresh(&mut inc, &[0, 1]);
        assert_eq!(inc.quotient_builds(), 3, "identity repairs keep it");
    }

    /// Every task alone: a valid (edge-monotone) assignment that the
    /// wavefront wants to merge wherever a task has a predecessor.
    struct Singletons;
    impl Partitioner for Singletons {
        fn name(&self) -> &'static str {
            "singletons"
        }
        fn partition(
            &self,
            tdg: &Tdg,
            _: &PartitionerOptions,
        ) -> Result<Partition, PartitionError> {
            Ok(Partition::new((0..tdg.num_tasks() as u32).collect()))
        }
    }

    /// On a timing TDG: identity repairs share one full-space quotient, a
    /// repair that moves tasks drops it, and exactly that costs one more
    /// build.
    #[test]
    fn a_moving_repair_of_a_timing_tdg_costs_one_more_quotient_build() {
        let netlist = PaperCircuit::AesCore.build(0.002);
        let mut timer = gpasta_sta::Timer::new(netlist, gpasta_sta::CellLibrary::typical());
        let tdg = timer.update_timing().tdg().clone();
        let all: Vec<u32> = (0..tdg.num_tasks() as u32).collect();
        let opts = PartitionerOptions::with_max_size(8);

        let mut settled = IncrementalPartitioner::new(SeqGPasta::new());
        settled.install(&tdg, &opts).expect("install");
        for seed in [0, all.len() as u32 / 2, all.len() as u32 - 1] {
            let cone = forward_closure(&tdg, &[seed]);
            assert_eq!(settled.repair(&cone).expect("closed").moved, 0);
            assert_cone_quotient_is_fresh(&mut settled, &cone);
        }
        assert_eq!(settled.quotient_builds(), 1, "identity repairs, one build");

        let mut inc = IncrementalPartitioner::new(Singletons);
        inc.install(&tdg, &opts).expect("install");
        assert_cone_quotient_is_fresh(&mut inc, &all);
        assert_eq!(inc.quotient_builds(), 1);
        let stats = inc.repair(&all).expect("the whole space is closed");
        assert!(stats.moved > 0, "a moving repair");
        validate::check_all(&tdg, &inc.full_partition().expect("warm")).expect("valid");
        assert_cone_quotient_is_fresh(&mut inc, &all);
        assert_eq!(inc.quotient_builds(), 2);
    }

    /// A seq-G-PASTA install is settled — the wavefront's own fixed point:
    /// the checked repair of any successor-closed cone moves nothing, mints
    /// nothing and keeps the quotient. This is why a `ScheduledTimer` never
    /// repairs its install, and why `UpdateOutcome::{repair_moved,
    /// repair_fresh}` read zero.
    fn check_settled(tdg: &Tdg, ps: usize, seed_sets: &[Vec<u32>]) -> Result<(), TestCaseError> {
        let n = tdg.num_tasks() as u32;
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        inc.install(tdg, &PartitionerOptions::with_max_size(ps))
            .expect("install");
        let raw = inc.raw_assignment().expect("warm").to_vec();
        let all: Vec<u32> = (0..n).collect();
        let mut arena = QuotientArena::new();
        let whole = inc.cone_quotient(&all, &mut arena).expect("warm");
        whole.expect("schedulable");
        for seeds in seed_sets {
            let seeds: Vec<u32> = seeds.iter().map(|s| s % n).collect();
            let cone = forward_closure(tdg, &seeds);
            let stats = inc.repair(&cone).expect("closed cone");
            prop_assert_eq!((stats.moved, stats.fresh_partitions), (0, 0));
            prop_assert_eq!(inc.raw_assignment().expect("warm"), &raw[..]);
            let kept = inc.cone_quotient(&cone, &mut arena).expect("warm");
            kept.expect("schedulable");
            prop_assert_eq!(inc.quotient_builds(), 1, "quotient kept");
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
        fn a_settled_cache_repairs_every_closed_cone_to_itself(
            n in 2usize..150,
            avg_degree in 0.5f64..3.0,
            dag_seed in any::<u64>(),
            ps in 1usize..9,
            seed_sets in proptest::collection::vec(
                proptest::collection::vec(any::<u32>(), 0..5),
                1..6,
            ),
        ) {
            let tdg = dag::random_dag(n, avg_degree, dag_seed);
            check_settled(&tdg, ps, &seed_sets)?;
        }
    }

    /// What `Session::create` installs is settled on every paper circuit:
    /// repairing the whole task space is the identity.
    #[test]
    fn seq_gpasta_installs_on_the_paper_circuits_are_settled() {
        for &circuit in PaperCircuit::all() {
            let netlist = circuit.build(0.002);
            let mut timer = gpasta_sta::Timer::new(netlist, gpasta_sta::CellLibrary::typical());
            let full = timer.update_timing();
            let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
            inc.install(full.tdg(), &PartitionerOptions::default())
                .expect("install");
            let all: Vec<u32> = (0..full.tdg().num_tasks() as u32).collect();
            let stats = inc.repair(&all).expect("the whole space is closed");
            assert_eq!(
                (stats.moved, stats.fresh_partitions),
                (0, 0),
                "{circuit}: install is not settled"
            );
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
        assert!(IncrementalError::DirtySetNotClosed {
            task: 1,
            clean_successor: 2
        }
        .to_string()
        .contains("successor-closed"));
    }
}
