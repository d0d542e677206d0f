//! Model-checked counterparts of the `std::sync` primitives used by the
//! G-PASTA scheduler protocols.
//!
//! These types are API-compatible drop-ins for the subset of
//! `std::sync::atomic` / `parking_lot::Mutex` the workspace uses; the
//! `gpasta_check::sync` shim re-exports them under `--cfg
//! gpasta_model_check` and the plain `std` types otherwise.
//!
//! Every operation is a scheduling point for the explorer and applies the
//! view-based weak-memory semantics described in [`crate::model`]:
//! per-location modification order, per-thread view floors, release
//! messages on `Release` stores, message merges on `Acquire` loads, and
//! value nondeterminism for loads (a load may observe any store at or
//! above the thread's floor — which one is a DFS decision).

use std::sync::atomic::Ordering;

use super::{ctx, merge_vc, merge_view, Access, Location, Msg, Shared, Status, StoreRec};

fn has_acquire(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn has_release(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// Per-thread view floor for `loc`, growing the view vector on demand.
fn floor(sh: &mut Shared, me: usize, loc: usize) -> usize {
    let view = &mut sh.threads[me].view;
    if view.len() <= loc {
        view.resize(loc + 1, 0);
    }
    view[loc] as usize
}

fn set_floor(sh: &mut Shared, me: usize, loc: usize, idx: usize) {
    let view = &mut sh.threads[me].view;
    if view.len() <= loc {
        view.resize(loc + 1, 0);
    }
    view[loc] = view[loc].max(idx as u32);
}

fn acquire_msg(sh: &mut Shared, me: usize, msg: &Option<Msg>) {
    if let Some(m) = msg {
        merge_view(&mut sh.threads[me].view, &m.view);
        merge_vc(&mut sh.threads[me].vc, &m.vc);
    }
}

fn own_msg(sh: &Shared, me: usize) -> Msg {
    Msg {
        view: sh.threads[me].view.clone(),
        vc: sh.threads[me].vc.clone(),
    }
}

fn seqcst_in(sh: &mut Shared, me: usize, ord: Ordering) {
    if ord == Ordering::SeqCst {
        let sc = sh.sc.clone();
        merge_view(&mut sh.threads[me].view, &sc.view);
        merge_vc(&mut sh.threads[me].vc, &sc.vc);
    }
}

fn seqcst_out(sh: &mut Shared, me: usize, ord: Ordering) {
    if ord == Ordering::SeqCst {
        let m = own_msg(sh, me);
        merge_view(&mut sh.sc.view, &m.view);
        merge_vc(&mut sh.sc.vc, &m.vc);
    }
}

fn bump(sh: &mut Shared, me: usize) {
    let vc = &mut sh.threads[me].vc;
    if vc.len() <= me {
        vc.resize(me + 1, 0);
    }
    vc[me] += 1;
}

fn with_atomic<R>(
    sh: &mut Shared,
    loc: usize,
    f: impl FnOnce(&mut Vec<StoreRec>, &'static str) -> R,
) -> R {
    match &mut sh.locations[loc] {
        Location::Atomic { stores, name } => f(stores, name),
        _ => unreachable!("location {loc} is not atomic"),
    }
}

fn atomic_new(name: &'static str, init: u64) -> usize {
    let (e, me) = ctx();
    e.sync_op(me, |sh, _| {
        let loc = sh.locations.len();
        sh.locations.push(Location::Atomic {
            name,
            stores: vec![StoreRec {
                value: init,
                msg: None,
            }],
        });
        loc
    })
}

fn atomic_load(loc: usize, ord: Ordering) -> u64 {
    let (e, me) = ctx();
    e.sync_op(me, |sh, me| {
        bump(sh, me);
        seqcst_in(sh, me, ord);
        let n = with_atomic(sh, loc, |stores, _| stores.len());
        let flo = floor(sh, me, loc);
        // Choice 0 reads the newest store; later choices read progressively
        // staler (but still view-admissible) stores.
        let pick = sh.choose(n - flo);
        let idx = n - 1 - pick;
        let (value, msg, name) = with_atomic(sh, loc, |stores, name| {
            (stores[idx].value, stores[idx].msg.clone(), name)
        });
        set_floor(sh, me, loc, idx);
        if has_acquire(ord) {
            acquire_msg(sh, me, &msg);
        }
        seqcst_out(sh, me, ord);
        sh.trace.push(format!(
            "[t{me}] {name}.load({ord:?}) = {value} (store #{idx})"
        ));
        value
    })
}

fn atomic_store(loc: usize, value: u64, ord: Ordering) {
    let (e, me) = ctx();
    e.sync_op(me, |sh, me| {
        bump(sh, me);
        seqcst_in(sh, me, ord);
        let msg = if has_release(ord) {
            Some(own_msg(sh, me))
        } else {
            None
        };
        let (idx, name) = with_atomic(sh, loc, |stores, name| {
            stores.push(StoreRec { value, msg });
            (stores.len() - 1, name)
        });
        set_floor(sh, me, loc, idx);
        seqcst_out(sh, me, ord);
        sh.trace.push(format!(
            "[t{me}] {name}.store({value}, {ord:?}) (store #{idx})"
        ));
    });
}

/// Read-modify-write: always operates on the modification-order tail
/// (hardware RMW atomicity), continuing the tail's release sequence.
fn atomic_rmw(loc: usize, op: &'static str, ord: Ordering, f: impl FnOnce(u64) -> u64) -> u64 {
    let (e, me) = ctx();
    e.sync_op(me, |sh, me| {
        bump(sh, me);
        seqcst_in(sh, me, ord);
        let (old, tail_msg) = with_atomic(sh, loc, |stores, _| {
            let tail = stores.last().expect("atomic has an initial store");
            (tail.value, tail.msg.clone())
        });
        if has_acquire(ord) {
            acquire_msg(sh, me, &tail_msg);
        }
        let new = f(old);
        // Release-sequence continuation: a reader that acquires this store
        // synchronises with the head release store even if this RMW itself
        // is not a release.
        let msg = match (tail_msg, has_release(ord)) {
            (Some(mut m), true) => {
                let own = own_msg(sh, me);
                merge_view(&mut m.view, &own.view);
                merge_vc(&mut m.vc, &own.vc);
                Some(m)
            }
            (Some(m), false) => Some(m),
            (None, true) => Some(own_msg(sh, me)),
            (None, false) => None,
        };
        let (idx, name) = with_atomic(sh, loc, |stores, name| {
            stores.push(StoreRec { value: new, msg });
            (stores.len() - 1, name)
        });
        set_floor(sh, me, loc, idx);
        seqcst_out(sh, me, ord);
        sh.trace.push(format!(
            "[t{me}] {name}.{op}({ord:?}) {old} -> {new} (store #{idx})"
        ));
        old
    })
}

/// Compare-exchange against the modification-order tail. The failure load
/// reads the tail deterministically (stronger than C11, which also lets
/// failed CAS observe older values; hardware CAS fails only against the
/// live value).
fn atomic_cas(
    loc: usize,
    expected: u64,
    new: u64,
    success: Ordering,
    failure: Ordering,
) -> Result<u64, u64> {
    let (e, me) = ctx();
    e.sync_op(me, |sh, me| {
        bump(sh, me);
        seqcst_in(sh, me, success);
        let (old, tail_msg, tail_idx) = with_atomic(sh, loc, |stores, _| {
            let tail = stores.last().expect("atomic has an initial store");
            (tail.value, tail.msg.clone(), stores.len() - 1)
        });
        if old == expected {
            if has_acquire(success) {
                acquire_msg(sh, me, &tail_msg);
            }
            let msg = match (tail_msg, has_release(success)) {
                (Some(mut m), true) => {
                    let own = own_msg(sh, me);
                    merge_view(&mut m.view, &own.view);
                    merge_vc(&mut m.vc, &own.vc);
                    Some(m)
                }
                (Some(m), false) => Some(m),
                (None, true) => Some(own_msg(sh, me)),
                (None, false) => None,
            };
            let (idx, name) = with_atomic(sh, loc, |stores, name| {
                stores.push(StoreRec { value: new, msg });
                (stores.len() - 1, name)
            });
            set_floor(sh, me, loc, idx);
            seqcst_out(sh, me, success);
            sh.trace.push(format!(
                "[t{me}] {name}.compare_exchange({expected} -> {new}, {success:?}) ok (store #{idx})"
            ));
            Ok(old)
        } else {
            set_floor(sh, me, loc, tail_idx);
            if has_acquire(failure) {
                acquire_msg(sh, me, &tail_msg);
            }
            let name = with_atomic(sh, loc, |_, name| name);
            sh.trace.push(format!(
                "[t{me}] {name}.compare_exchange({expected} -> {new}, {failure:?}) failed, saw {old}"
            ));
            Err(old)
        }
    })
}

fn atomic_into_inner(loc: usize) -> u64 {
    let (e, me) = ctx();
    e.sync_op(me, |sh, _| {
        with_atomic(sh, loc, |stores, _| {
            stores.last().expect("atomic has an initial store").value
        })
    })
}

/// An atomic fence, modelled conservatively as a merge through the global
/// SC view (over-synchronises — do not rely on fence-only protocols in
/// harnesses).
pub fn fence(ord: Ordering) {
    let (e, me) = ctx();
    e.sync_op(me, |sh, me| {
        bump(sh, me);
        if has_acquire(ord) {
            seqcst_in(sh, me, Ordering::SeqCst);
        }
        if has_release(ord) {
            seqcst_out(sh, me, Ordering::SeqCst);
        }
        sh.trace.push(format!("[t{me}] fence({ord:?})"));
    });
}

macro_rules! model_atomic {
    ($name:ident, $ty:ty) => {
        /// Model-checked stand-in for the same-named `std::sync::atomic`
        /// type; see the module docs for the memory-model semantics.
        #[derive(Debug)]
        pub struct $name {
            loc: usize,
        }

        impl $name {
            pub fn new(v: $ty) -> Self {
                Self::named(stringify!($name), v)
            }

            /// Like `new`, with a display name for schedule traces.
            pub fn named(name: &'static str, v: $ty) -> Self {
                $name {
                    loc: atomic_new(name, v as u64),
                }
            }

            pub fn load(&self, ord: Ordering) -> $ty {
                atomic_load(self.loc, ord) as $ty
            }

            pub fn store(&self, v: $ty, ord: Ordering) {
                atomic_store(self.loc, v as u64, ord);
            }

            pub fn swap(&self, v: $ty, ord: Ordering) -> $ty {
                atomic_rmw(self.loc, "swap", ord, |_| v as u64) as $ty
            }

            pub fn fetch_add(&self, v: $ty, ord: Ordering) -> $ty {
                atomic_rmw(self.loc, "fetch_add", ord, |old| {
                    (old as $ty).wrapping_add(v) as u64
                }) as $ty
            }

            pub fn fetch_sub(&self, v: $ty, ord: Ordering) -> $ty {
                atomic_rmw(self.loc, "fetch_sub", ord, |old| {
                    (old as $ty).wrapping_sub(v) as u64
                }) as $ty
            }

            pub fn fetch_and(&self, v: $ty, ord: Ordering) -> $ty {
                atomic_rmw(self.loc, "fetch_and", ord, |old| ((old as $ty) & v) as u64) as $ty
            }

            pub fn fetch_or(&self, v: $ty, ord: Ordering) -> $ty {
                atomic_rmw(self.loc, "fetch_or", ord, |old| ((old as $ty) | v) as u64) as $ty
            }

            pub fn fetch_max(&self, v: $ty, ord: Ordering) -> $ty {
                atomic_rmw(self.loc, "fetch_max", ord, |old| (old as $ty).max(v) as u64) as $ty
            }

            pub fn fetch_min(&self, v: $ty, ord: Ordering) -> $ty {
                atomic_rmw(self.loc, "fetch_min", ord, |old| (old as $ty).min(v) as u64) as $ty
            }

            pub fn compare_exchange(
                &self,
                current: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                atomic_cas(self.loc, current as u64, new as u64, success, failure)
                    .map(|v| v as $ty)
                    .map_err(|v| v as $ty)
            }

            /// Never fails spuriously in the model.
            pub fn compare_exchange_weak(
                &self,
                current: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                self.compare_exchange(current, new, success, failure)
            }

            pub fn fetch_update(
                &self,
                set_order: Ordering,
                fetch_order: Ordering,
                mut f: impl FnMut($ty) -> Option<$ty>,
            ) -> Result<$ty, $ty> {
                let mut prev = self.load(fetch_order);
                while let Some(next) = f(prev) {
                    match self.compare_exchange_weak(prev, next, set_order, fetch_order) {
                        Ok(x) => return Ok(x),
                        Err(next_prev) => prev = next_prev,
                    }
                }
                Err(prev)
            }

            pub fn into_inner(self) -> $ty {
                atomic_into_inner(self.loc) as $ty
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(0)
            }
        }
    };
}

model_atomic!(AtomicU8, u8);
model_atomic!(AtomicU32, u32);
model_atomic!(AtomicU64, u64);
model_atomic!(AtomicUsize, usize);

/// Model-checked stand-in for `std::sync::atomic::AtomicBool`.
#[derive(Debug)]
pub struct AtomicBool {
    loc: usize,
}

impl AtomicBool {
    pub fn new(v: bool) -> Self {
        Self::named("AtomicBool", v)
    }

    /// Like `new`, with a display name for schedule traces.
    pub fn named(name: &'static str, v: bool) -> Self {
        AtomicBool {
            loc: atomic_new(name, u64::from(v)),
        }
    }

    pub fn load(&self, ord: Ordering) -> bool {
        atomic_load(self.loc, ord) != 0
    }

    pub fn store(&self, v: bool, ord: Ordering) {
        atomic_store(self.loc, u64::from(v), ord);
    }

    pub fn swap(&self, v: bool, ord: Ordering) -> bool {
        atomic_rmw(self.loc, "swap", ord, |_| u64::from(v)) != 0
    }

    pub fn fetch_or(&self, v: bool, ord: Ordering) -> bool {
        atomic_rmw(self.loc, "fetch_or", ord, |old| old | u64::from(v)) != 0
    }

    pub fn fetch_and(&self, v: bool, ord: Ordering) -> bool {
        atomic_rmw(self.loc, "fetch_and", ord, |old| old & u64::from(v)) != 0
    }

    pub fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        atomic_cas(
            self.loc,
            u64::from(current),
            u64::from(new),
            success,
            failure,
        )
        .map(|v| v != 0)
        .map_err(|v| v != 0)
    }

    pub fn compare_exchange_weak(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        self.compare_exchange(current, new, success, failure)
    }

    pub fn into_inner(self) -> bool {
        atomic_into_inner(self.loc) != 0
    }
}

impl Default for AtomicBool {
    fn default() -> Self {
        Self::new(false)
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Model-checked mutex with the `parking_lot` locking API (no poisoning,
/// `lock()` returns the guard directly). Lock acquisition is an acquire
/// edge from the previous unlock; contended lock attempts block the
/// virtual thread (the explorer reports a deadlock if no thread can run).
#[derive(Debug)]
pub struct Mutex<T> {
    loc: usize,
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Self::named("Mutex", value)
    }

    /// Like `new`, with a display name for schedule traces.
    pub fn named(name: &'static str, value: T) -> Self {
        let (e, me) = ctx();
        let loc = e.sync_op(me, |sh, _| {
            let loc = sh.locations.len();
            sh.locations.push(Location::Mutex {
                name,
                locked_by: None,
                last_msg: None,
            });
            loc
        });
        Mutex {
            loc,
            inner: parking_lot::Mutex::new(value),
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        let (e, me) = ctx();
        let loc = self.loc;
        e.blocking_op(me, |sh, me| {
            let (owner, msg, name) = match &sh.locations[loc] {
                Location::Mutex {
                    locked_by,
                    last_msg,
                    name,
                } => (*locked_by, last_msg.clone(), *name),
                _ => unreachable!("location {loc} is not a mutex"),
            };
            if owner == Some(me) {
                sh.violate(format!("recursive lock of {name} by t{me}"));
                return true;
            }
            if owner.is_some() {
                return false;
            }
            bump(sh, me);
            acquire_msg(sh, me, &msg);
            if let Location::Mutex { locked_by, .. } = &mut sh.locations[loc] {
                *locked_by = Some(me);
            }
            sh.trace.push(format!("[t{me}] {name}.lock()"));
            true
        });
        MutexGuard {
            mutex: self,
            inner: Some(self.inner.lock()),
        }
    }

    /// Exclusive access through `&mut self`: no other thread can hold the
    /// lock, so this is no scheduling point.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// Guard for the model [`Mutex`]; unlocking is a release edge to the next
/// lock.
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    inner: Option<parking_lot::MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard live")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard live")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        let (e, me) = ctx();
        let loc = self.mutex.loc;
        e.sync_op_in_drop(me, |sh, me| {
            bump(sh, me);
            let msg = own_msg(sh, me);
            let name = match &mut sh.locations[loc] {
                Location::Mutex {
                    locked_by,
                    last_msg,
                    name,
                } => {
                    debug_assert_eq!(*locked_by, Some(me), "unlock by non-owner");
                    *locked_by = None;
                    *last_msg = Some(msg);
                    *name
                }
                _ => unreachable!("location {loc} is not a mutex"),
            };
            // Spurious-wakeup model: every blocked thread retries its
            // acquisition (and re-blocks if its mutex is still held).
            for t in &mut sh.threads {
                if t.status == Status::Blocked {
                    t.status = Status::Runnable;
                }
            }
            sh.trace.push(format!("[t{me}] {name}.unlock()"));
        });
    }
}

// ---------------------------------------------------------------------------
// TrackedCell: plain (non-atomic) shared data with race detection
// ---------------------------------------------------------------------------

/// Plain shared memory with FastTrack-style vector-clock race detection.
///
/// Use this in harnesses for the *payload* data a protocol publishes: if
/// any explored schedule contains a write unordered (by happens-before)
/// with another access, the explorer reports a data race — even when the
/// schedule happened to execute the pair in a benign real-time order.
#[derive(Debug)]
pub struct TrackedCell<T> {
    loc: usize,
    inner: parking_lot::Mutex<T>,
}

impl<T: Clone> TrackedCell<T> {
    pub fn new(value: T) -> Self {
        Self::named("cell", value)
    }

    /// Like `new`, with a display name for traces and race reports.
    pub fn named(name: &'static str, value: T) -> Self {
        let (e, me) = ctx();
        let loc = e.sync_op(me, |sh, _| {
            let loc = sh.locations.len();
            sh.locations.push(Location::Plain {
                name,
                last_write: None,
                reads: Vec::new(),
            });
            loc
        });
        TrackedCell {
            loc,
            inner: parking_lot::Mutex::new(value),
        }
    }

    pub fn read(&self) -> T {
        plain_access(self.loc, false);
        self.inner.lock().clone()
    }

    pub fn write(&self, value: T) {
        plain_access(self.loc, true);
        *self.inner.lock() = value;
    }
}

fn plain_access(loc: usize, is_write: bool) {
    let (e, me) = ctx();
    e.sync_op(me, |sh, me| {
        bump(sh, me);
        let vc_me = sh.threads[me].vc.clone();
        let stamp = vc_me[me];
        let knows = |access: &Access| -> bool {
            vc_me.get(access.thread).copied().unwrap_or(0) >= access.stamp
        };
        let mut race: Option<String> = None;
        match &mut sh.locations[loc] {
            Location::Plain {
                name,
                last_write,
                reads,
            } => {
                if let Some(w) = last_write {
                    if w.thread != me && !knows(w) {
                        race = Some(format!(
                            "data race on `{name}`: {} by t{me} unordered with write by t{}",
                            if is_write { "write" } else { "read" },
                            w.thread
                        ));
                    }
                }
                if is_write {
                    for r in reads.iter() {
                        if r.thread != me && !knows(r) {
                            race = Some(format!(
                                "data race on `{name}`: write by t{me} unordered with read by t{}",
                                r.thread
                            ));
                        }
                    }
                    *last_write = Some(Access { thread: me, stamp });
                    reads.clear();
                    sh.trace.push(format!("[t{me}] {name}.write()"));
                } else {
                    reads.push(Access { thread: me, stamp });
                    sh.trace.push(format!("[t{me}] {name}.read()"));
                }
            }
            _ => unreachable!("location {loc} is not plain"),
        }
        if let Some(msg) = race {
            sh.violate(msg);
        }
    });
}
