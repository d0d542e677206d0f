//! The G-PASTA synchronisation shim.
//!
//! Workspace crates import atomics, fences, and mutexes from here instead
//! of `std::sync::atomic` / `parking_lot` directly (enforced by
//! `gpasta-check-lint`). In a normal build this module is nothing but
//! re-exports — zero cost, identical codegen. Under `--cfg
//! gpasta_model_check` the same names resolve to the model checker's
//! instrumented types, so protocol code can be explored without edits:
//! each crate's `#[cfg(all(test, gpasta_model_check))] mod model_check`
//! drives its shipped protocol step that way — the decrement batch and
//! the stop latch in `gpasta-sched`'s `bounded.rs`, `CancelToken` in
//! `gpasta-tdg`'s `cancel.rs`, `AtomicF32::fetch_min_nan_preserving` in
//! `gpasta-sta`'s `atomic_f32.rs`, the level barrier of the whole-design
//! sweep in `gpasta-sta`'s `recover.rs`, and the park slot in `gpasta`'s
//! `serve/http.rs` (`RUSTFLAGS="--cfg gpasta_model_check" cargo test -p
//! gpasta-sched -p gpasta-sta -p gpasta-tdg -p gpasta --lib model_check`).
//!
//! The surface is deliberately the *intersection* the workspace uses:
//! `AtomicBool`/`AtomicU8`/`AtomicU32`/`AtomicU64`/`AtomicUsize`,
//! `Ordering`, `fence`, and a `parking_lot`-flavoured `Mutex` (no
//! poisoning; `lock()` returns the guard directly), each with `Default`;
//! plus `StaticAtomicU64` for a `static` counter, which the model does not
//! route.

#[cfg(not(gpasta_model_check))]
mod imp {
    pub use parking_lot::{Mutex, MutexGuard};
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
}

#[cfg(gpasta_model_check)]
mod imp {
    pub use crate::model::sync::{
        fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Mutex, MutexGuard,
    };
    pub use std::sync::atomic::Ordering;
}

pub use imp::*;

/// An atomic counter that backs a `static`: process-global state that is no
/// protocol's. A model location lives for one exploration and a `static`
/// outlives it, so this stays the `std` type under the model too.
pub use std::sync::atomic::AtomicU64 as StaticAtomicU64;
