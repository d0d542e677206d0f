//! The G-PASTA synchronisation shim.
//!
//! Workspace crates import atomics, fences, and mutexes from here instead
//! of `std::sync::atomic` / `parking_lot` directly (enforced by
//! `gpasta-check-lint`). In a normal build this module is nothing but
//! re-exports — zero cost, identical codegen. Under `--cfg
//! gpasta_model_check` (e.g. `RUSTFLAGS="--cfg gpasta_model_check" cargo
//! test -p gpasta-check`) the same names resolve to the model checker's
//! instrumented types, so protocol code can be explored without edits.
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
