//! `gpasta-check`: concurrency correctness tools for the G-PASTA
//! workspace.
//!
//! Three pieces:
//!
//! * [`sync`] — the synchronisation shim every G-PASTA crate imports
//!   instead of `std::sync::atomic` / `parking_lot`. In normal builds it
//!   is a set of plain re-exports (zero cost); under `--cfg
//!   gpasta_model_check` it routes into the model checker so whole
//!   protocol slices can be explored unchanged.
//! * [`model`] — an in-tree exhaustive interleaving explorer (a
//!   "mini-loom"): DFS over bounded thread schedules *and* weak-memory
//!   read choices, vector-clock happens-before tracking, data-race
//!   detection on plain cells, and replayable counterexample traces.
//! * [`lint`] — a token-level source lint (`gpasta-check-lint` binary)
//!   enforcing the workspace's atomic-ordering discipline: no raw
//!   `std::sync::atomic` outside the shim, no untagged `SeqCst`, paired
//!   `// hb:` labels on every release/acquire half, and an exhaustive
//!   allowlist for `unwrap`/`expect` on non-test library paths.
//!
//! The protocol harnesses live beside the code they explore, each a
//! `#[cfg(all(test, gpasta_model_check))] mod model_check` that drives the
//! shipped function: the decrement batch and the stop latch in
//! `gpasta-sched`'s `bounded.rs`, `CancelToken` in `gpasta-tdg`'s
//! `cancel.rs`, the slack min in `gpasta-sta`'s `atomic_f32.rs`, the level
//! barrier in `gpasta-sta`'s `recover.rs` and the park slot in `gpasta`'s
//! `serve/http.rs`. Their seeded mutations are
//! [`mutant!`] sites. [`protocols`] keeps the one harness with no
//! production step of its own, poison publication.

pub mod lint;
pub mod model;
pub mod protocols;
pub mod sync;

/// A seeded mutation site: `$shipped` in a normal build; under `--cfg
/// gpasta_model_check`, `$mutant` instead while the running schedule is
/// seeded with `$name` ([`model::seed`]). A normal build compiles none of
/// the mutant's tokens.
#[macro_export]
macro_rules! mutant {
    ($name:literal, $shipped:expr, $mutant:expr $(,)?) => {{
        #[cfg(gpasta_model_check)]
        let value = if $crate::model::seeded($name) {
            $mutant
        } else {
            $shipped
        };
        #[cfg(not(gpasta_model_check))]
        let value = $shipped;
        value
    }};
}
