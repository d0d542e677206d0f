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
//! [`protocols`] contains the bounded model-check harnesses for the five
//! scheduler protocols (poison publication, chunked decrement flush, stop
//! latch, cancel generations, slack-min), with seeded mutations proving
//! the checker catches real weakenings.

pub mod lint;
pub mod model;
pub mod protocols;
pub mod sync;
