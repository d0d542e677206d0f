//! Software GPU-device simulation for the G-PASTA reproduction.
//!
//! The paper implements its partitioning kernels in CUDA. This crate stands
//! in for the GPU with a faithful *bulk-synchronous data-parallel machine*:
//!
//! * [`Device`] — scoped worker execution; [`Device::launch`] runs a kernel
//!   closure once per global thread index `gid in 0..n`, exactly like a flat
//!   CUDA grid, and blocks until the grid completes (kernel-launch +
//!   implicit-sync semantics);
//! * [`AtomicBuf`] — device global memory as shared atomic arrays;
//!   `atomicAdd`/`atomicSub`/`atomicMax` map to `fetch_add`/`fetch_sub`/
//!   `fetch_max` with relaxed ordering, matching CUDA device atomics;
//! * [`prims`] — the Thrust-style primitives Algorithm 2 needs:
//!   `sort_by_key`, `reduce_by_key`, `exclusive_scan`, `inclusive_scan`,
//!   and `binary_search` (all deterministic regardless of worker count).
//!
//! Races between pool workers reproduce the non-determinism of the paper's
//! Algorithm 1 that motivates the deterministic kernel of Algorithm 2; the
//! primitives in [`prims`] are deterministic for any worker count, which is
//! precisely the property Algorithm 2 relies on.
//!
//! The [`sanitizer`] module adds opt-in shadow-memory instrumentation — a
//! software `compute-sanitizer`: racecheck, initcheck, boundscheck and a
//! determinism audit that classifies kernels as `Deterministic`,
//! `AtomicOrderSensitive` or `Racy`. Build an instrumented device with
//! [`Device::sanitized`] and allocate buffers through its named `buf_*`
//! helpers.
//!
//! # Example
//!
//! ```
//! use gpasta_gpu::{AtomicBuf, Device};
//!
//! let dev = Device::new(4);
//! let buf = AtomicBuf::zeroed(1024);
//! let b = buf.clone();
//! // One "GPU thread" per element, like `kernel<<<grid, block>>>`:
//! dev.launch(1024, move |gid| {
//!     b.store(gid as usize, gid * 2);
//! });
//! assert_eq!(buf.load(513), 1026);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod device;
pub mod prims;
pub mod sanitizer;

pub use buffer::AtomicBuf;
pub use device::Device;
pub use sanitizer::{
    audit_determinism, AuditOutcome, SanitizerReport, Schedule, Verdict, Violation, ViolationKind,
};
