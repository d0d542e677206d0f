//! The simulated GPU device: bulk-synchronous kernel launches over scoped
//! worker threads.

use gpasta_check::sync::{AtomicU32, Ordering};
use std::sync::Arc;

use crate::sanitizer::{self, SanitizerCore, SanitizerReport, Schedule, Shadow};
use crate::AtomicBuf;

/// The simulated GPU device.
///
/// [`Device::launch`] semantics match a CUDA flat-grid kernel launch
/// followed by `cudaDeviceSynchronize()`: the kernel closure is invoked once
/// per global thread index `gid in 0..n`, concurrently across the device's
/// workers, and `launch` returns only after every index has been processed.
/// Workers self-schedule chunks of the index range through a shared cursor,
/// mirroring how GPU thread blocks are dispatched to SMs in arbitrary order
/// — which is exactly the source of the non-determinism that the paper's
/// Algorithm 2 eliminates.
///
/// With one worker the device degenerates to an in-place sequential loop —
/// this is the "seq-G-PASTA" execution mode and also the fast path on
/// single-core hosts.
///
/// A device built with [`Device::sanitized`] additionally instruments every
/// buffer allocated through its `buf_*` helpers with shadow memory (see the
/// [sanitizer](crate::sanitizer) module) and can replay launches under a
/// perturbed [`Schedule`].
#[derive(Debug, Clone)]
pub struct Device {
    num_threads: usize,
    schedule: Schedule,
    sanitizer: Option<Arc<SanitizerCore>>,
}

/// Grids smaller than this run inline: spawning workers costs more than the
/// work itself.
const INLINE_THRESHOLD: u32 = 64;

impl Device {
    /// Create a device with `num_threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads == 0`.
    pub fn new(num_threads: usize) -> Self {
        assert!(num_threads > 0, "a device needs at least one worker");
        Device {
            num_threads,
            schedule: Schedule::Forward,
            sanitizer: None,
        }
    }

    /// Create a single-worker device (sequential execution).
    pub fn single() -> Self {
        Device::new(1)
    }

    /// Create a device sized to the host's available parallelism.
    pub fn host_parallel() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Device::new(n)
    }

    /// Create a sanitized device: buffers allocated through the `buf_*`
    /// helpers get shadow memory, and [`Device::sanitizer_report`] returns
    /// the accumulated findings.
    pub fn sanitized(num_threads: usize) -> Self {
        let mut dev = Device::new(num_threads);
        dev.sanitizer = Some(Arc::new(SanitizerCore::new()));
        dev
    }

    /// Set the gid iteration [`Schedule`] (interleaving perturbation used by
    /// the determinism audit).
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// The gid iteration schedule.
    #[inline]
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Snapshot the sanitizer findings, or `None` for a plain device.
    /// Clones of a device share one sanitizer, so reports accumulate across
    /// clones.
    pub fn sanitizer_report(&self) -> Option<SanitizerReport> {
        self.sanitizer.as_ref().map(|s| s.report())
    }

    /// Number of workers.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    fn attach(&self, mut buf: AtomicBuf, name: &str, pre_initialized: bool) -> AtomicBuf {
        if let Some(core) = &self.sanitizer {
            buf.set_shadow(Arc::new(Shadow::new(
                name,
                core.clone(),
                buf.len(),
                pre_initialized,
            )));
        }
        buf
    }

    /// Allocate a named, zero-initialised buffer (`cudaMalloc` + `cudaMemset`).
    /// On a plain device this is just [`AtomicBuf::zeroed`]; on a sanitized
    /// device the buffer is instrumented and born initialised.
    pub fn buf_zeroed(&self, name: &str, len: usize) -> AtomicBuf {
        self.attach(AtomicBuf::zeroed(len), name, true)
    }

    /// Allocate a named buffer copied from a host slice (`cudaMemcpy` H2D);
    /// born initialised.
    pub fn buf_from_slice(&self, name: &str, host: &[u32]) -> AtomicBuf {
        self.attach(AtomicBuf::from_slice(host), name, true)
    }

    /// Allocate a named *uninitialised* buffer — the moral equivalent of a
    /// bare `cudaMalloc`. The contents still read as deterministic zeros
    /// (this is a simulator, not UB), but on a sanitized device initcheck
    /// flags any device-side read of a word that was never written.
    pub fn buf_uninit(&self, name: &str, len: usize) -> AtomicBuf {
        self.attach(AtomicBuf::zeroed(len), name, false)
    }

    /// Launch a flat grid of `n` logical GPU threads running `kernel` and
    /// block until all of them finish.
    ///
    /// The kernel may borrow host data (scoped workers); share mutable
    /// device state through [`AtomicBuf`](crate::AtomicBuf) handles.
    pub fn launch<F>(&self, n: u32, kernel: F)
    where
        F: Fn(u32) + Sync,
    {
        if n == 0 {
            return;
        }
        let epoch = self.sanitizer.as_ref().map(|s| s.begin_launch());
        if self.num_threads == 1 || n < INLINE_THRESHOLD {
            // Inline fast path: kernels run on the calling (host) thread.
            // Under the sanitizer it still tags every access with the
            // launch epoch and gid, and must drop back to host context
            // afterwards so later host code is not mis-attributed.
            self.run_range(&kernel, 0, n, epoch);
            if epoch.is_some() {
                sanitizer::clear_ctx();
            }
            return;
        }

        let grain = grain_size(n, self.num_threads);
        let cursor = AtomicU32::new(0);
        let kernel = &kernel;
        let cursor = &cursor;
        std::thread::scope(|s| {
            for _ in 0..self.num_threads {
                s.spawn(move || loop {
                    let claimed = cursor.fetch_add(grain, Ordering::Relaxed);
                    if claimed >= n {
                        break;
                    }
                    let len = grain.min(n - claimed);
                    // Reverse mirrors the claim order too, so the global
                    // visit order is (approximately) descending.
                    let start = match self.schedule {
                        Schedule::Reverse => n - claimed - len,
                        _ => claimed,
                    };
                    self.run_range(kernel, start, start + len, epoch);
                });
            }
        });
    }

    /// Run one scheduled chunk `[start, end)` of a launch, honouring the
    /// device [`Schedule`] and, when sanitized, tagging each kernel call
    /// with its `(epoch, gid)` context.
    fn run_range<F>(&self, kernel: &F, start: u32, end: u32, epoch: Option<u64>)
    where
        F: Fn(u32),
    {
        let call = |gid: u32| {
            if let Some(e) = epoch {
                sanitizer::set_ctx(e, gid);
            }
            kernel(gid);
        };
        match self.schedule {
            Schedule::Forward => {
                for gid in start..end {
                    call(gid);
                }
            }
            Schedule::Reverse => {
                for gid in (start..end).rev() {
                    call(gid);
                }
            }
            Schedule::Interleaved => {
                let mut gid = start;
                while gid < end {
                    call(gid);
                    gid += 2;
                }
                let mut gid = start + 1;
                while gid < end {
                    call(gid);
                    gid += 2;
                }
            }
        }
    }
}

/// Chunk size for dynamic self-scheduling: small enough to balance load,
/// large enough to amortise the cursor atomic.
fn grain_size(n: u32, threads: usize) -> u32 {
    let target_chunks = (threads as u32) * 8;
    (n / target_chunks).clamp(1, 8192)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AtomicBuf;

    #[test]
    fn single_worker_runs_inline() {
        let dev = Device::single();
        assert_eq!(dev.num_threads(), 1);
        let buf = AtomicBuf::zeroed(100);
        dev.launch(100, |gid| buf.store(gid as usize, gid + 1));
        assert_eq!(buf.load(99), 100);
        assert_eq!(buf.load(0), 1);
    }

    #[test]
    fn multi_worker_covers_every_gid_exactly_once() {
        let dev = Device::new(4);
        let buf = AtomicBuf::zeroed(100_000);
        dev.launch(100_000, |gid| {
            buf.fetch_add(gid as usize, 1);
        });
        assert!(
            buf.to_vec().iter().all(|&v| v == 1),
            "each gid ran exactly once"
        );
    }

    #[test]
    fn reverse_and_interleaved_schedules_cover_every_gid() {
        for sched in Schedule::ALL {
            for workers in [1, 4] {
                let dev = Device::new(workers).with_schedule(sched);
                assert_eq!(dev.schedule(), sched);
                let buf = AtomicBuf::zeroed(10_000);
                dev.launch(10_000, |gid| {
                    buf.fetch_add(gid as usize, 1);
                });
                assert!(
                    buf.to_vec().iter().all(|&v| v == 1),
                    "schedule {sched:?} with {workers} workers must visit every gid once"
                );
            }
        }
    }

    #[test]
    fn reverse_schedule_flips_sequential_order() {
        // At one worker, Reverse visits gids descending: a last-writer-wins
        // cell ends up holding the *first* gid instead of the last.
        let fwd = Device::single();
        let rev = Device::single().with_schedule(Schedule::Reverse);
        let a = AtomicBuf::zeroed(1);
        fwd.launch(100, |gid| a.store(0, gid));
        assert_eq!(a.load(0), 99);
        let b = AtomicBuf::zeroed(1);
        rev.launch(100, |gid| b.store(0, gid));
        assert_eq!(b.load(0), 0);
    }

    #[test]
    fn kernels_may_borrow_host_data() {
        let dev = Device::new(2);
        let input: Vec<u32> = (0..10_000).collect();
        let out = AtomicBuf::zeroed(10_000);
        dev.launch(10_000, |gid| {
            out.store(gid as usize, input[gid as usize] * 2);
        });
        assert_eq!(out.load(7_777), 15_554);
    }

    #[test]
    fn sequential_launches_see_prior_results() {
        // The end-of-launch barrier provides the happens-before edge.
        let dev = Device::new(3);
        let buf = AtomicBuf::zeroed(1000);
        dev.launch(1000, |gid| buf.store(gid as usize, 2));
        let sum = AtomicBuf::zeroed(1);
        dev.launch(1000, |gid| {
            sum.fetch_add(0, buf.load(gid as usize));
        });
        assert_eq!(sum.load(0), 2000);
    }

    #[test]
    fn zero_sized_launch_is_a_noop() {
        let dev = Device::new(2);
        dev.launch(0, |_| panic!("kernel must not run"));
    }

    #[test]
    fn atomic_add_counts_all_threads() {
        let dev = Device::new(4);
        let counter = AtomicBuf::zeroed(1);
        dev.launch(54_321, |_| {
            counter.fetch_add(0, 1);
        });
        assert_eq!(counter.load(0), 54_321);
    }

    #[test]
    fn many_launches_are_cheap_enough() {
        let dev = Device::new(2);
        let counter = AtomicBuf::zeroed(1);
        for _ in 0..200 {
            dev.launch(10, |_| {
                counter.fetch_add(0, 1);
            });
        }
        assert_eq!(counter.load(0), 2000);
    }

    #[test]
    fn grain_size_bounds() {
        assert_eq!(grain_size(1, 8), 1);
        assert!(grain_size(1_000_000, 8) <= 8192);
        assert!(grain_size(100, 4) >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = Device::new(0);
    }

    #[test]
    fn host_parallel_has_at_least_one_thread() {
        let dev = Device::host_parallel();
        assert!(dev.num_threads() >= 1);
    }

    #[test]
    fn debug_shows_thread_count() {
        let dev = Device::new(2);
        assert!(format!("{dev:?}").contains("num_threads: 2"));
    }

    #[test]
    fn plain_device_buffers_are_uninstrumented() {
        let dev = Device::new(2);
        assert!(dev.sanitizer_report().is_none());
        let buf = dev.buf_zeroed("scratch", 8);
        assert!(buf.name().is_none(), "no shadow without a sanitizer");
    }

    #[test]
    fn sanitized_device_names_buffers() {
        let dev = Device::sanitized(2);
        assert_eq!(dev.buf_zeroed("a", 4).name(), Some("a"));
        assert_eq!(dev.buf_from_slice("c", &[1]).name(), Some("c"));
        assert_eq!(dev.buf_uninit("d", 4).name(), Some("d"));
        assert!(dev.sanitizer_report().unwrap().is_clean());
    }
}
