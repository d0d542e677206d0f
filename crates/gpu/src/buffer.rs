//! Device global memory: shared atomic buffers.
//!
//! CUDA device atomics (`atomicAdd`, `atomicSub`, `atomicMax`) are relaxed
//! read-modify-write operations on global memory; [`AtomicBuf`] mirrors them
//! with `Relaxed`-ordered `fetch_*` calls on an `Arc<[AtomicU32]>`. Cloning
//! a buffer is cheap and aliases the same memory, which is how kernels
//! capture "device pointers".
//!
//! # Why `Relaxed` everywhere (ThreadSanitizer note)
//!
//! The all-`Relaxed` ordering is deliberate, not an oversight: these buffers
//! *model device global memory*, whose intra-kernel semantics are exactly
//! "atomic RMWs are well-defined but unordered, plain accesses to shared
//! words are races". Using stronger orderings would silently serialise
//! access patterns that on a GPU are genuinely unordered, hiding the very
//! order-sensitivity G-PASTA's Algorithm 2 exists to eliminate. The
//! inter-kernel happens-before edge comes from the bulk-synchronous barrier
//! at the end of every [`Device::launch`](crate::Device::launch) (a
//! `thread::scope` join), exactly like CUDA's implicit end-of-kernel
//! synchronisation. Tools like ThreadSanitizer may flag the *plain*
//! `load`/`store` methods when a kernel misuses them concurrently — that is
//! a bug in the kernel under test, the same bug `compute-sanitizer
//! --tool racecheck` would report on real hardware, and the in-tree
//! [sanitizer](crate::SanitizerReport) reports it portably.

use gpasta_check::sync::{AtomicU32, Ordering};
use std::fmt;
use std::sync::Arc;

use crate::sanitizer::Shadow;

/// A shared, atomically-accessed `u32` buffer — simulated device global
/// memory.
///
/// All operations use relaxed ordering; the bulk-synchronous barrier at the
/// end of every [`Device::launch`](crate::Device::launch) provides the
/// inter-kernel happens-before edge, exactly like CUDA's implicit
/// end-of-kernel synchronisation.
///
/// Buffers allocated through a sanitized device's named helpers
/// ([`Device::buf_zeroed`](crate::Device::buf_zeroed) and friends) carry
/// shadow memory and report races, uninitialised reads and bounds errors;
/// buffers from the plain constructors below are uninstrumented and pay
/// only a null `Option` check per access.
#[derive(Clone)]
pub struct AtomicBuf {
    data: Arc<[AtomicU32]>,
    shadow: Option<Arc<Shadow>>,
}

impl AtomicBuf {
    /// Allocate `len` zero-initialised elements.
    pub fn zeroed(len: usize) -> Self {
        AtomicBuf {
            data: (0..len).map(|_| AtomicU32::new(0)).collect(),
            shadow: None,
        }
    }

    /// Copy a host slice into a fresh device buffer (`cudaMemcpy` H2D).
    pub fn from_slice(host: &[u32]) -> Self {
        AtomicBuf {
            data: host.iter().map(|&v| AtomicU32::new(v)).collect(),
            shadow: None,
        }
    }

    /// Attach sanitizer shadow memory (done by the `Device::buf_*` helpers).
    pub(crate) fn set_shadow(&mut self, shadow: Arc<Shadow>) {
        self.shadow = Some(shadow);
    }

    /// The buffer's sanitizer name, if it was allocated through a sanitized
    /// device.
    pub fn name(&self) -> Option<&str> {
        self.shadow.as_deref().map(Shadow::name)
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Relaxed load of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds (with a named diagnostic on
    /// sanitized buffers).
    #[inline]
    pub fn load(&self, i: usize) -> u32 {
        if let Some(sh) = &self.shadow {
            sh.on_load(i);
        }
        self.data[i].load(Ordering::Relaxed)
    }

    /// Relaxed store to element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds (with a named diagnostic on
    /// sanitized buffers).
    #[inline]
    pub fn store(&self, i: usize, v: u32) {
        if let Some(sh) = &self.shadow {
            sh.on_store(i);
        }
        self.data[i].store(v, Ordering::Relaxed);
    }

    /// `atomicAdd(&buf[i], v)` — returns the previous value.
    #[inline]
    pub fn fetch_add(&self, i: usize, v: u32) -> u32 {
        if let Some(sh) = &self.shadow {
            sh.on_rmw(i);
        }
        self.data[i].fetch_add(v, Ordering::Relaxed)
    }

    /// `atomicSub(&buf[i], v)` — returns the previous value.
    #[inline]
    pub fn fetch_sub(&self, i: usize, v: u32) -> u32 {
        if let Some(sh) = &self.shadow {
            sh.on_rmw(i);
        }
        self.data[i].fetch_sub(v, Ordering::Relaxed)
    }

    /// `atomicMax(&buf[i], v)` — returns the previous value.
    #[inline]
    pub fn fetch_max(&self, i: usize, v: u32) -> u32 {
        if let Some(sh) = &self.shadow {
            sh.on_rmw(i);
        }
        self.data[i].fetch_max(v, Ordering::Relaxed)
    }

    /// Copy the buffer back to the host (`cudaMemcpy` D2H). Host readback
    /// is not race-checked: it happens after the end-of-launch barrier.
    pub fn to_vec(&self) -> Vec<u32> {
        self.data
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }
}

impl fmt::Debug for AtomicBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<u32> = self
            .data
            .iter()
            .take(8)
            .map(|a| a.load(Ordering::Relaxed))
            .collect();
        let mut d = f.debug_struct("AtomicBuf");
        if let Some(name) = self.name() {
            d.field("name", &name);
        }
        d.field("len", &self.len()).field("head", &preview).finish()
    }
}

impl From<Vec<u32>> for AtomicBuf {
    fn from(v: Vec<u32>) -> Self {
        AtomicBuf::from_slice(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_reads_zero() {
        let b = AtomicBuf::zeroed(4);
        assert_eq!(b.to_vec(), vec![0; 4]);
    }

    #[test]
    fn from_slice_round_trips() {
        let b = AtomicBuf::from_slice(&[1, 2, 3]);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert!(AtomicBuf::zeroed(0).is_empty());
    }

    #[test]
    fn clones_alias_the_same_memory() {
        let a = AtomicBuf::zeroed(1);
        let b = a.clone();
        b.store(0, 99);
        assert_eq!(a.load(0), 99);
    }

    #[test]
    fn atomics_behave_like_cuda() {
        let b = AtomicBuf::from_slice(&[10]);
        assert_eq!(b.fetch_add(0, 5), 10);
        assert_eq!(b.load(0), 15);
        assert_eq!(b.fetch_sub(0, 3), 15);
        assert_eq!(b.load(0), 12);
        assert_eq!(b.fetch_max(0, 8), 12);
        assert_eq!(b.load(0), 12, "max with smaller value is a no-op");
        assert_eq!(b.fetch_max(0, 20), 12);
        assert_eq!(b.load(0), 20);
    }

    #[test]
    fn zero_length_buffer_edge_cases() {
        let b = AtomicBuf::zeroed(0);
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
        assert_eq!(b.to_vec(), Vec::<u32>::new());
        assert!(b.name().is_none());
    }

    #[test]
    fn debug_is_nonempty() {
        let b = AtomicBuf::from_slice(&[1, 2]);
        let s = format!("{b:?}");
        assert!(s.contains("len"));
    }

    #[test]
    fn from_vec_conversion() {
        let b: AtomicBuf = vec![9, 9].into();
        assert_eq!(b.to_vec(), vec![9, 9]);
    }
}
