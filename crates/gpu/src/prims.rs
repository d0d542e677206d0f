//! Thrust-style deterministic parallel primitives.
//!
//! Algorithm 2 of the paper replaces racy atomics with a pipeline of
//! `parallel_sort_by_key`, `parallel_reduce_by_key`,
//! `parallel_exclusive_scan`, `parallel_inclusive_scan` and `binarySearch`.
//! These primitives are *deterministic*: their output depends only on their
//! input, never on thread interleaving — the property that makes
//! deter-G-PASTA reproducible. Every function here honours that contract
//! for any [`Device`] worker count (sums use wrapping `u32` addition, which
//! is commutative and associative, so even atomic accumulation is
//! order-insensitive).

use crate::Device;

/// Deterministic parallel sort of 64-bit keys (ascending).
///
/// Mirrors `thrust::sort` on the key array of Algorithm 2 line 5. The
/// implementation chunk-sorts in parallel across the device workers and
/// k-way-merges the runs; the result equals `keys.sort_unstable()` for any
/// worker count.
///
/// # Example
///
/// ```
/// use gpasta_gpu::{prims, Device};
///
/// let dev = Device::new(2);
/// let mut keys = vec![5u64, 1, 4, 1, 3];
/// prims::sort_u64(&dev, &mut keys);
/// assert_eq!(keys, vec![1, 1, 3, 4, 5]);
/// ```
pub fn sort_u64(dev: &Device, keys: &mut Vec<u64>) {
    let n = keys.len();
    let threads = dev.num_threads().min(n.max(1));
    if threads <= 1 || n < 4096 {
        keys.sort_unstable();
        return;
    }

    // Parallel chunk sort.
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        for part in keys.chunks_mut(chunk) {
            s.spawn(|| part.sort_unstable());
        }
    });

    // K-way merge of the sorted runs (sequential, deterministic).
    let runs: Vec<&[u64]> = keys.chunks(chunk).collect();
    let mut cursors = vec![0usize; runs.len()];
    let mut out = Vec::with_capacity(n);
    loop {
        let mut best: Option<(u64, usize)> = None;
        for (r, run) in runs.iter().enumerate() {
            if cursors[r] < run.len() {
                let v = run[cursors[r]];
                if best.is_none_or(|(bv, _)| v < bv) {
                    best = Some((v, r));
                }
            }
        }
        match best {
            Some((v, r)) => {
                out.push(v);
                cursors[r] += 1;
            }
            None => break,
        }
    }
    drop(runs);
    *keys = out;
}

/// Exclusive prefix sum: `out[i] = xs[0] + … + xs[i-1]`, `out[0] = 0`.
///
/// Mirrors `thrust::exclusive_scan` (Algorithm 2 line 10). Uses the classic
/// three-phase blocked scan: parallel per-chunk sums, sequential scan of
/// chunk totals, parallel offset add.
///
/// # Example
///
/// ```
/// use gpasta_gpu::{prims, Device};
///
/// let dev = Device::single();
/// assert_eq!(prims::exclusive_scan(&dev, &[3, 1, 4]), vec![0, 3, 4]);
/// ```
pub fn exclusive_scan(dev: &Device, xs: &[u32]) -> Vec<u32> {
    scan(dev, xs, false)
}

/// Inclusive prefix sum: `out[i] = xs[0] + … + xs[i]`.
///
/// Mirrors `thrust::inclusive_scan` (Algorithm 2 line 20).
///
/// # Example
///
/// ```
/// use gpasta_gpu::{prims, Device};
///
/// let dev = Device::single();
/// assert_eq!(prims::inclusive_scan(&dev, &[3, 1, 4]), vec![3, 4, 8]);
/// ```
pub fn inclusive_scan(dev: &Device, xs: &[u32]) -> Vec<u32> {
    scan(dev, xs, true)
}

fn scan(dev: &Device, xs: &[u32], inclusive: bool) -> Vec<u32> {
    let n = xs.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = dev.num_threads().min(n);
    if threads <= 1 || n < 4096 {
        let mut out = Vec::with_capacity(n);
        let mut acc = 0u32;
        for &x in xs {
            if inclusive {
                acc = acc.wrapping_add(x);
                out.push(acc);
            } else {
                out.push(acc);
                acc = acc.wrapping_add(x);
            }
        }
        return out;
    }

    let chunk = n.div_ceil(threads);
    // Phase 1: per-chunk local scans, in parallel.
    let mut out = vec![0u32; n];
    let mut sums = vec![0u32; xs.chunks(chunk).len()];
    std::thread::scope(|s| {
        for ((src, dst), sum) in xs
            .chunks(chunk)
            .zip(out.chunks_mut(chunk))
            .zip(sums.iter_mut())
        {
            s.spawn(move || {
                let mut acc = 0u32;
                for (d, &x) in dst.iter_mut().zip(src) {
                    if inclusive {
                        acc = acc.wrapping_add(x);
                        *d = acc;
                    } else {
                        *d = acc;
                        acc = acc.wrapping_add(x);
                    }
                }
                // For both scan flavours the chunk total is the full sum.
                *sum = acc;
            });
        }
    });
    // Phase 2: sequential scan of chunk totals.
    let mut offsets = Vec::with_capacity(sums.len());
    let mut acc = 0u32;
    for &s in &sums {
        offsets.push(acc);
        acc = acc.wrapping_add(s);
    }
    // Phase 3: add offsets, in parallel.
    std::thread::scope(|s| {
        for (dst, &off) in out.chunks_mut(chunk).zip(&offsets) {
            s.spawn(move || {
                for d in dst {
                    *d = d.wrapping_add(off);
                }
            });
        }
    });
    out
}

/// Segmented reduction over *pre-sorted* (grouped) keys: returns the unique
/// keys in order of first appearance and the sum of `vals` within each
/// group.
///
/// Mirrors `thrust::reduce_by_key` (Algorithm 2 line 9, where `vals` is an
/// array of ones and the result is each partition's size).
///
/// # Panics
///
/// Panics if `keys.len() != vals.len()`.
///
/// # Example
///
/// ```
/// use gpasta_gpu::{prims, Device};
///
/// let dev = Device::single();
/// let (keys, sums) = prims::reduce_by_key(&dev, &[7, 7, 9, 9, 9], &[1, 1, 1, 1, 1]);
/// assert_eq!(keys, vec![7, 9]);
/// assert_eq!(sums, vec![2, 3]);
/// ```
pub fn reduce_by_key(dev: &Device, keys: &[u32], vals: &[u32]) -> (Vec<u32>, Vec<u32>) {
    assert_eq!(keys.len(), vals.len(), "keys/vals length mismatch");
    let n = keys.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }

    // Head flags: 1 where a new segment starts.
    let mut flags = vec![0u32; n];
    flags[0] = 1;
    let threads = dev.num_threads().min(n);
    if threads > 1 && n >= 4096 {
        let chunk = n.div_ceil(threads);
        std::thread::scope(|s| {
            for (c, dst) in flags.chunks_mut(chunk).enumerate() {
                let base = c * chunk;
                s.spawn(move || {
                    for (i, f) in dst.iter_mut().enumerate() {
                        let g = base + i;
                        if g > 0 {
                            *f = u32::from(keys[g] != keys[g - 1]);
                        }
                    }
                });
            }
        });
        flags[0] = 1;
    } else {
        for i in 1..n {
            flags[i] = u32::from(keys[i] != keys[i - 1]);
        }
    }

    // Segment index of each element = inclusive_scan(flags) - 1.
    let seg = inclusive_scan(dev, &flags);
    let num_segments = seg[n - 1] as usize;

    let mut out_keys = vec![0u32; num_segments];
    let mut out_sums = vec![0u32; num_segments];
    // Sequential accumulation; wrapping add keeps parity with the atomic
    // variant a real GPU would use.
    for i in 0..n {
        let s = (seg[i] - 1) as usize;
        out_keys[s] = keys[i];
        out_sums[s] = out_sums[s].wrapping_add(vals[i]);
    }
    (out_keys, out_sums)
}

/// Index of the segment (in a sorted array of segment-start offsets) that
/// contains position `x`: the largest `i` with `starts[i] <= x`, or `None`
/// when `starts` is empty or `x` precedes the first segment.
///
/// Mirrors Algorithm 2 line 13: `binarySearch(gid, fir_tid_arr)` locates the
/// partition whose first-task offset covers the thread's position.
///
/// # Example
///
/// ```
/// use gpasta_gpu::prims;
///
/// let starts = [0u32, 4, 9];
/// assert_eq!(prims::try_segment_of(&starts, 0), Some(0));
/// assert_eq!(prims::try_segment_of(&starts, 3), Some(0));
/// assert_eq!(prims::try_segment_of(&starts, 4), Some(1));
/// assert_eq!(prims::try_segment_of(&starts, 100), Some(2));
/// assert_eq!(prims::try_segment_of(&[], 0), None);
/// assert_eq!(prims::try_segment_of(&[5], 4), None);
/// ```
pub fn try_segment_of(starts: &[u32], x: u32) -> Option<usize> {
    if starts.is_empty() || x < starts[0] {
        return None;
    }
    // partition_point returns the first index with start > x.
    Some(starts.partition_point(|&s| s <= x) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn devices() -> Vec<Device> {
        vec![Device::single(), Device::new(2), Device::new(4)]
    }

    #[test]
    fn sort_small_and_empty() {
        let dev = Device::new(2);
        let mut v: Vec<u64> = vec![];
        sort_u64(&dev, &mut v);
        assert!(v.is_empty());
        let mut v = vec![2u64, 1];
        sort_u64(&dev, &mut v);
        assert_eq!(v, vec![1, 2]);
    }

    #[test]
    fn sort_large_matches_std_for_all_worker_counts() {
        // Deterministic pseudo-random input.
        let mut x = 0x9e3779b97f4a7c15u64;
        let input: Vec<u64> = (0..20_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let mut expect = input.clone();
        expect.sort_unstable();
        for dev in devices() {
            let mut got = input.clone();
            sort_u64(&dev, &mut got);
            assert_eq!(got, expect, "worker count {}", dev.num_threads());
        }
    }

    #[test]
    fn scans_match_reference_for_all_worker_counts() {
        let input: Vec<u32> = (0..10_000).map(|i| (i * 7 + 3) % 11).collect();
        let mut exc = Vec::with_capacity(input.len());
        let mut inc = Vec::with_capacity(input.len());
        let mut acc = 0u32;
        for &x in &input {
            exc.push(acc);
            acc += x;
            inc.push(acc);
        }
        for dev in devices() {
            assert_eq!(exclusive_scan(&dev, &input), exc);
            assert_eq!(inclusive_scan(&dev, &input), inc);
        }
    }

    #[test]
    fn scan_empty_and_singleton() {
        let dev = Device::new(2);
        assert!(exclusive_scan(&dev, &[]).is_empty());
        assert_eq!(exclusive_scan(&dev, &[5]), vec![0]);
        assert_eq!(inclusive_scan(&dev, &[5]), vec![5]);
    }

    #[test]
    fn reduce_by_key_basic() {
        let dev = Device::single();
        let (k, s) = reduce_by_key(&dev, &[1, 1, 2, 3, 3, 3], &[10, 1, 5, 2, 2, 2]);
        assert_eq!(k, vec![1, 2, 3]);
        assert_eq!(s, vec![11, 5, 6]);
    }

    #[test]
    fn reduce_by_key_all_same_and_all_distinct() {
        let dev = Device::new(2);
        let (k, s) = reduce_by_key(&dev, &[4; 5], &[1; 5]);
        assert_eq!((k, s), (vec![4], vec![5]));
        let (k, s) = reduce_by_key(&dev, &[1, 2, 3], &[7, 8, 9]);
        assert_eq!((k, s), (vec![1, 2, 3], vec![7, 8, 9]));
    }

    #[test]
    fn reduce_by_key_empty() {
        let dev = Device::single();
        let (k, s) = reduce_by_key(&dev, &[], &[]);
        assert!(k.is_empty() && s.is_empty());
    }

    #[test]
    fn reduce_by_key_large_matches_sequential_for_all_worker_counts() {
        let n = 12_000usize;
        let keys: Vec<u32> = (0..n).map(|i| (i / 7) as u32).collect();
        let vals: Vec<u32> = (0..n).map(|i| (i % 5) as u32).collect();
        let reference = {
            let dev = Device::single();
            reduce_by_key(&dev, &keys, &vals)
        };
        for dev in devices() {
            assert_eq!(reduce_by_key(&dev, &keys, &vals), reference);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn reduce_by_key_length_mismatch_panics() {
        reduce_by_key(&Device::single(), &[1], &[]);
    }

    #[test]
    fn segment_of_edges() {
        let starts = [0u32, 1, 2];
        assert_eq!(try_segment_of(&starts, 0), Some(0));
        assert_eq!(try_segment_of(&starts, 1), Some(1));
        assert_eq!(try_segment_of(&starts, 2), Some(2));
        assert_eq!(try_segment_of(&starts, u32::MAX), Some(2));
    }

    #[test]
    fn try_segment_of_matches_and_reports() {
        let starts = [0u32, 4, 9];
        assert_eq!(try_segment_of(&starts, 3), Some(0));
        assert_eq!(try_segment_of(&starts, 4), Some(1));
        assert_eq!(try_segment_of(&starts, 100), Some(2));
        assert_eq!(try_segment_of(&[], 0), None);
        assert_eq!(
            try_segment_of(&[5], 4),
            None,
            "position precedes the first segment"
        );
    }

    #[test]
    fn sort_key_packing_round_trip() {
        // The Algorithm 2 key layout: pid << 32 | task, sorted by pid then
        // task.
        let dev = Device::single();
        let mut keys: Vec<u64> = vec![(2u64 << 32) | 5, (1u64 << 32) | 9, (1u64 << 32) | 3];
        sort_u64(&dev, &mut keys);
        let pids: Vec<u64> = keys.iter().map(|k| k >> 32).collect();
        let tasks: Vec<u64> = keys.iter().map(|k| k & 0xffff_ffff).collect();
        assert_eq!(pids, vec![1, 1, 2]);
        assert_eq!(tasks, vec![3, 9, 5]);
    }
}
