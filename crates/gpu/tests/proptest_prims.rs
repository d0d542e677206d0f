//! Property-based tests of the device primitives against reference
//! implementations, across worker counts. Determinism for any worker
//! count is the contract Algorithm 2 depends on.

use gpasta_gpu::{prims, AtomicBuf, Device};
use proptest::prelude::*;

fn devices() -> Vec<Device> {
    vec![Device::single(), Device::new(2), Device::new(5)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sort_matches_std(mut input in proptest::collection::vec(any::<u64>(), 0..6000)) {
        let mut expect = input.clone();
        expect.sort_unstable();
        for dev in devices() {
            let mut got = input.clone();
            prims::sort_u64(&dev, &mut got);
            prop_assert_eq!(&got, &expect, "workers = {}", dev.num_threads());
        }
        input.clear();
    }

    #[test]
    fn scans_match_reference(input in proptest::collection::vec(0u32..1000, 0..6000)) {
        let mut exc = Vec::with_capacity(input.len());
        let mut inc = Vec::with_capacity(input.len());
        let mut acc = 0u32;
        for &x in &input {
            exc.push(acc);
            acc = acc.wrapping_add(x);
            inc.push(acc);
        }
        for dev in devices() {
            prop_assert_eq!(prims::exclusive_scan(&dev, &input), exc.clone());
            prop_assert_eq!(prims::inclusive_scan(&dev, &input), inc.clone());
        }
    }

    #[test]
    fn scan_handles_wrapping(input in proptest::collection::vec(u32::MAX - 5..=u32::MAX, 0..5000)) {
        // Prefix sums overflow quickly at these magnitudes; all devices
        // must wrap identically.
        let single = prims::inclusive_scan(&Device::single(), &input);
        for dev in devices() {
            prop_assert_eq!(prims::inclusive_scan(&dev, &input), single.clone());
        }
    }

    #[test]
    fn reduce_by_key_matches_reference(runs in proptest::collection::vec((0u32..50, 1usize..9, 0u32..100), 0..300)) {
        // Build grouped keys from run-length descriptions; dedupe adjacent
        // equal keys into one run (the reference merges them too).
        let mut keys = Vec::new();
        let mut vals = Vec::new();
        for &(key, len, val) in &runs {
            for i in 0..len {
                keys.push(key);
                vals.push(val + i as u32);
            }
        }
        // Reference.
        let mut ref_keys: Vec<u32> = Vec::new();
        let mut ref_sums: Vec<u32> = Vec::new();
        for (k, v) in keys.iter().zip(&vals) {
            if ref_keys.last() == Some(k) {
                let s = ref_sums.last_mut().expect("non-empty");
                *s = s.wrapping_add(*v);
            } else {
                ref_keys.push(*k);
                ref_sums.push(*v);
            }
        }
        for dev in devices() {
            let (k, s) = prims::reduce_by_key(&dev, &keys, &vals);
            prop_assert_eq!(&k, &ref_keys);
            prop_assert_eq!(&s, &ref_sums);
        }
    }

    #[test]
    fn segment_of_matches_linear_search(mut starts in proptest::collection::vec(0u32..10_000, 1..50), x in 0u32..20_000) {
        starts.sort_unstable();
        starts.dedup();
        if starts[0] != 0 {
            starts.insert(0, 0);
        }
        let expect = starts
            .iter()
            .rposition(|&s| s <= x)
            .expect("starts[0] == 0 covers every x");
        prop_assert_eq!(prims::try_segment_of(&starts, x), Some(expect));
    }

    #[test]
    fn launch_touches_every_index_once(n in 0u32..20_000, workers in 1usize..9) {
        // Covers both launch paths for every worker count 1..=8: small n
        // takes the inline fast path, large n the self-scheduling path.
        let dev = Device::new(workers);
        let buf = AtomicBuf::zeroed(n as usize);
        dev.launch(n, |gid| {
            buf.fetch_add(gid as usize, 1);
        });
        prop_assert!(buf.to_vec().iter().all(|&v| v == 1));
    }

    #[test]
    fn launch_touches_every_index_once_under_any_schedule(
        n in 0u32..20_000,
        workers in 1usize..9,
        sched_ix in 0usize..3,
    ) {
        let dev = Device::new(workers).with_schedule(gpasta_gpu::Schedule::ALL[sched_ix]);
        let buf = AtomicBuf::zeroed(n as usize);
        dev.launch(n, |gid| {
            buf.fetch_add(gid as usize, 1);
        });
        prop_assert!(buf.to_vec().iter().all(|&v| v == 1));
    }

    #[test]
    fn atomic_sum_is_exact(n in 0u32..30_000, workers in 1usize..6) {
        let dev = Device::new(workers);
        let acc = AtomicBuf::zeroed(1);
        dev.launch(n, |gid| {
            acc.fetch_add(0, gid % 7);
        });
        let expect: u32 = (0..n).map(|g| g % 7).sum();
        prop_assert_eq!(acc.load(0), expect);
    }
}
