//! Tour of the simulated GPU device: flat launches, atomics, deterministic
//! primitives, and a frontier-based BFS — the building blocks Algorithm 1
//! and Algorithm 2 are made of.
//!
//! ```text
//! cargo run --release --example gpu_kernels
//! ```

use gpasta::gpu::{prims, AtomicBuf, Device};

fn main() {
    let dev = Device::host_parallel();
    println!("device with {} workers\n", dev.num_threads());

    // 1. Flat grid: saxpy-style elementwise kernel.
    let n = 1 << 20;
    let x = AtomicBuf::from_slice(&(0..n as u32).collect::<Vec<_>>());
    let y = AtomicBuf::zeroed(n);
    {
        let (x, y) = (&x, &y);
        dev.launch(n as u32, move |gid| {
            let i = gid as usize;
            y.store(i, 3 * x.load(i) + 7);
        });
    }
    assert_eq!(y.load(12_345), 3 * 12_345 + 7);

    // 2. Atomic histogram (the contention pattern of pid_cnt in Alg. 1).
    let bins = AtomicBuf::zeroed(16);
    {
        let bins = &bins;
        dev.launch(n as u32, move |gid| {
            bins.fetch_add((gid % 16) as usize, 1);
        });
    }
    assert_eq!(bins.to_vec().iter().sum::<u32>(), n as u32);

    // 3. Deterministic primitives (Algorithm 2's pipeline).
    let mut keys: Vec<u64> = (0..50_000u64)
        .map(|i| (i * 2_654_435_761) % 100_000)
        .collect();
    prims::sort_u64(&dev, &mut keys);
    assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    let ones = vec![1u32; keys.len()];
    let small_keys: Vec<u32> = keys.iter().map(|&k| (k / 1000) as u32).collect();
    let (uniq, counts) = prims::reduce_by_key(&dev, &small_keys, &ones);
    let offsets = prims::exclusive_scan(&dev, &counts);
    println!(
        "sorted {} keys into {} groups; last group starts at offset {}",
        keys.len(),
        uniq.len(),
        offsets.last().copied().unwrap_or(0)
    );

    // 4. Frontier BFS over a synthetic DAG — the skeleton of the
    //    partitioning kernel.
    let tdg = gpasta::circuits::dag::layered(256, 64, 2, 42);
    let dep = AtomicBuf::from_slice(&tdg.in_degrees());
    let handle = AtomicBuf::zeroed(tdg.num_tasks());
    let wsize = AtomicBuf::zeroed(1);
    let sources = tdg.sources();
    for (i, s) in sources.iter().enumerate() {
        handle.store(i, s.0);
    }
    let mut roffset = 0u32;
    let mut rsize = sources.len() as u32;
    let mut waves = 0;
    while rsize > 0 {
        wsize.store(0, 0);
        {
            let (dep, handle, wsize, tdg) = (&dep, &handle, &wsize, &tdg);
            dev.launch(rsize, move |gid| {
                let cur = handle.load((roffset + gid) as usize);
                for &nb in tdg.successors(gpasta::tdg::TaskId(cur)) {
                    if dep.fetch_sub(nb as usize, 1) == 1 {
                        let w = wsize.fetch_add(0, 1);
                        handle.store((roffset + rsize + w) as usize, nb);
                    }
                }
            });
        }
        roffset += rsize;
        rsize = wsize.load(0);
        waves += 1;
    }
    assert_eq!(roffset as usize, tdg.num_tasks(), "BFS reached every task");
    println!(
        "frontier BFS covered {} tasks in {waves} waves",
        tdg.num_tasks()
    );
}
