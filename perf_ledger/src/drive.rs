//! The closed measurement loop every workload shares, and the end-to-end
//! metrics derived from its samples.
//!
//! A workload is a [`Subject`] with two or more *lanes* that are fed the
//! same input op by op: lane 0 is the product path, the last lane is the
//! unpartitioned twin (the oracle and the gain's denominator). Lanes run
//! one after another — one client, closed loop — in an order that reverses
//! on every op (ABBA), so slow drift of the host hits all lanes alike.

use std::ops::Range;
use std::time::Instant;

use crate::host;
use crate::metrics::Ledger;
use crate::stats::{block_ranges, median};

/// Measured blocks a run is cut into; a reported value is the median of the
/// per-block values.
pub const BLOCKS: usize = 5;

pub trait Subject {
    /// Number of lanes; lane 0 is the product path, the last the twin.
    fn lanes(&self) -> usize;
    /// Draw the next op's input (not timed).
    fn next_op(&mut self, op: u32);
    /// Run the current op on `lane` (timed). `Err` fails the op.
    fn run(&mut self, lane: usize) -> Result<(), String>;
    /// Whether all lanes produced bit-identical results for the current op.
    fn agree(&mut self) -> bool;
}

/// Per-lane wall and CPU times (ms) of every measured op, in order; failed
/// ops are left out.
#[derive(Debug, Default)]
pub struct Samples {
    pub wall_ms: Vec<Vec<f64>>,
    pub cpu_ms: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

/// Run `warmup` discarded ops (op ids `0..warmup`), then measure ops for
/// `seconds`. `product_pid` is the process hosting the product path; every
/// other lane runs in this process.
pub fn measure(subject: &mut impl Subject, warmup: u32, seconds: f64, product_pid: u32) -> Samples {
    let lanes = subject.lanes();
    let own_pid = std::process::id();
    let mut samples = Samples {
        wall_ms: vec![Vec::new(); lanes],
        cpu_ms: vec![Vec::new(); lanes],
        ..Samples::default()
    };
    let mut started = Instant::now();
    let mut op = 0u32;
    loop {
        if op == warmup {
            started = Instant::now();
        } else if op > warmup && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        subject.next_op(op);
        let mut wall = vec![0.0; lanes];
        let mut cpu = vec![0.0; lanes];
        let mut error = None;
        for step in 0..lanes {
            let lane = if op.is_multiple_of(2) {
                step
            } else {
                lanes - 1 - step
            };
            let pid = if lane == 0 { product_pid } else { own_pid };
            let cpu_before = host::cpu_ms(pid);
            let t0 = Instant::now();
            let outcome = subject.run(lane);
            wall[lane] = t0.elapsed().as_secs_f64() * 1e3;
            cpu[lane] = host::cpu_ms(pid) - cpu_before;
            if let Err(why) = outcome {
                error.get_or_insert(format!("lane {lane}: {why}"));
            }
        }
        if error.is_none() && !subject.agree() {
            error = Some("result bits differ from the oracle".to_string());
        }
        if op >= warmup {
            samples.attempted += 1;
        }
        match error {
            // A failure in warm-up would go unseen otherwise: count it.
            Some(why) => {
                eprintln!("perf_ledger: op {op} failed: {why}");
                samples.failed += 1;
            }
            None if op >= warmup => {
                for lane in 0..lanes {
                    samples.wall_ms[lane].push(wall[lane]);
                    samples.cpu_ms[lane].push(cpu[lane]);
                }
            }
            None => {}
        }
        op += 1;
    }
    samples
}

/// Fill in the metrics of an untraced run; `setup_s` holds the seconds of
/// each set-up round.
///
/// The gated speed metrics are ratios of adjacent measurements — twin
/// against product, in wall time and in CPU time — taken op by op, because
/// on a shared host the speed of everything drifts by tens of percent
/// between runs while the ratio of two things measured milliseconds apart
/// does not. The absolute times are reported beside them, ungated.
pub fn end_to_end(ledger: &mut Ledger, samples: &Samples, setup_s: &[f64], peak_rss_mib: f64) {
    ledger.attempted = samples.attempted;
    ledger.failed = samples.failed;
    let lanes = samples.wall_ms.len();
    let (product, twin) = (&samples.wall_ms[0], &samples.wall_ms[lanes - 1]);
    let (product_cpu, twin_cpu) = (&samples.cpu_ms[0], &samples.cpu_ms[lanes - 1]);
    let per_block = |value: &dyn Fn(Range<usize>) -> f64| -> Vec<f64> {
        block_ranges(product.len(), BLOCKS)
            .into_iter()
            .filter(|block| !block.is_empty())
            .map(value)
            .collect()
    };
    // Median over the block's ops of `over[i] / under[i]`; an op whose
    // denominator rounds to no time at all has no ratio.
    let paired = |over: &[f64], under: &[f64], block: Range<usize>| {
        let ratios: Vec<f64> = block
            .map(|i| over[i] / under[i])
            .filter(|ratio| ratio.is_finite())
            .collect();
        median(&ratios)
    };
    // The quickest of the set-up rounds, not their median: host noise only
    // ever adds time, and set-up is too long to repeat often enough for a
    // median to shed a burst.
    let quickest = setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    ledger.set("setup_s", &[quickest]);
    ledger.set(
        "gain_vs_unpartitioned",
        &per_block(&|b| paired(twin, product, b)),
    );
    ledger.set(
        "cpu_vs_unpartitioned",
        &per_block(&|b| paired(product_cpu, twin_cpu, b)),
    );
    ledger.set("peak_rss_mb", &[peak_rss_mib]);
    ledger.set("update_ms_p50", &per_block(&|b| median(&product[b])));
    ledger.set(
        "updates_per_s",
        &per_block(&|b| b.len() as f64 / (product[b].iter().sum::<f64>() / 1e3)),
    );
    ledger.set(
        "cpu_ms_per_update",
        &per_block(&|b| product_cpu[b.clone()].iter().sum::<f64>() / b.len() as f64),
    );
}
