//! Acceptance tests for the device sanitizer: racecheck, initcheck,
//! boundscheck and the determinism audit, including the inline-launch fast
//! path (which must be just as instrumented as the threaded path).

use gpasta_gpu::{audit_determinism, Device, Schedule, Verdict, ViolationKind};

/// The deliberately racy kernel from the acceptance criteria: every gid
/// plain-stores to the same word.
#[test]
fn racecheck_flags_plain_stores_to_one_word() {
    let dev = Device::sanitized(2);
    let victim = dev.buf_zeroed("victim", 1);
    dev.launch(128, |gid| victim.store(0, gid)); // n >= 64: threaded path
    let rep = dev.sanitizer_report().unwrap();
    assert!(rep.race_count() > 0, "racy kernel must be flagged: {rep}");
    let race = rep.races().next().unwrap();
    assert_eq!(race.kind, ViolationKind::StoreStoreRace);
    assert_eq!(race.buffer, "victim");
    assert_eq!(race.index, 0);
    assert_ne!(
        race.gids.0, race.gids.1,
        "a race involves two distinct gids"
    );
}

/// Satellite: the INLINE_THRESHOLD fast path must still produce access
/// records — a racy kernel too small for the threaded path is still caught.
#[test]
fn racecheck_flags_races_on_the_inline_fast_path() {
    let dev = Device::sanitized(4);
    let victim = dev.buf_zeroed("victim", 1);
    dev.launch(8, |gid| victim.store(0, gid)); // n < 64: inline path
    let rep = dev.sanitizer_report().unwrap();
    assert_eq!(rep.launches, 1);
    assert!(
        rep.race_count() > 0,
        "inline launches must be instrumented too: {rep}"
    );
}

#[test]
fn racecheck_flags_store_load_pairs() {
    let dev = Device::sanitized(1);
    let buf = dev.buf_zeroed("shared", 1);
    dev.launch(4, |gid| {
        if gid == 0 {
            buf.store(0, 7);
        } else {
            let _ = buf.load(0);
        }
    });
    let rep = dev.sanitizer_report().unwrap();
    assert!(
        rep.violations
            .iter()
            .any(|v| v.kind == ViolationKind::StoreLoadRace),
        "store/load pair from different gids must be flagged: {rep}"
    );
}

#[test]
fn racecheck_flags_atomic_vs_plain_but_not_atomic_vs_atomic() {
    // All-atomic access to one word is well-defined (Algorithm 1's whole
    // premise) — clean.
    let dev = Device::sanitized(2);
    let ctr = dev.buf_zeroed("counter", 1);
    dev.launch(128, |_| {
        ctr.fetch_add(0, 1);
    });
    assert!(dev.sanitizer_report().unwrap().is_clean());

    // Mixing a plain load into the same word is a race.
    let dev = Device::sanitized(2);
    let ctr = dev.buf_zeroed("counter", 1);
    dev.launch(128, |gid| {
        if gid == 0 {
            let _ = ctr.load(0);
        } else {
            ctr.fetch_add(0, 1);
        }
    });
    let rep = dev.sanitizer_report().unwrap();
    assert!(
        rep.violations
            .iter()
            .any(|v| v.kind == ViolationKind::AtomicPlainRace),
        "atomic/plain mix must be flagged: {rep}"
    );
}

#[test]
fn distinct_indices_per_gid_are_clean() {
    let dev = Device::sanitized(4);
    let out = dev.buf_uninit("out", 1000);
    dev.launch(1000, |gid| out.store(gid as usize, gid * 2));
    let sum = dev.buf_zeroed("sum", 1);
    dev.launch(1000, |gid| {
        sum.fetch_add(0, out.load(gid as usize));
    });
    let rep = dev.sanitizer_report().unwrap();
    assert!(
        rep.is_clean(),
        "disjoint writes then next-launch reads are race-free: {rep}"
    );
    assert_eq!(rep.launches, 2);
}

#[test]
fn initcheck_flags_reads_of_never_written_words() {
    let dev = Device::sanitized(1);
    let buf = dev.buf_uninit("maybe", 8);
    dev.launch(8, |gid| {
        if gid < 4 {
            buf.store(gid as usize, 1);
        }
    });
    // Next launch reads everything: the upper half was never written.
    let sink = dev.buf_zeroed("sink", 1);
    dev.launch(8, |gid| {
        sink.fetch_add(0, buf.load(gid as usize));
    });
    let rep = dev.sanitizer_report().unwrap();
    let uninit: Vec<_> = rep
        .violations
        .iter()
        .filter(|v| v.kind == ViolationKind::UninitRead)
        .collect();
    assert_eq!(uninit.len(), 4, "exactly the 4 unwritten words: {rep}");
    assert!(uninit.iter().all(|v| v.buffer == "maybe" && v.index >= 4));
}

#[test]
fn initcheck_trusts_zeroed_and_host_initialised_buffers() {
    let dev = Device::sanitized(1);
    let zeroed = dev.buf_zeroed("zeroed", 4);
    let seeded = dev.buf_from_slice("seeded", &[1, 2, 3, 4]);
    let sink = dev.buf_zeroed("sink", 1);
    dev.launch(4, |gid| {
        let i = gid as usize;
        sink.fetch_add(0, zeroed.load(i) + seeded.load(i));
    });
    assert!(dev.sanitizer_report().unwrap().is_clean());
}

/// An overflowing plain store inside a launch is recorded before the named
/// panic unwinds out of `launch`.
#[test]
fn boundscheck_records_an_overflowing_store_in_a_launch() {
    let dev = Device::sanitized(1);
    let buf = dev.buf_zeroed("small", 3);
    let launched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dev.launch(8, |gid| buf.store(gid as usize, 1));
    }));
    assert!(launched.is_err(), "an overflowing store must panic");
    let rep = dev.sanitizer_report().unwrap();
    assert_eq!(
        rep.bounds_count(),
        1,
        "the first overflow is recorded: {rep}"
    );
    let v = &rep.violations[0];
    assert_eq!(v.kind, ViolationKind::OutOfBounds);
    assert_eq!((v.buffer.as_str(), v.index), ("small", 3));
}

#[test]
#[should_panic(expected = "out-of-bounds store on `small`")]
fn boundscheck_unchecked_panic_names_the_buffer() {
    let dev = Device::sanitized(1);
    let buf = dev.buf_zeroed("small", 3);
    buf.store(7, 1);
}

/// The host thread runs inline launches itself; afterwards host-side
/// accesses must not masquerade as the last gid of the launch (which would
/// produce false races against other gids of that epoch).
#[test]
fn inline_launch_resets_host_context() {
    let dev = Device::sanitized(1);
    let buf = dev.buf_zeroed("grid", 8);
    dev.launch(8, |gid| buf.store(gid as usize, gid)); // inline: n < 64
    buf.store(0, 99); // host write to a word gid 0 stored to
    buf.store(1, 99);
    let rep = dev.sanitizer_report().unwrap();
    assert!(
        rep.is_clean(),
        "host access after an inline launch was misattributed: {rep}"
    );
}

/// GPasta's pid-allocation launch in miniature (Algorithm 1 step 1): tasks
/// race with `atomicAdd` for slots in their desired partition; losers open
/// fresh partitions. Race-free, but the winner depends on atomic order.
fn pid_allocation(dev: &Device) -> Vec<u32> {
    let ps = 2; // partition capacity
    let pid_cnt = dev.buf_zeroed("pid_cnt", 8);
    let max_pid = dev.buf_zeroed("max_pid", 1);
    let f_pid = dev.buf_uninit("f_pid", 8);
    dev.launch(8, |gid| {
        let desired = 0usize; // every task wants partition 0
        let pid = if pid_cnt.fetch_add(desired, 1) < ps {
            desired as u32
        } else {
            max_pid.fetch_add(0, 1) + 1
        };
        f_pid.store(gid as usize, pid);
    });
    f_pid.to_vec()
}

/// Acceptance: the audit classifies the atomicAdd allocation as
/// order-sensitive (not racy, not deterministic) across workers {1, 2, 4}.
#[test]
fn audit_classifies_pid_allocation_as_order_sensitive() {
    let outcome = audit_determinism(&[1, 2, 4], 2, pid_allocation);
    assert_eq!(outcome.verdict, Verdict::AtomicOrderSensitive, "{outcome}");
    assert_eq!(
        outcome.report.race_count(),
        0,
        "atomic allocation has no data race"
    );
    assert!(outcome.distinct_outputs > 1);
    assert_eq!(outcome.runs, 3 * Schedule::ALL.len() * 2);
}

/// Acceptance: a schedule-independent kernel (the shape of Algorithm 2's
/// sorted, rank-based assignment) audits as Deterministic.
#[test]
fn audit_classifies_rank_based_assignment_as_deterministic() {
    let outcome = audit_determinism(&[1, 2, 4], 2, |dev| {
        let f_pid = dev.buf_uninit("f_pid", 8);
        dev.launch(8, |gid| {
            // Partition by precomputed rank — no atomics, no order
            // dependence; this is what sort + scan + binary-search buy.
            f_pid.store(gid as usize, gid / 2);
        });
        f_pid.to_vec()
    });
    assert_eq!(outcome.verdict, Verdict::Deterministic, "{outcome}");
    assert_eq!(outcome.distinct_outputs, 1);
    assert!(outcome.report.is_clean());
}

#[test]
fn audit_classifies_plain_store_conflicts_as_racy() {
    let outcome = audit_determinism(&[1, 2], 1, |dev| {
        let cell = dev.buf_zeroed("cell", 1);
        dev.launch(8, |gid| cell.store(0, gid));
        cell.to_vec()
    });
    assert_eq!(outcome.verdict, Verdict::Racy, "{outcome}");
    assert!(outcome.report.race_count() > 0);
}

#[test]
fn reverse_schedule_flips_atomic_allocation_order() {
    // Direct demonstration of why the audit perturbs the schedule: at one
    // worker, Forward gives the low gids the partition-0 slots, Reverse
    // gives them to the high gids.
    let fwd = pid_allocation(&Device::sanitized(1));
    let rev = pid_allocation(&Device::sanitized(1).with_schedule(Schedule::Reverse));
    assert_ne!(fwd, rev);
    assert_eq!(fwd[0], 0, "forward: gid 0 claims a partition-0 slot");
    assert_eq!(rev[7], 0, "reverse: gid 7 claims a partition-0 slot");
}
