//! Sanitizer integration: run a partitioner under the device sanitizer's
//! determinism audit.
//!
//! [`audit_partitioner`] re-runs a device-backed partitioner across worker
//! counts × schedules × repeats on sanitized devices (see
//! [`gpasta_gpu::audit_determinism`]) and classifies it. This is the
//! reproduction of the paper's determinism claim as an executable check:
//! GPasta's `atomicAdd` partition allocation audits as
//! [`Verdict::AtomicOrderSensitive`] while DeterGPasta (Algorithm 2) audits
//! as [`Verdict::Deterministic`]. Host-only partitioners (SeqGPasta, Gdca)
//! can be audited through [`audit_host_partitioner`], which ignores the
//! device and serves as a sanity baseline.

use gpasta_gpu::{audit_determinism, Device};
pub use gpasta_gpu::{AuditOutcome, SanitizerReport, Verdict};
use gpasta_tdg::Tdg;

use crate::{Partitioner, PartitionerOptions};

/// Audit a device-backed partitioner: `make` builds a fresh partitioner
/// around each perturbed sanitized [`Device`]; the audited output is the
/// raw partition assignment.
///
/// # Panics
///
/// Panics if any audited run returns a [`crate::PartitionError`] — the
/// audit perturbs scheduling, not inputs, so a failing run is a bug.
pub fn audit_partitioner<P, F>(
    make: F,
    tdg: &Tdg,
    opts: &PartitionerOptions,
    workers: &[usize],
    repeats: usize,
) -> AuditOutcome
where
    P: Partitioner,
    F: Fn(Device) -> P,
{
    audit_determinism(workers, repeats, |dev| {
        make(dev.clone())
            .partition(tdg, opts)
            .expect("partitioner must succeed under audit")
            .assignment()
            .to_vec()
    })
}

/// Audit a host-only partitioner (no device involvement). Still runs the
/// full perturbation matrix; a correct host partitioner is trivially
/// [`Verdict::Deterministic`], which makes this a useful control.
pub fn audit_host_partitioner<P: Partitioner>(
    p: &P,
    tdg: &Tdg,
    opts: &PartitionerOptions,
    workers: &[usize],
    repeats: usize,
) -> AuditOutcome {
    audit_determinism(workers, repeats, |_dev| {
        p.partition(tdg, opts)
            .expect("partitioner must succeed under audit")
            .assignment()
            .to_vec()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeterGPasta, GPasta, Gdca, SeqGPasta};
    use gpasta_circuits::dag;
    use gpasta_tdg::{TaskId, TdgBuilder};

    /// A two-level fan with contention: one source feeding five children,
    /// Ps = 2. More children want partition 0 than it can hold, so the
    /// atomicAdd winners determine the outcome.
    fn contended_fan() -> Tdg {
        let mut b = TdgBuilder::new(6);
        for child in 1..6 {
            b.add_edge(TaskId(0), TaskId(child));
        }
        b.build().expect("fan DAG")
    }

    /// Acceptance: GPasta's pid allocation is race-free but its output
    /// depends on atomic execution order, across workers {1, 2, 4}.
    #[test]
    fn gpasta_audits_as_atomic_order_sensitive() {
        let opts = PartitionerOptions::with_max_size(2);
        let outcome =
            audit_partitioner(GPasta::with_device, &contended_fan(), &opts, &[1, 2, 4], 2);
        assert_eq!(outcome.verdict, Verdict::AtomicOrderSensitive, "{outcome}");
        assert_eq!(
            outcome.report.race_count(),
            0,
            "Algorithm 1 is order-sensitive, not racy: {}",
            outcome.report
        );
        assert_eq!(
            outcome.report.uninit_count(),
            0,
            "BFS writes every slot before reading"
        );
    }

    /// Acceptance: DeterGPasta produces the same partition under every
    /// perturbation, with a clean sanitizer report, across workers {1, 2, 4}.
    #[test]
    fn deter_gpasta_audits_as_deterministic() {
        let opts = PartitionerOptions::with_max_size(2);
        let outcome = audit_partitioner(
            DeterGPasta::with_device,
            &contended_fan(),
            &opts,
            &[1, 2, 4],
            2,
        );
        assert_eq!(outcome.verdict, Verdict::Deterministic, "{outcome}");
        assert!(outcome.report.is_clean(), "{}", outcome.report);
    }

    #[test]
    fn deter_gpasta_stays_deterministic_on_a_random_dag() {
        let tdg = dag::random_dag(200, 1.8, 7);
        let opts = PartitionerOptions::with_max_size(4);
        let outcome = audit_partitioner(DeterGPasta::with_device, &tdg, &opts, &[1, 4], 1);
        assert_eq!(outcome.verdict, Verdict::Deterministic, "{outcome}");
        assert!(outcome.report.is_clean(), "{}", outcome.report);
    }

    #[test]
    fn gpasta_is_clean_of_races_and_uninit_reads_on_a_random_dag() {
        // Order-sensitivity aside, Algorithm 1 must never trip racecheck or
        // initcheck: all cross-thread writes are atomics, and the wavefront
        // initialises every slot it later reads.
        let tdg = dag::random_dag(200, 1.8, 7);
        let opts = PartitionerOptions::with_max_size(4);
        let outcome = audit_partitioner(GPasta::with_device, &tdg, &opts, &[1, 4], 1);
        assert_eq!(outcome.report.race_count(), 0, "{}", outcome.report);
        assert_eq!(outcome.report.uninit_count(), 0, "{}", outcome.report);
        assert_eq!(outcome.report.bounds_count(), 0, "{}", outcome.report);
    }

    #[test]
    fn host_partitioners_audit_as_deterministic() {
        let tdg = contended_fan();
        let opts = PartitionerOptions::with_max_size(2);
        let seq = audit_host_partitioner(&SeqGPasta::new(), &tdg, &opts, &[1, 2], 1);
        assert_eq!(seq.verdict, Verdict::Deterministic, "{seq}");
        let gdca = audit_host_partitioner(&Gdca::new(), &tdg, &opts, &[1, 2], 1);
        assert_eq!(gdca.verdict, Verdict::Deterministic, "{gdca}");
    }
}
