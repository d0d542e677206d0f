//! The mirror driver is only worth its spans if it does what the `Session`
//! does: the same bits after every one of 50 seeded edits, and the same
//! whole timing state at the end.

use gpasta::circuits::PaperCircuit;
use gpasta::sched::RunBudget;
use perf_ledger::edits::{EditStream, StreamKind};
use perf_ledger::inproc::{setup_round, Spec};
use perf_ledger::mirror::Mirror;
use perf_ledger::trace::Tracer;

#[test]
fn mirror_bits_equal_session_bits_on_fifty_seeded_edits() {
    let spec = Spec {
        circuit: PaperCircuit::AesCore,
        scale: 0.02,
        stream: StreamKind::Eco,
        edits_per_op: 1,
        warmup: 0,
    };
    let mut tr = Tracer::default();
    let (mut session, _) = setup_round(&spec, 2, &mut tr);
    let mut mirror = Mirror::create(&session.sources().verilog.clone(), 2, &mut tr);
    let stream = EditStream::new(StreamKind::Eco, 0xF1DE, mirror.timer());
    let mut nonempty = 0;
    for (i, edit) in stream.take(50).enumerate() {
        session
            .apply_edit(&edit.to_session(mirror.timer()))
            .expect("generated edits are valid");
        let outcome = session
            .update_timing(&RunBudget::unbounded())
            .expect("update");
        edit.apply_to_timer(mirror.timer_mut());
        let counts = mirror.update(&mut tr, i % 7 == 0);
        assert_eq!(counts.tasks, outcome.tasks, "edit {i}: same update TDG");
        assert_eq!(counts.moved, outcome.repair_moved, "edit {i}");
        assert_eq!(counts.fresh, outcome.repair_fresh, "edit {i}");
        nonempty += usize::from(counts.tasks > 0);
        let (want, got) = (session.report(1), mirror.timer().report(1));
        assert_eq!(got.wns_ps.to_bits(), want.wns_ps.to_bits(), "edit {i}: WNS");
        assert_eq!(got.tns_ps.to_bits(), want.tns_ps.to_bits(), "edit {i}: TNS");
    }
    assert!(
        nonempty > 40,
        "the stream dirties the design ({nonempty}/50)"
    );
    assert_eq!(mirror.timer().snapshot(), session.timer().snapshot());
}
