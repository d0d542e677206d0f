//! Lifecycle tests of [`gpasta::session`] and the serve registry, at
//! the library level: no processes, no sockets, so the whole file is
//! safe to run under ThreadSanitizer (the nightly `tsan-smoke` job
//! does). The two properties under test are the ones `gpasta serve`
//! sells: eviction through a `GPCKPT04` checkpoint is invisible to
//! timing results, and disjoint sessions serve concurrent clients
//! without interference.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

use gpasta::sched::{RunBudget, StopCause};
use gpasta::serve::Registry;
use gpasta::session::{DesignSources, Edit, Session};

const PIPELINE: &str = include_str!("fixtures/pipeline.v");

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpasta-lifecycle-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn sources() -> DesignSources {
    DesignSources::verilog_only(PIPELINE)
}

/// The edit sequence both halves of the differential test apply: a
/// repower on each logic cloud, a net-cap bump (journaled — it lives
/// outside the timing snapshot), and an input-delay change.
fn early_edits() -> Vec<Edit> {
    vec![
        Edit::Repower {
            gate: "u2".to_string(),
            drive: 4.0,
        },
        Edit::SetNetCap {
            net: 3,
            cap_ff: 7.5,
        },
    ]
}

fn late_edits() -> Vec<Edit> {
    vec![
        Edit::Repower {
            gate: "u6".to_string(),
            drive: 0.5,
        },
        Edit::SetInputDelay {
            port: "a".to_string(),
            delay_ps: 120.0,
        },
    ]
}

fn bits(session: &Session) -> (u32, u32) {
    let report = session.report(1);
    (report.wns_ps.to_bits(), report.tns_ps.to_bits())
}

/// create -> edit -> update -> evict-to-checkpoint -> restore -> edit
/// -> update -> query must be bit-identical to the same flow with no
/// eviction in the middle.
#[test]
fn evict_restore_is_invisible_to_timing_results() {
    let dir = tmp_dir("differential");

    // Reference: uninterrupted session.
    let mut reference = Session::create("diff", sources(), 2).expect("create");
    for edit in early_edits().iter().chain(late_edits().iter()) {
        reference.apply_edit(edit).expect("edit");
        let out = reference
            .update_timing(&RunBudget::unbounded())
            .expect("update");
        assert_eq!(out.stop, StopCause::Completed);
    }

    // Subject: same flow, but spooled to disk and restored between the
    // early and late edits.
    let mut subject = Session::create("diff", sources(), 2).expect("create");
    for edit in &early_edits() {
        subject.apply_edit(edit).expect("edit");
        subject
            .update_timing(&RunBudget::unbounded())
            .expect("update");
    }
    let ckpt = dir.join("diff.ckpt");
    let dormant = subject.evict_to(&ckpt).expect("evict");
    drop(subject);
    assert!(ckpt.exists(), "checkpoint written");

    let mut subject = dormant.restore(2).expect("restore");
    for edit in &late_edits() {
        subject.apply_edit(edit).expect("edit");
        subject
            .update_timing(&RunBudget::unbounded())
            .expect("update");
    }

    assert_eq!(
        bits(&reference),
        bits(&subject),
        "WNS/TNS must be bit-identical across evict/restore"
    );
    let ref_paths = reference.worst_paths(1);
    let sub_paths = subject.worst_paths(1);
    assert_eq!(ref_paths, sub_paths, "worst paths agree step for step");

    std::fs::remove_dir_all(&dir).ok();
}

/// Eight clients on eight disjoint sessions through one shared
/// registry, each running its own edit/update/evict/restore cycle.
/// Every client must see exactly the results a solo session computes
/// for its design — concurrency must not leak between slots.
#[test]
fn concurrent_disjoint_sessions_do_not_interfere() {
    const CLIENTS: usize = 8;
    let spool = tmp_dir("concurrent");
    let registry = Arc::new(Registry::new(spool.clone(), 1, CLIENTS + 2));

    let drive_of = |i: usize| 1.5 + i as f32 * 0.5;

    // Solo references, computed up front on this thread.
    let mut expected = Vec::with_capacity(CLIENTS);
    for i in 0..CLIENTS {
        let mut solo = Session::create(format!("solo-{i}"), sources(), 1).expect("create");
        solo.apply_edit(&Edit::Repower {
            gate: "u2".to_string(),
            drive: drive_of(i),
        })
        .expect("edit");
        solo.update_timing(&RunBudget::unbounded()).expect("update");
        expected.push(bits(&solo));
    }

    let mut clients = Vec::with_capacity(CLIENTS);
    for i in 0..CLIENTS {
        let registry = registry.clone();
        clients.push(thread::spawn(move || {
            let name = format!("client-{i}");
            registry.create(&name, sources()).expect("create");
            {
                let arc = registry.live(&name).expect("live");
                let mut session = arc.lock();
                session
                    .apply_edit(&Edit::Repower {
                        gate: "u2".to_string(),
                        drive: drive_of(i),
                    })
                    .expect("edit");
                session
                    .update_timing(&RunBudget::unbounded())
                    .expect("update");
            }
            // Bounce through the spool while the other clients hammer
            // theirs: the registry lock churn is the point.
            registry.evict(&name).expect("evict");
            registry.restore(&name).expect("restore");
            let arc = registry.live(&name).expect("live again");
            let session = arc.lock();
            bits(&session)
        }));
    }

    for (i, handle) in clients.into_iter().enumerate() {
        let got = handle.join().expect("client thread");
        assert_eq!(
            got, expected[i],
            "client {i} must match its solo reference bit for bit"
        );
    }
    assert_eq!(registry.list().len(), CLIENTS, "all sessions registered");
    assert!(registry.list().iter().all(|row| row.is_live()));

    std::fs::remove_dir_all(&spool).ok();
}
