//! The workspace must stay lint-clean: zero ordering/tag violations and a
//! panic-path budget that matches `lint-allowlist.txt` exactly. This is the
//! same check CI's `lint` job runs via the `gpasta-check-lint` binary; the
//! integration test keeps it enforced by plain `cargo test` too.

use gpasta_check::lint::LintReport;
use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let report = gpasta_check::lint::run(&root).expect("lint walks the workspace");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — wrong root?",
        report.files_scanned
    );
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "workspace has lint violations:\n{}",
        rendered.join("\n")
    );
}

/// Lint a temporary tree holding `files` (repo-relative path, text).
fn lint_tree(name: &str, files: &[(&str, String)]) -> LintReport {
    let dir = std::env::temp_dir().join(format!("gpasta-lint-{name}-{}", std::process::id()));
    for (rel, text) in files {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().expect("a file has a parent")).expect("temp tree");
        std::fs::write(&path, text).expect("write seeded source");
    }
    let report = gpasta_check::lint::run(&dir).expect("lint walks the seeded tree");
    std::fs::remove_dir_all(&dir).ok();
    report
}

/// Each diagnostic's path and rule, sorted.
fn hits(report: &LintReport) -> Vec<(&str, &str)> {
    let mut hits: Vec<(&str, &str)> = report
        .diagnostics
        .iter()
        .map(|d| (d.path.as_str(), d.rule))
        .collect();
    hits.sort_unstable();
    hits
}

#[test]
fn lint_catches_a_seeded_violation() {
    // Sanity-check that the clean result above is not a no-op scan: a tree
    // containing an untagged Release store must produce a diagnostic.
    let report = lint_tree(
        "seeded",
        &[(
            "crates/demo/src/lib.rs",
            "use gpasta_check::sync::{AtomicBool, Ordering};\n\
             pub fn publish(flag: &AtomicBool) {\n\
                 flag.store(true, Ordering::Release);\n\
             }\n"
            .into(),
        )],
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "hb-tag" || d.message.contains("hb:")),
        "seeded untagged Release store was not flagged: {:?}",
        report.diagnostics
    );
}

#[test]
fn a_hand_copied_basis_is_flagged_anywhere_in_the_tree() {
    // The `one-checksum` rule reads the whole tree, not just the library
    // directories the other rules read: examples, benches, tests and
    // `perf_ledger/` too. The basis is assembled so this file does not
    // spell it.
    let basis = concat!("0xcbf2_9ce4", "_8422_2325");
    let copied = format!("pub const BASIS: u64 = {basis};\n");
    let in_test = format!("#[cfg(test)]\nmod t {{\n    const B: u64 = {basis};\n}}\n");
    let flagged = [
        "examples/digest.rs",
        "perf_ledger/src/stats.rs",
        "crates/bench/benches/sum.rs",
        "crates/sta/tests/pin.rs",
        "tests/pin.rs",
    ];
    let files: Vec<(&str, String)> = flagged
        .iter()
        .map(|&rel| (rel, copied.clone()))
        .chain([
            ("crates/tdg/src/checksum.rs", copied.clone()),
            ("vendor/stub/src/lib.rs", copied.clone()),
            ("perf_ledger/src/lib.rs", in_test),
            // Outside the library directories only `one-checksum` applies.
            (
                "examples/unwraps.rs",
                "fn main() { None::<u8>.unwrap(); }\n".into(),
            ),
        ])
        .collect();
    let report = lint_tree("basis", &files);
    let mut want: Vec<(&str, &str)> = flagged.iter().map(|&rel| (rel, "one-checksum")).collect();
    want.sort_unstable();
    assert_eq!(hits(&report), want, "{:?}", report.diagnostics);
}

#[test]
fn a_session_that_names_the_scheduled_path_is_flagged() {
    // Non-test `src/session.rs` names neither the scheduled path nor a
    // stored timing value, and `src/checkpoint.rs` no stored timing value.
    // Test items are exempt, and every other file may name them.
    let session = "use crate::sched::Executor;\n\
                   #[cfg(test)]\n\
                   mod tests {\n    use crate::sched::RetryPolicy;\n}\n";
    let report = lint_tree(
        "session",
        &[
            ("src/session.rs", session.into()),
            (
                "src/checkpoint.rs",
                "type T = TimingSnapshot;\nfn install() {}\n".into(),
            ),
            (
                "src/scheduled.rs",
                "use crate::sched::{Executor, RetryPolicy};\n".into(),
            ),
        ],
    );
    assert_eq!(
        hits(&report),
        [
            ("src/checkpoint.rs", "session-scope"),
            ("src/session.rs", "session-scope"),
        ],
        "{:?}",
        report.diagnostics
    );
}
