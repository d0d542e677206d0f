//! The workspace must stay lint-clean: zero ordering/tag violations and a
//! panic-path budget that matches `lint-allowlist.txt` exactly. This is the
//! same check CI's `lint` job runs via the `gpasta-check-lint` binary; the
//! integration test keeps it enforced by plain `cargo test` too.

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

#[test]
fn lint_catches_a_seeded_violation() {
    // Sanity-check that the clean result above is not a no-op scan: a tree
    // containing an untagged Release store must produce a diagnostic.
    let dir = std::env::temp_dir().join(format!("gpasta-lint-seeded-{}", std::process::id()));
    let src = dir.join("crates").join("demo").join("src");
    std::fs::create_dir_all(&src).expect("temp tree");
    std::fs::write(
        src.join("lib.rs"),
        "use gpasta_check::sync::{AtomicBool, Ordering};\n\
         pub fn publish(flag: &AtomicBool) {\n\
             flag.store(true, Ordering::Release);\n\
         }\n",
    )
    .expect("write seeded source");

    let report = gpasta_check::lint::run(&dir).expect("lint walks the seeded tree");
    std::fs::remove_dir_all(&dir).ok();

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
    let dir = std::env::temp_dir().join(format!("gpasta-lint-basis-{}", std::process::id()));
    let copied = format!("pub const BASIS: u64 = {basis};\n");
    let in_test = format!("#[cfg(test)]\nmod t {{\n    const B: u64 = {basis};\n}}\n");
    let flagged = [
        "examples/digest.rs",
        "perf_ledger/src/stats.rs",
        "crates/bench/benches/sum.rs",
        "crates/sta/tests/pin.rs",
        "tests/pin.rs",
    ];
    let files = flagged.iter().map(|&rel| (rel, copied.clone())).chain([
        ("crates/tdg/src/checksum.rs", copied.clone()),
        ("vendor/stub/src/lib.rs", copied.clone()),
        ("perf_ledger/src/lib.rs", in_test),
        // Outside the library directories only `one-checksum` applies.
        (
            "examples/unwraps.rs",
            "fn main() { None::<u8>.unwrap(); }\n".into(),
        ),
    ]);
    for (rel, text) in files {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().expect("a file has a parent")).expect("temp tree");
        std::fs::write(&path, text).expect("write seeded source");
    }

    let report = gpasta_check::lint::run(&dir).expect("lint walks the seeded tree");
    std::fs::remove_dir_all(&dir).ok();

    let mut hits: Vec<(&str, &str)> = report
        .diagnostics
        .iter()
        .map(|d| (d.path.as_str(), d.rule))
        .collect();
    hits.sort_unstable();
    let mut want: Vec<(&str, &str)> = flagged.iter().map(|&rel| (rel, "one-checksum")).collect();
    want.sort_unstable();
    assert_eq!(hits, want, "{:?}", report.diagnostics);
}
