//! Guard: `tests/` holds Rust sources only, plus committed design
//! fixtures under `tests/fixtures/`; `results/` commits only the
//! sanctioned scale-of-record artefacts.
//!
//! Integration tests in this repo write their scratch files (checkpoints,
//! CSVs, logs) to the system temp directory, never next to the sources.
//! This test pins that policy so a misdirected output path shows up as a
//! test failure instead of silently polluting the tree. The one sanctioned
//! subdirectory is `tests/fixtures/`, which may contain only design-source
//! text (`.v` netlists, `.lib` libraries, `.sdc` constraints) — generated
//! artifacts are still banned there.
//!
//! For `results/` the committed (git-tracked) set is the contract: the
//! figure/table files of record, nothing else. Bench runs may drop fresh
//! `BENCH_*.json` summaries there locally — those are CI upload artifacts
//! and must never be committed. Perf is gated by `perf_ledger` against
//! `BENCHMARK.json`, not by a committed baseline file.

#[test]
fn tests_directory_contains_only_rust_sources() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
    let mut count = 0usize;
    for entry in std::fs::read_dir(&dir).expect("tests/ is readable") {
        let entry = entry.expect("directory entry is readable");
        let path = entry.path();
        if entry.file_type().expect("file type").is_dir() {
            assert_eq!(
                path.file_name().and_then(|n| n.to_str()),
                Some("fixtures"),
                "unexpected directory {} in tests/ — only tests/fixtures/ is sanctioned",
                path.display()
            );
            for fixture in std::fs::read_dir(&path).expect("fixtures/ is readable") {
                let fixture = fixture.expect("directory entry is readable").path();
                let ext = fixture.extension().and_then(|e| e.to_str());
                assert!(
                    matches!(ext, Some("v" | "lib" | "sdc")),
                    "non-design artifact {} in tests/fixtures/ — write scratch files \
                     to std::env::temp_dir()",
                    fixture.display()
                );
            }
            continue;
        }
        assert_eq!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs"),
            "non-source artifact {} in tests/ — write scratch files to std::env::temp_dir()",
            path.display()
        );
        count += 1;
    }
    assert!(count > 0, "tests/ unexpectedly empty");
}

/// Whether a committed `results/` file name is sanctioned: the paper
/// figure/table artefacts of record (`fig*` / `table1`, CSV + JSON).
fn sanctioned_result(name: &str) -> bool {
    let Some((stem, ext)) = name.rsplit_once('.') else {
        return false;
    };
    matches!(ext, "csv" | "json") && (stem.starts_with("fig") || stem == "table1")
}

#[test]
fn results_directory_commits_only_sanctioned_artifacts() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    // The *committed* set is the contract; enumerate it via git so a
    // locally generated BENCH_*.json (a CI upload artifact) does not
    // fail a dev's test run, while committing one does fail CI.
    let output = std::process::Command::new("git")
        .args(["ls-files", "--", "results/"])
        .current_dir(root)
        .output();
    let output = match output {
        Ok(o) if o.status.success() => o,
        // Exported tarballs and vendored checkouts have no git; the
        // committed set cannot drift in those, so there is nothing to
        // guard.
        _ => {
            eprintln!("skipping: git unavailable or not a repository");
            return;
        }
    };
    let tracked = String::from_utf8(output.stdout).expect("git paths are UTF-8");
    let mut count = 0usize;
    for path in tracked.lines() {
        let name = path.rsplit('/').next().expect("non-empty path");
        assert!(
            !name.starts_with("BENCH_"),
            "{path} is committed — BENCH_* summaries are generated CI artifacts; \
             perf numbers belong to perf_ledger runs, not to results/"
        );
        assert!(
            sanctioned_result(name),
            "{path} is committed but not a sanctioned results/ artefact \
             (fig*/table1 .csv/.json)"
        );
        count += 1;
    }
    assert!(
        count > 0,
        "results/ unexpectedly has no committed artefacts"
    );

    // Whatever lands on disk — committed or generated — must be a CSV or
    // JSON result file; checkpoints and logs belong in temp directories.
    for entry in std::fs::read_dir(root.join("results")).expect("results/ is readable") {
        let path = entry.expect("directory entry is readable").path();
        let ext = path.extension().and_then(|e| e.to_str());
        assert!(
            matches!(ext, Some("csv" | "json")),
            "non-result artifact {} in results/ — write scratch files to \
             std::env::temp_dir()",
            path.display()
        );
    }
}
