//! Every `Type::name` that DESIGN.md or README.md cites in backticks must
//! still exist somewhere in the workspace as a `fn` or a field, so a
//! rename or a deletion cannot leave the docs naming code that is gone.
//!
//! Only lower-case names are checked (enum variants and associated types
//! are upper case). A `{a,b}` group expands to each alternative:
//! `` `Executor::run_{tdg,partitioned}` `` names `run_tdg` and
//! `run_partitioned`. The scan is plain text over every `.rs` file of the
//! workspace: a `fn` is the identifier after the keyword, a field is an
//! identifier that opens a line (after `pub` / `pub(..)`) and is followed
//! by a single `:`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: &[&str] = &["DESIGN.md", "README.md"];
const SOURCE_DIRS: &[&str] = &["src", "crates", "vendor", "tests", "examples"];

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The identifier at the start of `s`.
fn ident_prefix(s: &str) -> &str {
    let end = s.bytes().position(|b| !is_ident_byte(b)).unwrap_or(s.len());
    &s[..end]
}

/// Every expansion of the `{a,b}` groups in `s`.
fn expand(s: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (s.find('{'), s.find('}')) else {
        return vec![s.to_owned()];
    };
    if close < open {
        return vec![s.to_owned()];
    }
    s[open + 1..close]
        .split(',')
        .flat_map(|alt| expand(&format!("{}{}{}", &s[..open], alt.trim(), &s[close + 1..])))
        .collect()
}

/// `(Type, name)` for every `Type::name` in the backtick spans of `text`.
fn cited_names(text: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (i, span) in text.split('`').enumerate() {
        if i % 2 == 0 || span.contains('\n') {
            continue;
        }
        let mut rest = span;
        while let Some(at) = rest.find("::") {
            let before = &rest[..at];
            let ty_start = before
                .bytes()
                .rposition(|b| !is_ident_byte(b))
                .map_or(0, |p| p + 1);
            let ty = &before[ty_start..];
            let after = &rest[at + 2..];
            // The name: identifier bytes and `{..}` groups.
            let mut end = 0;
            let bytes = after.as_bytes();
            while end < bytes.len() {
                if is_ident_byte(bytes[end]) {
                    end += 1;
                } else if bytes[end] == b'{' {
                    match after[end..].find('}') {
                        Some(close) => end += close + 1,
                        None => break,
                    }
                } else {
                    break;
                }
            }
            let name = &after[..end];
            if ty.starts_with(|c: char| c.is_ascii_uppercase())
                && name.starts_with(|c: char| c.is_ascii_lowercase() || c == '_' || c == '{')
            {
                for name in expand(name) {
                    let name = name.trim().to_owned();
                    if name.starts_with(|c: char| c.is_ascii_lowercase() || c == '_') {
                        out.push((ty.to_owned(), name));
                    }
                }
            }
            rest = &rest[at + 2..];
        }
    }
    out
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `fn` and field name declared in `source`.
fn declared_names(source: &str, names: &mut BTreeSet<String>) {
    for line in source.lines() {
        let mut rest = line;
        while let Some(at) = rest.find("fn ") {
            let starts_word = at == 0 || !is_ident_byte(rest.as_bytes()[at - 1]);
            let name = ident_prefix(&rest[at + 3..]);
            if starts_word && !name.is_empty() {
                names.insert(name.to_owned());
            }
            rest = &rest[at + 3..];
        }
        let mut field = line.trim_start();
        if let Some(vis) = field.strip_prefix("pub") {
            field = match vis.strip_prefix('(') {
                Some(scoped) => scoped.split_once(')').map_or("", |(_, r)| r),
                None => vis,
            }
            .trim_start();
        }
        let name = ident_prefix(field);
        let after = &field[name.len()..];
        if !name.is_empty() && after.starts_with(':') && !after.starts_with("::") {
            names.insert(name.to_owned());
        }
    }
}

#[test]
fn every_type_name_the_docs_cite_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in SOURCE_DIRS {
        rust_files(&root.join(dir), &mut files);
    }
    let mut declared = BTreeSet::new();
    for file in &files {
        let source = fs::read_to_string(file).expect("source files are UTF-8");
        declared_names(&source, &mut declared);
    }
    assert!(declared.contains("update_timing") && declared.contains("wire_cap_ff"));

    let mut cited = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("the docs exist");
        for (ty, name) in cited_names(&text) {
            cited += 1;
            if !declared.contains(&name) {
                missing.push(format!("{doc}: `{ty}::{name}`"));
            }
        }
    }
    assert!(
        cited > 100,
        "only {cited} cited names found: the scan broke"
    );
    assert!(
        missing.is_empty(),
        "the docs cite names no fn or field carries:\n{}",
        missing.join("\n")
    );
}

#[test]
fn the_scan_reads_groups_calls_and_paths() {
    let text = "`Executor::run_{tdg,partitioned}` and `Timer::report(k)`, \
                `UpdateOutcome::{a, b}`, `gpasta::x::Y::z`, `CellKind::Nand2`, \
                `Tdg::csr()` ``";
    let got: Vec<String> = cited_names(text)
        .into_iter()
        .map(|(ty, name)| format!("{ty}::{name}"))
        .collect();
    assert_eq!(
        got,
        [
            "Executor::run_tdg",
            "Executor::run_partitioned",
            "Timer::report",
            "UpdateOutcome::a",
            "UpdateOutcome::b",
            "Y::z",
            "Tdg::csr",
        ]
    );
    let mut names = BTreeSet::new();
    declared_names(
        "pub(crate) fn alpha() {}\n  pub beta: u32,\n gamma: f32,\nlet x = a::b;\n",
        &mut names,
    );
    assert_eq!(
        names.into_iter().collect::<Vec<_>>(),
        ["alpha", "beta", "gamma"]
    );
}
