//! Token-level source lint enforcing the workspace's atomic-ordering and
//! panic-path discipline (no `syn`, no external deps — a line scanner with
//! a small string/comment masking state machine).
//!
//! Rules (all errors; CI runs warnings-as-errors):
//!
//! 1. **`raw-atomic`** — `std::sync::atomic` / `core::sync::atomic` may be
//!    referenced only inside the `gpasta_check::sync` shim and the model
//!    checker itself. Everything else imports from `gpasta_check::sync`,
//!    so the whole workspace can be re-routed into the model checker.
//! 2. **`seqcst`** — `Ordering::SeqCst` is forbidden unless the site (or a
//!    comment within the 3 lines above) carries `// seqcst-ok: <reason>`.
//!    SeqCst is almost always either unnecessary or papering over an
//!    unarticulated protocol; the tag forces the articulation.
//! 3. **`hb-tag`** — every `Release` / `Acquire` / `AcqRel` ordering site
//!    must carry a `// hb: <tag>` pairing label (same line or up to 3
//!    lines above). Across the workspace each tag must have both halves:
//!    at least one release-side site (`Release`/`AcqRel`) and at least one
//!    acquire-side site (`Acquire`/`AcqRel`). A dangling half means a
//!    publish nobody observes or an observe nobody publishes — exactly the
//!    shape of bug the model checker hunts. DESIGN.md §11 documents the
//!    contract behind every tag.
//! 4. **`panic-path`** — `.unwrap()` / `.expect(` on non-test paths of
//!    library crates must appear in `lint-allowlist.txt` with an **exact**
//!    per-file count and a reason. More sites than allowed fails; fewer
//!    also fails (stale entry), keeping the allowlist exhaustive.
//! 5. **`one-checksum`** — the FNV-1a offset basis (`0xcbf2…2325`, any case,
//!    with or without `_` separators) may appear only in
//!    `crates/tdg/src/checksum.rs`, where the one checksum is defined:
//!    anywhere else it is a hand-copied checksum. Comments and strings
//!    count too.
//!
//! Rules 1–4 read `crates/*/src` and `src/`, outside `tests/`, `benches/`
//! and `examples/`; rule 5 reads every `.rs` file of the tree (tests,
//! benches, examples and `perf_ledger/` too). `#[cfg(test)]` items,
//! `vendor/` and `target/` are excluded from all five. For rules 1–4
//! strings and comments are masked before matching, so a pattern inside a
//! string literal or doc example never fires.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Result of linting a tree.
#[derive(Debug)]
pub struct LintReport {
    pub files_scanned: usize,
    pub diagnostics: Vec<Diagnostic>,
}

/// A source line split into masked code and extracted comment text.
#[derive(Debug, Default, Clone)]
struct MaskedLine {
    /// Code with string/char-literal contents and comments blanked.
    code: String,
    /// Concatenated comment text on this line (line + block comments).
    comment: String,
    /// Inside a `#[cfg(test)]` item.
    in_test: bool,
}

/// Split source into per-line masked code + comment text, tracking string
/// literals, char literals, and (nested) block comments.
fn mask_source(source: &str) -> Vec<MaskedLine> {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Normal,
        Str,
        RawStr(usize),
        BlockComment(usize),
        LineComment,
    }

    let mut lines: Vec<MaskedLine> = Vec::new();
    let mut cur = MaskedLine::default();
    let mut state = State::Normal;
    let bytes: Vec<char> = source.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Normal;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            State::Normal => match c {
                '/' if bytes.get(i + 1) == Some(&'/') => {
                    state = State::LineComment;
                    cur.code.push(' ');
                    i += 2;
                }
                '/' if bytes.get(i + 1) == Some(&'*') => {
                    state = State::BlockComment(1);
                    cur.code.push(' ');
                    i += 2;
                }
                '"' => {
                    state = State::Str;
                    cur.code.push('"');
                    i += 1;
                }
                'r' | 'b'
                    if {
                        // r"..." / r#"..."# / br"..." raw string heads.
                        let mut j = i;
                        if bytes[j] == 'b' && bytes.get(j + 1) == Some(&'r') {
                            j += 1;
                        }
                        bytes[j] == 'r' && {
                            let mut k = j + 1;
                            while bytes.get(k) == Some(&'#') {
                                k += 1;
                            }
                            bytes.get(k) == Some(&'"')
                        }
                    } =>
                {
                    let mut j = i;
                    if bytes[j] == 'b' {
                        cur.code.push('b');
                        j += 1;
                    }
                    cur.code.push('r');
                    j += 1;
                    let mut hashes = 0;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        cur.code.push('#');
                        j += 1;
                    }
                    cur.code.push('"');
                    state = State::RawStr(hashes);
                    i = j + 1;
                }
                'b' if bytes.get(i + 1) == Some(&'"') => {
                    cur.code.push('b');
                    cur.code.push('"');
                    state = State::Str;
                    i += 2;
                }
                '\'' => {
                    // Char literal vs lifetime: look ahead for a closing
                    // quote one (or one escaped) char away.
                    if bytes.get(i + 1) == Some(&'\\') {
                        // Escaped char literal: skip to closing quote.
                        cur.code.push('\'');
                        let mut j = i + 2;
                        while j < bytes.len() && bytes[j] != '\'' && bytes[j] != '\n' {
                            j += 1;
                        }
                        if bytes.get(j) == Some(&'\'') {
                            cur.code.push('\'');
                            i = j + 1;
                        } else {
                            i += 1;
                        }
                    } else if bytes.get(i + 2) == Some(&'\'') {
                        cur.code.push('\'');
                        cur.code.push(' ');
                        cur.code.push('\'');
                        i += 3;
                    } else {
                        // Lifetime.
                        cur.code.push('\'');
                        i += 1;
                    }
                }
                _ => {
                    cur.code.push(c);
                    i += 1;
                }
            },
            State::Str => match c {
                '\\' => {
                    i += 2;
                }
                '"' => {
                    cur.code.push('"');
                    state = State::Normal;
                    i += 1;
                }
                _ => {
                    i += 1;
                }
            },
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut k = i + 1;
                    let mut seen = 0;
                    while seen < hashes && bytes.get(k) == Some(&'#') {
                        seen += 1;
                        k += 1;
                    }
                    if seen == hashes {
                        cur.code.push('"');
                        for _ in 0..hashes {
                            cur.code.push('#');
                        }
                        state = State::Normal;
                        i = k;
                        continue;
                    }
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && bytes.get(i + 1) == Some(&'/') {
                    if depth == 1 {
                        state = State::Normal;
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                    i += 2;
                } else if c == '/' && bytes.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    lines
}

/// Mark lines belonging to `#[cfg(test)]` items by brace counting from the
/// attribute to the end of the following item.
fn mark_test_regions(lines: &mut [MaskedLine]) {
    let mut i = 0;
    while i < lines.len() {
        if lines[i].code.contains("#[cfg(test)]") {
            // Find the item's opening brace, then its matching close.
            let mut depth = 0usize;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                lines[j].in_test = true;
                for c in lines[j].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth = depth.saturating_sub(1);
                        }
                        _ => {}
                    }
                }
                if opened && depth == 0 {
                    break;
                }
                // Attribute on a braceless item (e.g. `#[cfg(test)] use ..;`).
                if !opened && lines[j].code.contains(';') {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
}

/// An `hb:`-tagged ordering site, classified by which halves of the edge
/// it carries.
#[derive(Debug, Default, Clone)]
struct TagUse {
    release_sites: Vec<(String, usize)>,
    acquire_sites: Vec<(String, usize)>,
}

/// One allowlist entry: exact expected counts for a file.
#[derive(Debug, Clone)]
struct AllowEntry {
    unwraps: usize,
    expects: usize,
    line: usize,
    used: bool,
}

fn parse_allowlist(
    text: &str,
    diagnostics: &mut Vec<Diagnostic>,
    list_path: &str,
) -> BTreeMap<String, AllowEntry> {
    let mut map = BTreeMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (spec, reason) = match line.split_once('#') {
            Some((s, r)) => (s.trim(), r.trim()),
            None => (line, ""),
        };
        if reason.is_empty() {
            diagnostics.push(Diagnostic {
                path: list_path.to_string(),
                line: line_no,
                rule: "panic-path",
                message: format!("allowlist entry needs a `# reason`: {line}"),
            });
            continue;
        }
        let mut parts = spec.split_whitespace();
        let Some(path) = parts.next() else { continue };
        let mut entry = AllowEntry {
            unwraps: 0,
            expects: 0,
            line: line_no,
            used: false,
        };
        let mut ok = true;
        for field in parts {
            match field.split_once('=') {
                Some(("unwrap", n)) => entry.unwraps = n.parse().unwrap_or(usize::MAX),
                Some(("expect", n)) => entry.expects = n.parse().unwrap_or(usize::MAX),
                _ => {
                    diagnostics.push(Diagnostic {
                        path: list_path.to_string(),
                        line: line_no,
                        rule: "panic-path",
                        message: format!("unknown allowlist field `{field}`"),
                    });
                    ok = false;
                }
            }
        }
        if ok {
            map.insert(path.to_string(), entry);
        }
    }
    map
}

fn count_occurrences(haystack: &str, needle: &str) -> usize {
    haystack.matches(needle).count()
}

/// The FNV-1a offset basis as the `one-checksum` rule matches it, split so
/// this line does not spell it.
const FNV_BASIS: &str = concat!("cbf2", "9ce4", "8422", "2325");

/// The one file whose non-test code may spell [`FNV_BASIS`].
const CHECKSUM_HOME: &str = "crates/tdg/src/checksum.rs";

/// Paths exempt from the `raw-atomic`, `seqcst`, and `hb-tag` rules: the
/// shim and the model checker are where raw atomics and ordering tokens
/// legitimately live.
fn is_shim_path(rel: &str) -> bool {
    rel == "crates/check/src/sync.rs" || rel.starts_with("crates/check/src/model/")
}

/// Library (non-test, non-bin, non-bench) paths subject to the
/// `panic-path` rule.
fn is_panic_path_scope(rel: &str) -> bool {
    let in_crates_lib = rel.starts_with("crates/")
        && rel.contains("/src/")
        && !rel.starts_with("crates/bench/")
        && !rel.contains("/src/bin/");
    let in_root_lib = rel.starts_with("src/") && !rel.starts_with("src/bin/");
    in_crates_lib || in_root_lib
}

/// Comments eligible to tag line `idx`, nearest first (same line, then up
/// to 3 lines above) — so when two tagged sites sit close together, each
/// ordering associates with its own tag, not its neighbour's.
fn comment_window(lines: &[MaskedLine], idx: usize) -> impl Iterator<Item = &str> {
    let lo = idx.saturating_sub(3);
    lines[lo..=idx].iter().rev().map(|l| l.comment.as_str())
}

fn extract_hb_tag(comment: &str) -> Option<String> {
    let pos = comment.find("hb:")?;
    let rest = &comment[pos + 3..];
    let tag: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
        .collect();
    if tag.is_empty() {
        None
    } else {
        Some(tag)
    }
}

/// `source`'s lines, masked, with its `#[cfg(test)]` items marked.
fn masked_lines(source: &str) -> Vec<MaskedLine> {
    let mut lines = mask_source(source);
    mark_test_regions(&mut lines);
    lines
}

/// The `one-checksum` rule: flag each non-test line of `source` (its
/// `lines`, from [`masked_lines`]) that spells the FNV offset basis,
/// unless `rel` is [`CHECKSUM_HOME`].
fn one_checksum(rel: &str, source: &str, lines: &[MaskedLine], out: &mut Vec<Diagnostic>) {
    if rel == CHECKSUM_HOME {
        return;
    }
    for (idx, (line, raw)) in lines.iter().zip(source.split('\n')).enumerate() {
        let spelled = || {
            raw.to_ascii_lowercase()
                .replace('_', "")
                .contains(FNV_BASIS)
        };
        if !line.in_test && spelled() {
            out.push(Diagnostic {
                path: rel.to_string(),
                line: idx + 1,
                rule: "one-checksum",
                message: format!(
                    "the FNV offset basis outside {CHECKSUM_HOME} — a hand-copied checksum; \
                     call gpasta_tdg::checksum instead"
                ),
            });
        }
    }
}

/// Whether every rule reads `rel`; the rest of the tree gets only
/// `one-checksum`.
fn is_library_source(rel: &str) -> bool {
    (rel.starts_with("crates/") || rel.starts_with("src/"))
        && !rel
            .split('/')
            .any(|part| matches!(part, "tests" | "benches" | "examples"))
}

/// Lint a single file's source. `rel` is the repo-relative path used in
/// diagnostics and allowlist keys. Returns per-file diagnostics and
/// appends this file's `hb:` tag uses to `tags`.
fn lint_source(
    rel: &str,
    source: &str,
    tags: &mut BTreeMap<String, TagUse>,
    panic_counts: &mut BTreeMap<String, (usize, usize)>,
) -> Vec<Diagnostic> {
    let lines = masked_lines(source);
    let mut out = Vec::new();
    one_checksum(rel, source, &lines, &mut out);
    let shim = is_shim_path(rel);
    let mut unwraps = 0usize;
    let mut expects = 0usize;

    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let line_no = idx + 1;

        if !shim {
            if code.contains("std::sync::atomic") || code.contains("core::sync::atomic") {
                out.push(Diagnostic {
                    path: rel.to_string(),
                    line: line_no,
                    rule: "raw-atomic",
                    message: "raw atomic import/path outside the gpasta_check::sync shim \
                              — import from gpasta_check::sync instead"
                        .to_string(),
                });
            }

            let has_seqcst = code.contains("SeqCst");
            let has_release =
                code.contains("Ordering::Release") || code.contains("Ordering::AcqRel");
            let has_acquire =
                code.contains("Ordering::Acquire") || code.contains("Ordering::AcqRel");

            if has_seqcst {
                let tagged = comment_window(&lines, idx).any(|c| c.contains("seqcst-ok:"));
                if !tagged {
                    out.push(Diagnostic {
                        path: rel.to_string(),
                        line: line_no,
                        rule: "seqcst",
                        message: "Ordering::SeqCst without a `// seqcst-ok: <reason>` tag \
                                  — state the protocol or weaken the ordering"
                            .to_string(),
                    });
                }
            } else if has_release || has_acquire {
                let tag = comment_window(&lines, idx).find_map(extract_hb_tag);
                match tag {
                    Some(tag) => {
                        let entry = tags.entry(tag).or_default();
                        if has_release {
                            entry.release_sites.push((rel.to_string(), line_no));
                        }
                        if has_acquire {
                            entry.acquire_sites.push((rel.to_string(), line_no));
                        }
                    }
                    None => {
                        out.push(Diagnostic {
                            path: rel.to_string(),
                            line: line_no,
                            rule: "hb-tag",
                            message: "Release/Acquire ordering without a `// hb: <tag>` \
                                      pairing label (same line or \u{2264}3 lines above)"
                                .to_string(),
                        });
                    }
                }
            }
        }

        if is_panic_path_scope(rel) {
            unwraps += count_occurrences(code, ".unwrap()");
            expects += count_occurrences(code, ".expect(");
        }
    }

    if is_panic_path_scope(rel) && (unwraps > 0 || expects > 0) {
        panic_counts.insert(rel.to_string(), (unwraps, expects));
    }
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | "vendor") || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint the workspace rooted at `root` (every `.rs` file outside `vendor/`
/// and `target/`; see the module docs for which rules read which files),
/// honouring `lint-allowlist.txt` at the root.
pub fn run(root: &Path) -> Result<LintReport, String> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();

    let mut diagnostics = Vec::new();
    let allowlist_path = root.join("lint-allowlist.txt");
    let mut allowlist = if allowlist_path.is_file() {
        let text = std::fs::read_to_string(&allowlist_path)
            .map_err(|e| format!("read {}: {e}", allowlist_path.display()))?;
        parse_allowlist(&text, &mut diagnostics, "lint-allowlist.txt")
    } else {
        BTreeMap::new()
    };

    let mut tags: BTreeMap<String, TagUse> = BTreeMap::new();
    let mut panic_counts: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        if is_library_source(&rel) {
            diagnostics.extend(lint_source(&rel, &source, &mut tags, &mut panic_counts));
        } else {
            one_checksum(&rel, &source, &masked_lines(&source), &mut diagnostics);
        }
    }

    // Cross-check hb tags: each needs both halves somewhere in the tree.
    for (tag, uses) in &tags {
        if uses.release_sites.is_empty() {
            let (path, line) = uses.acquire_sites[0].clone();
            diagnostics.push(Diagnostic {
                path,
                line,
                rule: "hb-tag",
                message: format!(
                    "hb tag `{tag}` has acquire site(s) but no release half anywhere \
                     — observing a publish that never happens?"
                ),
            });
        }
        if uses.acquire_sites.is_empty() {
            let (path, line) = uses.release_sites[0].clone();
            diagnostics.push(Diagnostic {
                path,
                line,
                rule: "hb-tag",
                message: format!(
                    "hb tag `{tag}` has release site(s) but no acquire half anywhere \
                     — publishing something nobody observes?"
                ),
            });
        }
    }

    // Reconcile panic counts against the allowlist, both directions.
    for (rel, (unwraps, expects)) in &panic_counts {
        match allowlist.get_mut(rel) {
            Some(entry) => {
                entry.used = true;
                if *unwraps != entry.unwraps || *expects != entry.expects {
                    diagnostics.push(Diagnostic {
                        path: rel.clone(),
                        line: 0,
                        rule: "panic-path",
                        message: format!(
                            "unwrap/expect count drifted from allowlist: found \
                             unwrap={unwraps} expect={expects}, allowed unwrap={} expect={} \
                             — fix the sites or update lint-allowlist.txt with a reason",
                            entry.unwraps, entry.expects
                        ),
                    });
                }
            }
            None => {
                diagnostics.push(Diagnostic {
                    path: rel.clone(),
                    line: 0,
                    rule: "panic-path",
                    message: format!(
                        "unwrap={unwraps} expect={expects} on a non-test library path \
                         with no lint-allowlist.txt entry — convert to typed errors or \
                         allowlist with a reason"
                    ),
                });
            }
        }
    }
    for (rel, entry) in &allowlist {
        if !entry.used {
            diagnostics.push(Diagnostic {
                path: "lint-allowlist.txt".to_string(),
                line: entry.line,
                rule: "panic-path",
                message: format!("stale allowlist entry for `{rel}` (file clean or missing)"),
            });
        }
    }

    Ok(LintReport {
        files_scanned: files.len(),
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(rel: &str, src: &str) -> Vec<Diagnostic> {
        let mut tags = BTreeMap::new();
        let mut counts = BTreeMap::new();
        lint_source(rel, src, &mut tags, &mut counts)
    }

    #[test]
    fn raw_atomic_flagged_outside_shim() {
        let d = lint_one(
            "crates/sched/src/executor.rs",
            "use std::sync::atomic::AtomicU32;\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "raw-atomic");
    }

    #[test]
    fn a_hand_copied_fnv_basis_is_flagged_outside_the_checksum() {
        for src in [
            "const BASIS: u64 = 0xcbf2_9ce4_8422_2325;\n",
            "let h = 0xCBF29CE484222325u64; // seeded\n",
        ] {
            let d = lint_one("crates/sta/src/report.rs", src);
            assert_eq!(d.len(), 1, "{src}");
            assert_eq!(d[0].rule, "one-checksum");
            assert_eq!(d[0].line, 1);
            assert!(lint_one(CHECKSUM_HOME, src).is_empty(), "its home");
        }
        let in_test = "#[cfg(test)]\nmod t {\n    const B: u64 = 0xcbf29ce484222325;\n}\n";
        assert!(
            lint_one("src/shard/wire.rs", in_test).is_empty(),
            "test code"
        );
        let other = "const PRIME: u64 = 0x0000_0100_0000_01b3;\n";
        assert!(lint_one("src/shard/wire.rs", other).is_empty());
    }

    #[test]
    fn raw_atomic_ok_in_shim_and_model() {
        assert!(lint_one(
            "crates/check/src/sync.rs",
            "pub use std::sync::atomic::AtomicU32;\n"
        )
        .is_empty());
        assert!(lint_one(
            "crates/check/src/model/sync.rs",
            "use std::sync::atomic::Ordering;\n"
        )
        .is_empty());
    }

    #[test]
    fn raw_atomic_in_comment_or_string_ignored() {
        let src = "// example: use std::sync::atomic::AtomicU32;\nlet s = \"std::sync::atomic\";\n";
        assert!(lint_one("crates/sched/src/lib.rs", src).is_empty());
    }

    #[test]
    fn seqcst_requires_tag() {
        let bad = "x.store(1, Ordering::SeqCst);\n";
        let d = lint_one("crates/sched/src/executor.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "seqcst");

        let good = "// seqcst-ok: total order with the flux capacitor\n\
                    x.store(1, Ordering::SeqCst);\n";
        assert!(lint_one("crates/sched/src/executor.rs", good).is_empty());
    }

    #[test]
    fn hb_tag_required_and_recorded() {
        let bad = "x.store(1, Ordering::Release);\n";
        let d = lint_one("crates/sched/src/executor.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "hb-tag");

        let mut tags = BTreeMap::new();
        let mut counts = BTreeMap::new();
        let good = "// hb: poison-publish\n\
                    x.store(1, Ordering::Release);\n\
                    let v = x.load(Ordering::Acquire); // hb: poison-publish\n";
        let d = lint_source("crates/sched/src/executor.rs", good, &mut tags, &mut counts);
        assert!(d.is_empty(), "{d:?}");
        let t = &tags["poison-publish"];
        assert_eq!(t.release_sites.len(), 1);
        assert_eq!(t.acquire_sites.len(), 1);
    }

    #[test]
    fn relaxed_needs_no_tag() {
        assert!(lint_one(
            "crates/sched/src/executor.rs",
            "x.fetch_add(1, Ordering::Relaxed);\n"
        )
        .is_empty());
    }

    #[test]
    fn cfg_test_region_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::sync::atomic::AtomicU64;\n    \
                   fn f() { x.unwrap(); y.store(1, Ordering::SeqCst); }\n}\n";
        assert!(lint_one("crates/sched/src/executor.rs", src).is_empty());
    }

    #[test]
    fn unwrap_counted_on_library_paths() {
        let mut tags = BTreeMap::new();
        let mut counts = BTreeMap::new();
        let src = "fn f() { a.unwrap(); b.expect(\"x\"); c.unwrap_or(0); }\n";
        let d = lint_source("crates/sta/src/verilog.rs", src, &mut tags, &mut counts);
        assert!(d.is_empty());
        assert_eq!(counts["crates/sta/src/verilog.rs"], (1, 1));
    }

    #[test]
    fn bins_and_bench_exempt_from_panic_rule() {
        let mut tags = BTreeMap::new();
        let mut counts = BTreeMap::new();
        let src = "fn main() { a.unwrap(); }\n";
        lint_source("crates/check/src/bin/lint.rs", src, &mut tags, &mut counts);
        lint_source("crates/bench/src/lib.rs", src, &mut tags, &mut counts);
        assert!(counts.is_empty());
    }

    #[test]
    fn allowlist_parses_and_requires_reason() {
        let mut diags = Vec::new();
        let map = parse_allowlist(
            "# comment\n\
             crates/sta/src/verilog.rs expect=2 # netlist invariant\n\
             crates/x/src/y.rs unwrap=1\n",
            &mut diags,
            "lint-allowlist.txt",
        );
        assert_eq!(map.len(), 1);
        assert_eq!(map["crates/sta/src/verilog.rs"].expects, 2);
        assert_eq!(diags.len(), 1, "entry without reason rejected");
    }

    #[test]
    fn raw_string_masking() {
        let src = "let s = r#\"std::sync::atomic SeqCst .unwrap()\"#;\n";
        assert!(lint_one("crates/sched/src/lib.rs", src).is_empty());
    }

    #[test]
    fn char_literal_and_lifetime_do_not_break_masking() {
        let src = "fn f<'a>(c: char) -> bool { c == '\"' }\n\
                   use std::sync::atomic::AtomicU8;\n";
        let d = lint_one("crates/sched/src/lib.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "raw-atomic");
    }
}
