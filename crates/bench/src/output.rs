//! Result files: CSV for plotting, JSON for machine consumption.

use serde::Serialize;
use std::fs;
use std::path::Path;

/// Writing a result file failed. Lives in [`gpasta::errors`] (the
/// shared process-boundary error module); re-exported here so existing
/// harness imports keep working.
pub use gpasta::errors::OutputError;

/// One output row: a label plus named numeric columns.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Row {
    /// Row label (circuit name, sweep point, …).
    pub label: String,
    /// `(column name, value)` pairs, order preserved.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Build a row from a label and `(name, value)` pairs.
    pub fn new(label: impl Into<String>, values: &[(&str, f64)]) -> Self {
        Row {
            label: label.into(),
            values: values.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
        }
    }
}

fn ensure_parent(path: &Path) -> Result<(), OutputError> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|source| OutputError::Io {
            path: dir.to_path_buf(),
            op: "create directory",
            source,
        })?;
    }
    Ok(())
}

fn write_file(path: &Path, contents: &str) -> Result<(), OutputError> {
    fs::write(path, contents).map_err(|source| OutputError::Io {
        path: path.to_path_buf(),
        op: "write",
        source,
    })
}

/// Write rows as CSV (header from the first row's column names).
///
/// # Errors
///
/// [`OutputError::Io`] with the failing path and operation, or
/// [`OutputError::InconsistentColumns`] when the rows disagree on layout.
pub fn write_csv(path: &Path, rows: &[Row]) -> Result<(), OutputError> {
    ensure_parent(path)?;
    let mut out = String::new();
    if let Some(first) = rows.first() {
        out.push_str("label");
        for (k, _) in &first.values {
            out.push(',');
            out.push_str(k);
        }
        out.push('\n');
        for row in rows {
            if row.values.len() != first.values.len() {
                return Err(OutputError::InconsistentColumns {
                    label: row.label.clone(),
                    found: row.values.len(),
                    expected: first.values.len(),
                });
            }
            out.push_str(&row.label);
            for (_, v) in &row.values {
                out.push(',');
                out.push_str(&format!("{v}"));
            }
            out.push('\n');
        }
    }
    write_file(path, &out)
}

/// Render rows as a GitHub-flavoured markdown table (for pasting into
/// `EXPERIMENTS.md`). Values print with three significant decimals.
pub fn to_markdown(rows: &[Row]) -> String {
    let Some(first) = rows.first() else {
        return String::new();
    };
    let mut out = String::from("| label |");
    for (k, _) in &first.values {
        out.push_str(&format!(" {k} |"));
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in &first.values {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("| {} |", row.label));
        for (_, v) in &row.values {
            out.push_str(&format!(" {v:.3} |"));
        }
        out.push('\n');
    }
    out
}

/// Write rows as pretty JSON.
///
/// # Errors
///
/// [`OutputError::Io`] with the failing path and operation, or
/// [`OutputError::Serialize`] if the rows cannot be rendered.
pub fn write_json(path: &Path, rows: &[Row]) -> Result<(), OutputError> {
    ensure_parent(path)?;
    let json = serde_json::to_string_pretty(rows).map_err(|source| OutputError::Serialize {
        path: path.to_path_buf(),
        source,
    })?;
    write_file(path, &json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("gpasta_bench_test");
        let path = dir.join("t.csv");
        let rows = vec![
            Row::new("a", &[("x", 1.0), ("y", 2.5)]),
            Row::new("b", &[("x", 3.0), ("y", 4.0)]),
        ];
        write_csv(&path, &rows).expect("temp dir is writable");
        let text = fs::read_to_string(&path).expect("readable");
        assert_eq!(text, "label,x,y\na,1,2.5\nb,3,4\n");
    }

    #[test]
    fn json_is_valid() {
        let dir = std::env::temp_dir().join("gpasta_bench_test");
        let path = dir.join("t.json");
        write_json(&path, &[Row::new("a", &[("x", 1.0)])]).expect("temp dir is writable");
        let text = fs::read_to_string(&path).expect("readable");
        let parsed: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(parsed[0]["label"], "a");
    }

    #[test]
    fn markdown_renders_header_and_rows() {
        let md = to_markdown(&[
            Row::new("a", &[("x", 1.0), ("y", 2.5)]),
            Row::new("b", &[("x", 3.0), ("y", 4.0)]),
        ]);
        assert!(md.starts_with("| label | x | y |"));
        assert!(md.contains("| a | 1.000 | 2.500 |"));
        assert!(md.contains("| b | 3.000 | 4.000 |"));
        assert_eq!(to_markdown(&[]), "");
    }

    #[test]
    fn empty_rows_write_empty_file() {
        let dir = std::env::temp_dir().join("gpasta_bench_test");
        let path = dir.join("empty.csv");
        write_csv(&path, &[]).expect("temp dir is writable");
        assert_eq!(fs::read_to_string(&path).expect("readable"), "");
    }

    #[test]
    fn inconsistent_columns_are_a_typed_error() {
        let dir = std::env::temp_dir().join("gpasta_bench_test");
        let path = dir.join("bad.csv");
        let rows = vec![
            Row::new("a", &[("x", 1.0), ("y", 2.5)]),
            Row::new("b", &[("x", 3.0)]),
        ];
        match write_csv(&path, &rows) {
            Err(OutputError::InconsistentColumns {
                label,
                found: 1,
                expected: 2,
            }) => assert_eq!(label, "b"),
            other => panic!("expected InconsistentColumns, got {other:?}"),
        }
    }

    #[test]
    fn io_errors_carry_path_and_operation() {
        let path = Path::new("/proc/definitely-not-writable/out.csv");
        match write_csv(path, &[Row::new("a", &[("x", 1.0)])]) {
            Err(OutputError::Io { op, path: p, .. }) => {
                assert!(op == "create directory" || op == "write");
                assert!(p.starts_with("/proc"));
            }
            other => panic!("expected Io, got {other:?}"),
        }
        let msg = write_csv(path, &[Row::new("a", &[("x", 1.0)])])
            .expect_err("unwritable")
            .to_string();
        assert!(msg.contains("/proc"), "message names the path: {msg}");
    }
}
