//! Smoke tests for the harness binaries: run `fig7`, `fig8`,
//! `fault_recovery` and `table1` at a tiny `--scale` inside `cargo test`
//! and pin the CSV/JSON schemas their consumers (plot scripts, CI
//! artifact checks) rely on. For `fig7` and `fig8` the committed files of
//! record in `results/` are held to the same column list as a fresh run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::{Mutex, PoisonError};

/// Run one harness binary at a time: `fault_recovery` polices a wall-clock
/// overhead budget, and a figure sweep on the other core skews it.
fn run(bin: &str, args: &[&str]) -> Output {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    Command::new(bin)
        .args(args)
        .output()
        .expect("harness binary runs")
}

/// A unique output directory per test, so parallel tests never collide.
fn out_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("gpasta_harness_smoke")
        .join(format!("{}_{}", name, std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale output dir");
    }
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn csv_header(path: &Path) -> String {
    read(path).lines().next().expect("non-empty CSV").to_owned()
}

fn assert_csv_rows(path: &Path) {
    let text = read(path);
    let cols = text.lines().next().expect("header").split(',').count();
    let rows: Vec<&str> = text.lines().skip(1).collect();
    assert!(!rows.is_empty(), "{} has no data rows", path.display());
    for row in rows {
        assert_eq!(
            row.split(',').count(),
            cols,
            "ragged row in {}: {row}",
            path.display()
        );
    }
}

fn json_rows(path: &Path) -> serde_json::Value {
    serde_json::from_str(&read(path)).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

/// Column names of one `Row` in the `write_json` format:
/// `{"label": ..., "values": [[name, value], ...]}`.
fn json_columns(row: &serde_json::Value) -> Vec<String> {
    row["values"]
        .as_array()
        .expect("values array")
        .iter()
        .map(|kv| kv[0].as_str().expect("column name").to_owned())
        .collect()
}

/// Run a figure emitter at a tiny scale into `out`, then check that every
/// `<figure>_<circuit>` file it wrote — CSV header and JSON rows — and
/// the committed file of record in `results/` carry `columns`, in order.
fn assert_figure_schema(bin: &str, out: &Path, figure: &str, circuits: &[&str], columns: &[&str]) {
    let dir = out.to_str().expect("utf8");
    let res = run(
        bin,
        &[
            "--scale",
            "0.0006",
            "--workers",
            "2",
            "--runs",
            "1",
            "--out",
            dir,
        ],
    );
    assert!(
        res.status.success(),
        "{}",
        String::from_utf8_lossy(&res.stderr)
    );

    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for circuit in circuits {
        let csv = out.join(format!("{figure}_{circuit}.csv"));
        assert_eq!(csv_header(&csv), format!("label,{}", columns.join(",")));
        assert_csv_rows(&csv);

        for json in [out, committed.as_path()].map(|d| d.join(format!("{figure}_{circuit}.json"))) {
            let rows = json_rows(&json);
            let rows = rows.as_array().expect("row array");
            assert!(!rows.is_empty(), "{} has no rows", json.display());
            assert_eq!(
                json_columns(&rows[0]),
                columns,
                "{} column schema",
                json.display()
            );
        }
    }
}

#[test]
fn fig7_scratch_mode_writes_the_documented_schema() {
    assert_figure_schema(
        env!("CARGO_BIN_EXE_fig7"),
        &out_dir("fig7_scratch"),
        "fig7",
        &["vga_lcd", "leon2"],
        &[
            "original_wall_ms",
            "gdca_wall_ms",
            "gpasta_wall_ms",
            "original_sim_ms",
            "gdca_sim_ms",
            "gpasta_sim_ms",
        ],
    );
}

#[test]
fn fig8_writes_the_documented_schema() {
    assert_figure_schema(
        env!("CARGO_BIN_EXE_fig8"),
        &out_dir("fig8"),
        "fig8",
        &["des_perf", "leon2"],
        &[
            "gdca_sim_ms",
            "seq_gpasta_sim_ms",
            "gpasta_sim_ms",
            "deter_gpasta_sim_ms",
            "gdca_wall_ms",
            "seq_gpasta_wall_ms",
            "gpasta_wall_ms",
            "deter_gpasta_wall_ms",
        ],
    );
}

#[test]
fn fault_recovery_writes_the_documented_schema() {
    let out = out_dir("fault_recovery");
    let dir = out.to_str().expect("utf8");
    let res = run(
        env!("CARGO_BIN_EXE_fault_recovery"),
        &[
            "--scale",
            "0.002",
            "--workers",
            "2",
            "--runs",
            "2",
            "--out",
            dir,
        ],
    );
    assert!(
        res.status.success(),
        "{}",
        String::from_utf8_lossy(&res.stderr)
    );

    let csv = out.join("fault_recovery.csv");
    assert_eq!(
        csv_header(&csv),
        "label,tasks,plain_ms,recovering_ms,overhead_pct,faults_fired,\
         salvaged_frac,heal_ms"
    );
    assert_csv_rows(&csv);

    // The summary CI uploads: one row per circuit, healed-WNS bit-identity
    // already asserted inside the binary.
    let summary = json_rows(&out.join("BENCH_fault_recovery.json"));
    let rows = summary.as_array().expect("summary array");
    let labels: Vec<&str> = rows
        .iter()
        .map(|r| r["label"].as_str().expect("label"))
        .collect();
    assert_eq!(labels, ["vga_lcd", "leon2"]);
    for row in rows {
        assert_eq!(
            json_columns(row),
            [
                "tasks",
                "plain_ms",
                "recovering_ms",
                "overhead_pct",
                "faults_fired",
                "salvaged_frac",
                "heal_ms"
            ]
        );
        let frac = row["values"][5][1].as_f64().expect("salvaged_frac");
        assert!((0.0..=1.0).contains(&frac), "salvaged_frac {frac} in [0,1]");
    }
}

#[test]
fn table1_writes_the_documented_schema() {
    let out = out_dir("table1");
    let dir = out.to_str().expect("utf8");
    let res = run(
        env!("CARGO_BIN_EXE_table1"),
        &[
            "--scale",
            "0.0006",
            "--workers",
            "2",
            "--runs",
            "1",
            "--out",
            dir,
        ],
    );
    assert!(
        res.status.success(),
        "{}",
        String::from_utf8_lossy(&res.stderr)
    );

    let csv = out.join("table1.csv");
    assert_eq!(
        csv_header(&csv),
        "label,tasks,deps,t_tdg_ms,sim_tdg_ms,sim_tdgp_gdca_ms,sim_tdgp_seq_ms,\
         sim_tdgp_gpasta_ms,sim_tdgp_deter_ms,t_tdgp_gdca_ms,t_tdgp_seq_ms,\
         t_tdgp_gpasta_ms,t_tdgp_deter_ms,t_part_gdca_ms,t_part_seq_ms,\
         t_part_gpasta_ms,t_part_deter_ms,gdca_ps"
    );
    assert_csv_rows(&csv);

    let rows = json_rows(&out.join("table1.json"));
    let rows = rows.as_array().expect("row array");
    assert_eq!(rows.len(), 6, "one row per paper circuit");
}
