//! All four workloads at tiny scale through the real command line: every
//! metric `BENCHMARK.json` names is emitted once, finite, with its unit;
//! a corrupted oracle fails the run; exact counts repeat for a seed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use perf_ledger::edits::{EditStream, GenEdit, StreamKind};
use perf_ledger::metrics::{END_TO_END, PER_LAYER};
use serde_json::Value;

const HARNESS: &str = env!("CARGO_BIN_EXE_perf_ledger");

/// The harness looks for `gpasta` beside itself: build the root package's
/// binary into the same target directory and profile, once per test run.
fn ensure_gpasta() {
    static BUILT: OnceLock<()> = OnceLock::new();
    BUILT.get_or_init(|| {
        let profile_dir = Path::new(HARNESS).parent().expect("profile directory");
        let target_dir = profile_dir.parent().expect("target directory");
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
        let mut cargo = Command::new(env!("CARGO"));
        cargo.args(["build", "--offline", "--quiet", "--bin", "gpasta"]);
        cargo.arg("--manifest-path").arg(root);
        if profile_dir.ends_with("release") {
            cargo.arg("--release");
        }
        let status = cargo
            .env("CARGO_TARGET_DIR", target_dir)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building the gpasta binary failed");
    });
}

fn harness(workload: &str, seed: u64, trace: bool, envs: &[(&str, &str)]) -> Output {
    ensure_gpasta();
    let mut cmd = Command::new(HARNESS);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }]);
    cmd.arg("--smoke");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("harness runs")
}

/// The result object: the last line of standard output.
fn result_of(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("result line is JSON ({e}): {last}"))
}

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let bench = benchmark_json();
    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = bench[key].as_array().expect("metric list");
        assert_eq!(
            listed.len(),
            catalogue.len(),
            "{key}: same number of metrics"
        );
        for (entry, def) in listed.iter().zip(catalogue) {
            assert_eq!(entry["name"], def.name);
            assert_eq!(entry["unit"], def.unit, "{}", def.name);
            assert_eq!(entry["better"], def.better, "{}", def.name);
            if key == "end_to_end" {
                assert_eq!(entry["bound"], def.bound, "{}", def.name);
            }
        }
    }
    let workloads: Vec<&str> = bench["workloads"]
        .as_array()
        .expect("workload list")
        .iter()
        .map(|w| w["name"].as_str().expect("name"))
        .collect();
    let known: Vec<&str> = perf_ledger::WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .collect();
    assert_eq!(workloads, known);
}

#[test]
fn every_workload_emits_every_metric_once_with_its_unit() {
    let bench = benchmark_json();
    for (workload, _) in perf_ledger::WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = harness(workload, 11, trace, &[]);
            assert!(
                out.status.success(),
                "{workload} trace={trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = result_of(&out);
            assert_eq!(result["correct"], true);
            assert_eq!(result["failed"], 0u32);
            assert!(result["attempted"].as_f64().expect("attempted") >= 1.0);
            let Value::Object(metrics) = &result["metrics"] else {
                panic!("metrics is an object");
            };
            let listed = bench[key].as_array().expect("metric list");
            assert_eq!(metrics.len(), listed.len(), "{workload}: each metric once");
            for entry in listed {
                let name = entry["name"].as_str().expect("name");
                let cell = &result["metrics"][name];
                let value = cell["value"].as_f64();
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} is a finite number, got {cell:?}"
                );
                assert_eq!(cell["unit"], entry["unit"], "{workload}: {name}");
                if !trace {
                    assert!(value > Some(0.0), "{workload}: {name} is never 0");
                }
            }
            // A layer the workload drives reads non-zero; `serve.*` and
            // `shard.*` read 0 off their own workload.
            if trace {
                let nonzero = |name: &str| result["metrics"][name]["value"].as_f64() > Some(0.0);
                assert!(nonzero("sta.tdg_build_ms_p50"), "{workload}");
                assert!(nonzero("sched.run_ms_p50"), "{workload}");
                assert_eq!(nonzero("serve.update_ms_p50"), *workload == "serve_eco");
                assert_eq!(nonzero("shard.worker_exec_ms"), *workload == "shard_full");
            }
        }
    }
}

#[test]
fn a_corrupted_oracle_fails_the_run() {
    let out = harness(
        "eco_loop",
        11,
        false,
        &[("PERF_LEDGER_CORRUPT_ORACLE", "1")],
    );
    assert!(
        !out.status.success(),
        "one wrong expected bit must fail the run"
    );
    let result = result_of(&out);
    assert_eq!(result["correct"], false);
    assert!(result["failed"].as_f64() >= Some(1.0));
}

#[test]
fn exact_counts_repeat_for_a_seed_and_the_seed_drives_the_edits() {
    let exact = [
        "sta.tasks_per_update",
        "sta.deps_per_update",
        "sched.dispatches",
        "sched.dispatches_plain",
        "tdg.quotient_parts",
        "tdg.quotient_edges",
        "tdg.depth_ratio",
        "sched.sim_gain",
    ];
    let counts = |seed: u64| -> Vec<f64> {
        let out = harness("eco_loop", seed, true, &[]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let result = result_of(&out);
        exact
            .iter()
            .map(|name| result["metrics"][*name]["value"].as_f64().expect("value"))
            .collect()
    };
    assert_eq!(counts(5), counts(5), "same seed, same counts");

    let timer = perf_ledger::mirror::timer_from_text(
        &gpasta::sta::write_verilog(&gpasta::circuits::PaperCircuit::AesCore.build(0.01), "t"),
        &mut perf_ledger::trace::Tracer::default(),
    );
    let edits = |seed| -> Vec<GenEdit> {
        EditStream::new(StreamKind::Eco, seed, &timer)
            .take(20)
            .collect()
    };
    assert_eq!(edits(5), edits(5));
    assert_ne!(edits(5), edits(6), "another seed, another edit stream");
}
