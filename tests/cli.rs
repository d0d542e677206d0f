//! End-to-end tests of the `gpasta` command-line tool, driving the real
//! binary over real files.

use std::path::PathBuf;
use std::process::{Command, Output};

fn gpasta(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gpasta"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gpasta_cli_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn demo_prints_all_partitioners() {
    let out = gpasta(&["demo"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for name in ["G-PASTA", "deter-G-PASTA", "seq-G-PASTA", "GDCA", "Sarkar"] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn help_shows_usage_and_unknown_command_fails() {
    let out = gpasta(&["--help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("usage:"));

    let out = gpasta(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn partition_pipeline_writes_artifacts() {
    let edges = tmp("diamond.txt");
    std::fs::write(&edges, "# diamond\n0 1\n0 2\n1 3\n2 3\n").expect("write edges");
    let csv = tmp("assign.csv");
    let dot = tmp("out.dot");

    let out = gpasta(&[
        "partition",
        edges.to_str().expect("utf8"),
        "--algo",
        "seq",
        "--ps",
        "2",
        "--csv",
        csv.to_str().expect("utf8"),
        "--dot",
        dot.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("seq-G-PASTA"));
    assert!(text.contains("validated"));

    let csv_text = std::fs::read_to_string(&csv).expect("csv written");
    assert!(csv_text.starts_with("task,partition\n"));
    assert_eq!(csv_text.lines().count(), 5, "header + 4 tasks");
    let dot_text = std::fs::read_to_string(&dot).expect("dot written");
    assert!(dot_text.contains("subgraph cluster_0"));
}

#[test]
fn stats_reports_shape() {
    let edges = tmp("chain.txt");
    std::fs::write(&edges, "0 1\n1 2\n2 3\n").expect("write edges");
    let out = gpasta(&["stats", edges.to_str().expect("utf8")]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("4 tasks, 3 deps"));
    assert!(text.contains("1 sources, 1 sinks"));
}

#[test]
fn sta_flow_over_files() {
    // Write design + library + constraints through the library APIs, then
    // drive the CLI over them.
    let netlist = gpasta::circuits::iscas::c17();
    let v_path = tmp("c17.v");
    std::fs::write(&v_path, gpasta::sta::write_verilog(&netlist, "c17")).expect("write v");
    let lib_path = tmp("cells.lib");
    std::fs::write(
        &lib_path,
        gpasta::sta::write_liberty(&gpasta::sta::CellLibrary::typical(), "typ"),
    )
    .expect("write lib");
    let sdc_path = tmp("c17.sdc");
    std::fs::write(
        &sdc_path,
        "create_clock -period 500\nset_input_delay 50 [get_ports n1]\n",
    )
    .expect("write sdc");

    let out = gpasta(&[
        "sta",
        v_path.to_str().expect("utf8"),
        "--lib",
        lib_path.to_str().expect("utf8"),
        "--sdc",
        sdc_path.to_str().expect("utf8"),
        "--paths",
        "2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("design: 6 gates"));
    assert!(text.contains("WNS"));
    assert!(text.contains("worst path"));
}

#[test]
fn malformed_inputs_produce_clean_errors() {
    let bad = tmp("cyclic.txt");
    std::fs::write(&bad, "0 1\n1 0\n").expect("write edges");
    let out = gpasta(&["partition", bad.to_str().expect("utf8")]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("invalid graph"), "{}", stderr(&out));

    let out = gpasta(&["partition", "/definitely/not/a/file"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot read"));

    let bad_v = tmp("bad.v");
    std::fs::write(
        &bad_v,
        "module t (y);\n output y;\n FROB u1 (.y(y));\nendmodule\n",
    )
    .expect("write v");
    let out = gpasta(&["sta", bad_v.to_str().expect("utf8")]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown cell"), "{}", stderr(&out));
}

#[test]
fn task_counts_past_the_id_space_exit_1_before_allocating() {
    for (name, text, requested) in [
        (
            "huge_header.txt",
            "# tasks: 18446744073709551615\n0 1\n",
            "18446744073709551615",
        ),
        ("huge_id.txt", "0 4294967295\n", "4294967296"),
    ] {
        let path = tmp(name);
        std::fs::write(&path, text).expect("write edges");
        let out = gpasta(&["stats", path.to_str().expect("utf8")]);
        assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
        let want = format!("requested {requested} tasks, which exceeds the u32 task-id space");
        assert!(stderr(&out).contains(&want), "{}", stderr(&out));
    }
}

#[test]
fn a_task_count_the_file_does_not_back_exits_1_before_allocating() {
    let path = tmp("unbacked_header.txt");
    std::fs::write(&path, "# tasks: 4294967295\n").expect("write edges");
    let out = gpasta(&["stats", path.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let want = "edge list of 20 bytes names 4294967295 tasks; at most 65556 are accepted";
    assert!(stderr(&out).contains(want), "{}", stderr(&out));
}

/// A layered DAG big enough for a 5% fault rate to reliably fire.
fn layered_edges(name: &str) -> PathBuf {
    let path = tmp(name);
    let mut text = String::new();
    for layer in 0..19u32 {
        for i in 0..8u32 {
            for j in 0..8u32 {
                if (i + j) % 3 != 2 {
                    text.push_str(&format!("{} {}\n", layer * 8 + i, (layer + 1) * 8 + j));
                }
            }
        }
    }
    std::fs::write(&path, text).expect("write edges");
    path
}

#[test]
fn faults_quarantines_and_verifies_the_closure() {
    let edges = layered_edges("faults_demo.txt");
    let out = gpasta(&[
        "faults",
        edges.to_str().expect("utf8"),
        "--seed",
        "7",
        "--rate",
        "0.05",
        "--workers",
        "2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("fault(s) fired"), "{text}");
    assert!(
        text.contains("quarantine verified: poisoned set is the forward closure"),
        "{text}"
    );
}

#[test]
fn faults_with_a_clean_seed_salvages_everything() {
    let edges = layered_edges("faults_clean.txt");
    // Rate 0 fires nothing regardless of seed.
    let out = gpasta(&["faults", edges.to_str().expect("utf8"), "--rate", "0"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("0 fault(s) fired"), "{text}");
    assert!(text.contains("0 poisoned"), "{text}");
}

#[test]
fn faults_rejects_bad_flags_cleanly() {
    let edges = layered_edges("faults_flags.txt");
    let out = gpasta(&["faults", edges.to_str().expect("utf8"), "--workers", "0"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("at least one worker"),
        "{}",
        stderr(&out)
    );

    let out = gpasta(&["faults", edges.to_str().expect("utf8"), "--rate", "1.5"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--rate must be within [0, 1]"),
        "{}",
        stderr(&out)
    );

    let out = gpasta(&["faults"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("missing <edges-file>"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn sanitize_recovery_is_deterministic_across_worker_counts() {
    let edges = layered_edges("recovery_sanitize.txt");
    let out = gpasta(&[
        "sanitize",
        edges.to_str().expect("utf8"),
        "--algo",
        "recovery",
        "--workers",
        "1,2,4",
        "--runs",
        "2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("recovery"), "{text}");
    assert!(text.contains("Deterministic"), "{text}");
}

#[test]
fn a_scale_that_is_not_finite_is_a_usage_error() {
    for scale in ["nan", "inf"] {
        for (cmd, flag, n) in [("update", "--iters", "1"), ("shard", "--shards", "2")] {
            let args = [cmd, "--circuit", "aes_core", "--scale", scale, flag, n];
            let out = gpasta(&args);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
            assert!(
                stderr(&out).contains("--scale: invalid value"),
                "{args:?}: {}",
                stderr(&out)
            );
        }
    }
}

#[test]
fn serve_refuses_chaos_kinds_a_session_cannot_inject() {
    for kinds in ["transient", "panic,wrong_result"] {
        let out = gpasta(&["serve", "--stdio", "--chaos-kinds", kinds]);
        assert_eq!(out.status.code(), Some(2), "{kinds}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("--chaos-kinds"), "{kinds}: {err}");
        assert!(err.contains("`panic` or `delay"), "{kinds}: {err}");
    }
}

#[test]
fn serve_refuses_a_chaos_inject_a_session_cannot_fire() {
    for spec in ["s:0:0:wrong_result", "s:0:0:transient"] {
        let out = gpasta(&["serve", "--stdio", "--chaos-inject", spec]);
        assert_eq!(out.status.code(), Some(2), "{spec}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("--chaos-inject"), "{spec}: {err}");
        assert!(err.contains("`panic` or `delay"), "{spec}: {err}");
    }
}

#[test]
fn a_killed_update_resumes_to_the_straight_runs_output() {
    let ckpt = tmp(&format!("kill_resume_{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let ckpt_arg = ckpt.to_str().expect("utf-8 temp path");
    let base = [
        "update",
        "--circuit",
        "aes_core",
        "--scale",
        "0.005",
        "--iters",
        "6",
        "--seed",
        "7",
    ];
    let run = |extra: &[&str]| gpasta(&[&base[..], extra].concat());

    let killed = run(&["--checkpoint", ckpt_arg, "--kill-after", "2"]);
    assert!(killed.status.success(), "stderr: {}", stderr(&killed));
    assert!(
        stdout(&killed).contains("2/6 iteration(s)"),
        "{}",
        stdout(&killed)
    );
    let header = std::fs::read(&ckpt).expect("the killed run left a checkpoint");
    assert!(header.starts_with(b"GPCKPT05"));

    let resumed = run(&["--resume", ckpt_arg]);
    assert!(resumed.status.success(), "stderr: {}", stderr(&resumed));
    let straight = run(&[]);
    assert!(straight.status.success(), "stderr: {}", stderr(&straight));
    assert!(stdout(&straight).contains("6/6 iteration(s)"));
    assert_eq!(
        stdout(&resumed),
        stdout(&straight),
        "resume is bit-identical"
    );
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn a_shard_run_with_killed_workers_respawns_to_the_clean_runs_bits() {
    let base = [
        "shard",
        "--circuit",
        "aes_core",
        "--scale",
        "0.01",
        "--shards",
        "3",
        "--bits",
    ];
    let kills = ["--kill", "0:0", "--kill", "1:0:transient"];
    let (clean, killed) = (gpasta(&base), gpasta(&[&base[..], &kills].concat()));
    for run in [&clean, &killed] {
        assert!(run.status.success(), "stderr: {}", stderr(run));
    }
    let (clean, killed) = (stdout(&clean), stdout(&killed));
    assert!(killed.contains("2 respawn(s)"), "{killed}");
    // One long-lived worker serves a clean run; each victim takes one
    // process with it.
    assert!(clean.contains(" 1 worker process(es) spawned"), "{clean}");
    assert!(killed.contains(" 3 worker process(es) spawned"), "{killed}");
    let bits = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| l.contains("bits"))
            .map(str::to_owned)
            .collect()
    };
    assert!(!bits(&clean).is_empty(), "{clean}");
    assert_eq!(bits(&clean), bits(&killed), "recovery is bit-exact");
}
