//! Chaos tier for `gpasta serve`: a real daemon, concurrent clients,
//! and deterministic faults injected into live sessions.
//!
//! Every test drives the actual binary over a TCP socket with
//! `--chaos-inject` schedules (the serve-layer face of
//! `gpasta_sched::fault::FaultPlan`). The contract under test is
//! crash-only supervision:
//!
//! * a panic inside a session op returns a typed `session_crashed`
//!   error, never a hung connection or a dead worker thread;
//! * the crashed session auto-restores from its last background
//!   checkpoint plus the edit journal, and the retry serves;
//! * sessions that were NOT hit keep serving throughout, and the
//!   probes stay green;
//! * post-heal WNS/TNS bit patterns are identical to an uninterrupted
//!   oracle (`gpasta sta --bits` on the same edit sequence);
//! * past the crash budget the slot quarantines (`503`), and an
//!   explicit restore heals it;
//! * overload control sheds with `503` + `Retry-After`, and a
//!   slow-trickling client gets 408 without wedging the daemon.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::Duration;

use serde_json::Value;

const PIPELINE: &str = include_str!("fixtures/pipeline.v");

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pipeline.v")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpasta-serve-chaos-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A running `gpasta serve` process with extra flags; killed on drop.
struct Server {
    child: Child,
    addr: String,
    spool: PathBuf,
}

impl Server {
    fn start(tag: &str, extra: &[&str]) -> Server {
        let spool = tmp_dir(tag);
        let mut args = vec![
            "serve".to_string(),
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--spool".to_string(),
            spool.to_str().expect("utf8 spool").to_string(),
            "--workers".to_string(),
            "2".to_string(),
            "--max-sessions".to_string(),
            "12".to_string(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        let mut child = Command::new(env!("CARGO_BIN_EXE_gpasta"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("server spawns");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines
            .next()
            .expect("server prints its address")
            .expect("stdout readable");
        let addr = banner
            .rsplit_once("http://")
            .map(|(_, addr)| addr.trim().to_string())
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"));
        // Keep draining stdout so the server never blocks on a full pipe.
        thread::spawn(move || for _ in lines {});
        Server { child, addr, spool }
    }

    fn request(&self, method: &str, path: &str, body: Option<&Value>) -> (u16, Value) {
        request_at(&self.addr, method, path, body)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        std::fs::remove_dir_all(&self.spool).ok();
    }
}

/// One HTTP/1.1 request; returns `(status, parsed JSON body)`.
fn request_at(addr: &str, method: &str, path: &str, body: Option<&Value>) -> (u16, Value) {
    let raw = raw_request_at(addr, method, path, body);
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let json = raw
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .expect("header/body separator");
    (status, serde_json::from_str(json).expect("JSON body"))
}

/// Same, but returns the unparsed response text (headers included).
fn raw_request_at(addr: &str, method: &str, path: &str, body: Option<&Value>) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let payload = body.map(|v| serde_json::to_string(v).expect("serialize"));
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    if let Some(payload) = &payload {
        head.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            payload.len()
        ));
    }
    head.push_str("Connection: close\r\n\r\n");
    stream.write_all(head.as_bytes()).expect("write head");
    if let Some(payload) = &payload {
        stream.write_all(payload.as_bytes()).expect("write body");
    }
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

fn create_session(server: &Server, name: &str) -> Value {
    let body = Value::Object(vec![
        ("name".to_string(), Value::String(name.to_string())),
        ("verilog".to_string(), Value::String(PIPELINE.to_string())),
    ]);
    let (status, out) = server.request("POST", "/sessions", Some(&body));
    assert_eq!(status, 200, "create failed: {out:?}");
    out
}

fn edit_body(gate: &str, drive: f64) -> Value {
    Value::Object(vec![(
        "edits".to_string(),
        Value::Array(vec![Value::Object(vec![
            ("op".to_string(), Value::String("repower".to_string())),
            ("gate".to_string(), Value::String(gate.to_string())),
            ("drive".to_string(), Value::Number(drive)),
        ])]),
    )])
}

fn edit(server: &Server, name: &str, gate: &str, drive: f64) {
    let (status, out) = server.request(
        "POST",
        &format!("/sessions/{name}/edit"),
        Some(&edit_body(gate, drive)),
    );
    assert_eq!(status, 200, "edit failed: {out:?}");
}

fn update(server: &Server, name: &str) -> (u16, Value) {
    server.request(
        "POST",
        &format!("/sessions/{name}/update"),
        Some(&Value::Object(Vec::new())),
    )
}

fn report_bits(server: &Server, name: &str) -> (String, String) {
    let (status, out) = server.request("GET", &format!("/sessions/{name}/report?k=1"), None);
    assert_eq!(status, 200, "report failed: {out:?}");
    (
        out["report"]["wns_bits"].as_str().expect("wns").to_string(),
        out["report"]["tns_bits"].as_str().expect("tns").to_string(),
    )
}

/// The oracle: `gpasta sta --bits` with the full repower sequence
/// applied in one uninterrupted run (CLI and server share the Session
/// code path, so converged bits must agree exactly).
fn cli_bits(repowers: &[&str]) -> (String, String) {
    let mut args = vec![
        "sta".to_string(),
        fixture_path().to_str().expect("utf8").to_string(),
    ];
    for r in repowers {
        args.push("--repower".to_string());
        args.push(r.to_string());
    }
    args.push("--bits".to_string());
    let out = Command::new(env!("CARGO_BIN_EXE_gpasta"))
        .args(&args)
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let line = stdout
        .lines()
        .find(|l| l.starts_with("WNS bits"))
        .unwrap_or_else(|| panic!("no bits line in:\n{stdout}"));
    let words: Vec<&str> = line.split_whitespace().collect();
    (words[2].to_string(), words[5].to_string())
}

/// The seeded crash matrix: which update crashes × whether background
/// checkpointing runs. Every cell must heal to oracle bits.
#[test]
fn crash_matrix_heals_bit_identical_to_oracle() {
    // (crashed update index, checkpoint interval ms). Interval 0
    // disables the checkpointer, forcing full journal replay from the
    // sources; 25 ms makes a checkpoint near-certain between updates.
    for &(crash_update, checkpoint_ms) in &[(1u32, 0u64), (1, 25), (2, 0), (2, 25)] {
        let inject = format!("pipe:{crash_update}:0:panic");
        let ckpt = checkpoint_ms.to_string();
        let server = Server::start(
            &format!("matrix-{crash_update}-{checkpoint_ms}"),
            &["--chaos-inject", &inject, "--checkpoint-ms", &ckpt],
        );
        create_session(&server, "pipe");

        // Three edit+update rounds. The target (update `crash_update`,
        // attempt 0) fires exactly once, in the client's update: the
        // background checkpointer runs no update, so only the client
        // consumes update indices.
        let rounds = [("u2", 4.0), ("u6", 0.5), ("u3", 2.0)];
        let mut wire_crashes = 0u32;
        for (i, (gate, drive)) in rounds.iter().enumerate() {
            edit(&server, "pipe", gate, *drive);
            let (status, out) = update(&server, "pipe");
            match status {
                200 => assert_eq!(out["outcome"]["stop"], "completed", "{out:?}"),
                500 => {
                    wire_crashes += 1;
                    assert_eq!(out["error"]["kind"], "session_crashed", "{out:?}");
                    assert!(
                        out["error"]["message"]
                            .as_str()
                            .expect("message")
                            .contains("restored"),
                        "recovered crash says so: {out:?}"
                    );
                    // The heal: the same request retried must complete.
                    let (status, out) = update(&server, "pipe");
                    assert_eq!(status, 200, "retry after heal: {out:?}");
                    assert_eq!(out["outcome"]["stop"], "completed");
                }
                other => panic!("round {i}: unexpected status {other}: {out:?}"),
            }
            if checkpoint_ms > 0 {
                // Let the checkpointer snapshot the post-update state so
                // a later crash actually recovers from residue+journal.
                thread::sleep(Duration::from_millis(80));
            }
        }
        // The client is the one updater, so the crash surfaces on the wire
        // at the targeted round, deterministically, checkpointer or not.
        assert_eq!(
            wire_crashes, 1,
            "crash_update={crash_update}, checkpoint_ms={checkpoint_ms}"
        );

        let got = report_bits(&server, "pipe");
        let want = cli_bits(&["u2=4.0", "u6=0.5", "u3=2.0"]);
        assert_eq!(
            got, want,
            "healed bits match the uninterrupted oracle \
             (crash_update={crash_update}, checkpoint_ms={checkpoint_ms})"
        );

        let (status, st) = server.request("GET", "/status", None);
        assert_eq!(status, 200);
        assert!(st["crashes"].as_f64().expect("crashes") >= 1.0, "{st:?}");
        assert!(
            st["recoveries"].as_f64().expect("recoveries") >= 1.0,
            "{st:?}"
        );
        assert_eq!(st["quarantined"], 0u32, "{st:?}");
        let (status, listing) = server.request("GET", "/sessions", None);
        assert_eq!(status, 200);
        assert_eq!(listing["sessions"][0]["state"], "live");
        assert!(
            listing["sessions"][0]["recoveries"]
                .as_f64()
                .expect("recoveries")
                >= 1.0
        );
    }
}

/// Concurrent clients on untouched sessions keep serving (and stay
/// bit-correct) while the victim session crashes and heals; liveness
/// probes never flinch.
#[test]
fn daemon_keeps_serving_other_sessions_through_a_crash() {
    // Checkpointer off, so recovery replays the whole journal from the
    // sources (the matrix test covers recovery from a checkpoint).
    let server = Server::start(
        "concurrent",
        &["--chaos-inject", "victim:0:0:panic", "--checkpoint-ms", "0"],
    );
    create_session(&server, "victim");
    edit(&server, "victim", "u2", 4.0);
    let addr = server.addr.clone();

    let mut clients = Vec::new();
    for i in 0..4 {
        let addr = addr.clone();
        clients.push(thread::spawn(move || {
            let name = format!("bystander-{i}");
            let body = Value::Object(vec![
                ("name".to_string(), Value::String(name.clone())),
                ("verilog".to_string(), Value::String(PIPELINE.to_string())),
            ]);
            let (status, out) = request_at(&addr, "POST", "/sessions", Some(&body));
            assert_eq!(status, 200, "{out:?}");
            let drive = 1.5 + f64::from(i) * 0.5;
            let (status, out) = request_at(
                &addr,
                "POST",
                &format!("/sessions/{name}/edit"),
                Some(&edit_body("u2", drive)),
            );
            assert_eq!(status, 200, "{out:?}");
            let (status, out) = request_at(
                &addr,
                "POST",
                &format!("/sessions/{name}/update"),
                Some(&Value::Object(Vec::new())),
            );
            assert_eq!(status, 200, "{out:?}");
            out["report"]["wns_bits"]
                .as_str()
                .expect("bits")
                .to_string()
        }));
    }

    // While the bystanders run: crash the victim, check the probes,
    // heal, verify.
    let (status, out) = update(&server, "victim");
    assert_eq!(status, 500, "{out:?}");
    assert_eq!(out["error"]["kind"], "session_crashed");
    let (status, health) = server.request("GET", "/healthz", None);
    assert_eq!(status, 200, "liveness through the crash: {health:?}");
    assert_eq!(health["ok"], true, "{health:?}");
    let (status, ready) = server.request("GET", "/readyz", None);
    assert_eq!(status, 200, "readiness through the crash: {ready:?}");
    assert_eq!(ready["ready"], true, "{ready:?}");
    let (status, out) = update(&server, "victim");
    assert_eq!(status, 200, "victim healed: {out:?}");
    assert_eq!(out["outcome"]["stop"], "completed", "{out:?}");

    for (i, handle) in clients.into_iter().enumerate() {
        let bits = handle.join().expect("bystander thread");
        let (want, _) = cli_bits(&[&format!("u2={}", 1.5 + i as f64 * 0.5)]);
        assert_eq!(bits, want, "bystander {i} unaffected by the crash");
    }

    let (status, st) = server.request("GET", "/status", None);
    assert_eq!(status, 200);
    assert_eq!(st["crashes"], 1u32);
    assert_eq!(st["recoveries"], 1u32);
    assert_eq!(st["quarantined"], 0u32);
}

/// Past the crash budget the slot quarantines with a typed 503; an
/// explicit restore heals it back to oracle bits.
#[test]
fn crash_budget_quarantines_then_restore_heals() {
    let server = Server::start(
        "quarantine",
        &[
            "--chaos-inject",
            "q:0:0:panic",
            "--chaos-inject",
            "q:0:1:panic",
            "--max-crashes",
            "2",
            "--checkpoint-ms",
            "0",
        ],
    );
    create_session(&server, "q");
    edit(&server, "q", "u2", 4.0);

    // Crash 1: recovered (attempt becomes 1). Crash 2 fires on the
    // retry (update 0 again after a from-scratch rebuild, attempt 1)
    // and trips the budget.
    let (status, out) = update(&server, "q");
    assert_eq!(status, 500, "{out:?}");
    assert_eq!(out["error"]["kind"], "session_crashed");
    let (status, out) = update(&server, "q");
    assert_eq!(status, 503, "{out:?}");
    assert_eq!(out["error"]["kind"], "session_quarantined");

    // Quarantined: requests are typed 503s, the daemon itself is fine.
    let (status, out) = server.request("GET", "/sessions/q/report?k=1", None);
    assert_eq!(status, 503, "{out:?}");
    assert_eq!(out["error"]["kind"], "session_quarantined");
    let (status, listing) = server.request("GET", "/sessions", None);
    assert_eq!(status, 200);
    assert_eq!(listing["sessions"][0]["state"], "quarantined");
    let (status, _) = server.request("GET", "/healthz", None);
    assert_eq!(status, 200);

    // Heal: restore rebuilds (attempt 2 — no schedule entry, so it
    // stays up) and the session completes to oracle bits.
    let (status, out) = server.request(
        "POST",
        "/sessions/q/restore",
        Some(&Value::Object(Vec::new())),
    );
    assert_eq!(status, 200, "restore heals quarantine: {out:?}");
    let (status, out) = update(&server, "q");
    assert_eq!(status, 200, "{out:?}");
    assert_eq!(out["outcome"]["stop"], "completed");
    let got = report_bits(&server, "q");
    let want = cli_bits(&["u2=4.0"]);
    assert_eq!(got, want, "healed bits match the oracle");
}

/// Injected delays slow a session without failing it; results stay
/// bit-correct.
#[test]
fn injected_delay_is_survivable_and_bit_correct() {
    let server = Server::start(
        "delay",
        &["--chaos-inject", "d:0:0:delay:2000", "--checkpoint-ms", "0"],
    );
    create_session(&server, "d");
    edit(&server, "d", "u2", 4.0);
    let (status, out) = update(&server, "d");
    assert_eq!(status, 200, "delay is not a failure: {out:?}");
    assert_eq!(out["outcome"]["stop"], "completed");
    let got = report_bits(&server, "d");
    let want = cli_bits(&["u2=4.0"]);
    assert_eq!(got, want);
}

/// Overload control at the connection layer: past `--max-connections`
/// the daemon sheds immediately with `503` + `Retry-After` instead of
/// queueing behind the stuck connection.
#[test]
fn connection_cap_sheds_with_retry_after() {
    let server = Server::start(
        "conncap",
        &["--max-connections", "1", "--read-timeout-ms", "3000"],
    );
    // Occupy the only connection slot with a half-open request (the
    // worker blocks reading it until the deadline).
    let mut hog = TcpStream::connect(&server.addr).expect("connect");
    hog.write_all(b"GET /status HTTP/1.1\r\n").expect("partial");
    thread::sleep(Duration::from_millis(150));

    let raw = raw_request_at(&server.addr, "GET", "/healthz", None);
    assert!(raw.starts_with("HTTP/1.1 503"), "shed: {raw}");
    assert!(raw.contains("Retry-After:"), "Retry-After header: {raw}");
    assert!(raw.contains("\"overloaded\""), "typed kind: {raw}");

    // Release the slot; the daemon serves again.
    drop(hog);
    thread::sleep(Duration::from_millis(150));
    let (status, _) = server.request("GET", "/healthz", None);
    assert_eq!(status, 200, "daemon recovers once the hog is gone");
}

/// A client that trickles slower than the read deadline gets a clean
/// 408 and the worker thread comes back (no wedge).
#[test]
fn slow_trickle_times_out_with_408() {
    let server = Server::start("trickle", &["--read-timeout-ms", "300"]);
    let mut slow = TcpStream::connect(&server.addr).expect("connect");
    slow.write_all(b"POST /sessions HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"par")
        .expect("partial body");
    // Never send the rest; the read deadline must fire.
    let mut response = String::new();
    slow.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 408"), "{response}");
    assert!(response.contains("\"timeout\""), "{response}");

    let (status, _) = server.request("GET", "/healthz", None);
    assert_eq!(status, 200, "daemon fine after the timeout");
}

/// A session armed to crash at its next update, with an edit pending,
/// cannot crash the shutdown persist pass: the pass writes edit states and
/// runs no update, so every live session still spools.
#[test]
fn shutdown_persists_around_a_crashing_session() {
    let mut server = Server::start(
        "shutdown",
        &[
            // Update 1 attempt 0 on `bad` would panic; the persist pass
            // never runs it.
            "--chaos-inject",
            "bad:1:0:panic",
            "--checkpoint-ms",
            "0",
        ],
    );
    create_session(&server, "good");
    create_session(&server, "bad");
    edit(&server, "good", "u2", 4.0);
    edit(&server, "bad", "u2", 4.0);
    let (status, _) = update(&server, "bad"); // update 0: clean
    assert_eq!(status, 200);
    edit(&server, "bad", "u6", 0.5); // pending: update 1 is armed, never run

    let (status, out) = server.request("POST", "/shutdown", None);
    assert_eq!(status, 200, "{out:?}");
    assert_eq!(out["ok"], true, "{out:?}");
    let exit = server.child.wait().expect("server exits");
    assert!(
        exit.success(),
        "persist-pass panic must not kill the process"
    );
    assert!(
        server.spool.join("good.ckpt").exists(),
        "unaffected session spooled"
    );
}
