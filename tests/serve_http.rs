//! End-to-end tests of `gpasta serve`: the real binary, a real TCP
//! socket, and a hand-rolled HTTP/1.1 client. Each test binds port 0
//! and parses the bound address from the server's first stdout line.
//!
//! The load-bearing assertion is bit-identity: an incremental edit +
//! `update_timing` over HTTP must produce exactly the WNS/TNS bits the
//! one-shot `gpasta sta` CLI prints for the same design and edit,
//! because both ride the same [`gpasta::session::Session`] code path.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread;

use serde_json::Value;

const PIPELINE: &str = include_str!("fixtures/pipeline.v");

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pipeline.v")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpasta-serve-http-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A running `gpasta serve` process; killed on drop so a failing test
/// cannot leak a listener.
struct Server {
    child: Child,
    addr: String,
    spool: PathBuf,
}

impl Server {
    fn start(tag: &str) -> Server {
        Server::start_with(tag, &[])
    }

    fn start_with(tag: &str, extra: &[&str]) -> Server {
        let spool = tmp_dir(tag);
        let mut child = Command::new(env!("CARGO_BIN_EXE_gpasta"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--spool",
                spool.to_str().expect("utf8 spool"),
                "--workers",
                "2",
                "--max-sessions",
                "12",
            ])
            .args(extra)
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

    /// One HTTP/1.1 request; returns `(status, parsed JSON body)`.
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

fn request_at(addr: &str, method: &str, path: &str, body: Option<&Value>) -> (u16, Value) {
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
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let json = response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .expect("header/body separator");
    (status, serde_json::from_str(json).expect("JSON body"))
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

fn repower_edit(gate: &str, drive: f64) -> Value {
    Value::Object(vec![(
        "edits".to_string(),
        Value::Array(vec![Value::Object(vec![
            ("op".to_string(), Value::String("repower".to_string())),
            ("gate".to_string(), Value::String(gate.to_string())),
            ("drive".to_string(), Value::Number(drive)),
        ])]),
    )])
}

/// The `WNS bits XXXXXXXX  TNS bits YYYYYYYY` line from
/// `gpasta sta --bits`, as the two hex strings.
fn cli_bits(repower: &str) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gpasta"))
        .args([
            "sta",
            fixture_path().to_str().expect("utf8"),
            "--repower",
            repower,
            "--bits",
        ])
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

#[test]
fn http_edit_update_matches_cli_bit_for_bit() {
    let server = Server::start("bits");
    let (status, health) = server.request("GET", "/healthz", None);
    assert_eq!(status, 200, "{health:?}");
    assert_eq!(health["ok"], true);
    let (status, ready) = server.request("GET", "/readyz", None);
    assert_eq!(status, 200, "{ready:?}");
    assert_eq!(ready["ready"], true);
    let created = create_session(&server, "pipe");
    assert_eq!(created["shape"]["gates"], 10u32);

    let (status, edited) = server.request(
        "POST",
        "/sessions/pipe/edit",
        Some(&repower_edit("u2", 4.0)),
    );
    assert_eq!(status, 200, "{edited:?}");
    assert_eq!(edited["applied"], 1u32);

    let (status, updated) = server.request(
        "POST",
        "/sessions/pipe/update",
        Some(&Value::Object(Vec::new())),
    );
    assert_eq!(status, 200, "{updated:?}");
    assert_eq!(updated["outcome"]["stop"], "completed");

    let (status, report) = server.request("GET", "/sessions/pipe/report?k=1", None);
    assert_eq!(status, 200, "{report:?}");
    let (wns_bits, tns_bits) = cli_bits("u2=4.0");
    assert_eq!(report["report"]["wns_bits"], wns_bits.as_str());
    assert_eq!(report["report"]["tns_bits"], tns_bits.as_str());
    let (status, top3) = server.request("GET", "/sessions/pipe/report?k=3", None);
    assert_eq!(status, 200, "{top3:?}");
    let worst = top3["report"]["worst"].as_array().expect("worst");
    assert!(!worst.is_empty(), "{top3:?}");

    let (status, paths) = server.request("GET", "/sessions/pipe/paths?k=1", None);
    assert_eq!(status, 200, "{paths:?}");
    let steps = paths["paths"][0]["steps"].as_array().expect("steps");
    assert!(!steps.is_empty(), "worst path has steps");
}

#[test]
fn a_huge_path_count_is_refused_and_the_daemon_keeps_serving() {
    let server = Server::start("paths_k");
    create_session(&server, "pipe");
    let (status, refused) = server.request("GET", "/sessions/pipe/paths?k=1000000000", None);
    assert_eq!(status, 400, "{refused:?}");
    assert_eq!(refused["error"]["kind"], "bad_field");
    let (status, health) = server.request("GET", "/healthz", None);
    assert_eq!(status, 200, "{health:?}");
    let (status, paths) = server.request("GET", "/sessions/pipe/paths?k=3", None);
    assert_eq!(status, 200, "{paths:?}");
    assert_eq!(paths["paths"].as_array().expect("paths").len(), 3);
}

#[test]
fn deadline_bounded_update_degrades_then_recovers() {
    let server = Server::start("deadline");
    create_session(&server, "pipe");
    let (status, _) = server.request(
        "POST",
        "/sessions/pipe/edit",
        Some(&repower_edit("u2", 4.0)),
    );
    assert_eq!(status, 200);

    // Zero budget: the request must still be 2xx with a structured
    // degradation marker, never a hang or a 5xx.
    let body = Value::Object(vec![("deadline_ms".to_string(), Value::Number(0.0))]);
    let (status, degraded) = server.request("POST", "/sessions/pipe/update", Some(&body));
    assert_eq!(status, 200, "{degraded:?}");
    assert_eq!(degraded["outcome"]["stop"], "deadline_expired");

    // A generous deadline completes and converges to the CLI's answer.
    let body = Value::Object(vec![("deadline_ms".to_string(), Value::Number(30_000.0))]);
    let (status, completed) = server.request("POST", "/sessions/pipe/update", Some(&body));
    assert_eq!(status, 200, "{completed:?}");
    assert_eq!(completed["outcome"]["stop"], "completed");
    let (wns_bits, _) = cli_bits("u2=4.0");
    assert!(
        wns_bits.len() == 8
            && wns_bits
                .bytes()
                .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')),
        "eight lowercase hex digits: {wns_bits:?}"
    );
    assert_eq!(completed["report"]["wns_bits"], wns_bits.as_str());
}

#[test]
fn evict_restore_over_http_preserves_bits() {
    let server = Server::start("evict");
    create_session(&server, "pipe");
    server.request(
        "POST",
        "/sessions/pipe/edit",
        Some(&repower_edit("u6", 0.5)),
    );
    let (status, updated) = server.request(
        "POST",
        "/sessions/pipe/update",
        Some(&Value::Object(Vec::new())),
    );
    assert_eq!(status, 200, "{updated:?}");
    let before = updated["report"]["wns_bits"].clone();

    let (status, evicted) = server.request("DELETE", "/sessions/pipe", None);
    assert_eq!(status, 200, "{evicted:?}");
    let ckpt = evicted["checkpoint"].as_str().expect("checkpoint path");
    assert!(PathBuf::from(ckpt).exists(), "checkpoint on disk");

    let (status, while_dormant) = server.request("GET", "/sessions/pipe/report?k=1", None);
    assert_eq!(
        status, 409,
        "dormant session rejects queries: {while_dormant:?}"
    );
    assert_eq!(while_dormant["error"]["kind"], "not_live");

    let (status, restored) = server.request(
        "POST",
        "/sessions/pipe/restore",
        Some(&Value::Object(Vec::new())),
    );
    assert_eq!(status, 200, "{restored:?}");

    let (status, report) = server.request("GET", "/sessions/pipe/report?k=1", None);
    assert_eq!(status, 200, "{report:?}");
    assert_eq!(
        report["report"]["wns_bits"], before,
        "restore is bit-identical"
    );
}

#[test]
fn eight_concurrent_sessions_with_deadlines() {
    let server = Server::start("concurrent");
    let addr = server.addr.clone();
    let mut clients = Vec::new();
    for i in 0..8 {
        let addr = addr.clone();
        clients.push(thread::spawn(move || {
            let name = format!("client-{i}");
            let body = Value::Object(vec![
                ("name".to_string(), Value::String(name.clone())),
                ("verilog".to_string(), Value::String(PIPELINE.to_string())),
            ]);
            let (status, out) = request_at(&addr, "POST", "/sessions", Some(&body));
            assert_eq!(status, 200, "{out:?}");

            let edit = repower_edit("u2", 1.5 + f64::from(i) * 0.5);
            let (status, out) = request_at(
                &addr,
                "POST",
                &format!("/sessions/{name}/edit"),
                Some(&edit),
            );
            assert_eq!(status, 200, "{out:?}");

            let budget = Value::Object(vec![("deadline_ms".to_string(), Value::Number(30_000.0))]);
            let (status, out) = request_at(
                &addr,
                "POST",
                &format!("/sessions/{name}/update"),
                Some(&budget),
            );
            assert_eq!(status, 200, "{out:?}");
            assert_eq!(out["outcome"]["stop"], "completed");
            out["report"]["wns_bits"]
                .as_str()
                .expect("wns bits")
                .to_string()
        }));
    }
    let got: Vec<String> = clients
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    for (i, bits) in got.iter().enumerate() {
        let (expected, _) = cli_bits(&format!("u2={}", 1.5 + i as f64 * 0.5));
        assert_eq!(*bits, expected, "client {i} matches its solo CLI run");
    }

    let (status, listing) = request_at(&addr, "GET", "/sessions", None);
    assert_eq!(status, 200);
    assert_eq!(listing["sessions"].as_array().expect("rows").len(), 8);
}

/// Write one request with `Connection: keep-alive` on an already-open
/// stream (the persistent-connection counterpart of [`request_at`]).
fn send_keep_alive(
    mut writer: &TcpStream,
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&Value>,
) {
    let payload = body.map(|v| serde_json::to_string(v).expect("serialize"));
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    if let Some(payload) = &payload {
        head.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            payload.len()
        ));
    }
    head.push_str("Connection: keep-alive\r\n\r\n");
    writer.write_all(head.as_bytes()).expect("write head");
    if let Some(payload) = &payload {
        writer.write_all(payload.as_bytes()).expect("write body");
    }
}

/// Read exactly one response off a persistent connection: status, the
/// `Connection` header value, and the JSON body framed by
/// `Content-Length`. `None` on EOF before the status line.
fn read_framed_response(reader: &mut BufReader<&TcpStream>) -> Option<(u16, String, Value)> {
    let mut line = String::new();
    if reader.read_line(&mut line).ok()? == 0 {
        return None;
    }
    let status: u16 = line.split_whitespace().nth(1)?.parse().ok()?;
    let mut connection = String::new();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).ok()?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((key, value)) = header.split_once(':') {
            if key.eq_ignore_ascii_case("connection") {
                connection = value.trim().to_string();
            } else if key.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    let json = serde_json::from_str(std::str::from_utf8(&body).ok()?).ok()?;
    Some((status, connection, json))
}

#[test]
fn keep_alive_reuses_a_connection_up_to_the_request_cap() {
    let server = Server::start_with("keepalive", &["--keep-alive-requests", "3"]);
    let stream = TcpStream::connect(&server.addr).expect("connect");
    let mut reader = BufReader::new(&stream);

    // Three different requests ride one connection; the third hits the
    // per-connection cap and is answered `Connection: close`.
    let session = Value::Object(vec![
        ("name".to_string(), Value::String("ka".to_string())),
        ("verilog".to_string(), Value::String(PIPELINE.to_string())),
    ]);
    let requests: [(&str, &str, Option<&Value>); 3] = [
        ("GET", "/healthz", None),
        ("POST", "/sessions", Some(&session)),
        ("GET", "/sessions/ka/report?k=1", None),
    ];
    for (i, (method, path, body)) in requests.iter().enumerate() {
        send_keep_alive(&stream, &server.addr, method, path, *body);
        let (status, connection, out) =
            read_framed_response(&mut reader).expect("response arrives");
        assert_eq!(status, 200, "{method} {path}: {out:?}");
        if i < requests.len() - 1 {
            assert_eq!(connection, "keep-alive", "request {i} keeps the connection");
        } else {
            assert_eq!(connection, "close", "the cap closes the connection");
        }
    }

    // Past the cap the server's end is closed: clean EOF, no stray bytes.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("clean EOF");
    assert!(rest.is_empty(), "no bytes after the capped response");

    // The session created over keep-alive is visible to a fresh
    // one-shot connection.
    let (status, listing) = server.request("GET", "/sessions", None);
    assert_eq!(status, 200);
    assert_eq!(listing["sessions"].as_array().expect("rows").len(), 1);
}

#[test]
fn keep_alive_round_trips_do_not_wait_for_a_delayed_ack() {
    // A response written as two small segments stalls on a kept-alive
    // connection: the second waits (Nagle) for the ACK of the first, and
    // the client delays that ACK ~40 ms because it has nothing to send.
    let server = Server::start("nodelay");
    let stream = TcpStream::connect(&server.addr).expect("connect");
    let mut reader = BufReader::new(&stream);
    const ROUND_TRIPS: u32 = 20;
    let started = std::time::Instant::now();
    for i in 0..ROUND_TRIPS {
        send_keep_alive(&stream, &server.addr, "GET", "/healthz", None);
        let (status, connection, _) = read_framed_response(&mut reader).expect("response");
        assert_eq!(status, 200);
        assert_eq!(connection, "keep-alive", "round trip {i}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(u64::from(ROUND_TRIPS) * 40 / 2),
        "{ROUND_TRIPS} kept-alive round trips took {elapsed:?}"
    );
}

#[test]
fn idle_keep_alive_connections_are_closed_silently() {
    let server = Server::start_with("idle", &["--idle-timeout-ms", "250"]);
    let stream = TcpStream::connect(&server.addr).expect("connect");
    let mut reader = BufReader::new(&stream);

    send_keep_alive(&stream, &server.addr, "GET", "/healthz", None);
    let (status, connection, _) = read_framed_response(&mut reader).expect("response");
    assert_eq!(status, 200);
    assert_eq!(connection, "keep-alive");

    // Go quiet. Past the idle deadline the server must close without
    // emitting an error response (idling between requests is legal).
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("deadline");
    let mut rest = Vec::new();
    reader
        .read_to_end(&mut rest)
        .expect("clean EOF, not a test timeout");
    assert!(
        rest.is_empty(),
        "silent close: {:?}",
        String::from_utf8_lossy(&rest)
    );
}

#[test]
fn shutdown_spools_live_sessions_and_exits() {
    let mut server = Server::start("shutdown");
    create_session(&server, "pipe");
    let (status, out) = server.request("POST", "/shutdown", None);
    assert_eq!(status, 200, "{out:?}");
    assert_eq!(out["ok"], true);

    let exit = server.child.wait().expect("server exits after shutdown");
    assert!(exit.success(), "clean exit: {exit:?}");
    let ckpt = server.spool.join("pipe.ckpt");
    assert!(ckpt.exists(), "live session spooled on shutdown");
}

/// `GET /status`'s connection-thread counters: threads spawned so far and
/// threads parked now.
fn thread_counters(server: &Server) -> (u64, u64) {
    let (status, out) = server.request("GET", "/status", None);
    assert_eq!(status, 200, "{out:?}");
    let field = |key: &str| {
        out[key]
            .as_f64()
            .unwrap_or_else(|| panic!("`{key}` in {out:?}")) as u64
    };
    (field("connection_threads"), field("parked"))
}

#[test]
fn sequential_connections_reuse_a_parked_thread() {
    // A connection's thread parks before it closes the socket, so each
    // next connection finds it parked: no spawn per request.
    let server = Server::start("reuse");
    for i in 0..200 {
        let (status, out) = server.request("GET", "/healthz", None);
        assert_eq!(status, 200, "request {i}: {out:?}");
    }
    let (threads, _) = thread_counters(&server);
    assert!(
        threads <= 2,
        "{threads} connection threads for 201 sequential connections"
    );
}

#[test]
fn shutdown_releases_parked_threads_without_waiting_out_their_deadline() {
    let mut server = Server::start_with("parked-shutdown", &["--idle-timeout-ms", "60000"]);
    create_session(&server, "pipe");
    // Three connections live at once need three threads; closing them
    // parks all three.
    let streams: Vec<TcpStream> = (0..3)
        .map(|_| TcpStream::connect(&server.addr).expect("connect"))
        .collect();
    for stream in &streams {
        send_keep_alive(stream, &server.addr, "GET", "/healthz", None);
        let (status, _, _) =
            read_framed_response(&mut BufReader::new(stream)).expect("response arrives");
        assert_eq!(status, 200);
    }
    drop(streams);
    // The status request wakes one of them; the other two stay parked.
    let mut parked = 0;
    for _ in 0..500 {
        parked = thread_counters(&server).1;
        if parked >= 2 {
            break;
        }
        thread::sleep(std::time::Duration::from_millis(2));
    }
    assert!(parked >= 2, "threads never parked: {parked}");

    let started = std::time::Instant::now();
    let (status, out) = server.request("POST", "/shutdown", None);
    assert_eq!(status, 200, "{out:?}");
    let exit = loop {
        if let Some(exit) = server.child.try_wait().expect("wait") {
            break exit;
        }
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "shutdown is waiting out a parked thread's 60 s idle deadline"
        );
        thread::sleep(std::time::Duration::from_millis(5));
    };
    assert!(exit.success(), "clean exit: {exit:?}");
    assert!(
        server.spool.join("pipe.ckpt").exists(),
        "live session spooled on shutdown"
    );
}

#[test]
fn a_retire_racing_a_claim_never_drops_a_connection() {
    // A 1 ms idle deadline against requests about 1 ms apart: parked
    // threads retire while the accept loop claims them. Every request
    // must still be answered; a stream handed to a thread that already
    // left would read as a reset or an empty response.
    let server = Server::start_with("retire-race", &["--idle-timeout-ms", "1"]);
    for i in 0..500 {
        let (status, out) = server.request("GET", "/healthz", None);
        assert_eq!(status, 200, "request {i}: {out:?}");
        thread::sleep(std::time::Duration::from_millis(1));
    }
}

#[test]
fn a_malformed_liberty_axis_is_a_typed_error_and_the_daemon_serves_on() {
    let server = Server::start("bad-liberty");
    let typical = gpasta::sta::write_liberty(&gpasta::sta::CellLibrary::typical(), "typ");
    let axis = "slew_axis : \"5, 10, 20, 40, 80, 160, 320\";";
    assert!(typical.contains(axis), "the typical library's slew axis");
    for bad in [
        "320, 160, 80, 40, 20, 10, 5",
        "",
        "5, NaN, 20, 40, 80, 160, 320",
    ] {
        let liberty = typical.replacen(axis, &format!("slew_axis : \"{bad}\";"), 1);
        let body = Value::Object(vec![
            ("name".to_string(), Value::String("bad".to_string())),
            ("verilog".to_string(), Value::String(PIPELINE.to_string())),
            ("liberty".to_string(), Value::String(liberty)),
        ]);
        let (status, out) = server.request("POST", "/sessions", Some(&body));
        assert_eq!(status, 400, "{bad:?}: {out:?}");
        assert_eq!(out["error"]["kind"], "parse_liberty", "{bad:?}: {out:?}");
    }
    create_session(&server, "after");
}
