//! The `serve_eco` workload: a real `gpasta serve` child process with
//! default flags, one client, closed loop. One op is the cycle
//! edit -> update -> report over HTTP, a fresh connection per request
//! (`Connection: close`), so the cycle is bound by the processor like the
//! twin it is measured against. On a keep-alive connection every response
//! waits ~44 ms on network timers (README, finding c) and the ratio to a
//! processor-bound twin moves with every change of the host's speed; the
//! traced run reports that cycle as `serve.keepalive_cycle_ms_p50`.

use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use gpasta::circuits::PaperCircuit;
use gpasta::sched::Executor;
use gpasta::serve::{dispatch, parse_request, HttpLimits, Registry};
use gpasta::sta::{write_verilog, Timer};
use serde_json::Value;

use crate::drive::{self, Subject};
use crate::edits::{EditStream, GenEdit, StreamKind};
use crate::host;
use crate::inproc;
use crate::metrics::{obj, Ledger};
use crate::mirror::timer_from_text;
use crate::stats::tail;
use crate::trace::{self, span, Tracer};

const SESSION: &str = "s";
/// Edits per cycle: one, as in `eco_loop`, so the requests around the
/// update are about half of the cycle.
const EDITS_PER_CYCLE: usize = 1;
/// Discarded cycles before the clock starts.
const WARMUP: u32 = 64;
/// How long the traced run repeats the cycle on a keep-alive connection
/// after its clock has stopped.
const KEEPALIVE_SECONDS: f64 = 2.0;
/// `/healthz` probes per connection mode in the traced run.
const HEALTHZ_PROBES: usize = 30;

/// A running daemon; killed, reaped and its spool removed on drop, so no
/// exit path of the harness leaves it behind. The pid file lets `run.sh`
/// do the same when the harness itself is killed.
struct Daemon {
    child: Child,
    /// Held open so the daemon's shutdown messages never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    spool: PathBuf,
    pid_file: PathBuf,
}

impl Daemon {
    fn spawn(exe: &Path, dir: &Path, workers: usize) -> Result<Daemon, String> {
        let spool = dir.join(format!("spool-{}", std::process::id()));
        let pid_file = dir.join("daemon.pid");
        let mut child = Command::new(exe)
            .args(["serve", "--addr", "127.0.0.1:0", "--spool"])
            .arg(&spool)
            .args(["--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
        let _ = std::fs::write(&pid_file, format!("{}\n{}\n", child.id(), spool.display()));
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .rsplit_once("http://")
            .map(|(_, addr)| addr.trim().to_string());
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: String::new(),
            spool,
            pid_file,
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                daemon.addr = addr;
                Ok(daemon)
            }
            (read, _) => Err(format!("daemon printed no address ({read:?}): {banner:?}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.spool);
        let _ = std::fs::remove_file(&self.pid_file);
    }
}

/// A minimal HTTP/1.1 client on one connection at a time.
struct Client {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
    reconnects: u64,
    bytes: u64,
}

impl Client {
    fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            conn: None,
            reconnects: 0,
            bytes: 0,
        }
    }

    /// The bytes of one request, head and body in one buffer so they leave
    /// in one segment.
    fn encode(&self, method: &str, path: &str, body: Option<&str>, keep_alive: bool) -> Vec<u8> {
        let mut out = format!("{method} {path} HTTP/1.1\r\nHost: {}\r\n", self.addr);
        if let Some(body) = body {
            out.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        let conn = if keep_alive { "keep-alive" } else { "close" };
        out.push_str(&format!("Connection: {conn}\r\n\r\n"));
        out.push_str(body.unwrap_or(""));
        out.into_bytes()
    }

    /// Send one request and read its response. A reused connection the
    /// server has closed meanwhile is reopened once.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        keep_alive: bool,
    ) -> Result<(u16, Value), String> {
        let bytes = self.encode(method, path, body, keep_alive);
        let reused = self.conn.is_some();
        match self.exchange(&bytes) {
            Err(_) if reused => {
                self.conn = None;
                self.exchange(&bytes)
            }
            other => other,
        }
    }

    fn exchange(&mut self, request: &[u8]) -> Result<(u16, Value), String> {
        let io = |e: std::io::Error| format!("{}: {e}", self.addr);
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr).map_err(io)?;
            stream.set_nodelay(true).map_err(io)?;
            stream
                .set_read_timeout(Some(Duration::from_secs(120)))
                .map_err(io)?;
            self.conn = Some(BufReader::new(stream));
            self.reconnects += 1;
        }
        let conn = self.conn.as_mut().expect("connected above");
        conn.get_mut().write_all(request).map_err(io)?;
        let mut received = 0;
        let mut line = String::new();
        received += conn.read_line(&mut line).map_err(io)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let (mut length, mut close) = (0usize, false);
        loop {
            line.clear();
            received += conn.read_line(&mut line).map_err(io)?;
            let header = line.trim_end().to_ascii_lowercase();
            if header.is_empty() {
                break;
            }
            if let Some(v) = header.strip_prefix("content-length:") {
                length = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad header {line:?}"))?;
            } else if let Some(v) = header.strip_prefix("connection:") {
                close = v.trim() == "close";
            }
        }
        let mut body = vec![0u8; length];
        conn.read_exact(&mut body).map_err(io)?;
        if close {
            self.conn = None;
        }
        self.bytes += (request.len() + received + length) as u64;
        let text = String::from_utf8(body).map_err(|e| e.to_string())?;
        let value = serde_json::from_str(&text).map_err(|e| format!("bad body: {e}"))?;
        Ok((status, value))
    }
}

fn hex_bits(report: &Value, key: &str) -> Result<u32, String> {
    report[key]
        .as_str()
        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
        .ok_or_else(|| format!("report has no `{key}`"))
}

fn wire_edits(edits: &[GenEdit], names: &Timer) -> Value {
    Value::Array(edits.iter().map(|e| e.to_wire(names)).collect())
}

struct Served {
    client: Client,
    twin: Timer,
    twin_exec: Executor,
    stream: EditStream,
    /// Whether the cycle's requests share a connection.
    keep_alive: bool,
    tracer: Option<Tracer>,
    edits: Vec<GenEdit>,
    /// Every cycle's edits, for the replay after the clock stops.
    sent: Vec<Vec<GenEdit>>,
    /// Result bits per lane for the current op, and the served history.
    bits: [(u32, u32); 2],
    served: Vec<(u32, u32)>,
    shed: u64,
    cycle_bytes: Vec<f64>,
}

impl Served {
    fn cycle(&mut self) -> Result<(u32, u32), String> {
        let before = self.client.bytes;
        let body = obj(vec![("edits", wire_edits(&self.edits, &self.twin))]);
        let body = serde_json::to_string(&body).expect("serializes");
        let steps = [
            (
                "serve.edit",
                "POST",
                format!("/sessions/{SESSION}/edit"),
                Some(body),
            ),
            (
                "serve.update",
                "POST",
                format!("/sessions/{SESSION}/update"),
                Some("{}".to_string()),
            ),
            (
                "serve.report",
                "GET",
                format!("/sessions/{SESSION}/report?k=1"),
                None,
            ),
        ];
        let mut last = Value::Null;
        for (name, method, path, body) in &steps {
            let (status, value) = span(&mut self.tracer, name, || {
                self.client
                    .request(method, path, body.as_deref(), self.keep_alive)
            })?;
            if status != 200 {
                self.shed += u64::from(status == 503);
                return Err(format!("{method} {path} answered {status}: {value:?}"));
            }
            last = value;
        }
        self.cycle_bytes.push((self.client.bytes - before) as f64);
        let report = &last["report"];
        Ok((hex_bits(report, "wns_bits")?, hex_bits(report, "tns_bits")?))
    }
}

impl Subject for Served {
    fn lanes(&self) -> usize {
        2
    }

    fn next_op(&mut self, op: u32) {
        self.edits = self.stream.by_ref().take(EDITS_PER_CYCLE).collect();
        self.sent.push(self.edits.clone());
        if let Some(tr) = self.tracer.as_mut() {
            tr.set_op(op);
        }
    }

    fn run(&mut self, lane: usize) -> Result<(), String> {
        if lane == 0 {
            let open = trace::begin(&mut self.tracer, "serve.cycle");
            let bits = self.cycle();
            trace::end(&mut self.tracer, open);
            self.bits[0] = bits?;
            self.served.push(self.bits[0]);
        } else {
            for edit in &self.edits {
                edit.apply_to_timer(&mut self.twin);
            }
            let update = self.twin.update_timing();
            self.twin_exec.run_tdg(update.tdg(), &update.task_fn());
            drop(update);
            let report = self.twin.report(1);
            self.bits[1] = (report.wns_ps.to_bits(), report.tns_ps.to_bits());
        }
        Ok(())
    }

    fn agree(&mut self) -> bool {
        self.bits[0] == self.bits[1]
    }
}

/// A daemon with the design uploaded, and what getting there took.
struct Upload {
    daemon: Daemon,
    text: String,
    /// The bytes of the create request, head and body.
    create_request: Vec<u8>,
    total_s: f64,
    create_ms: f64,
}

/// One set-up as a user waits for it: build the circuit, write its netlist,
/// start the daemon, upload the design.
fn setup_round(
    exe: &Path,
    dir: &Path,
    circuit: PaperCircuit,
    scale: f64,
) -> Result<Upload, String> {
    let started = Instant::now();
    let text = write_verilog(&circuit.build(scale), circuit.name());
    let daemon = Daemon::spawn(exe, dir, host::workers())?;
    let body = obj(vec![
        ("name", Value::String(SESSION.to_string())),
        ("verilog", Value::String(text.clone())),
    ]);
    let body = serde_json::to_string(&body).expect("serializes");
    let mut client = Client::new(&daemon.addr);
    let request = client.encode("POST", "/sessions", Some(&body), false);
    let t0 = Instant::now();
    let (status, value) = client.exchange(&request)?;
    let create_ms = t0.elapsed().as_secs_f64() * 1e3;
    if status != 200 {
        return Err(format!("POST /sessions answered {status}: {value:?}"));
    }
    Ok(Upload {
        daemon,
        text,
        create_request: request,
        total_s: started.elapsed().as_secs_f64(),
        create_ms,
    })
}

/// Run the `serve_eco` workload and fill in its ledger.
///
/// # Errors
///
/// When the daemon binary is missing, does not start, or refuses the
/// design.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    dir: &Path,
) -> Result<Ledger, String> {
    let exe = crate::gpasta_exe()?;
    let (circuit, scale) = if smoke {
        (PaperCircuit::AesCore, 0.01)
    } else {
        (PaperCircuit::VgaLcd, 0.1)
    };
    let mut ledger = Ledger::new(name, traced);

    let (mut setup_s, mut create_ms) = (Vec::new(), Vec::new());
    let mut live = None;
    for _ in 0..inproc::SETUP_ROUNDS {
        // One daemon at a time: the previous round's is killed first.
        drop(live.take());
        let upload = setup_round(&exe, dir, circuit, scale)?;
        setup_s.push(upload.total_s);
        create_ms.push(upload.create_ms);
        live = Some(upload);
    }
    let Upload {
        daemon,
        text,
        create_request,
        ..
    } = live.expect("at least one set-up round");

    let mut twin = timer_from_text(&text, &mut Tracer::default());
    twin.update_timing().run_sequential();
    let mut subject = Served {
        client: Client::new(&daemon.addr),
        stream: EditStream::new(StreamKind::Eco, seed, &twin),
        twin,
        twin_exec: Executor::new(host::workers()),
        keep_alive: false,
        tracer: traced.then(Tracer::default),
        edits: Vec::new(),
        sent: Vec::new(),
        bits: [(0, 0); 2],
        served: Vec::new(),
        shed: 0,
        cycle_bytes: Vec::new(),
    };
    let warmup = WARMUP;
    let daemon_pid = daemon.child.id();
    let samples = drive::measure(&mut subject, warmup, seconds, daemon_pid);

    if traced {
        ledger.attempted = samples.attempted;
        ledger.failed = samples.failed;
        let tr = subject.tracer.take().expect("traced run has a tracer");
        ledger.set("serve.edit_ms_p50", &tr.durations_ms("serve.edit", warmup));
        ledger.set(
            "serve.update_ms_p50",
            &tr.durations_ms("serve.update", warmup),
        );
        ledger.set(
            "serve.report_ms_p50",
            &tr.durations_ms("serve.report", warmup),
        );
        let cycles = tr.durations_ms("serve.cycle", warmup);
        ledger.set("serve.cycle_ms_tail", &[tail(&cycles)]);
        ledger.set("serve.bytes_per_cycle", &subject.cycle_bytes);
        // The same cycle as a keep-alive client sees it; the server closes
        // a connection after 32 requests, which is what `reconnects` counts.
        subject.keep_alive = true;
        let opened = subject.client.reconnects;
        let kept = drive::measure(&mut subject, 0, KEEPALIVE_SECONDS, daemon_pid);
        ledger.failed += kept.failed;
        ledger.set("serve.keepalive_cycle_ms_p50", &kept.wall_ms[0]);
        let reconnects = (subject.client.reconnects - opened).saturating_sub(1);
        ledger.set("serve.reconnects", &[reconnects as f64]);
        ledger.set("serve.shed", &[subject.shed as f64]);
        ledger.set("serve.create_ms", &create_ms);
        healthz_probes(&mut ledger, &daemon.addr)?;
        let t0 = Instant::now();
        parse_request(&mut Cursor::new(&create_request), &HttpLimits::default())
            .map_err(|e| format!("captured create request does not parse: {e}"))?;
        ledger.set("serve.body_parse_ms", &[t0.elapsed().as_secs_f64() * 1e3]);
        replay_in_process(&mut ledger, &subject, &text, dir)?;
        crate::write_trace(dir, name, &tr);
        drop(daemon);
        // The layers the daemon drives inside, split by the mirror on the
        // same design and edit stream.
        let spec = inproc::Spec {
            circuit,
            scale,
            stream: StreamKind::Eco,
            edits_per_op: EDITS_PER_CYCLE,
            warmup: 16,
        };
        let layers = inproc::run(
            &format!("{name}.layers"),
            &spec,
            seed,
            seconds / 4.0,
            true,
            dir,
        );
        ledger.absorb(&layers);
    } else {
        let rss = host::peak_rss_mib(daemon_pid);
        drop(daemon);
        for _ in 0..inproc::SETUP_ROUNDS {
            setup_s.push(setup_round(&exe, dir, circuit, scale)?.total_s);
        }
        drive::end_to_end(&mut ledger, &samples, &setup_s, rss);
    }
    Ok(ledger)
}

/// `/healthz` round trips on a kept-alive connection and on a fresh one per
/// request: the transport floor under every request of the cycle.
fn healthz_probes(ledger: &mut Ledger, addr: &str) -> Result<(), String> {
    for (metric, keep_alive) in [
        ("serve.healthz_us_p50", true),
        ("serve.healthz_close_us_p50", false),
    ] {
        let mut client = Client::new(addr);
        let mut us = Vec::new();
        for _ in 0..HEALTHZ_PROBES {
            let t0 = Instant::now();
            let (status, _) = client.request("GET", "/healthz", None, keep_alive)?;
            us.push(t0.elapsed().as_secs_f64() * 1e6);
            if status != 200 {
                return Err(format!("GET /healthz answered {status}"));
            }
        }
        ledger.set(metric, &us);
    }
    Ok(())
}

/// After the clock stops: replay the edits that were served through
/// `proto::dispatch` on an in-process `Registry` — no socket — and check
/// every served report against it. The update's time here is the compute
/// share of `serve.update_ms_p50`; the rest is wire cost.
fn replay_in_process(
    ledger: &mut Ledger,
    subject: &Served,
    text: &str,
    dir: &Path,
) -> Result<(), String> {
    let spool = dir.join(format!("replay-spool-{}", std::process::id()));
    let registry = Registry::new(spool.clone(), host::workers(), 2);
    let api = |e: gpasta::serve::ApiError| e.to_string();
    let name = Value::String(SESSION.to_string());
    let create = obj(vec![
        ("name", name.clone()),
        ("verilog", Value::String(text.to_string())),
    ]);
    dispatch(&registry, "create_session", &create).map_err(api)?;
    let mut update_ms = Vec::new();
    for (edits, served) in subject.sent.iter().zip(&subject.served) {
        let edits = obj(vec![
            ("name", name.clone()),
            ("edits", wire_edits(edits, &subject.twin)),
        ]);
        dispatch(&registry, "edit_session", &edits).map_err(api)?;
        let params = obj(vec![("name", name.clone())]);
        let t0 = Instant::now();
        dispatch(&registry, "update_timing", &params).map_err(api)?;
        update_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let params = obj(vec![("name", name.clone()), ("k", Value::Number(1.0))]);
        let report = dispatch(&registry, "report", &params).map_err(api)?;
        let report = &report["report"];
        if (hex_bits(report, "wns_bits")?, hex_bits(report, "tns_bits")?) != *served {
            eprintln!("perf_ledger: a served report differs from the in-process replay");
            ledger.failed += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&spool);
    ledger.set("serve.dispatch_update_ms_p50", &update_ms);
    Ok(())
}
