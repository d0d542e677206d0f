//! The HTTP/1.1 frontend of `gpasta serve`.
//!
//! A deliberately small server — no external dependencies exist in this
//! workspace, so it is hand-rolled on [`std::net::TcpListener`]: one
//! thread per connection, bodies bounded by `Content-Length`. A client
//! that sends `Connection: keep-alive` may reuse its connection for up
//! to [`HttpLimits::keep_alive_requests`] requests, idling at most
//! [`HttpLimits::idle_timeout`] between them; anything else (including
//! any parse error) is answered `Connection: close` and the connection
//! ends after one response. Every route maps onto a
//! [`super::proto::dispatch`] method, with path segments and query
//! parameters merged into the request's JSON params:
//!
//! | Route | Method |
//! |---|---|
//! | `GET /healthz` | `healthz` |
//! | `GET /readyz` | `readyz` |
//! | `GET /status` | `status` |
//! | `GET /sessions` | `list_sessions` |
//! | `POST /sessions` | `create_session` |
//! | `DELETE /sessions/{name}` | `evict_session` |
//! | `POST /sessions/{name}/restore` | `restore_session` |
//! | `POST /sessions/{name}/edit` | `edit_session` |
//! | `POST /sessions/{name}/update` | `update_timing` |
//! | `GET /sessions/{name}/report?k=N&mode=late` | `report` |
//! | `GET /sessions/{name}/paths?k=N` | `paths` |
//! | `POST /shutdown` | `shutdown` |
//!
//! The parser ([`parse_request`]) treats every byte off the socket as
//! adversarial: lines are read through a fixed head budget (never an
//! unbounded `read_line`), `Content-Length` must be present at most
//! once, non-UTF-8 anywhere is a clean 400, and a socket that trickles
//! slower than the read deadline gets 408 — malformed input produces a
//! status code, never a worker-thread death.
//!
//! Overload: past `max_connections` the accept loop sheds immediately
//! with `503` + `Retry-After` (never queues); past the in-flight budget
//! [`super::proto::dispatch`] sheds the same way.
//!
//! Shutdown: the handler thread that serves `POST /shutdown` sets the
//! registry flag, then opens a throwaway connection to the listener to
//! wake the blocked `accept`; the accept loop observes the flag, drains
//! its worker threads, and runs the registry's persist pass.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use gpasta_check::sync::{AtomicU64, Ordering};
use serde_json::Value;

use super::proto::{dispatch, ApiError};
use super::registry::Registry;
use super::ServeError;

/// Byte and time bounds the request parser enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Largest accepted request head (request line + headers).
    pub max_head_bytes: usize,
    /// Largest accepted request body (design uploads).
    pub max_body_bytes: usize,
    /// Socket read deadline; a body trickling in slower than this gets
    /// 408 instead of parking the worker thread forever. `None`
    /// disables the deadline.
    pub read_timeout: Option<Duration>,
    /// Socket write deadline for the response.
    pub write_timeout: Option<Duration>,
    /// Most requests served over one `Connection: keep-alive`
    /// connection before the server answers `Connection: close`; `0`
    /// disables keep-alive entirely (every response closes).
    pub keep_alive_requests: u64,
    /// How long a keep-alive connection may sit idle *between* requests
    /// before the server closes it. Unlike a mid-request stall (408),
    /// idling between requests is legal, so the close is silent. `None`
    /// falls back to `read_timeout`.
    pub idle_timeout: Option<Duration>,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 64 * 1024,
            max_body_bytes: 16 * 1024 * 1024,
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            keep_alive_requests: 32,
            idle_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// Run the HTTP frontend until a `POST /shutdown` arrives, then spool
/// every live session and return. Prints the bound address on stdout
/// before accepting (tests bind port 0 and parse the line).
/// `max_connections` bounds concurrent connection threads (`0` =
/// unlimited); excess connections are shed with 503.
///
/// # Errors
///
/// [`ServeError::Bind`] when the address cannot be bound; I/O errors on
/// individual connections are per-request (the connection is dropped,
/// the server keeps running).
pub fn run_http(
    registry: Arc<Registry>,
    addr: &str,
    limits: HttpLimits,
    max_connections: usize,
) -> Result<(), ServeError> {
    let listener = TcpListener::bind(addr).map_err(|source| ServeError::Bind {
        addr: addr.to_string(),
        source,
    })?;
    let local = listener.local_addr().map_err(|source| ServeError::Bind {
        addr: addr.to_string(),
        source,
    })?;
    println!("gpasta serve listening on http://{local}");
    let _ = std::io::stdout().flush();

    let active = Arc::new(AtomicU64::new(0));
    let mut workers: Vec<thread::JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if registry.is_shutting_down() {
            break;
        }
        let mut stream = match conn {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        let now = active.fetch_add(1, Ordering::Relaxed) + 1;
        if max_connections > 0 && now > max_connections as u64 {
            active.fetch_sub(1, Ordering::Relaxed);
            // Off the accept thread: a shed client that never reads
            // must not stall accepts for up to the write timeout.
            let write_timeout = limits.write_timeout;
            thread::spawn(move || shed_connection(&mut stream, max_connections, write_timeout));
            continue;
        }
        let reg = registry.clone();
        let act = active.clone();
        workers.push(thread::spawn(move || {
            handle_connection(&reg, stream, local, &limits);
            act.fetch_sub(1, Ordering::Relaxed);
        }));
        workers.retain(|h| !h.is_finished());
    }
    for handle in workers {
        let _ = handle.join();
    }
    for (name, outcome) in registry.persist_all() {
        match outcome {
            Ok(path) => println!("gpasta serve: spooled `{name}` to {}", path.display()),
            Err(e) => eprintln!("gpasta serve: failed to spool `{name}`: {e}"),
        }
    }
    Ok(())
}

/// Refuse one over-cap connection: answer `503` + `Retry-After`, then
/// drain whatever request bytes the client already sent before closing.
/// Closing with unread data in the receive buffer makes the kernel send
/// RST, which can destroy the in-flight 503 before the client reads it.
fn shed_connection(
    stream: &mut TcpStream,
    max_connections: usize,
    write_timeout: Option<Duration>,
) {
    let _ = stream.set_write_timeout(write_timeout);
    let shed = ApiError {
        status: 503,
        kind: "overloaded".to_string(),
        message: format!("server is at its connection cap ({max_connections}); retry later"),
        retry_after: Some(1),
    };
    write_response(
        stream,
        shed.status,
        shed.retry_after,
        false,
        &shed.to_value(),
    );
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut scratch = [0u8; 1024];
    while let Ok(n) = std::io::Read::read(stream, &mut scratch) {
        if n == 0 {
            break;
        }
    }
}

fn handle_connection(
    registry: &Registry,
    stream: TcpStream,
    local: SocketAddr,
    limits: &HttpLimits,
) {
    let _ = stream.set_read_timeout(limits.read_timeout);
    let _ = stream.set_write_timeout(limits.write_timeout);
    let _ = stream.set_nodelay(true);
    // `&TcpStream` implements both `Read` and `Write`, so the buffered
    // reader can hold its borrow across requests while responses go out
    // through a second shared borrow of the raw stream.
    let mut reader = BufReader::new(&stream);
    let mut served: u64 = 0;
    loop {
        if served > 0 {
            // Between keep-alive requests: wait for the first byte of
            // the next request under the idle deadline. A client that
            // stays quiet past it — or closes — ends the connection
            // silently; idling here is legal, so no 408.
            let _ = stream.set_read_timeout(limits.idle_timeout.or(limits.read_timeout));
            match reader.fill_buf() {
                Ok(buf) if !buf.is_empty() => {}
                _ => break,
            }
            let _ = stream.set_read_timeout(limits.read_timeout);
        }
        served += 1;
        match parse_request(&mut reader, limits) {
            Ok(req) => {
                let was_shutdown = req.method == "POST" && req.path == "/shutdown";
                let keep = req.keep_alive
                    && !was_shutdown
                    && !registry.is_shutting_down()
                    && served < limits.keep_alive_requests;
                match route(registry, &req) {
                    Ok(value) => write_response(&mut (&stream), 200, None, keep, &value),
                    Err(e) => {
                        write_response(&mut (&stream), e.status, e.retry_after, keep, &e.to_value())
                    }
                }
                if was_shutdown {
                    // Wake the accept loop so it observes the shutdown
                    // flag.
                    let _ = TcpStream::connect(local);
                }
                if !keep {
                    break;
                }
            }
            Err(e) => {
                // After a malformed request the stream position is
                // unknowable, so the connection cannot be reused.
                write_response(
                    &mut (&stream),
                    e.status,
                    e.retry_after,
                    false,
                    &e.to_value(),
                );
                break;
            }
        }
    }
}

/// One parsed HTTP request. Public so the proptest adversary can drive
/// [`parse_request`] with raw byte soup.
#[derive(Debug)]
pub struct Request {
    /// HTTP method token.
    pub method: String,
    /// Path component of the target (no query string).
    pub path: String,
    /// Decoded query pairs, in order.
    pub query: Vec<(String, String)>,
    /// Parsed JSON body, when a `Content-Length` was present.
    pub body: Option<Value>,
    /// The client sent `Connection: keep-alive` and may reuse the
    /// connection (subject to the server's request cap and idle
    /// deadline).
    pub keep_alive: bool,
}

/// Map a connection-level I/O failure to a wire error: a tripped read
/// deadline is the client's slow trickle (408), anything else is a bad
/// request.
fn io_api(e: &std::io::Error) -> ApiError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ApiError {
            status: 408,
            kind: "timeout".to_string(),
            message: "connection idle past the read deadline".to_string(),
            retry_after: None,
        },
        _ => ApiError::bad_request("bad_request", format!("connection error: {e}")),
    }
}

/// Read one `\n`-terminated line without ever buffering more than the
/// remaining head budget (deducted on success). EOF mid-line is a
/// truncated request, not a panic or a hang.
fn read_line_limited(reader: &mut impl BufRead, budget: &mut usize) -> Result<String, ApiError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let used = {
            let buf = reader.fill_buf().map_err(|e| io_api(&e))?;
            if buf.is_empty() {
                return Err(ApiError::bad_request(
                    "bad_request",
                    "truncated request: connection closed mid-line",
                ));
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    line.extend_from_slice(&buf[..=i]);
                    i + 1
                }
                None => {
                    line.extend_from_slice(buf);
                    buf.len()
                }
            }
        };
        reader.consume(used);
        if line.len() > *budget {
            return Err(ApiError {
                status: 431,
                kind: "headers_too_large".to_string(),
                message: "request head exceeds the head-size limit".to_string(),
                retry_after: None,
            });
        }
        if line.last() == Some(&b'\n') {
            *budget -= line.len();
            return String::from_utf8(line)
                .map_err(|_| ApiError::bad_request("bad_request", "request head is not UTF-8"));
        }
    }
}

/// Parse one HTTP/1.1 request off `reader` under `limits`. Every
/// malformed input — truncated lines, oversized or duplicate headers,
/// bodies shorter than their `Content-Length`, non-UTF-8 anywhere —
/// maps to a 4xx [`ApiError`]; the function never panics on input
/// bytes.
///
/// # Errors
///
/// 400 for malformed requests, 408 when the socket's read deadline
/// trips, 413 for oversized bodies, 431 for oversized heads.
pub fn parse_request(reader: &mut impl BufRead, limits: &HttpLimits) -> Result<Request, ApiError> {
    let mut head_budget = limits.max_head_bytes;
    let request_line = read_line_limited(reader, &mut head_budget)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ApiError::bad_request("bad_request", "empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| ApiError::bad_request("bad_request", "request line has no target"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };

    let mut content_length: Option<usize> = None;
    let mut keep_alive = false;
    loop {
        let line = read_line_limited(reader, &mut head_budget)?;
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        let Some((key, value)) = line.split_once(':') else {
            return Err(ApiError::bad_request(
                "bad_request",
                "malformed header line (no colon)",
            ));
        };
        if key.trim().eq_ignore_ascii_case("connection") {
            // Only an explicit keep-alive opts in; `close`, anything
            // unrecognized, or no header at all stays one-shot.
            keep_alive = value.trim().eq_ignore_ascii_case("keep-alive");
        }
        if key.trim().eq_ignore_ascii_case("content-length") {
            let parsed: usize = value
                .trim()
                .parse()
                .map_err(|_| ApiError::bad_request("bad_request", "invalid Content-Length"))?;
            // Duplicates are a classic smuggling vector; reject even
            // when the copies agree.
            if content_length.replace(parsed).is_some() {
                return Err(ApiError::bad_request(
                    "bad_request",
                    "duplicate Content-Length header",
                ));
            }
        }
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > limits.max_body_bytes {
        return Err(ApiError {
            status: 413,
            kind: "body_too_large".to_string(),
            message: format!("request body exceeds {} bytes", limits.max_body_bytes),
            retry_after: None,
        });
    }

    let body = if content_length > 0 {
        let mut buf = vec![0u8; content_length];
        reader.read_exact(&mut buf).map_err(|e| {
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                io_api(&e)
            } else {
                ApiError::bad_request("bad_request", "body shorter than Content-Length")
            }
        })?;
        let text = String::from_utf8(buf)
            .map_err(|_| ApiError::bad_request("bad_request", "request body is not UTF-8"))?;
        Some(serde_json::from_str::<Value>(&text).map_err(|e| {
            ApiError::bad_request("bad_request", format!("request body is not JSON: {e}"))
        })?)
    } else {
        None
    };

    Ok(Request {
        method,
        path,
        query,
        body,
        keep_alive,
    })
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect()
}

/// Map the request onto a protocol method and merged params, then
/// dispatch it.
fn route(registry: &Registry, req: &Request) -> Result<Value, ApiError> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let (method, name): (&str, Option<&str>) = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => ("healthz", None),
        ("GET", ["readyz"]) => ("readyz", None),
        ("GET", ["status"]) => ("status", None),
        ("GET", ["sessions"]) => ("list_sessions", None),
        ("POST", ["sessions"]) => ("create_session", None),
        ("DELETE", ["sessions", name]) => ("evict_session", Some(name)),
        ("POST", ["sessions", name, "restore"]) => ("restore_session", Some(name)),
        ("POST", ["sessions", name, "edit"]) => ("edit_session", Some(name)),
        ("POST", ["sessions", name, "update"]) => ("update_timing", Some(name)),
        ("GET", ["sessions", name, "report"]) => ("report", Some(name)),
        ("GET", ["sessions", name, "paths"]) => ("paths", Some(name)),
        ("POST", ["shutdown"]) => ("shutdown", None),
        _ => {
            return Err(ApiError {
                status: 404,
                kind: "no_such_route".to_string(),
                message: format!("no route for {} {}", req.method, req.path),
                retry_after: None,
            })
        }
    };

    let mut pairs: Vec<(String, Value)> = match &req.body {
        Some(Value::Object(body)) => body.clone(),
        Some(_) => {
            return Err(ApiError::bad_request(
                "bad_request",
                "request body must be a JSON object",
            ))
        }
        None => Vec::new(),
    };
    if let Some(name) = name {
        pairs.retain(|(k, _)| k != "name");
        pairs.push(("name".to_string(), Value::String(name.to_string())));
    }
    for (key, raw) in &req.query {
        pairs.retain(|(k, _)| k != key);
        let value = match raw.parse::<f64>() {
            Ok(n) => Value::Number(n),
            Err(_) => Value::String(raw.clone()),
        };
        pairs.push((key.clone(), value));
    }
    dispatch(registry, method, &Value::Object(pairs))
}

fn write_response(
    stream: &mut impl Write,
    status: u16,
    retry_after: Option<u64>,
    keep_alive: bool,
    body: &Value,
) {
    let text = match serde_json::to_string(body) {
        Ok(text) => text,
        Err(_) => String::from("{\"error\":{\"kind\":\"serialize\"}}"),
    };
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let retry = match retry_after {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    let conn = if keep_alive { "keep-alive" } else { "close" };
    // Head and body go out in one write: a second small segment would
    // wait on a kept-alive connection for the client's delayed ACK.
    let mut response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{retry}Connection: {conn}\r\n\r\n",
        text.len()
    );
    response.push_str(&text);
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse_bytes(bytes: &[u8]) -> Result<Request, ApiError> {
        parse_request(&mut Cursor::new(bytes), &HttpLimits::default())
    }

    #[test]
    fn query_strings_parse_into_pairs() {
        assert_eq!(
            parse_query("k=5&mode=late"),
            vec![
                ("k".to_string(), "5".to_string()),
                ("mode".to_string(), "late".to_string())
            ]
        );
        assert_eq!(parse_query(""), Vec::new());
        assert_eq!(
            parse_query("flag"),
            vec![("flag".to_string(), String::new())]
        );
    }

    #[test]
    fn well_formed_request_parses() {
        let req = parse_bytes(
            b"POST /sessions HTTP/1.1\r\nHost: x\r\nContent-Length: 13\r\n\r\n{\"name\":\"s1\"}",
        )
        .expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sessions");
        assert!(req.body.is_some());
    }

    #[test]
    fn truncated_requests_are_clean_400s() {
        for bytes in [
            &b""[..],
            &b"GET"[..],
            &b"GET /status HTTP/1.1\r\nHost: x"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"[..],
        ] {
            let err = parse_bytes(bytes).expect_err("truncated input rejected");
            assert_eq!(err.status, 400, "{err}");
        }
    }

    #[test]
    fn only_an_explicit_keep_alive_opts_in() {
        let req =
            parse_bytes(b"GET /status HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n").expect("parses");
        assert!(req.keep_alive, "explicit keep-alive is honored");
        let req =
            parse_bytes(b"GET /status HTTP/1.1\r\nConnection: close\r\n\r\n").expect("parses");
        assert!(!req.keep_alive, "close stays one-shot");
        let req = parse_bytes(b"GET /status HTTP/1.1\r\nHost: x\r\n\r\n").expect("parses");
        assert!(!req.keep_alive, "no Connection header stays one-shot");
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        let err =
            parse_bytes(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}")
                .expect_err("duplicate rejected");
        assert_eq!(err.status, 400);
        assert!(err.message.contains("duplicate Content-Length"), "{err}");
    }

    #[test]
    fn oversized_heads_and_bodies_are_bounded() {
        let mut huge_header = Vec::from(&b"GET /status HTTP/1.1\r\nX-Junk: "[..]);
        huge_header.extend(vec![b'a'; 128 * 1024]);
        huge_header.extend(b"\r\n\r\n");
        let err = parse_bytes(&huge_header).expect_err("oversized head rejected");
        assert_eq!(err.status, 431);

        // A single unterminated line larger than the budget must also be
        // bounded (no newline ever arrives).
        let unterminated = vec![b'a'; 128 * 1024];
        let err = parse_bytes(&unterminated).expect_err("unterminated line bounded");
        assert_eq!(err.status, 431);

        let err = parse_bytes(b"POST /x HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
            .expect_err("oversized body rejected");
        assert_eq!(err.status, 413);
    }

    #[test]
    fn non_utf8_input_is_a_clean_400() {
        let err =
            parse_bytes(b"GET /\xff\xfe HTTP/1.1\r\nHo\xffst: x\r\n\r\n").expect_err("head bytes");
        assert_eq!(err.status, 400);
        let err = parse_bytes(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe")
            .expect_err("body bytes");
        assert_eq!(err.status, 400);
        assert!(err.message.contains("not UTF-8"), "{err}");
    }
}
