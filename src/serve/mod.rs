//! `gpasta serve` — timing analysis as a long-lived service.
//!
//! The CLI flows pay the full price of a design on every invocation:
//! parse, build the timing graph, propagate. This module keeps that
//! state *warm* instead: named [`Session`]s ([`crate::session`]) live in a
//! shared [`Registry`], each owning its timer, and clients apply
//! edits and re-run `update_timing` over the wire for the incremental
//! price. Two frontends share one protocol layer ([`proto`]):
//!
//! * **HTTP/JSON** ([`http`]) — an HTTP/1.1 server with one thread per
//!   live connection; a thread whose connection ends parks and takes
//!   the next one instead of exiting. Concurrent requests against
//!   different sessions run in parallel (each session behind its own
//!   mutex);
//! * **JSON-RPC stdio** ([`rpc`]) — line-delimited JSON on
//!   stdin/stdout, for embedding under a supervisor without opening a
//!   port.
//!
//! Capacity is managed by eviction: `DELETE /sessions/{name}` writes
//! the session's edit state to a `GPCKPT04` checkpoint in the spool
//! directory and keeps only the light
//! [`DormantSession`](crate::session::DormantSession) residue;
//! `POST /sessions/{name}/restore` re-admits it, re-deriving every timing
//! value from that state.
//! Shutdown (via `POST /shutdown`, the `shutdown` RPC, or stdin EOF)
//! runs a persist pass that spools every live session, so a serve
//! process can be stopped and restarted without losing timing state.
//!
//! DESIGN.md §12 documents the session ownership model and the full
//! wire schema.

mod http;
mod proto;
mod registry;
mod rpc;

pub use http::{parse_request, HttpLimits, Request};
pub use proto::{dispatch, ApiError};
pub use registry::{ChaosConfig, EditReceipt, Registry, RegistryError, SessionInfo, SessionState};

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

#[cfg(doc)]
use crate::session::Session;

/// Configuration of one `gpasta serve` process.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Listen address for the HTTP frontend (`127.0.0.1:0` picks a free
    /// port and prints it).
    pub addr: String,
    /// Serve JSON-RPC on stdin/stdout instead of HTTP.
    pub stdio: bool,
    /// Directory for eviction checkpoints.
    pub spool: PathBuf,
    /// Passed to every session as its `workers`: the most threads a
    /// whole-design update (create, restore, a clock change) runs on.
    pub workers: usize,
    /// Maximum number of sessions (live plus dormant).
    pub max_sessions: usize,
    /// Background-checkpoint interval in milliseconds; `0` disables the
    /// checkpointer (crash recovery then replays the whole edit journal
    /// from the sources).
    pub checkpoint_ms: u64,
    /// In-flight request budget; past it, requests shed with `503` +
    /// `Retry-After`. `0` = unlimited.
    pub max_inflight: u64,
    /// Concurrent connection cap for the HTTP frontend; excess
    /// connections are shed with `503`. `0` = unlimited.
    pub max_connections: usize,
    /// Socket read/write deadline in milliseconds (HTTP frontend); a
    /// slow-trickling client gets 408 instead of holding its connection
    /// thread. `0` disables.
    pub read_timeout_ms: u64,
    /// Most requests one `Connection: keep-alive` connection may carry
    /// before the server closes it; `0` disables keep-alive.
    pub keep_alive_requests: u64,
    /// Idle deadline between keep-alive requests in milliseconds; a
    /// connection quiet past it is closed silently, and a connection
    /// thread parked past it exits. `0` falls back to the read deadline.
    pub idle_timeout_ms: u64,
    /// Crash-window width: this many milliseconds of history count
    /// toward quarantine.
    pub crash_window_ms: u64,
    /// Crashes within the window that quarantine a session.
    pub max_crashes: usize,
    /// Deterministic fault injection into live sessions (chaos tier
    /// only; inactive by default).
    pub chaos: ChaosConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:9480".to_string(),
            stdio: false,
            spool: PathBuf::from("gpasta-spool"),
            workers: 4,
            max_sessions: 16,
            checkpoint_ms: 30_000,
            max_inflight: 256,
            max_connections: 64,
            read_timeout_ms: 10_000,
            keep_alive_requests: 32,
            idle_timeout_ms: 5_000,
            crash_window_ms: 60_000,
            max_crashes: 3,
            chaos: ChaosConfig::default(),
        }
    }
}

/// The serve frontend failed to start or its transport died.
#[derive(Debug)]
pub enum ServeError {
    /// The listen address could not be bound.
    Bind {
        /// The address as configured.
        addr: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// The spool directory could not be created.
    Spool {
        /// The configured spool path.
        path: PathBuf,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// stdin/stdout failed mid-protocol (stdio frontend).
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, source } => {
                write!(f, "cannot bind {addr}: {source}")
            }
            ServeError::Spool { path, source } => {
                write!(
                    f,
                    "cannot create spool directory {}: {source}",
                    path.display()
                )
            }
            ServeError::Io(e) => write!(f, "stdio transport failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Bind { source, .. } | ServeError::Spool { source, .. } => Some(source),
            ServeError::Io(e) => Some(e),
        }
    }
}

/// Run a serve process to completion (shutdown request or stdio EOF).
///
/// # Errors
///
/// [`ServeError`] when the spool cannot be created or the transport
/// fails to start.
pub fn run(config: &ServeConfig) -> Result<(), ServeError> {
    std::fs::create_dir_all(&config.spool).map_err(|source| ServeError::Spool {
        path: config.spool.clone(),
        source,
    })?;
    let registry = Arc::new(
        Registry::new(config.spool.clone(), config.workers, config.max_sessions)
            .with_admission(config.max_inflight)
            .with_crash_policy(
                Duration::from_millis(config.crash_window_ms.max(1)),
                config.max_crashes,
            )
            .with_chaos(config.chaos.clone()),
    );

    // The background checkpointer bounds how much work a crash loses:
    // every interval it spools dirty live sessions via the eviction
    // serializer without evicting them. Short sleep ticks keep shutdown
    // latency low even with long intervals.
    let checkpointer = if config.checkpoint_ms > 0 {
        let reg = registry.clone();
        let interval = Duration::from_millis(config.checkpoint_ms);
        Some(std::thread::spawn(move || {
            let tick = interval.min(Duration::from_millis(25));
            let mut elapsed = Duration::ZERO;
            while !reg.is_shutting_down() {
                std::thread::sleep(tick);
                elapsed += tick;
                if elapsed >= interval {
                    elapsed = Duration::ZERO;
                    reg.checkpoint_all();
                }
            }
        }))
    } else {
        None
    };

    let served = if config.stdio {
        rpc::run_stdio(registry.clone())
    } else {
        let timeout = if config.read_timeout_ms > 0 {
            Some(Duration::from_millis(config.read_timeout_ms))
        } else {
            None
        };
        let idle = if config.idle_timeout_ms > 0 {
            Some(Duration::from_millis(config.idle_timeout_ms))
        } else {
            None
        };
        let limits = HttpLimits {
            read_timeout: timeout,
            write_timeout: timeout,
            keep_alive_requests: config.keep_alive_requests,
            idle_timeout: idle,
            ..HttpLimits::default()
        };
        http::run_http(
            registry.clone(),
            &config.addr,
            limits,
            config.max_connections,
        )
    };
    // The frontend can also end on stdio EOF, where no shutdown request
    // ever set the flag — set it now so the checkpointer exits.
    registry.request_shutdown();
    if let Some(handle) = checkpointer {
        let _ = handle.join();
    }
    served
}
