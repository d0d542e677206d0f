//! The wire protocol shared by the HTTP and JSON-RPC stdio frontends.
//!
//! Both frontends funnel into [`dispatch`]: a method name plus a JSON
//! params object in, a JSON result (or an [`ApiError`] with an HTTP
//! status) out. Requests are hand-parsed from [`Value`] trees — absent
//! fields produce targeted `bad_request` errors, never panics — and
//! responses are built as `Value` trees so both frontends serialize the
//! same bytes.
//!
//! Timing values cross the wire twice: as plain JSON numbers
//! (`wns_ps`), for humans, and as zero-padded hex strings of the
//! underlying `f32` bit pattern (`wns_bits`), for bit-identity checks —
//! JSON numbers cannot carry NaN (it serializes as `null`), and the
//! differential tests compare bits, not decimals.

use std::time::Duration;

use serde_json::Value;

use crate::sched::{RunBudget, StopCause};
use crate::session::{DesignSources, Edit, SessionError, UpdateOutcome};
use crate::sta::{TimingPath, TimingReport};

use super::registry::{Registry, RegistryError, SessionState};

/// A request failed; carries the HTTP status the error maps to, a
/// stable machine-readable kind, and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code (the stdio frontend forwards it verbatim).
    pub status: u16,
    /// Stable machine-readable error tag.
    pub kind: String,
    /// Human-readable description.
    pub message: String,
    /// Seconds the client should wait before retrying; set on shed
    /// (503) responses. The HTTP frontend emits it as a `Retry-After`
    /// header, the stdio frontend as a `retry_after_s` field.
    pub retry_after: Option<u64>,
}

impl ApiError {
    /// A 400 with the given kind.
    pub fn bad_request(kind: &str, message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            kind: kind.to_string(),
            message: message.into(),
            retry_after: None,
        }
    }

    /// The `{"error": {...}}` body both frontends send.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("kind", Value::String(self.kind.clone())),
            ("message", Value::String(self.message.clone())),
            ("status", Value::Number(f64::from(self.status))),
        ];
        if let Some(secs) = self.retry_after {
            fields.push(("retry_after_s", num(secs as f64)));
        }
        obj(vec![("error", obj(fields))])
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({}): {}", self.status, self.kind, self.message)
    }
}

impl From<RegistryError> for ApiError {
    fn from(e: RegistryError) -> Self {
        let (status, kind, retry_after) = match &e {
            RegistryError::NotFound(_) => (404, "not_found", None),
            RegistryError::NotLive(_) => (409, "not_live", None),
            RegistryError::Duplicate(_) => (409, "duplicate", None),
            RegistryError::Full { .. } => (503, "capacity", Some(2)),
            RegistryError::BadName(_) => (400, "bad_name", None),
            RegistryError::Session(s) => {
                (if s.is_client_error() { 400 } else { 500 }, s.kind(), None)
            }
            // A recovered crash is immediately retryable; an
            // unrecovered one quarantined the slot.
            RegistryError::Crashed { recovered, .. } => (
                500,
                "session_crashed",
                if *recovered { Some(0) } else { None },
            ),
            RegistryError::Quarantined { .. } => (503, "session_quarantined", None),
            RegistryError::Overloaded { .. } => (503, "overloaded", Some(1)),
        };
        ApiError {
            status,
            kind: kind.to_string(),
            message: e.to_string(),
            retry_after,
        }
    }
}

impl From<SessionError> for ApiError {
    fn from(e: SessionError) -> Self {
        ApiError::from(RegistryError::Session(e))
    }
}

// ---- Value construction helpers -----------------------------------------

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn num(n: f64) -> Value {
    Value::Number(n)
}

fn string(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

fn f32_bits(v: f32) -> Value {
    string(format!("{:08x}", v.to_bits()))
}

// ---- request parsing helpers --------------------------------------------

/// The most paths one `paths` request may ask for. The search holds every
/// partial path it opened and a path carries a name per step, so the
/// request's `k` is bounded where it enters (`report`'s `k` is clamped to
/// the endpoint count instead).
const MAX_PATHS: usize = 1000;

fn req_str<'a>(params: &'a Value, key: &str) -> Result<&'a str, ApiError> {
    params.get(key).and_then(Value::as_str).ok_or_else(|| {
        ApiError::bad_request("missing_field", format!("`{key}` (string) is required"))
    })
}

fn opt_str<'a>(params: &'a Value, key: &str) -> Option<&'a str> {
    params.get(key).and_then(Value::as_str)
}

fn req_f64(params: &Value, key: &str) -> Result<f64, ApiError> {
    params.get(key).and_then(Value::as_f64).ok_or_else(|| {
        ApiError::bad_request("missing_field", format!("`{key}` (number) is required"))
    })
}

fn opt_f64(params: &Value, key: &str) -> Result<Option<f64>, ApiError> {
    match params.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| ApiError::bad_request("bad_field", format!("`{key}` must be a number"))),
    }
}

fn opt_usize(params: &Value, key: &str, default: usize) -> Result<usize, ApiError> {
    match opt_f64(params, key)? {
        None => Ok(default),
        Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= 1e9 => Ok(n as usize),
        Some(n) => Err(ApiError::bad_request(
            "bad_field",
            format!("`{key}` must be a small non-negative integer, got {n}"),
        )),
    }
}

// ---- response builders ---------------------------------------------------

fn stop_str(stop: &StopCause) -> &'static str {
    match stop {
        StopCause::Completed => "completed",
        StopCause::DeadlineExpired => "deadline_expired",
        StopCause::Cancelled => "cancelled",
    }
}

fn report_value(rep: &TimingReport) -> Value {
    obj(vec![
        ("wns_ps", num(f64::from(rep.wns_ps))),
        ("wns_bits", f32_bits(rep.wns_ps)),
        ("tns_ps", num(f64::from(rep.tns_ps))),
        ("tns_bits", f32_bits(rep.tns_ps)),
        ("num_endpoints", num(rep.num_endpoints as f64)),
        (
            "worst",
            Value::Array(
                rep.worst
                    .iter()
                    .map(|e| {
                        obj(vec![
                            ("node", num(f64::from(e.node.0))),
                            ("name", string(&e.name)),
                            ("slack_ps", num(f64::from(e.slack_ps))),
                            ("slack_bits", f32_bits(e.slack_ps)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn path_value(path: &TimingPath) -> Value {
    obj(vec![
        ("slack_ps", num(f64::from(path.slack_ps))),
        ("slack_bits", f32_bits(path.slack_ps)),
        (
            "steps",
            Value::Array(
                path.steps
                    .iter()
                    .map(|s| {
                        obj(vec![
                            ("node", num(f64::from(s.node.0))),
                            ("location", string(&s.location)),
                            ("rise", Value::Bool(s.rise)),
                            ("arrival_ps", num(f64::from(s.arrival_ps))),
                            ("incr_ps", num(f64::from(s.incr_ps))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn outcome_value(out: &UpdateOutcome) -> Value {
    obj(vec![
        ("stop", string(stop_str(&out.stop))),
        ("tasks", num(out.tasks as f64)),
        ("unknown_endpoints", num(f64::from(out.unknown_endpoints))),
    ])
}

// ---- edits ---------------------------------------------------------------

fn parse_edit(v: &Value) -> Result<Edit, ApiError> {
    let op = req_str(v, "op")?;
    match op {
        "repower" => Ok(Edit::Repower {
            gate: req_str(v, "gate")?.to_string(),
            drive: req_f64(v, "drive")? as f32,
        }),
        "set_net_cap" => {
            let net = req_f64(v, "net")?;
            if net < 0.0 || net.fract() != 0.0 || net > f64::from(u32::MAX) {
                return Err(ApiError::bad_request(
                    "bad_field",
                    format!("`net` must be a non-negative integer, got {net}"),
                ));
            }
            Ok(Edit::SetNetCap {
                net: net as u32,
                cap_ff: req_f64(v, "cap_ff")? as f32,
            })
        }
        "set_input_delay" => Ok(Edit::SetInputDelay {
            port: req_str(v, "port")?.to_string(),
            delay_ps: req_f64(v, "delay_ps")? as f32,
        }),
        "set_output_delay" => Ok(Edit::SetOutputDelay {
            port: req_str(v, "port")?.to_string(),
            delay_ps: req_f64(v, "delay_ps")? as f32,
        }),
        "set_clock_period" => Ok(Edit::SetClockPeriod {
            period_ps: req_f64(v, "period_ps")? as f32,
        }),
        other => Err(ApiError::bad_request(
            "bad_op",
            format!(
                "unknown edit op `{other}`; expected repower, set_net_cap, \
                 set_input_delay, set_output_delay, or set_clock_period"
            ),
        )),
    }
}

// ---- dispatch ------------------------------------------------------------

/// Execute one request against the registry. `method` is the wire
/// method name (the HTTP router and the JSON-RPC loop both map onto
/// these); `params` is the request's JSON object.
///
/// Session-touching methods are admission-controlled: past the
/// in-flight budget they shed with `503 overloaded` + `Retry-After`
/// instead of queueing. Probes (`status`, `healthz`, `readyz`) and
/// `shutdown` bypass admission so an overloaded daemon still answers
/// its operators.
///
/// # Errors
///
/// [`ApiError`] carrying the HTTP status, a stable error kind, and a
/// message; both frontends render it as `{"error": {...}}`.
pub fn dispatch(registry: &Registry, method: &str, params: &Value) -> Result<Value, ApiError> {
    registry.count_request();
    let _admission = match method {
        "status" | "healthz" | "readyz" | "shutdown" => None,
        _ => Some(registry.try_admit()?),
    };
    match method {
        "healthz" => Ok(obj(vec![("ok", Value::Bool(true))])),
        "readyz" => {
            if registry.is_shutting_down() {
                return Err(ApiError {
                    status: 503,
                    kind: "shutting_down".to_string(),
                    message: "daemon is shutting down".to_string(),
                    retry_after: None,
                });
            }
            if !registry.spool_writable() {
                return Err(ApiError {
                    status: 503,
                    kind: "spool_unwritable".to_string(),
                    message: format!(
                        "spool directory `{}` is not writable; checkpoints cannot be taken",
                        registry.spool().display()
                    ),
                    retry_after: Some(5),
                });
            }
            let rows = registry.list();
            Ok(obj(vec![
                ("ready", Value::Bool(true)),
                ("sessions", num(rows.len() as f64)),
                ("max_sessions", num(registry.max_sessions() as f64)),
                ("inflight", num(registry.inflight() as f64)),
                ("max_inflight", num(registry.max_inflight() as f64)),
            ]))
        }
        "status" => {
            let rows = registry.list();
            let live = rows
                .iter()
                .filter(|r| r.state == SessionState::Live)
                .count();
            let quarantined = rows
                .iter()
                .filter(|r| r.state == SessionState::Quarantined)
                .count();
            Ok(obj(vec![
                ("ok", Value::Bool(true)),
                ("sessions", num(rows.len() as f64)),
                ("live", num(live as f64)),
                ("dormant", num((rows.len() - live - quarantined) as f64)),
                ("quarantined", num(quarantined as f64)),
                ("requests", num(registry.requests_served() as f64)),
                ("inflight", num(registry.inflight() as f64)),
                ("crashes", num(registry.crashes_total() as f64)),
                ("recoveries", num(registry.recoveries_total() as f64)),
                ("checkpoints", num(registry.checkpoints_total() as f64)),
                ("workers", num(registry.workers() as f64)),
                ("max_sessions", num(registry.max_sessions() as f64)),
                ("shutting_down", Value::Bool(registry.is_shutting_down())),
            ]))
        }
        "list_sessions" => Ok(obj(vec![(
            "sessions",
            Value::Array(
                registry
                    .list()
                    .into_iter()
                    .map(|row| {
                        obj(vec![
                            ("name", string(&row.name)),
                            ("state", string(row.state.as_str())),
                            ("recoveries", num(f64::from(row.recoveries))),
                            (
                                "checkpoint",
                                match row.checkpoint {
                                    Some(p) => string(p.display().to_string()),
                                    None => Value::Null,
                                },
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])),
        "create_session" => {
            let name = req_str(params, "name")?;
            let verilog = req_str(params, "verilog")?;
            let sources = DesignSources {
                verilog: verilog.to_string(),
                liberty: opt_str(params, "liberty").map(str::to_string),
                sdc: opt_str(params, "sdc").map(str::to_string),
                clock_period_ps: match opt_f64(params, "clock_ps")? {
                    Some(ps) if ps.is_finite() && ps > 0.0 => ps as f32,
                    Some(ps) => {
                        return Err(ApiError::bad_request(
                            "bad_field",
                            format!("`clock_ps` must be positive and finite, got {ps}"),
                        ))
                    }
                    None => 1_000.0,
                },
            };
            let arc = registry.create(name, sources)?;
            let session = arc.lock();
            let shape = session.shape();
            Ok(obj(vec![
                ("name", string(name)),
                (
                    "shape",
                    obj(vec![
                        ("gates", num(f64::from(shape.gates))),
                        ("nets", num(f64::from(shape.nets))),
                        ("inputs", num(f64::from(shape.inputs))),
                        ("outputs", num(f64::from(shape.outputs))),
                        ("nodes", num(f64::from(shape.nodes))),
                    ]),
                ),
                ("workers", num(session.workers() as f64)),
                ("report", report_value(&session.report(0))),
            ]))
        }
        "evict_session" => {
            let name = req_str(params, "name")?;
            let dormant = registry.evict(name)?;
            Ok(obj(vec![
                ("name", string(name)),
                ("state", string("dormant")),
                (
                    "checkpoint",
                    string(dormant.checkpoint_path().display().to_string()),
                ),
            ]))
        }
        "restore_session" => {
            let name = req_str(params, "name")?;
            let arc = registry.restore(name)?;
            let session = arc.lock();
            Ok(obj(vec![
                ("name", string(name)),
                ("state", string("live")),
                ("updates_done", num(f64::from(session.updates_done()))),
            ]))
        }
        "edit_session" => {
            let name = req_str(params, "name")?;
            let edits_value = params.get("edits").ok_or_else(|| {
                ApiError::bad_request("missing_field", "`edits` (array) is required")
            })?;
            let items = edits_value
                .as_array()
                .ok_or_else(|| ApiError::bad_request("bad_field", "`edits` must be an array"))?;
            let mut edits = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                edits.push(parse_edit(item).map_err(|mut e| {
                    e.message = format!("edits[{i}]: {}", e.message);
                    e
                })?);
            }
            // Edits apply in order; on a rejected edit the earlier ones
            // stay applied (and pending), and the error names the
            // offending index so the client can resubmit from there.
            // Supervised: the edits are journaled for crash replay.
            let receipt = registry.apply_edits(name, &edits)?;
            if let Some((i, e)) = receipt.rejected {
                let mut api = ApiError::from(e);
                api.message = format!("edits[{i}]: {}", api.message);
                return Err(api);
            }
            Ok(obj(vec![
                ("name", string(name)),
                ("applied", num(receipt.applied as f64)),
                ("pending", Value::Bool(receipt.pending)),
            ]))
        }
        "update_timing" => {
            let name = req_str(params, "name")?;
            let budget = match opt_f64(params, "deadline_ms")? {
                Some(ms) if ms.is_finite() && ms >= 0.0 => {
                    RunBudget::unbounded().with_deadline(Duration::from_secs_f64(ms / 1_000.0))
                }
                Some(ms) => {
                    return Err(ApiError::bad_request(
                        "bad_field",
                        format!("`deadline_ms` must be a non-negative number, got {ms}"),
                    ))
                }
                None => RunBudget::unbounded(),
            };
            // Supervised: a panic mid-update (the long pole for crash
            // exposure) is caught and the session auto-restored. The
            // `report(0)` is a read of the root of the summary the update
            // just left, not a pass over the endpoints.
            let (out, report) = registry.with_live(name, |session| {
                session
                    .update_timing(&budget)
                    .map(|out| (out, session.report(0)))
            })??;
            Ok(obj(vec![
                ("name", string(name)),
                ("outcome", outcome_value(&out)),
                ("report", report_value(&report)),
            ]))
        }
        "report" => {
            let name = req_str(params, "name")?;
            let k = opt_usize(params, "k", 5)?;
            let mode = opt_str(params, "mode").unwrap_or("late");
            let hold = match mode {
                "late" | "setup" => false,
                "early" | "hold" => true,
                other => {
                    return Err(ApiError::bad_request(
                        "bad_field",
                        format!("`mode` must be late/setup or early/hold, got `{other}`"),
                    ))
                }
            };
            let rep = registry.with_live(name, |session| {
                if hold {
                    session.report_hold(k)
                } else {
                    session.report(k)
                }
            })?;
            Ok(obj(vec![
                ("name", string(name)),
                ("mode", string(mode)),
                ("report", report_value(&rep)),
            ]))
        }
        "paths" => {
            let name = req_str(params, "name")?;
            let k = opt_usize(params, "k", 1)?;
            if k > MAX_PATHS {
                return Err(ApiError::bad_request(
                    "bad_field",
                    format!("`k` must be at most {MAX_PATHS}, got {k}"),
                ));
            }
            let paths = registry.with_live(name, |session| {
                Value::Array(session.worst_paths(k).iter().map(path_value).collect())
            })?;
            Ok(obj(vec![("name", string(name)), ("paths", paths)]))
        }
        "remove_session" => {
            let name = req_str(params, "name")?;
            registry.remove(name)?;
            Ok(obj(vec![
                ("name", string(name)),
                ("state", string("removed")),
            ]))
        }
        "shutdown" => {
            registry.request_shutdown();
            Ok(obj(vec![("ok", Value::Bool(true))]))
        }
        other => Err(ApiError {
            status: 404,
            kind: "no_such_method".to_string(),
            message: format!("unknown method `{other}`"),
            retry_after: None,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const FIXTURE: &str = "\
module proto_fixture (a, b, y);
  input a, b;
  output y;
  wire n0, n1;
  NAND2 u0 (.a(a), .b(b), .y(n0));
  INV u1 (.a(n0), .y(n1));
  INV u2 (.a(n1), .y(y));
endmodule
";

    fn params(pairs: Vec<(&str, Value)>) -> Value {
        obj(pairs)
    }

    fn registry(tag: &str) -> (Registry, PathBuf) {
        let spool =
            std::env::temp_dir().join(format!("gpasta-proto-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&spool).expect("spool");
        (Registry::new(spool.clone(), 2, 8), spool)
    }

    #[test]
    fn create_edit_update_report_round_trip() {
        let (reg, spool) = registry("round");
        let created = dispatch(
            &reg,
            "create_session",
            &params(vec![("name", string("s1")), ("verilog", string(FIXTURE))]),
        )
        .expect("create");
        assert_eq!(created["shape"]["gates"], 3u32);

        dispatch(
            &reg,
            "edit_session",
            &params(vec![
                ("name", string("s1")),
                (
                    "edits",
                    Value::Array(vec![obj(vec![
                        ("op", string("repower")),
                        ("gate", string("u1")),
                        ("drive", num(2.0)),
                    ])]),
                ),
            ]),
        )
        .expect("edit");

        let updated =
            dispatch(&reg, "update_timing", &params(vec![("name", string("s1"))])).expect("update");
        assert_eq!(updated["outcome"]["stop"], "completed");

        let report = dispatch(
            &reg,
            "report",
            &params(vec![("name", string("s1")), ("k", num(2.0))]),
        )
        .expect("report");
        assert_eq!(
            report["report"]["wns_bits"], updated["report"]["wns_bits"],
            "report and update agree bit-for-bit"
        );
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn errors_carry_status_and_kind() {
        let (reg, spool) = registry("errors");
        let missing = dispatch(&reg, "report", &params(vec![("name", string("nope"))]))
            .expect_err("unknown session");
        assert_eq!(missing.status, 404);
        assert_eq!(missing.kind, "not_found");

        let bad = dispatch(&reg, "create_session", &params(vec![("name", string("x"))]))
            .expect_err("missing verilog");
        assert_eq!(bad.status, 400);

        let nomethod = dispatch(&reg, "frobnicate", &params(vec![])).expect_err("unknown method");
        assert_eq!(nomethod.kind, "no_such_method");

        dispatch(
            &reg,
            "create_session",
            &params(vec![("name", string("x")), ("verilog", string(FIXTURE))]),
        )
        .expect("create");
        let bad_edit = dispatch(
            &reg,
            "edit_session",
            &params(vec![
                ("name", string("x")),
                (
                    "edits",
                    Value::Array(vec![obj(vec![
                        ("op", string("repower")),
                        ("gate", string("ghost")),
                        ("drive", num(2.0)),
                    ])]),
                ),
            ]),
        )
        .expect_err("bad gate");
        assert_eq!(bad_edit.status, 400);
        assert!(bad_edit.message.contains("edits[0]"), "{bad_edit}");
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn evict_and_restore_over_the_wire() {
        let (reg, spool) = registry("evict");
        dispatch(
            &reg,
            "create_session",
            &params(vec![("name", string("e1")), ("verilog", string(FIXTURE))]),
        )
        .expect("create");
        let before =
            dispatch(&reg, "report", &params(vec![("name", string("e1"))])).expect("report");

        let evicted =
            dispatch(&reg, "evict_session", &params(vec![("name", string("e1"))])).expect("evict");
        assert_eq!(evicted["state"], "dormant");
        let denied =
            dispatch(&reg, "report", &params(vec![("name", string("e1"))])).expect_err("dormant");
        assert_eq!(denied.status, 409);

        let restored = dispatch(
            &reg,
            "restore_session",
            &params(vec![("name", string("e1"))]),
        )
        .expect("restore");
        assert_eq!(restored["state"], "live");
        let after =
            dispatch(&reg, "report", &params(vec![("name", string("e1"))])).expect("report");
        assert_eq!(
            before["report"]["wns_bits"], after["report"]["wns_bits"],
            "restore is bit-identical"
        );
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn probes_answer_and_admission_sheds_with_retry_after() {
        let (reg, spool) = registry("probes");
        let reg = reg.with_admission(1);
        let health = dispatch(&reg, "healthz", &params(vec![])).expect("healthz");
        assert_eq!(health["ok"], Value::Bool(true));
        let ready = dispatch(&reg, "readyz", &params(vec![])).expect("readyz");
        assert_eq!(ready["ready"], Value::Bool(true));

        // Hold the whole in-flight budget: session methods shed, probes
        // still answer.
        let _held = reg.try_admit().expect("hold the budget");
        let shed = dispatch(&reg, "list_sessions", &params(vec![])).expect_err("shed");
        assert_eq!(shed.status, 503);
        assert_eq!(shed.kind, "overloaded");
        assert_eq!(shed.retry_after, Some(1));
        assert!(shed.to_value()["error"]["retry_after_s"].as_f64().is_some());
        dispatch(&reg, "healthz", &params(vec![])).expect("probe bypasses admission");
        dispatch(&reg, "status", &params(vec![])).expect("status bypasses admission");

        reg.request_shutdown();
        let draining = dispatch(&reg, "readyz", &params(vec![])).expect_err("not ready");
        assert_eq!(draining.kind, "shutting_down");
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn crashed_session_error_is_typed_and_the_retry_succeeds() {
        let (reg, spool) = registry("crash-wire");
        dispatch(
            &reg,
            "create_session",
            &params(vec![("name", string("c1")), ("verilog", string(FIXTURE))]),
        )
        .expect("create");
        let err = reg
            .with_live("c1", |_s| panic!("wire-level injected panic"))
            .map(|_: ()| ())
            .expect_err("crash");
        let api = ApiError::from(err);
        assert_eq!(api.status, 500);
        assert_eq!(api.kind, "session_crashed");
        assert_eq!(api.retry_after, Some(0), "recovered crash is retryable now");

        // The slot healed: the wire path serves the retry and rows show
        // the recovery count.
        let report =
            dispatch(&reg, "report", &params(vec![("name", string("c1"))])).expect("retry");
        assert!(report["report"]["wns_bits"].as_str().is_some());
        let listed = dispatch(&reg, "list_sessions", &params(vec![])).expect("list");
        assert_eq!(listed["sessions"][0]["state"], "live");
        assert_eq!(listed["sessions"][0]["recoveries"], 1u32);
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn deadline_zero_returns_structured_degradation() {
        let (reg, spool) = registry("deadline");
        dispatch(
            &reg,
            "create_session",
            &params(vec![("name", string("d1")), ("verilog", string(FIXTURE))]),
        )
        .expect("create");
        dispatch(
            &reg,
            "edit_session",
            &params(vec![
                ("name", string("d1")),
                (
                    "edits",
                    Value::Array(vec![obj(vec![
                        ("op", string("repower")),
                        ("gate", string("u0")),
                        ("drive", num(3.0)),
                    ])]),
                ),
            ]),
        )
        .expect("edit");
        let out = dispatch(
            &reg,
            "update_timing",
            &params(vec![("name", string("d1")), ("deadline_ms", num(0.0))]),
        )
        .expect("bounded update is a 2xx, not an error");
        assert_eq!(out["outcome"]["stop"], "deadline_expired");
        // Degraded WNS is NaN in the tree (the serializer renders it as
        // JSON null); the bits field still carries the exact pattern.
        assert!(out["report"]["wns_ps"].as_f64().is_some_and(f64::is_nan));
        std::fs::remove_dir_all(&spool).ok();
    }
}
