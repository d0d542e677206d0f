//! Execution reports produced by the executor.

use serde::value::{FromValueError, Value};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// Result of one executor run.
///
/// `dispatches` counts scheduling operations (a task or partition handed to
/// a worker). For a plain TDG run it equals the task count; for a
/// partitioned run it equals the partition count — the gap between the two
/// is exactly the scheduling cost that partitioning removes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Number of underlying tasks whose payload executed.
    pub tasks_executed: usize,
    /// Number of scheduling operations (dispatch events).
    pub dispatches: u64,
    /// Worker threads used.
    pub num_workers: usize,
}

// Hand-written (not derived) because `Duration` has no vendored serde
// impl: `elapsed` encodes as exact `{secs, nanos}` integers so reports
// round-trip bit-identically instead of through a lossy float.
impl Serialize for RunReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "elapsed_secs".to_string(),
                Serialize::to_value(&self.elapsed.as_secs()),
            ),
            (
                "elapsed_nanos".to_string(),
                Serialize::to_value(&self.elapsed.subsec_nanos()),
            ),
            (
                "tasks_executed".to_string(),
                Serialize::to_value(&self.tasks_executed),
            ),
            (
                "dispatches".to_string(),
                Serialize::to_value(&self.dispatches),
            ),
            (
                "num_workers".to_string(),
                Serialize::to_value(&self.num_workers),
            ),
        ])
    }
}

impl Deserialize for RunReport {
    fn from_value(v: &Value) -> Result<Self, FromValueError> {
        let secs: u64 = Deserialize::from_value(v.expect_field("elapsed_secs")?)?;
        let nanos: u32 = Deserialize::from_value(v.expect_field("elapsed_nanos")?)?;
        if nanos >= 1_000_000_000 {
            return Err(FromValueError::new(format!(
                "elapsed_nanos {nanos} is not a subsecond count"
            )));
        }
        Ok(RunReport {
            elapsed: Duration::new(secs, nanos),
            tasks_executed: Deserialize::from_value(v.expect_field("tasks_executed")?)?,
            dispatches: Deserialize::from_value(v.expect_field("dispatches")?)?,
            num_workers: Deserialize::from_value(v.expect_field("num_workers")?)?,
        })
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tasks in {:.3} ms via {} dispatches on {} workers",
            self.tasks_executed,
            self.elapsed.as_secs_f64() * 1e3,
            self.dispatches,
            self.num_workers
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_round_trip_preserves_elapsed_exactly() {
        let r = RunReport {
            elapsed: Duration::new(12, 345_678_901),
            tasks_executed: 42,
            dispatches: 17,
            num_workers: 8,
        };
        let back = RunReport::from_value(&r.to_value()).expect("round trip");
        assert_eq!(back, r);
    }

    #[test]
    fn deserialize_rejects_overflowing_nanos() {
        let mut v = RunReport {
            elapsed: Duration::ZERO,
            tasks_executed: 0,
            dispatches: 0,
            num_workers: 1,
        }
        .to_value();
        if let Value::Object(pairs) = &mut v {
            for (k, val) in pairs.iter_mut() {
                if k == "elapsed_nanos" {
                    *val = Value::Number(2e9);
                }
            }
        }
        assert!(RunReport::from_value(&v).is_err());
    }

    #[test]
    fn display_mentions_counts() {
        let r = RunReport {
            elapsed: Duration::from_millis(2),
            tasks_executed: 4,
            dispatches: 3,
            num_workers: 2,
        };
        let s = r.to_string();
        assert!(s.contains("4 tasks"));
        assert!(s.contains("3 dispatches"));
    }
}
