//! In-memory spans around calls into each layer, written out at exit.
//!
//! Layers are measured from outside: a span brackets one call into a
//! layer's public function. Spans of one op share `op_id`; `parent` is the
//! span that was open when this one began.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An open span; close it with [`Tracer::end`].
#[must_use]
pub struct Open(u32);

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op_id: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
        }
    }
}

impl Tracer {
    /// Spans begun from now on belong to op `op_id`.
    pub fn set_op(&mut self, op_id: u32) {
        self.op_id = op_id;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op_id: self.op_id,
            parent: self.stack.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Close `open` (spans close innermost first) and return its length in
    /// milliseconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(
            self.stack.pop(),
            Some(open.0),
            "spans close innermost first"
        );
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = now;
        span.ms()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name` of ops `from_op` and
    /// later, in recording order.
    pub fn durations_ms(&self, name: &str, from_op: u32) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op_id >= from_op)
            .map(Span::ms)
            .collect()
    }

    /// Per op from `from_op` on, the summed duration (ms) of its spans
    /// named in `names`; an op with none of them is left out.
    pub fn sum_by_op(&self, names: &[&str], from_op: u32) -> BTreeMap<u32, f64> {
        let mut sums = BTreeMap::new();
        for s in &self.spans {
            if s.op_id >= from_op && names.contains(&s.name) {
                *sums.entry(s.op_id).or_insert(0.0) += s.ms();
            }
        }
        sums
    }

    /// Per span name: `(count, total ms, self ms)`, where self time is the
    /// span minus the part its direct children cover.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.ms();
            let own = total - child_ns[i] as f64 / 1e6;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }

    /// The trace as JSON: the span list plus the per-name self times.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"op_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op_id, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n],\"self_times\":[");
        for (i, (name, count, total, own)) in self.self_times().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{name}\",\"count\":{count},\"total_ms\":{total},\"self_ms\":{own}}}"
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// [`Tracer::begin`] when tracing is on.
pub fn begin(tracer: &mut Option<Tracer>, name: &'static str) -> Option<Open> {
    tracer.as_mut().map(|tr| tr.begin(name))
}

/// Close what [`begin`] opened.
pub fn end(tracer: &mut Option<Tracer>, open: Option<Open>) {
    if let (Some(tr), Some(open)) = (tracer.as_mut(), open) {
        tr.end(open);
    }
}

/// Bracket `f` in a span when tracing is on.
pub fn span<T>(tracer: &mut Option<Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let open = begin(tracer, name);
    let out = f();
    end(tracer, open);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::default();
        t.set_op(7);
        let op = t.begin("op");
        let a = t.begin("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        let b = t.begin("b");
        t.end(b);
        t.end(op);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op_id == 7));
        let rows = t.self_times();
        let op_row = rows.iter().find(|r| r.0 == "op").expect("op row");
        let a_row = rows.iter().find(|r| r.0 == "a").expect("a row");
        assert!(op_row.3 < op_row.2, "children are subtracted");
        assert!((op_row.2 - op_row.3 - a_row.2).abs() < 1.0);
        assert!(serde_json::from_str::<serde_json::Value>(&t.to_json()).is_ok());
    }
}
