//! In-memory span recorder used by the traced run.
//!
//! Spans are taken from outside the program: the benchmark wraps each
//! call into a layer's public entry point in [`Tracer::span`]. Every
//! span carries an id, its parent, the op it belongs to and start/end
//! offsets from the tracer's epoch. Nothing is written until the run
//! ends ([`Tracer::to_json`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index into the tracer's span list.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (benchmark operation) this span belongs to.
    pub op: u64,
    /// `<layer>.<call>`; per-layer metrics are named after it.
    pub name: String,
    /// Start offset from the tracer's epoch, nanoseconds.
    pub start_ns: u64,
    /// End offset from the tracer's epoch, nanoseconds.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span, nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans in memory.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the span that
    /// is open now. A span opened with no parent starts a new op.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        if parent.is_none() {
            self.op += 1;
        }
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, nanoseconds: each span's duration minus
    /// the part of it that its child spans cover.
    pub fn self_ns_by_name(&self) -> BTreeMap<&str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&str, u64> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name.as_str()).or_default() +=
                s.duration_ns().saturating_sub(child_ns[s.id]);
        }
        out
    }

    /// Total wall time of the root spans named `name`, nanoseconds, and
    /// their count.
    pub fn root_ns(&self, name: &str) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.duration_ns(), n + 1))
    }

    /// The spans as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("op.a", |t| {
            t.span("x.child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let by_name = t.self_ns_by_name();
        let (root, n) = t.root_ns("op.a");
        assert_eq!(n, 1);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(by_name["op.a"] + by_name["x.child"], root);
        assert!(by_name["x.child"] >= 2_000_000);
    }

    #[test]
    fn each_root_span_opens_a_new_op() {
        let mut t = Tracer::new();
        t.span("op.a", |_| ());
        t.span("op.a", |t| t.span("x.y", |_| ()));
        let ops: Vec<u64> = t.spans().iter().map(|s| s.op).collect();
        assert_eq!(ops, vec![1, 2, 2]);
    }
}
