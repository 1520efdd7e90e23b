//! The traced run's span and counter ledger.
//!
//! Spans are placed by the benchmark around its calls into each layer's
//! public functions (nothing inside the program is instrumented). They
//! are kept in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the ledger's epoch.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to; all spans of one op share it.
    pub op: u64,
    /// The measurement pass the op ran in.
    pub pass: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Spans and counters of one traced run.
pub struct Ledger {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
    pass: usize,
    /// Counter totals per pass, keyed by metric name.
    counters: Vec<BTreeMap<&'static str, f64>>,
}

impl Ledger {
    pub fn new() -> Ledger {
        Ledger {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
            pass: 0,
            counters: vec![BTreeMap::new()],
        }
    }

    /// Starts the next measurement pass.
    pub fn next_pass(&mut self) {
        self.pass += 1;
        self.counters.push(BTreeMap::new());
    }

    pub fn passes(&self) -> usize {
        self.pass + 1
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a root span for a new op and returns its index.
    pub fn begin_op(&mut self, name: &'static str) -> usize {
        assert!(self.open.is_empty(), "ops do not nest");
        self.next_op += 1;
        self.open(name)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let start = self.now();
        let span = Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.next_op,
            pass: self.pass,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.now();
    }

    /// Times `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Records the stage durations a layer call returned as consecutive
    /// child spans of the just-closed span `parent`, laid out from its
    /// start. Their sum never exceeds the parent's length.
    pub fn split(&mut self, parent: usize, parts: &[(&'static str, Duration)]) {
        let p = self.spans[parent].clone();
        let mut at = p.start;
        for &(name, d) in parts {
            let end = (at + d.as_secs_f64()).min(p.end);
            self.spans.push(Span { name, start: at, end, parent: Some(parent), ..p.clone() });
            at = end;
        }
    }

    /// Records a finished root span measured elsewhere (a client
    /// thread) as an op of its own in the current pass.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        self.next_op += 1;
        let span = Span {
            name,
            start: at(start),
            end: at(end),
            parent: None,
            op: self.next_op,
            pass: self.pass,
        };
        self.spans.push(span);
    }

    /// Adds `v` to counter `name` for the current pass.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters[self.pass].entry(name).or_default() += v;
    }

    /// Sets counter `name` for the current pass.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.counters[self.pass].insert(name, v);
    }

    pub fn counter(&self, pass: usize, name: &str) -> Option<f64> {
        self.counters.get(pass).and_then(|c| c.get(name).copied())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its length minus the part its children
    /// cover (children of one span never overlap).
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Per pass, the total self time of every span name, in seconds.
    pub fn self_time_by_name(&self) -> Vec<BTreeMap<&'static str, f64>> {
        let own = self.self_times();
        let mut out = vec![BTreeMap::new(); self.passes()];
        for (s, t) in self.spans.iter().zip(own) {
            *out[s.pass].entry(s.name).or_default() += t;
        }
        out
    }

    /// Per pass, the total length of spans named `name`, in seconds.
    pub fn total_by_name(&self, name: &str) -> Vec<f64> {
        let mut out = vec![0.0; self.passes()];
        for s in self.spans.iter().filter(|s| s.name == name) {
            out[s.pass] += s.secs();
        }
        out
    }

    /// The share of op time (root spans named `op`) that their direct
    /// children cover, over all ops.
    pub fn coverage(&self) -> f64 {
        let is_op = |i: usize| self.spans[i].parent.is_none() && self.spans[i].name == "op";
        let total: f64 =
            (0..self.spans.len()).filter(|&i| is_op(i)).map(|i| self.spans[i].secs()).sum();
        let covered: f64 =
            self.spans.iter().filter(|s| s.parent.is_some_and(is_op)).map(Span::secs).sum();
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }

    /// The ledger as JSON lines: one span per line, then one line of
    /// counters per pass.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start\":{:.9},\"end\":{:.9},\"parent\":{parent},\
                 \"op\":{},\"pass\":{}}}",
                s.name, s.start, s.end, s.op, s.pass
            );
        }
        for (pass, counters) in self.counters.iter().enumerate() {
            let body: Vec<String> = counters.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            let _ = writeln!(out, "{{\"counters\":{{{}}},\"pass\":{pass}}}", body.join(","));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_split_parts() {
        let mut l = Ledger::new();
        let op = l.begin_op("op");
        l.spans[op].start = 0.0;
        let a = l.open("a");
        l.close(a);
        l.close(op);
        l.spans[op].end = 10.0;
        l.spans[a].start = 1.0;
        l.spans[a].end = 5.0;
        l.split(a, &[("a1", Duration::from_secs(1)), ("a2", Duration::from_secs(9))]);
        let own = l.self_times();
        assert_eq!(own[op], 6.0);
        // a2 is clipped to a's end, so a keeps no self time.
        assert_eq!(own[a], 0.0);
        let by = &l.self_time_by_name()[0];
        assert_eq!(by["a1"], 1.0);
        assert_eq!(by["a2"], 3.0);
        assert!((l.coverage() - 0.4).abs() < 1e-12);
    }
}
