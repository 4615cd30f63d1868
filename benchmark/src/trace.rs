//! The traced pass's span recorder. Spans are taken from the benchmark's
//! side of each layer's public functions, kept in memory, and written out
//! once at exit; no engine file knows about them.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One timed call. `parent` indexes the span that caused it; the spans of
/// one operation share `op_id`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

/// Per-name totals: calls, time inside the span, and self time (the span
/// minus the part its direct children cover).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotal {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of operation `op_id`.
    pub fn open_op(&mut self, name: &'static str, op_id: u32) -> usize {
        self.open(name, op_id, None)
    }

    fn open(&mut self, name: &'static str, op_id: u32, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Times `f` as a child span of `parent`.
    pub fn child<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, self.spans[parent].op_id, Some(parent));
        let out = f();
        self.close(span);
        out
    }

    /// Time inside root spans that no child span covers, as a share of the
    /// time inside root spans.
    pub fn unattributed_share(&self) -> f64 {
        let mut whole = 0u64;
        let mut covered = 0u64;
        for s in &self.spans {
            match s.parent {
                None => whole += s.ns(),
                Some(p) if self.spans[p].parent.is_none() => covered += s.ns(),
                Some(_) => {}
            }
        }
        if whole == 0 {
            0.0
        } else {
            whole.saturating_sub(covered) as f64 / whole as f64
        }
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.ns();
            t.self_ns += s.ns().saturating_sub(kids);
        }
        out
    }

    /// Total time inside spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// `{"summary": {name: {calls, total_ns, self_ns}}, "spans": [...]}`.
    pub fn to_json(&self) -> Json {
        let summary = self.totals().into_iter().map(|(name, t)| {
            (
                name,
                Json::obj([
                    ("calls", Json::Num(t.calls as f64)),
                    ("total_ns", Json::Num(t.total_ns as f64)),
                    ("self_ns", Json::Num(t.self_ns as f64)),
                ]),
            )
        });
        let spans = self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("op_id", Json::Num(s.op_id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ])
        });
        Json::obj([
            ("summary", Json::obj(summary)),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let mut t = Tracer::new();
        let op = t.open_op("op", 7);
        t.child("a", op, || ());
        t.child("b", op, || ());
        t.close(op);
        // Hand-set the clock so the arithmetic is exact.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        t.spans[1].start_ns = 10;
        t.spans[1].end_ns = 50;
        t.spans[2].start_ns = 50;
        t.spans[2].end_ns = 80;
        let totals = t.totals();
        assert_eq!(totals["op"].self_ns, 30);
        assert_eq!(totals["a"].total_ns, 40);
        assert_eq!(t.spans[1].op_id, 7);
        assert!((t.unattributed_share() - 0.3).abs() < 1e-12);
    }
}
