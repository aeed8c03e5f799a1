//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public API (the program itself is not instrumented). Each
//! span holds its name, start, end, parent, and op id; spans stay in
//! memory until [`Tracer::write_jsonl`] writes them at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: the part of its name before the
    /// first dot (`syntax.parse` → `syntax`).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records `f` as one span named `name`, nested under whichever span
    /// is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let ix = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.open.push(ix);
        let out = f(self);
        self.open.pop();
        self.spans[ix].end_ns = self.now_ns();
        out
    }

    /// Records `f` as the root span of a fresh op id.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op += 1;
        self.span(name, f)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every recorded duration of spans named `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.durations_ms_from(name, 0)
    }

    /// As [`Tracer::durations_ms`], over spans recorded at or after
    /// index `from` (one replay's spans).
    pub fn durations_ms_from(&self, name: &str, from: usize) -> Vec<f64> {
        self.spans[from.min(self.spans.len())..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Total self time per layer, in ms: each span's duration minus the
    /// durations of its direct children.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] = child_ns[p].saturating_add(s.ns());
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.ns().saturating_sub(child_ns[i]) as f64 / 1e6;
            *out.entry(s.layer()).or_insert(0.0) += own;
        }
        out
    }

    /// Number of root spans (ops).
    pub fn ops(&self) -> u64 {
        self.spans.iter().filter(|s| s.parent.is_none()).count() as u64
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        out.push_str(header);
        out.push('\n');
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_ops_get_ids() {
        let mut t = Tracer::new();
        t.op("bench.op", |t| {
            t.span("web.outer", |t| {
                t.span("syntax.inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(20))
                });
            });
        });
        t.op("bench.op", |_| {});
        assert_eq!(t.ops(), 2);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!((s[0].op, s[2].op, s[3].op), (1, 1, 2));
        let by_layer = t.self_ms_by_layer();
        assert!(by_layer["syntax"] >= 20.0);
        assert!(
            by_layer["web"] < 5.0,
            "the child's sleep is not the parent's self time"
        );
    }
}
