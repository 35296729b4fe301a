//! The span recorder of the traced run.
//!
//! Spans are taken in the benchmark's own code, around calls into each
//! layer's public functions; the program under test is not instrumented.
//! They are kept in memory and written out once, when the run ends, so
//! recording costs two clock reads and a `Vec` push per span.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifier of a span; `0` means "no parent".
pub type SpanId = u64;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// Spans of one traced query share this number; `0` for one-off spans.
    pub query: u64,
    /// The crate (layer) the enclosed call belongs to.
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the same boundary (rows in, rows out, bytes …).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        parent: SpanId,
        query: u64,
        layer: &'static str,
        name: &'static str,
    ) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            query,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        id
    }

    pub fn close(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    pub fn count(&mut self, id: SpanId, key: &'static str, value: u64) {
        self.spans[id as usize - 1].counts.push((key, value));
    }

    /// Record a leaf span around `work`; returns its id and the result.
    pub fn time<R>(
        &mut self,
        parent: SpanId,
        query: u64,
        layer: &'static str,
        name: &'static str,
        work: impl FnOnce() -> R,
    ) -> (SpanId, R) {
        let id = self.open(parent, query, layer, name);
        let result = work();
        self.close(id);
        (id, result)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in microseconds, of every span called `layer`/`name`.
    pub fn durations_us(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its direct children cover.
    pub fn self_times_ns(&self) -> HashMap<SpanId, u64> {
        let mut own: HashMap<SpanId, u64> =
            self.spans.iter().map(|s| (s.id, s.duration_ns())).collect();
        for child in self.spans.iter().filter(|s| s.parent != 0) {
            if let Some(parent) = own.get_mut(&child.parent) {
                *parent = parent.saturating_sub(child.duration_ns());
            }
        }
        own
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let counts: Vec<String> = span
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"query\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"counts\":{{{}}}}}",
                span.id,
                span.parent,
                span.query,
                span.layer,
                span.name,
                span.start_ns,
                span.end_ns,
                counts.join(",")
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::proc::{repo_root, TmpDir};

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut tracer = Tracer::new();
        let root = tracer.open(0, 1, "pqbench", "query");
        let stage = tracer.open(root, 1, "pq_core", "stage");
        let (leaf, _) = tracer.time(stage, 1, "pq-relation", "leaf", || {
            std::hint::black_box(1 + 1)
        });
        tracer.close(stage);
        tracer.close(root);
        // Pin the clock readings so the arithmetic is exact.
        tracer.spans[0].start_ns = 0;
        tracer.spans[0].end_ns = 1_000;
        tracer.spans[1].start_ns = 100;
        tracer.spans[1].end_ns = 700;
        tracer.spans[2].start_ns = 200;
        tracer.spans[2].end_ns = 450;
        let own = tracer.self_times_ns();
        assert_eq!(own[&root], 400, "1000 minus the stage's 600");
        assert_eq!(own[&stage], 350, "600 minus the leaf's 250");
        assert_eq!(own[&leaf], 250);
        assert_eq!(tracer.durations_us("pq_core", "stage"), vec![0.6]);
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let mut tracer = Tracer::new();
        let (id, _) = tracer.time(0, 7, "pq-query", "bind", || ());
        tracer.count(id, "rows", 42);
        let dir = TmpDir::create(&repo_root().unwrap(), "trace-test").unwrap();
        let path = dir.path().join("trace.jsonl");
        tracer.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let line = Json::parse(text.trim()).unwrap();
        assert_eq!(line.get("query").and_then(Json::as_f64), Some(7.0));
        assert_eq!(line.get("layer").and_then(Json::as_str), Some("pq-query"));
        assert_eq!(
            line.get("counts")
                .and_then(|c| c.get("rows"))
                .and_then(Json::as_f64),
            Some(42.0)
        );
    }
}
