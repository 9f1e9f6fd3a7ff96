//! In-memory span tracer used by the traced pass.
//!
//! Spans are recorded from the benchmark's own code around each public
//! call it makes. Each span has a name (the layer, `crate.module.item`),
//! an id shared by the spans of one invocation or one fleet cell, a start,
//! an end and a parent. Self time — a span's duration minus the part its
//! children cover — is folded per layer as spans close, so it stays exact
//! however many spans a run makes; the first [`SPAN_CAP`] raw spans are
//! kept and written out when the pass ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Raw spans kept for the written trace; later spans still count toward
/// the per-layer totals.
pub const SPAN_CAP: usize = 200_000;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Invocation, cell or phase id shared by related spans.
    pub id: u64,
    /// Index of the parent span in the kept spans, if it was kept.
    pub parent: Option<u32>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// Per-layer totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans closed.
    pub calls: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    kept: Option<u32>,
}

/// The tracer. A disabled tracer ignores every call, so the same code
/// runs traced and untraced.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    layers: BTreeMap<&'static str, LayerTime>,
}

impl Tracer {
    /// A tracer that records when `on` is set.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        let kept = (self.spans.len() < SPAN_CAP).then(|| {
            self.spans.push(Span {
                name,
                id,
                parent: self.stack.last().and_then(|o| o.kept),
                start_ns,
                end_ns: start_ns,
            });
            (self.spans.len() - 1) as u32
        });
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            kept,
        });
    }

    /// Closes the innermost span and returns its duration, ns (0 when the
    /// tracer is off).
    pub fn exit(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit matches an enter");
        let dur = end_ns - open.start_ns;
        if let Some(i) = open.kept {
            self.spans[i as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let layer = self.layers.entry(open.name).or_default();
        layer.calls += 1;
        layer.total_ns += dur;
        layer.self_ns += dur.saturating_sub(open.child_ns);
        dur
    }

    /// Records `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, id);
        let out = f();
        self.exit();
        out
    }

    /// Per-layer totals of every closed span.
    pub fn layers(&self) -> &BTreeMap<&'static str, LayerTime> {
        &self.layers
    }

    /// Totals of one layer (zero when it never ran).
    pub fn layer(&self, name: &str) -> LayerTime {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// The kept spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the kept spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::new(true);
        t.enter("root", 0);
        t.enter("child", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let child = t.exit();
        let root = t.exit();
        assert!(root >= child);
        let r = t.layer("root");
        let c = t.layer("child");
        assert_eq!(r.total_ns, root);
        assert_eq!(r.self_ns, root - child);
        assert_eq!(c.self_ns, child);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].id, 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 7), 7);
        assert!(t.layers().is_empty() && t.spans().is_empty());
    }
}
