//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer's public functions: name, start, end, the enclosing span and
//! the frame (or round) they belong to. They stay in memory while the run
//! measures and are written out once, when it ends.

use crate::clock::Clock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One timed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Frame or round the span belongs to (set-up and probes use their
    /// repetition index).
    pub key: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// Records spans while enabled and active; otherwise every call is a no-op
/// that reads no clock.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    enabled: bool,
    active: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(clock: Clock, enabled: bool) -> Tracer {
        Tracer {
            clock,
            enabled,
            active: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pauses or resumes recording (the traced run alternates traced and
    /// untraced frames to measure the tracing overhead).
    pub fn set_active(&mut self, active: bool) {
        self.active = active;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, key: u64) -> SpanId {
        if !(self.enabled && self.active) {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.clock.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            key,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `span` and any span opened inside it that is still open.
    pub fn exit(&mut self, span: SpanId) {
        let Some(id) = span else {
            return;
        };
        let now = self.clock.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, key: u64, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name, key);
        let out = f();
        self.exit(s);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in milliseconds, of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"key\":{}}}",
                s.name, s.start_ns, s.end_ns, s.key
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children are counted once, and a
/// child sticking out of its parent counts only inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let end = s.end_ns.max(s.start_ns);
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, end);
                let b = b.clamp(a, end);
                covered += b - a;
                reach = b;
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals over every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Spans grouped by name, with total and self time.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.spans += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            key: 0,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("frame", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 35, 50, Some(0)),
            span("d", 90, 130, Some(0)),
        ];
        // Children cover [10, 60) and [90, 100): 60 of the frame's 100 ns.
        assert_eq!(self_times(&spans)[0], 40);
        assert_eq!(self_times(&spans)[1], 30);
    }

    #[test]
    fn self_time_ignores_grandchildren() {
        let spans = vec![
            span("frame", 0, 100, None),
            span("render", 0, 80, Some(0)),
            span("inner", 10, 70, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 60]);
        let layers = layer_times(&spans);
        assert_eq!(layers["render"].total_ns, 80);
        assert_eq!(layers["render"].self_ns, 20);
    }

    #[test]
    fn tracer_nests_and_skips_when_off() {
        let mut t = Tracer::new(Clock::new(), true);
        let outer = t.enter("outer", 7);
        t.span("inner", 7, || ());
        t.exit(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        t.set_active(false);
        assert_eq!(t.enter("skipped", 8), None);
        let mut off = Tracer::new(Clock::new(), false);
        off.span("x", 0, || ());
        assert!(off.spans().is_empty());
    }
}
