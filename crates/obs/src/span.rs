//! Thread-local span trees with a global ring buffer and an optional
//! JSON-Lines file sink.
//!
//! A span is opened with [`span_named`] and closed when its
//! [`SpanGuard`] drops. Guards nest LIFO on a thread-local stack, so
//! the pipeline needs no signature changes to thread context through:
//! a solve runs on one thread, and whatever opens a span while another
//! is active becomes its child. When the **root** guard of a thread
//! closes, the finished [`SpanNode`] tree is pushed into a bounded
//! global ring buffer, which the daemon's `trace` op serves back as
//! JSON.
//!
//! Every span close additionally (a) fires the registered
//! [`profiler`](crate::profiler) callbacks and (b) appends one
//! JSON-Lines event to the file sink, when one is installed.
//!
//! Tracing is globally gated by one `AtomicBool`: with it off,
//! [`span_named`] is a single relaxed load returning an inert guard.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::profiler::{fire_span_close, SpanEvent};

/// How many finished root span trees the ring buffer retains.
pub const RING_CAPACITY: usize = 64;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn span collection on or off process-wide. Off is the default;
/// the daemon turns it on at startup, the CLI/harness when
/// `--trace-json` is given.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is span collection currently enabled?
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The ring buffer capacity (how many root traces `recent_traces` can
/// return at most).
pub fn ring_capacity() -> usize {
    RING_CAPACITY
}

/// One completed span: a named, timed segment of the pipeline with
/// solver counters, string attributes, and child spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    /// Phase or operation name (`ground`, `encode`, `search`, …).
    pub name: &'static str,
    /// Start offset from the root span's start, µs.
    pub start_us: u64,
    /// Wall-clock duration, µs.
    pub elapsed_us: u64,
    /// Numeric counters recorded on the span (solver stats and the
    /// like), in insertion order.
    pub counters: Vec<(&'static str, u64)>,
    /// String attributes (operation fingerprint, mode, party, …).
    pub attrs: Vec<(&'static str, String)>,
    /// Child spans, in completion order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn new(name: &'static str, start_us: u64) -> SpanNode {
        SpanNode {
            name,
            start_us,
            elapsed_us: 0,
            counters: Vec::new(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Total spans in this tree (self included).
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(SpanNode::span_count).sum::<usize>()
    }

    /// Find the first descendant (depth-first, self included) with
    /// `name`.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// A counter recorded on this span.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// An attribute recorded on this span.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Serialize the whole tree as one compact JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        write_json_string(self.name, out);
        let _ = write!(
            out,
            ",\"start_us\":{},\"elapsed_us\":{}",
            self.start_us, self.elapsed_us
        );
        out.push_str(",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(k, out);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"attrs\":{");
        for (i, (k, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(k, out);
            out.push(':');
            write_json_string(v, out);
        }
        out.push_str("},\"children\":[");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.write_json(out);
        }
        out.push_str("]}");
    }
}

/// Minimal JSON string escaping (mirrors the daemon's serializer).
fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An open span on the thread-local stack.
struct ActiveSpan {
    node: SpanNode,
    started: Instant,
    /// The root span's start (for child offsets).
    epoch: Instant,
}

thread_local! {
    static STACK: RefCell<Vec<ActiveSpan>> = const { RefCell::new(Vec::new()) };
}

/// Closing a [`SpanGuard`] ends its span: elapsed time is recorded,
/// sinks fire, and the node attaches to its parent (or, for a root,
/// lands in the ring buffer). Inert when tracing was disabled at open.
#[must_use = "a span closes when its guard drops; an unused guard closes immediately"]
pub struct SpanGuard {
    /// Stack index of the owned span; `None` for inert guards.
    idx: Option<usize>,
}

/// Open a span named `name`. With tracing disabled this is one relaxed
/// atomic load.
pub fn span_named(name: &'static str) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard { idx: None };
    }
    let now = Instant::now();
    let idx = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let (epoch, start_us) = match stack.first() {
            Some(root) => (
                root.epoch,
                now.duration_since(root.epoch).as_micros().min(u128::from(u64::MAX)) as u64,
            ),
            None => (now, 0),
        };
        stack.push(ActiveSpan {
            node: SpanNode::new(name, start_us),
            started: now,
            epoch,
        });
        stack.len() - 1
    });
    SpanGuard { idx: Some(idx) }
}

impl SpanGuard {
    /// Record a numeric counter on this span (last write wins for a
    /// repeated name — callers overwrite, not accumulate).
    pub fn record(&mut self, name: &'static str, value: u64) {
        let Some(idx) = self.idx else { return };
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(active) = stack.get_mut(idx) {
                if let Some(slot) = active.node.counters.iter_mut().find(|(n, _)| *n == name) {
                    slot.1 = value;
                } else {
                    active.node.counters.push((name, value));
                }
            }
        });
    }

    /// Record a string attribute on this span.
    pub fn attr(&mut self, name: &'static str, value: impl Into<String>) {
        let Some(idx) = self.idx else { return };
        let value = value.into();
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(active) = stack.get_mut(idx) {
                if let Some(slot) = active.node.attrs.iter_mut().find(|(n, _)| *n == name) {
                    slot.1 = value;
                } else {
                    active.node.attrs.push((name, value));
                }
            }
        });
    }

    /// Is this guard actually recording (tracing was enabled when it
    /// was opened)?
    pub fn is_recording(&self) -> bool {
        self.idx.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Close any stragglers above us (leaked child guards), then
            // ourselves — preserves tree shape even on unwinds.
            while stack.len() > idx {
                let mut active = match stack.pop() {
                    Some(a) => a,
                    None => return,
                };
                active.node.elapsed_us =
                    active.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                let depth = stack.len();
                let path = stack
                    .iter()
                    .map(|a| a.node.name)
                    .chain(std::iter::once(active.node.name))
                    .collect::<Vec<_>>()
                    .join("/");
                emit_close(&active.node, &path, depth);
                match stack.last_mut() {
                    Some(parent) => parent.node.children.push(active.node),
                    None => push_ring(active.node),
                }
            }
        });
    }
}

/// Fire profiler callbacks and the JSON-Lines sink for one span close.
fn emit_close(node: &SpanNode, path: &str, depth: usize) {
    fire_span_close(&SpanEvent {
        name: node.name,
        path,
        depth,
        start_us: node.start_us,
        elapsed_us: node.elapsed_us,
        counters: &node.counters,
        attrs: &node.attrs,
    });
    let sink = sink_slot();
    let mut guard = match sink.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    if let Some(w) = guard.as_mut() {
        let mut line = String::new();
        line.push_str("{\"name\":");
        write_json_string(node.name, &mut line);
        line.push_str(",\"path\":");
        write_json_string(path, &mut line);
        let _ = write!(
            line,
            ",\"depth\":{depth},\"start_us\":{},\"elapsed_us\":{}",
            node.start_us, node.elapsed_us
        );
        line.push_str(",\"counters\":{");
        for (i, (k, v)) in node.counters.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            write_json_string(k, &mut line);
            let _ = write!(line, ":{v}");
        }
        line.push_str("},\"attrs\":{");
        for (i, (k, v)) in node.attrs.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            write_json_string(k, &mut line);
            line.push(':');
            write_json_string(v, &mut line);
        }
        line.push_str("}}");
        let _ = writeln!(w, "{line}");
        if depth == 0 {
            let _ = w.flush();
        }
    }
}

fn ring() -> &'static Mutex<VecDeque<SpanNode>> {
    static RING: OnceLock<Mutex<VecDeque<SpanNode>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(RING_CAPACITY)))
}

fn push_ring(node: SpanNode) {
    let mut ring = match ring().lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    if ring.len() == RING_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(node);
}

/// The last `n` completed root span trees, newest first.
pub fn recent_traces(n: usize) -> Vec<SpanNode> {
    let ring = match ring().lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    ring.iter().rev().take(n).cloned().collect()
}

fn sink_slot() -> &'static Mutex<Option<BufWriter<File>>> {
    static SINK: OnceLock<Mutex<Option<BufWriter<File>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Install a JSON-Lines file sink: every span close appends one event
/// line to `path` (created or truncated). Implies nothing about the
/// enable gate — callers typically also `set_enabled(true)`.
pub fn set_json_sink(path: &Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    let mut guard = match sink_slot().lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    *guard = Some(BufWriter::new(file));
    Ok(())
}

/// Flush and remove the JSON-Lines sink, if any.
pub fn clear_json_sink() {
    let mut guard = match sink_slot().lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    if let Some(mut w) = guard.take() {
        let _ = w.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Span tests share the process-global gate; serialize them.
    fn gate() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        match GATE.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = gate();
        set_enabled(false);
        let mut s = span_named("nothing");
        assert!(!s.is_recording());
        s.record("x", 1);
        s.attr("a", "b");
        drop(s);
        assert!(recent_traces(usize::MAX)
            .iter()
            .all(|t| t.name != "nothing"));
    }

    #[test]
    fn nested_spans_build_a_tree_in_the_ring() {
        let _g = gate();
        set_enabled(true);
        {
            let mut root = span_named("root-test");
            root.attr("fingerprint", "00ff");
            {
                let mut child = span_named("child");
                child.record("conflicts", 3);
                let _grand = span_named("grandchild");
            }
        }
        set_enabled(false);
        let traces = recent_traces(4);
        let root = traces
            .iter()
            .find(|t| t.name == "root-test")
            .expect("root trace in ring");
        assert_eq!(root.attr("fingerprint"), Some("00ff"));
        assert_eq!(root.span_count(), 3);
        let child = root.find("child").expect("child span");
        assert_eq!(child.counter("conflicts"), Some(3));
        assert!(child.find("grandchild").is_some());
        // The tree serializes to parseable-looking JSON.
        let json = root.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"name\":\"root-test\""));
    }

    #[test]
    fn ring_is_bounded() {
        let _g = gate();
        set_enabled(true);
        for _ in 0..RING_CAPACITY + 8 {
            let _s = span_named("ring-fill");
        }
        set_enabled(false);
        assert!(recent_traces(usize::MAX).len() <= RING_CAPACITY);
    }

    #[test]
    fn json_sink_gets_one_line_per_close() {
        let _g = gate();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("muppet-obs-sink-{}.jsonl", std::process::id()));
        set_json_sink(&path).expect("create sink");
        set_enabled(true);
        {
            let _root = span_named("sink-root");
            let _child = span_named("sink-child");
        }
        set_enabled(false);
        clear_json_sink();
        let text = std::fs::read_to_string(&path).expect("read sink");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "two closes, two lines: {text}");
        assert!(lines[0].contains("\"name\":\"sink-child\""));
        assert!(lines[0].contains("\"path\":\"sink-root/sink-child\""));
        assert!(lines[1].contains("\"depth\":0"));
    }
}
