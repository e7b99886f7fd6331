#![forbid(unsafe_code)]

//! Structured tracing for the itq engine: timed [`Span`] trees with typed
//! counter payloads and pluggable [`TraceSink`]s.
//!
//! The design contract is *zero cost when off*: each backend has one entry
//! point taking an execution context (`itq_object::ExecCtx`), and only a
//! context with `traced` set builds spans — the entry point turns the flag
//! into a statically dispatched hook once per call, so the untraced hot
//! loops compile as if tracing did not exist.  A sink whose
//! [`TraceSink::is_enabled`] returns `false` — the [`NoopSink`] —
//! short-circuits `Prepared::execute_with_sink` straight back onto the
//! untraced path, so attaching it costs one virtual call per execution.
//!
//! Spans are plain owned data (no thread-locals, no global registry): the
//! producer builds the tree bottom-up and hands the root to a sink.  This
//! keeps the engine's `&self` execution model intact — a span tree is just
//! another return value.

use std::fmt;
use std::io::Write;
use std::sync::Mutex;

/// One timed, named region of work with counter-valued fields and child
/// spans — the node type of a trace tree.
///
/// Fields are `(key, u64)` pairs in insertion order; keys within one span are
/// expected to be unique.  `wall_micros` is *inclusive* of children (the
/// usual `explain analyze` convention); counter fields are whatever the
/// producer says they are — the engine records *exclusive* (own-work) counts
/// so that [`Span::subtree_total`] reproduces whole-execution totals.
///
/// ```
/// use itq_trace::Span;
///
/// let mut probe = Span::new("algebra/scan PAR");
/// probe.push_field("rows_out", 4);
/// let mut join = Span::new("algebra/hash-join");
/// join.push_field("rows_out", 2);
/// join.push_field("join_probes", 4);
/// join.push_child(probe);
///
/// assert_eq!(join.field("join_probes"), Some(4));
/// assert_eq!(join.subtree_total("rows_out"), 6);
/// assert!(join.to_json().starts_with("{\"name\":\"algebra/hash-join\""));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Span {
    /// The span's name, conventionally `layer/operation`.
    pub name: String,
    /// Counter payloads in insertion order.
    pub fields: Vec<(String, u64)>,
    /// Wall-clock time spent in this span, children included.
    pub wall_micros: u64,
    /// Child spans in execution order.
    pub children: Vec<Span>,
}

impl Span {
    /// A fresh span named `name` with no fields, no children, zero time.
    pub fn new(name: impl Into<String>) -> Span {
        Span {
            name: name.into(),
            ..Span::default()
        }
    }

    /// Append a counter field.
    pub fn push_field(&mut self, key: impl Into<String>, value: u64) {
        self.fields.push((key.into(), value));
    }

    /// Append a child span.
    pub fn push_child(&mut self, child: Span) {
        self.children.push(child);
    }

    /// The value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<u64> {
        self.fields.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// The sum of field `key` over this span and all descendants — with
    /// exclusive per-span counters this is the whole-subtree total.
    pub fn subtree_total(&self, key: &str) -> u64 {
        self.field(key).unwrap_or(0)
            + self
                .children
                .iter()
                .map(|c| c.subtree_total(key))
                .sum::<u64>()
    }

    /// The number of spans in the tree rooted here (self included).
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(Span::len).sum::<usize>()
    }

    /// Whether the tree is a single childless span.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// The span serialized as one JSON object:
    /// `{"name":…,"wall_micros":…,<fields…>,"children":[…]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":\"");
        out.push_str(&json_escape(&self.name));
        out.push_str("\",\"wall_micros\":");
        out.push_str(&self.wall_micros.to_string());
        for (key, value) in &self.fields {
            out.push_str(",\"");
            out.push_str(&json_escape(key));
            out.push_str("\":");
            out.push_str(&value.to_string());
        }
        out.push_str(",\"children\":[");
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            child.write_json(out);
        }
        out.push_str("]}");
    }
}

/// Escape a string for inclusion in a JSON string literal.  Span names and
/// field keys are engine-generated (operator labels, type renderings), so
/// only the structural characters and control bytes need care.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Where finished span trees go.
///
/// Sinks use interior mutability (`&self` receivers) so one sink can be
/// shared by concurrent executions — the same reason `Prepared::execute`
/// takes `&self`.
pub trait TraceSink: Send + Sync {
    /// Whether producers should build spans at all.  Traced entry points
    /// check this once up front and fall back to the untraced path when it
    /// is `false`, which is what makes tracing zero-cost when off.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Deliver one finished root span.
    fn record(&self, span: Span);
}

/// Shared sinks delegate: an `Arc<CollectingSink>` can be installed in a
/// session while the caller keeps a handle to drain it.
impl<T: TraceSink + ?Sized> TraceSink for std::sync::Arc<T> {
    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }

    fn record(&self, span: Span) {
        (**self).record(span)
    }
}

/// The disabled sink: reports `is_enabled() == false` and drops anything
/// recorded anyway.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn is_enabled(&self) -> bool {
        false
    }

    fn record(&self, _span: Span) {}
}

/// A sink that buffers every recorded span tree in memory — the test and
/// `explain analyze` workhorse.
///
/// ```
/// use itq_trace::{CollectingSink, Span, TraceSink};
///
/// let sink = CollectingSink::new();
/// assert!(sink.is_enabled());
/// sink.record(Span::new("execute"));
/// let spans = sink.take();
/// assert_eq!(spans.len(), 1);
/// assert_eq!(spans[0].name, "execute");
/// assert!(sink.take().is_empty());
/// ```
#[derive(Debug, Default)]
pub struct CollectingSink {
    spans: Mutex<Vec<Span>>,
}

impl CollectingSink {
    /// An empty collecting sink.
    pub fn new() -> CollectingSink {
        CollectingSink::default()
    }

    /// Drain and return every span recorded so far, oldest first.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.lock().expect("collecting sink poisoned"))
    }
}

impl TraceSink for CollectingSink {
    fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("collecting sink poisoned")
            .push(span);
    }
}

/// A sink that writes each recorded span tree as one line of JSON — the
/// format behind `itq --trace FILE` and `report --trace-json`.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wrap a writer; each [`TraceSink::record`] appends `span.to_json()`
    /// plus a newline.  Write errors are deliberately swallowed — tracing
    /// must never fail an execution.
    pub fn new(out: W) -> JsonLinesSink<W> {
        JsonLinesSink {
            out: Mutex::new(out),
        }
    }

    /// Unwrap the inner writer.
    pub fn into_inner(self) -> W {
        self.out.into_inner().expect("json-lines sink poisoned")
    }
}

impl<W: Write + Send> TraceSink for JsonLinesSink<W> {
    fn record(&self, span: Span) {
        let mut out = self.out.lock().expect("json-lines sink poisoned");
        let _ = writeln!(out, "{}", span.to_json());
    }
}

impl fmt::Display for Span {
    /// Render the tree with the same box-drawing layout as the planner's
    /// `render_lines`, fields appended in parentheses.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(span: &Span, own: &str, rest: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{own}{}", span.name)?;
            if !span.fields.is_empty() || span.wall_micros > 0 {
                let mut parts: Vec<String> = span
                    .fields
                    .iter()
                    .map(|(k, v)| format!("{k} {v}"))
                    .collect();
                parts.push(format!("{} µs", span.wall_micros));
                write!(f, "  ({})", parts.join(", "))?;
            }
            writeln!(f)?;
            let last = span.children.len().saturating_sub(1);
            for (i, child) in span.children.iter().enumerate() {
                let (own_next, rest_next) = if i == last {
                    (format!("{rest}└─ "), format!("{rest}   "))
                } else {
                    (format!("{rest}├─ "), format!("{rest}│  "))
                };
                go(child, &own_next, &rest_next, f)?;
            }
            Ok(())
        }
        go(self, "", "", f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Span {
        let mut leaf_a = Span::new("scan PAR");
        leaf_a.push_field("rows_out", 3);
        leaf_a.wall_micros = 5;
        let mut leaf_b = Span::new("scan PAR");
        leaf_b.push_field("rows_out", 3);
        let mut root = Span::new("hash-join");
        root.push_field("rows_out", 1);
        root.push_field("join_probes", 3);
        root.wall_micros = 20;
        root.push_child(leaf_a);
        root.push_child(leaf_b);
        root
    }

    #[test]
    fn fields_and_subtree_totals() {
        let root = tree();
        assert_eq!(root.field("join_probes"), Some(3));
        assert_eq!(root.field("missing"), None);
        assert_eq!(root.subtree_total("rows_out"), 7);
        assert_eq!(root.len(), 3);
        assert!(!root.is_empty());
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let root = tree();
        let json = root.to_json();
        assert!(json.contains("\"join_probes\":3"));
        assert!(json.contains("\"children\":[{\"name\":\"scan PAR\""));
        let mut tricky = Span::new("label \"quoted\"\\slash");
        tricky.push_field("k", 1);
        let json = tricky.to_json();
        assert!(json.contains("label \\\"quoted\\\"\\\\slash"));
    }

    #[test]
    fn display_renders_a_plan_shaped_tree() {
        let rendered = tree().to_string();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("hash-join  (rows_out 1, join_probes 3, 20 µs)"));
        assert!(lines[1].starts_with("├─ scan PAR"));
        assert!(lines[2].starts_with("└─ scan PAR"));
    }

    #[test]
    fn sinks_behave() {
        let noop = NoopSink;
        assert!(!noop.is_enabled());
        noop.record(Span::new("dropped"));

        let collecting = CollectingSink::new();
        collecting.record(tree());
        collecting.record(Span::new("second"));
        let spans = collecting.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "second");

        let json_lines = JsonLinesSink::new(Vec::new());
        json_lines.record(tree());
        json_lines.record(Span::new("second"));
        let written = String::from_utf8(json_lines.into_inner()).unwrap();
        assert_eq!(written.lines().count(), 2);
        assert!(written
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
