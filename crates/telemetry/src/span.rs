//! Per-query span and event recorder.
//!
//! A [`Trace`] is built single-threaded while one query runs: `enter`
//! opens a span (monotonic start offset, parent = innermost open span),
//! `exit` closes it, `event` records a zero-duration marker, and `field`
//! attaches key=value pairs. When the query finishes the trace is frozen
//! and can be serialised as one JSON line (see
//! [`Telemetry::traces_jsonl`](crate::Telemetry::traces_jsonl)).
//!
//! Wall-clock quantities are confined to the `start_ns` / `dur_ns` keys so
//! downstream consumers (and the determinism test) can strip exactly those
//! fields and compare the remaining structure across runs.

use std::time::Instant;

/// A span or event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (non-finite values serialise as `null`).
    F64(f64),
    /// Owned string (JSON-escaped on output).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One recorded span (or zero-duration event).
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Static span name (`"retrieve"`, `"read"`, `"degrade"`, ...).
    pub name: &'static str,
    /// Index of the enclosing span within the trace, if any.
    pub parent: Option<usize>,
    /// Monotonic offset from the trace start, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for events and still-open spans).
    pub dur_ns: u64,
    /// Attached key=value fields, in insertion order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// A single query's span tree, recorded against one monotonic clock.
pub struct Trace {
    label: String,
    t0: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Trace {
    /// Start a trace; `label` identifies the query in the JSONL output.
    pub fn start(label: impl Into<String>) -> Self {
        Self { label: label.into(), t0: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// The trace label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Nanoseconds elapsed since the trace started.
    pub fn elapsed_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span named `name`; returns its id for [`Trace::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name,
            parent: self.stack.last().copied(),
            start_ns: self.elapsed_ns(),
            dur_ns: 0,
            fields: Vec::new(),
        });
        self.stack.push(id);
        id
    }

    /// Close span `id`, fixing its duration. Also closes any spans opened
    /// inside it that were left open (crash-safe unwinding).
    pub fn exit(&mut self, id: usize) {
        let now = self.elapsed_ns();
        while let Some(top) = self.stack.pop() {
            let span = &mut self.spans[top];
            span.dur_ns = now.saturating_sub(span.start_ns);
            if top == id {
                break;
            }
        }
    }

    /// Attach a key=value field to span `id`.
    pub fn field(&mut self, id: usize, key: &'static str, value: impl Into<FieldValue>) {
        self.spans[id].fields.push((key, value.into()));
    }

    /// Record a zero-duration event under the innermost open span.
    pub fn event(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name,
            parent: self.stack.last().copied(),
            start_ns: self.elapsed_ns(),
            dur_ns: 0,
            fields: Vec::new(),
        });
        id
    }

    /// All recorded spans, in creation order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// First span with the given name, if any.
    pub fn find(&self, name: &str) -> Option<&SpanRec> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Serialise as a single JSON object (no trailing newline).
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"trace\":");
        write_json_str(&self.label, out);
        out.push_str(",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_json_str(s.name, out);
            match s.parent {
                Some(p) => {
                    out.push_str(",\"parent\":");
                    out.push_str(&p.to_string());
                }
                None => out.push_str(",\"parent\":null"),
            }
            out.push_str(",\"start_ns\":");
            out.push_str(&s.start_ns.to_string());
            out.push_str(",\"dur_ns\":");
            out.push_str(&s.dur_ns.to_string());
            if !s.fields.is_empty() {
                out.push_str(",\"fields\":{");
                for (j, (k, v)) in s.fields.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    write_json_str(k, out);
                    out.push(':');
                    write_field(v, out);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
    }
}

fn write_field(v: &FieldValue, out: &mut String) {
    match v {
        FieldValue::U64(n) => out.push_str(&n.to_string()),
        FieldValue::I64(n) => out.push_str(&n.to_string()),
        FieldValue::F64(x) if x.is_finite() => out.push_str(&format!("{x}")),
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Str(s) => write_json_str(s, out),
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
pub fn write_json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let mut t = Trace::start("q1");
        let outer = t.enter("retrieve");
        let inner = t.enter("embed");
        t.exit(inner);
        t.exit(outer);
        let read = t.enter("read");
        t.field(read, "tokens", 42u64);
        t.exit(read);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, None);
        assert_eq!(t.find("read").unwrap().fields[0].0, "tokens");
    }

    #[test]
    fn exit_unwinds_forgotten_children() {
        let mut t = Trace::start("q");
        let outer = t.enter("outer");
        let _leaked = t.enter("leaked");
        t.exit(outer);
        // Both closed; stack empty, so a new span is a root.
        let root = t.enter("next");
        assert_eq!(t.spans()[root].parent, None);
    }

    #[test]
    fn json_escapes_and_renders_fields() {
        let mut t = Trace::start("say \"hi\"\n");
        let s = t.enter("read");
        t.field(s, "text", "a\\b");
        t.field(s, "score", 0.5f64);
        t.field(s, "bad", f64::NAN);
        t.exit(s);
        let mut out = String::new();
        t.write_json(&mut out);
        assert!(out.contains("say \\\"hi\\\"\\n"), "{out}");
        assert!(out.contains("\"text\":\"a\\\\b\""), "{out}");
        assert!(out.contains("\"score\":0.5"), "{out}");
        assert!(out.contains("\"bad\":null"), "{out}");
        assert!(out.contains("\"parent\":null"), "{out}");
    }

    #[test]
    fn events_attach_to_open_span() {
        let mut t = Trace::start("q");
        let outer = t.enter("query");
        let e = t.event("degrade");
        t.field(e, "component", "reader");
        t.exit(outer);
        assert_eq!(t.spans()[e].parent, Some(outer));
        assert_eq!(t.spans()[e].dur_ns, 0);
    }
}
