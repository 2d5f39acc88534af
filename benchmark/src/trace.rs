//! The benchmark's own span recorder. Spans wrap the calls the harness
//! makes into the program (never code inside it), live in memory, and are
//! written out once when the run ends. With recording off the same calls
//! still time the operation — that is how the untraced run measures — but
//! nothing is stored.

use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Round number; with `op` it identifies one operation of the run.
    pub round: u32,
    /// Query or commit number within the round (`u32::MAX` for set-up).
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An entered, not yet exited span.
pub struct Open {
    start: Instant,
    id: Option<u32>,
}

pub struct Recorder {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    pub round: u32,
}

/// `op` of spans that belong to a round's set-up, not to one operation.
pub const NO_OP: u32 = u32::MAX;

impl Recorder {
    pub fn new(recording: bool) -> Self {
        Recorder { recording, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), round: 0 }
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    pub fn enter(&mut self, name: &'static str, op: u32) -> Open {
        if !self.recording {
            return Open { start: Instant::now(), id: None };
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start = Instant::now();
        let start_ns = (start - self.origin).as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, round: self.round, op });
        Open { start, id: Some(id) }
    }

    /// Close `open` and return how long it was open.
    pub fn exit(&mut self, open: Open) -> Duration {
        let elapsed = open.start.elapsed();
        if let Some(id) = open.id {
            let top = self.stack.pop();
            assert_eq!(top, Some(id), "spans must close innermost first");
            let span = &mut self.spans[id as usize];
            span.end_ns = span.start_ns + elapsed.as_nanos() as u64;
        }
        elapsed
    }

    /// Time `f` under a span.
    pub fn time<T>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.enter(name, op);
        let out = f();
        (out, self.exit(open))
    }

    /// Store one span that stands for many short calls: it starts at
    /// `start`, lasts their summed duration `busy`, and hangs under the
    /// span now open. For loops that interleave two layers per item, where
    /// a span per call would swamp the trace.
    pub fn record_sum(&mut self, name: &'static str, op: u32, start: Instant, busy: Duration) {
        if !self.recording {
            return;
        }
        let start_ns = (start - self.origin).as_nanos() as u64;
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + busy.as_nanos() as u64,
            parent,
            round: self.round,
            op,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op == NO_OP { "null".to_string() } else { s.op.to_string() };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{},\"op\":{op}}}",
                s.name, s.start_ns, s.end_ns, s.round
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children of one parent never overlap here (one thread),
/// so that part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

#[cfg_attr(test, test)]
pub fn self_time_subtracts_nested_children_once() {
    // query 0..100 { replay 10..90 { embed 10..30, search 30..80 { heap 40..50 } } }
    let span = |name, start_ns, end_ns, parent| Span { name, start_ns, end_ns, parent, round: 0, op: 0 };
    let spans = vec![
        span("query", 0, 100, None),
        span("replay", 10, 90, Some(0)),
        span("embed", 10, 30, Some(1)),
        span("search", 30, 80, Some(1)),
        span("heap", 40, 50, Some(3)),
    ];
    let own = self_times_ns(&spans);
    assert_eq!(own, vec![20, 10, 20, 40, 10]);
    assert_eq!(own.iter().sum::<u64>(), 100, "self times partition the root span");
}

#[cfg_attr(test, test)]
pub fn recorder_links_parents_and_is_silent_when_off() {
    let mut rec = Recorder::new(true);
    let outer = rec.enter("outer", 3);
    let (_, inner) = rec.time("inner", 3, || std::hint::black_box(1 + 1));
    let outer = rec.exit(outer);
    assert!(outer >= inner);
    assert_eq!(rec.spans().len(), 2);
    assert_eq!(rec.spans()[1].parent, Some(0));
    assert_eq!(rec.spans()[0].parent, None);
    assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);

    let outer = rec.enter("loop", 4);
    rec.record_sum("summed", 4, Instant::now(), Duration::from_nanos(5));
    rec.exit(outer);
    assert_eq!(rec.spans()[3].parent, Some(2));
    assert_eq!(rec.spans()[3].dur_ns(), 5);

    let mut off = Recorder::new(false);
    let (v, _) = off.time("x", NO_OP, || 7);
    assert_eq!(v, 7);
    assert!(off.spans().is_empty());
}
