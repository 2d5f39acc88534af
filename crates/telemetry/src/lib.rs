//! Observability for the SAGE serving path.
//!
//! The paper's evaluation is built on per-stage latency (Fig. 7, Tables
//! VIII–IX) and per-call token cost (Table XI); this crate makes those
//! quantities first-class and exportable without pulling in any external
//! dependency:
//!
//! - [`Trace`] — a per-query span/event recorder with monotonic timing,
//!   parent links, and key=value fields, serialisable as one JSON line.
//! - [`Histogram`] — log-bucketed latency histogram with mergeable
//!   snapshots and p50/p90/p99 readouts.
//! - [`metrics`] — process-global monotonic counters for the substrate
//!   crates (vector index probe counts, postings scanned, pairs scored,
//!   LLM calls and tokens), guarded by a single atomic flag.
//! - [`CostLedger`] — input/output tokens and call counts attributed to
//!   pipeline [`Stage`]s, convertible to simulated dollars.
//! - [`export`] — JSONL traces, Prometheus text exposition, and a
//!   human-readable summary table.
//! - [`obs`], [`bundle`] — the per-query [`QueryObs`] a soak records for
//!   every arrival (`SoakReport::obs`) and the `sage report` bundle that
//!   writes them all, so a replay renders the same bytes.
//!
//! # Zero cost when off
//!
//! All hot-path hooks are gated: the substrate counters check one relaxed
//! [`AtomicBool`] load and the per-query span recorder only exists when a
//! [`Telemetry`] hub is attached to the pipeline. With telemetry disabled
//! no allocation, formatting, or locking happens anywhere on the serving
//! path. Only [`span`] reads the wall clock.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types, reason = "tests may time and hash freely"))]

pub mod bundle;
pub mod export;
pub mod hist;
pub mod ledger;
pub mod metrics;
pub mod obs;
pub mod span;

pub use bundle::{Bundle, Reconciliation};
pub use hist::{Histogram, HistogramSnapshot};
pub use ledger::{CostLedger, StageCost};
pub use metrics::Counter;
pub use obs::{Outcome, QueryObs};
pub use span::{FieldValue, SpanRec, Trace};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Pipeline stages that time and cost are attributed to.
///
/// `Segment` and `Index` are build-phase stages; the rest are query-phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Corpus segmentation (build phase).
    Segment,
    /// Query embedding.
    Embed,
    /// Vector/lexical index construction (build phase).
    Index,
    /// First-stage candidate retrieval.
    Retrieve,
    /// Cross-scorer reranking.
    Rerank,
    /// Answer generation (the paper's "reader").
    Read,
    /// Self-feedback rounds.
    Feedback,
}

impl Stage {
    /// Number of stages (array sizing).
    pub const COUNT: usize = 7;

    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Segment,
        Stage::Embed,
        Stage::Index,
        Stage::Retrieve,
        Stage::Rerank,
        Stage::Read,
        Stage::Feedback,
    ];

    /// Stable dense index for per-stage arrays: the position in [`Stage::ALL`].
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Lower-case label used in exporters and metric labels.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Segment => "segment",
            Stage::Embed => "embed",
            Stage::Index => "index",
            Stage::Retrieve => "retrieve",
            Stage::Rerank => "rerank",
            Stage::Read => "read",
            Stage::Feedback => "feedback",
        }
    }
}

/// Process-global switch for the substrate counters in [`metrics`].
///
/// The per-query recorder does not consult this flag — it is controlled by
/// attaching/detaching a [`Telemetry`] hub — but the static counters in
/// leaf crates (vecdb, retrieval, rerank, llm) have no hub reference, so
/// they gate on this single relaxed load instead.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is global metrics collection on?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn global metrics collection on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Serialises the unit tests that flip the process-wide flag: run in
/// parallel, one test's `set_enabled(false)` lands between another's
/// `set_enabled(true)` and the counts it then checks.
#[cfg(test)]
pub(crate) fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One corpus build observed by the hub.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BuildRecord {
    /// Chunks produced by segmentation.
    pub chunk_count: u64,
    /// Whitespace tokens in the source corpus.
    pub corpus_tokens: u64,
    /// Bytes held by the retriever index.
    pub memory_bytes: u64,
    /// Wall-clock spent segmenting.
    pub segmentation_ns: u64,
    /// Wall-clock spent embedding + indexing.
    pub index_ns: u64,
}

/// Finished traces the hub holds at once (see [`Telemetry::push_trace`]).
const TRACE_CAP: usize = 4096;

/// Aggregation hub attached to a `RagSystem`.
///
/// Collects per-stage latency histograms, an end-to-end query histogram,
/// the token-cost ledger, the most recent finished query traces, and
/// build records. All methods take `&self`; histogram/ledger updates are
/// lock-free and the trace ring takes a short mutex only when a query
/// finishes.
pub struct Telemetry {
    stage_ns: [Histogram; Stage::COUNT],
    query_ns: Histogram,
    ledger: CostLedger,
    degrade_events: AtomicU64,
    traces: Mutex<VecDeque<Trace>>,
    traces_dropped: AtomicU64,
    builds: Mutex<Vec<BuildRecord>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Fresh hub with empty histograms and ledger.
    pub fn new() -> Self {
        Self {
            stage_ns: std::array::from_fn(|_| Histogram::new()),
            query_ns: Histogram::new(),
            ledger: CostLedger::new(),
            degrade_events: AtomicU64::new(0),
            traces: Mutex::new(VecDeque::new()),
            traces_dropped: AtomicU64::new(0),
            builds: Mutex::new(Vec::new()),
        }
    }

    /// Record one observation of `d` wall-clock in `stage`.
    pub fn record_stage(&self, stage: Stage, d: Duration) {
        self.stage_ns[stage.idx()].record(d.as_nanos() as u64);
    }

    /// Record one end-to-end query latency.
    pub fn record_query(&self, d: Duration) {
        self.query_ns.record(d.as_nanos() as u64);
    }

    /// Attribute one call's token cost to `stage`.
    pub fn record_cost(&self, stage: Stage, input_tokens: u64, output_tokens: u64) {
        self.ledger.record(stage, input_tokens, output_tokens);
    }

    /// Count degradation events folded into traces.
    pub fn record_degrades(&self, n: u64) {
        if n > 0 {
            self.degrade_events.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Remember a finished corpus build.
    pub fn record_build(&self, rec: BuildRecord) {
        self.builds.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(rec);
    }

    /// Store a finished query trace. The ring keeps the most recent
    /// [`TRACE_CAP`] traces: past that, each push drops (and counts) the
    /// oldest, so a long-lived process holds a bounded number of span
    /// trees.
    pub fn push_trace(&self, t: Trace) {
        let mut traces = self.traces.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if traces.len() == TRACE_CAP {
            traces.pop_front();
            self.traces_dropped.fetch_add(1, Ordering::Relaxed);
        }
        traces.push_back(t);
    }

    /// Snapshot of one stage's latency histogram (nanoseconds).
    pub fn stage_snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.stage_ns[stage.idx()].snapshot()
    }

    /// Snapshot of the end-to-end query latency histogram (nanoseconds).
    pub fn query_snapshot(&self) -> HistogramSnapshot {
        self.query_ns.snapshot()
    }

    /// The token-cost ledger.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Queries finished so far: the query histogram's observation count.
    pub fn query_count(&self) -> u64 {
        self.query_snapshot().count()
    }

    /// Degradation events observed so far.
    pub fn degrade_count(&self) -> u64 {
        self.degrade_events.load(Ordering::Relaxed)
    }

    /// Copy of the recorded build records.
    pub fn builds(&self) -> Vec<BuildRecord> {
        self.builds.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// The held traces serialised as JSON lines (one trace per line).
    pub fn traces_jsonl(&self) -> String {
        let traces = self.traces.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = String::new();
        for t in traces.iter() {
            t.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Number of finished traces held.
    pub fn trace_count(&self) -> usize {
        self.traces.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// Traces dropped from the ring to stay within its capacity.
    pub fn traces_dropped(&self) -> u64 {
        self.traces_dropped.load(Ordering::Relaxed)
    }

    /// Run `f` over the held traces, oldest first.
    pub fn with_traces<R>(&self, f: impl FnOnce(&[Trace]) -> R) -> R {
        f(self.traces.lock().unwrap_or_else(std::sync::PoisonError::into_inner).make_contiguous())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_are_dense_and_stable() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.idx(), i);
        }
        let labels: std::collections::HashSet<_> = Stage::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), Stage::COUNT);
    }

    #[test]
    fn hub_aggregates_stages_queries_and_costs() {
        let t = Telemetry::new();
        t.record_stage(Stage::Retrieve, Duration::from_micros(10));
        t.record_stage(Stage::Retrieve, Duration::from_micros(20));
        t.record_query(Duration::from_micros(50));
        t.record_cost(Stage::Read, 100, 20);
        t.record_cost(Stage::Feedback, 30, 5);
        assert_eq!(t.stage_snapshot(Stage::Retrieve).count(), 2);
        assert_eq!(t.query_snapshot().count(), 1);
        assert_eq!(t.query_count(), 1);
        let total = t.ledger().total();
        assert_eq!(total.input_tokens, 130);
        assert_eq!(total.output_tokens, 25);
        assert_eq!(total.calls, 2);
    }

    #[test]
    fn trace_ring_keeps_the_most_recent_and_counts_the_rest() {
        let t = Telemetry::new();
        for i in 0..TRACE_CAP + 3 {
            t.push_trace(Trace::start(format!("q{i}")));
        }
        assert_eq!(t.trace_count(), TRACE_CAP);
        assert_eq!(t.traces_dropped(), 3);
        let jsonl = t.traces_jsonl();
        assert_eq!(jsonl.lines().count(), TRACE_CAP);
        assert!(!jsonl.contains("\"q2\""), "the oldest traces are the ones dropped");
        assert!(jsonl.lines().next().is_some_and(|l| l.contains("\"q3\"")), "oldest held first");
        assert!(jsonl.contains(&format!("\"q{}\"", TRACE_CAP + 2)));
    }

    #[test]
    fn enabled_flag_round_trips() {
        let _flag = flag_lock();
        let before = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(before);
    }
}
