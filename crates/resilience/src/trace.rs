//! Degradation bookkeeping: per-query traces and system-wide counters.

// `Relaxed` is confined by `relaxed_ordering_is_confined` (tests/static_analysis.rs).
// Here: monotonic fallback counters in the telemetry style: single value per
// event, no other memory published under them, totals may be approximate
// under contention.

use crate::error::SageError;
use crate::fault::Component;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The documented fallbacks of the degradation chain, in chain order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fallback {
    /// Dense retrieval (embedder or index) failed → BM25 sparse retrieval.
    DenseToBm25,
    /// Reranker failed → keep the first-stage retrieval order.
    RerankToRetrievalOrder,
    /// Reader failed on the primary context → retried on the second-best
    /// chunk set.
    ReaderSecondBest,
    /// Reader failed on both chunk sets → degraded "unanswerable" answer.
    ReaderUnanswerable,
    /// A panic was isolated at the batch layer; the question yielded a
    /// structured error instead of aborting its batch.
    PanicIsolated,
    /// Budget brownout: self-feedback rounds were dropped (ladder step 1).
    BrownoutDropFeedback,
    /// Budget brownout: reranking was bypassed and gradient selection was
    /// replaced by a flat top-k prefix of the retrieval order (step 2, the
    /// ladder's floor).
    BrownoutFlatTopK,
}

impl Fallback {
    /// All fallback kinds, in chain order (stable counter layout).
    pub const ALL: [Fallback; 7] = [
        Fallback::DenseToBm25,
        Fallback::RerankToRetrievalOrder,
        Fallback::ReaderSecondBest,
        Fallback::ReaderUnanswerable,
        Fallback::PanicIsolated,
        Fallback::BrownoutDropFeedback,
        Fallback::BrownoutFlatTopK,
    ];

    fn idx(self) -> usize {
        self as usize
    }

    /// Display label ("dense->bm25", ...).
    pub fn label(self) -> &'static str {
        match self {
            Fallback::DenseToBm25 => "dense->bm25",
            Fallback::RerankToRetrievalOrder => "rerank->retrieval-order",
            Fallback::ReaderSecondBest => "reader->second-best",
            Fallback::ReaderUnanswerable => "reader->unanswerable",
            Fallback::PanicIsolated => "panic-isolated",
            Fallback::BrownoutDropFeedback => "brownout:drop-feedback",
            Fallback::BrownoutFlatTopK => "brownout:flat-topk",
        }
    }

    /// Position on the brownout ladder (`None` for the non-brownout
    /// fallbacks). Higher means more degraded.
    pub fn brownout_step(self) -> Option<u8> {
        match self {
            Fallback::BrownoutDropFeedback => Some(1),
            Fallback::BrownoutFlatTopK => Some(2),
            _ => None,
        }
    }
}

impl std::fmt::Display for Fallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One fired fallback: which component failed, how, and what replaced it.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradeEvent {
    /// The failing component.
    pub component: Component,
    /// The fallback that fired.
    pub fallback: Fallback,
    /// The structured error that triggered the fallback.
    pub error: SageError,
    /// Attempts spent on the primary before degrading.
    pub attempts: u32,
    /// Virtual time charged to retries/timeouts on this boundary.
    pub delay: Duration,
}

/// Per-query degradation record, carried in `QueryResult`. Empty means the
/// query ran entirely on the primary path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradeTrace {
    /// Fired fallbacks, in pipeline order.
    pub events: Vec<DegradeEvent>,
}

impl DegradeTrace {
    /// No degradation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the query ran fully on the primary path.
    pub fn is_clean(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether a particular fallback fired.
    pub fn fired(&self, fallback: Fallback) -> bool {
        self.events.iter().any(|e| e.fallback == fallback)
    }

    /// Total virtual retry/timeout delay across events.
    pub fn total_delay(&self) -> Duration {
        self.events.iter().map(|e| e.delay).sum()
    }
}

/// Thread-safe system-wide fallback counters (CLI "degraded mode" report).
#[derive(Debug, Default)]
pub struct FallbackCounters {
    counts: [AtomicU64; Fallback::ALL.len()],
}

impl FallbackCounters {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record every event of `trace`.
    pub fn absorb(&self, trace: &DegradeTrace) {
        for e in &trace.events {
            self.counts[e.fallback.idx()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a single fired fallback (for degradations that produce no
    /// `DegradeTrace`, e.g. a panic isolated at the batch layer).
    pub fn record(&self, fallback: Fallback) {
        self.counts[fallback.idx()].fetch_add(1, Ordering::Relaxed);
    }

    /// Count for one fallback kind.
    pub fn get(&self, fallback: Fallback) -> u64 {
        self.counts[fallback.idx()].load(Ordering::Relaxed)
    }

    /// Snapshot as `(label, count)` pairs, nonzero entries only.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        Fallback::ALL
            .iter()
            .map(|f| (f.label(), self.get(*f)))
            .filter(|(_, n)| *n > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Component;

    fn event(fallback: Fallback) -> DegradeEvent {
        DegradeEvent {
            component: Component::Reader,
            fallback,
            error: SageError::ComponentFailed { component: Component::Reader, attempts: 3 },
            attempts: 3,
            delay: Duration::from_millis(150),
        }
    }

    #[test]
    fn trace_queries() {
        let mut t = DegradeTrace::new();
        assert!(t.is_clean());
        t.events.push(event(Fallback::ReaderSecondBest));
        t.events.push(event(Fallback::RerankToRetrievalOrder));
        assert!(!t.is_clean());
        assert!(t.fired(Fallback::ReaderSecondBest));
        assert!(!t.fired(Fallback::DenseToBm25));
        assert_eq!(t.total_delay(), Duration::from_millis(300));
    }

    #[test]
    fn counters_absorb_and_snapshot() {
        let c = FallbackCounters::new();
        let mut t = DegradeTrace::new();
        t.events.push(event(Fallback::DenseToBm25));
        t.events.push(event(Fallback::DenseToBm25));
        t.events.push(event(Fallback::RerankToRetrievalOrder));
        c.absorb(&t);
        assert_eq!(c.get(Fallback::DenseToBm25), 2);
        assert_eq!(c.get(Fallback::RerankToRetrievalOrder), 1);
        let snap = c.snapshot();
        assert_eq!(snap, vec![("dense->bm25", 2), ("rerank->retrieval-order", 1)]);
    }
}
