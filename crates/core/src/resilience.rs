//! Serving-path resilience: configuration, fallback tiers, and per-query
//! guard plumbing for [`crate::pipeline::RagSystem`].
//!
//! The degradation chain (DESIGN.md "Failure model & degradation chain"):
//!
//! | failing boundary | fallback |
//! |---|---|
//! | HNSW ANN search (opt-in tier) | exact flat-index scan |
//! | query embedding / flat search | BM25 sparse retrieval over the same chunks |
//! | reranker | first-stage retrieval order |
//! | reader (primary context) | second-best chunk set, then "unanswerable" |
//!
//! Scoping rule: circuit breakers and the virtual clock are **per query**
//! ([`QueryGuards`]), not shared across a batch. A shared breaker would
//! make one question's trace depend on which other questions ran first on
//! the same worker pool — per-query scoping keeps every `QueryResult` a
//! pure function of `(system, fault plan, question)`, which is what the
//! determinism property test demands. BM25 fallback postings and the
//! optional HNSW tier live in the system-wide [`ResilienceState`], as do
//! the degraded-mode counters the CLI reports.

use sage_resilience::{
    BreakerConfig, CircuitBreaker, Component, FallbackCounters, FaultPlan, Guard, RetryPolicy,
    VirtualClock,
};
use sage_retrieval::{Bm25Retriever, Retriever};
use sage_vecdb::{FlatIndex, HnswIndex, VectorIndex};

/// Resilience tuning for one [`crate::pipeline::RagSystem`].
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// The fault plan (default: [`FaultPlan::none`] — machinery on, no
    /// injected faults).
    pub plan: FaultPlan,
    /// Build an HNSW tier over the dense index and search it first,
    /// falling back to the exact flat scan on failure. Off by default:
    /// ANN results are approximate, so enabling it changes (slightly)
    /// which chunks are retrieved even with no faults.
    pub use_hnsw: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self { plan: FaultPlan::none(), use_hnsw: false }
    }
}

impl ResilienceConfig {
    /// Default policies under the given fault plan.
    pub fn with_plan(plan: FaultPlan) -> Self {
        Self { plan, ..Self::default() }
    }
}

/// System-wide resilience state: the fallback retrieval tiers (shared,
/// read-only at query time) and the degraded-mode counters.
pub(crate) struct ResilienceState {
    pub(crate) config: ResilienceConfig,
    /// Sparse fallback over the same chunk store as the primary retriever.
    pub(crate) bm25: Bm25Retriever,
    /// Opt-in ANN tier built from the dense index's vectors.
    pub(crate) hnsw: Option<HnswIndex>,
    /// Fired-fallback totals across all queries since enablement.
    pub(crate) counters: FallbackCounters,
}

impl ResilienceState {
    /// Build fallback tiers for `chunks` (+ the dense index when present).
    pub(crate) fn build(
        config: ResilienceConfig,
        chunks: &[String],
        dense: Option<&FlatIndex>,
    ) -> Self {
        let mut bm25 = Bm25Retriever::new();
        bm25.index(chunks);
        let hnsw = if config.use_hnsw { dense.map(hnsw_from_flat) } else { None };
        Self { config, bm25, hnsw, counters: FallbackCounters::new() }
    }

    /// Rebuild the fallback tiers after the chunk store changed
    /// (`add_documents`). Counters carry over.
    pub(crate) fn reindex(&mut self, chunks: &[String], dense: Option<&FlatIndex>) {
        self.bm25.index(chunks);
        if self.config.use_hnsw {
            if let Some(flat) = dense {
                self.hnsw = Some(hnsw_from_flat(flat));
            }
        }
    }
}

/// Copy every vector of a flat index, in id order, into a fresh ANN tier.
fn hnsw_from_flat(flat: &FlatIndex) -> HnswIndex {
    let mut h = HnswIndex::cosine();
    flat.for_each_row(|row| {
        h.add(row.to_vec());
    });
    h
}

/// Per-query guard context: one circuit breaker per component and a fresh
/// virtual clock, so a query's degradation trace cannot depend on thread
/// interleaving within a batch. Retry and breaker tuning are the
/// resilience crate's defaults.
pub(crate) struct QueryGuards<'a> {
    pub(crate) state: &'a ResilienceState,
    retry: RetryPolicy,
    clock: VirtualClock,
    breakers: [CircuitBreaker; 4],
}

impl<'a> QueryGuards<'a> {
    pub(crate) fn new(state: &'a ResilienceState) -> Self {
        Self {
            state,
            retry: RetryPolicy::default(),
            clock: VirtualClock::new(),
            breakers: std::array::from_fn(|_| CircuitBreaker::new(BreakerConfig::default())),
        }
    }

    /// The guard for one component boundary.
    pub(crate) fn guard(&self, component: Component) -> Guard<'_> {
        Guard {
            plan: &self.state.config.plan,
            policy: &self.retry,
            clock: &self.clock,
            breaker: &self.breakers[component.idx()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_builds_fallback_tiers() {
        let chunks =
            vec!["the cat sat on the mat".to_string(), "rockets reach the moon".to_string()];
        let mut flat = FlatIndex::cosine();
        flat.add(vec![1.0, 0.0]);
        flat.add(vec![0.0, 1.0]);
        let state = ResilienceState::build(
            ResilienceConfig { use_hnsw: true, ..ResilienceConfig::default() },
            &chunks,
            Some(&flat),
        );
        assert_eq!(state.bm25.len(), 2);
        assert_eq!(state.hnsw.as_ref().map(|h| h.len()), Some(2));
        let hits = state.bm25.retrieve("cat mat", 1);
        assert_eq!(hits[0].index, 0);
    }

    #[test]
    fn default_config_has_no_hnsw_and_no_faults() {
        let state = ResilienceState::build(ResilienceConfig::default(), &[], None);
        assert!(state.hnsw.is_none());
        assert!(!state.config.plan.is_active());
        assert_eq!(state.counters.total(), 0);
    }

    #[test]
    fn guards_are_independent_per_query() {
        let state = ResilienceState::build(ResilienceConfig::default(), &[], None);
        let a = QueryGuards::new(&state);
        let b = QueryGuards::new(&state);
        // Tripping one query's breaker leaves the other's closed.
        for _ in 0..BreakerConfig::default().failure_threshold {
            a.breakers[0].record_failure(a.clock.now());
        }
        assert!(a.breakers[0].is_open(&a.clock));
        assert!(!b.breakers[0].is_open(&b.clock));
    }
}
