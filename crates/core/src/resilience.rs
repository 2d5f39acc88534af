//! Serving-path resilience: fallback tiers and per-query guard plumbing
//! for [`crate::pipeline::RagSystem`].
//!
//! The degradation chain (DESIGN.md "Failure model & degradation chain"):
//!
//! | failing boundary | fallback |
//! |---|---|
//! | query embedding / flat search | BM25 sparse retrieval over the same chunks |
//! | reranker | first-stage retrieval order |
//! | reader (primary context) | second-best chunk set, then "unanswerable" |
//!
//! Scoping rule: circuit breakers and the virtual clock are **per query**
//! ([`QueryGuards`]), not shared across a batch. A shared breaker would
//! make one question's trace depend on which other questions ran first on
//! the same worker pool — per-query scoping keeps every `QueryResult` a
//! pure function of `(system, fault plan, question)`, which is what the
//! determinism property test demands. The fault plan, the BM25 fallback
//! postings and the degraded-mode counters the CLI reports live in the
//! system-wide [`ResilienceState`].

use sage_resilience::{
    BreakerConfig, CircuitBreaker, Component, FallbackCounters, FaultPlan, Guard, RetryPolicy,
    VirtualClock,
};
use sage_retrieval::{Bm25Retriever, Retriever};

/// System-wide resilience state: the fault plan, the BM25 fallback tier
/// (shared, read-only at query time) and the degraded-mode counters.
pub(crate) struct ResilienceState {
    /// The injected faults ([`FaultPlan::none`]: machinery on, no faults).
    pub(crate) plan: FaultPlan,
    /// Sparse fallback over the same chunk store as the primary retriever.
    pub(crate) bm25: Bm25Retriever,
    /// Fired-fallback totals across all queries since enablement.
    pub(crate) counters: FallbackCounters,
}

impl ResilienceState {
    /// Build the fallback tier for `chunks`.
    pub(crate) fn build(plan: FaultPlan, chunks: &[String]) -> Self {
        let mut bm25 = Bm25Retriever::new();
        bm25.index(chunks);
        Self { plan, bm25, counters: FallbackCounters::new() }
    }

    /// Rebuild the fallback tier after the chunk store changed
    /// (`add_documents`). Counters carry over.
    pub(crate) fn reindex(&mut self, chunks: &[String]) {
        self.bm25.index(chunks);
    }
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
            plan: &self.state.plan,
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
        let state = ResilienceState::build(FaultPlan::none(), &chunks);
        assert_eq!(state.bm25.len(), 2);
        let hits = state.bm25.retrieve("cat mat", 1);
        assert_eq!(hits[0].index, 0);
    }

    #[test]
    fn an_empty_plan_injects_no_faults() {
        let state = ResilienceState::build(FaultPlan::none(), &[]);
        assert!(!state.plan.is_active());
        assert_eq!(state.counters.total(), 0);
    }

    #[test]
    fn guards_are_independent_per_query() {
        let state = ResilienceState::build(FaultPlan::none(), &[]);
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
