//! Process-global monotonic counters for the substrate crates.
//!
//! Leaf crates (vecdb, retrieval, rerank, llm) have no reference to a
//! per-system [`Telemetry`](crate::Telemetry) hub, so their probe counts
//! go to these statics instead. Every counter gates on the single
//! [`enabled`](crate::enabled) flag: when telemetry is off, `add` is one
//! relaxed atomic load and a branch — no store, no allocation.
//!
//! Counters are process-wide and monotonic by design (Prometheus
//! `counter` semantics); tests must not assert exact values because
//! parallel test threads share them.

use std::sync::atomic::{AtomicU64, Ordering};

/// A named monotonic counter with Prometheus-style metadata.
pub struct Counter {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Define a counter (used for the statics below).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self { name, help, value: AtomicU64::new(0) }
    }

    /// Add `n`, if telemetry is globally enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment by one, if telemetry is globally enabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Metric name (Prometheus conventions: `sage_*_total`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line help string.
    pub fn help(&self) -> &'static str {
        self.help
    }
}

/// Full-scan similarity evaluations in the flat index.
pub static VECDB_FLAT_DISTANCE_EVALS: Counter = Counter::new(
    "sage_vecdb_flat_distance_evals_total",
    "Similarity evaluations performed by flat (exhaustive) index searches",
);
/// Flat index searches served.
pub static VECDB_FLAT_SEARCHES: Counter =
    Counter::new("sage_vecdb_flat_searches_total", "Searches served by the flat index");
/// BM25 retrievals served.
pub static BM25_SEARCHES: Counter =
    Counter::new("sage_bm25_searches_total", "Queries served by the BM25 retriever");
/// Posting-list entries scanned by BM25 retrievals.
pub static BM25_POSTINGS_SCANNED: Counter = Counter::new(
    "sage_bm25_postings_scanned_total",
    "Posting-list entries scanned by BM25 retrievals",
);
/// Query embeddings computed by dense retrievers.
pub static DENSE_QUERY_EMBEDS: Counter = Counter::new(
    "sage_dense_query_embeds_total",
    "Query embeddings computed by dense retrievers",
);
/// Cross-scorer rerank invocations.
pub static RERANK_CALLS: Counter =
    Counter::new("sage_rerank_calls_total", "Cross-scorer rerank invocations");
/// Question/chunk pairs scored by the cross-scorer.
pub static RERANK_PAIRS_SCORED: Counter = Counter::new(
    "sage_rerank_pairs_scored_total",
    "Question/chunk pairs scored by the cross-scorer",
);
/// Reader (answer-generation) LLM calls.
pub static LLM_READER_CALLS: Counter =
    Counter::new("sage_llm_reader_calls_total", "Reader (answer generation) LLM calls");
/// Self-feedback LLM calls.
pub static LLM_FEEDBACK_CALLS: Counter =
    Counter::new("sage_llm_feedback_calls_total", "Self-feedback assessment LLM calls");
/// Input (prompt) tokens consumed by all LLM calls.
pub static LLM_INPUT_TOKENS: Counter =
    Counter::new("sage_llm_input_tokens_total", "Prompt tokens consumed by LLM calls");
/// Output (completion) tokens produced by all LLM calls.
pub static LLM_OUTPUT_TOKENS: Counter =
    Counter::new("sage_llm_output_tokens_total", "Completion tokens produced by LLM calls");
/// A monotonic counter family with one fixed label dimension, for metrics
/// that split by a small closed set of values (brownout ladder steps,
/// admission priority classes). Kept out of [`all`] — the exporters emit
/// one `# TYPE` line per family and one labelled sample per entry.
pub struct LabeledCounter {
    name: &'static str,
    help: &'static str,
    key: &'static str,
    labels: &'static [&'static str],
    values: &'static [AtomicU64],
}

impl LabeledCounter {
    /// Add `n` to the entry at `idx`, if telemetry is globally enabled.
    /// Out-of-range indexes are ignored (counters must never panic).
    #[inline]
    pub fn add(&self, idx: usize, n: u64) {
        if crate::enabled() {
            if let Some(v) = self.values.get(idx) {
                v.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Increment the entry at `idx` by one, if telemetry is enabled.
    #[inline]
    pub fn inc(&self, idx: usize) {
        self.add(idx, 1);
    }

    /// Current value of the entry at `idx` (0 when out of range).
    pub fn get(&self, idx: usize) -> u64 {
        self.values.get(idx).map_or(0, |v| v.load(Ordering::Relaxed))
    }

    /// Sum over all entries.
    pub fn total(&self) -> u64 {
        self.values.iter().map(|v| v.load(Ordering::Relaxed)).sum()
    }

    /// Metric family name (Prometheus conventions: `sage_*_total`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line help string.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// The label key (`stage`, `class`, ...).
    pub fn key(&self) -> &'static str {
        self.key
    }

    /// `(label value, count)` pairs in declaration order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.labels.iter().zip(self.values).map(|(l, v)| (*l, v.load(Ordering::Relaxed)))
    }
}

static BROWNOUT_VALUES: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];
/// Brownout-ladder steps applied by budgeted queries, by ladder stage.
/// Indexed by `BrownoutLevel::idx() - 1` (the `None` level never fires).
pub static BROWNOUT_TOTAL: LabeledCounter = LabeledCounter {
    name: "sage_brownout_total",
    help: "Brownout ladder steps applied to budgeted queries",
    key: "stage",
    labels: &["drop-feedback", "flat-topk"],
    values: &BROWNOUT_VALUES,
};

static SHED_VALUES: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
/// Queries refused by admission control, by priority class. Indexed by
/// `Priority::idx()`.
pub static SHED_TOTAL: LabeledCounter = LabeledCounter {
    name: "sage_shed_total",
    help: "Queries refused by admission control, by priority class",
    key: "class",
    labels: &["interactive", "batch", "background"],
    values: &SHED_VALUES,
};

/// Every registered labelled counter family, for the exporters.
pub fn labeled() -> [&'static LabeledCounter; 2] {
    [&BROWNOUT_TOTAL, &SHED_TOTAL]
}

/// Every registered counter, for the exporters.
pub fn all() -> [&'static Counter; 11] {
    [
        &VECDB_FLAT_DISTANCE_EVALS,
        &VECDB_FLAT_SEARCHES,
        &BM25_SEARCHES,
        &BM25_POSTINGS_SCANNED,
        &DENSE_QUERY_EMBEDS,
        &RERANK_CALLS,
        &RERANK_PAIRS_SCORED,
        &LLM_READER_CALLS,
        &LLM_FEEDBACK_CALLS,
        &LLM_INPUT_TOKENS,
        &LLM_OUTPUT_TOKENS,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gates_on_global_flag() {
        static LOCAL: Counter = Counter::new("sage_test_local_total", "test only");
        let _flag = crate::flag_lock();
        let before = crate::enabled();
        crate::set_enabled(false);
        LOCAL.add(5);
        assert_eq!(LOCAL.get(), 0, "disabled counter must not move");
        crate::set_enabled(true);
        LOCAL.add(5);
        LOCAL.inc();
        assert_eq!(LOCAL.get(), 6);
        crate::set_enabled(before);
    }

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for c in all() {
            assert!(seen.insert(c.name()), "duplicate metric name {}", c.name());
            assert!(c.name().starts_with("sage_"), "{}", c.name());
            assert!(c.name().ends_with("_total"), "{}", c.name());
            assert!(!c.help().is_empty());
        }
        for f in labeled() {
            assert!(seen.insert(f.name()), "duplicate metric name {}", f.name());
            assert!(f.name().starts_with("sage_"), "{}", f.name());
            assert!(f.name().ends_with("_total"), "{}", f.name());
            assert!(!f.help().is_empty());
            assert!(!f.key().is_empty());
            let labels: Vec<_> = f.entries().map(|(l, _)| l).collect();
            let mut uniq = labels.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(labels.len(), uniq.len(), "duplicate label in {}", f.name());
        }
    }

    #[test]
    fn labeled_counters_gate_and_ignore_bad_indexes() {
        let _flag = crate::flag_lock();
        let before = crate::enabled();
        crate::set_enabled(true);
        let start = BROWNOUT_TOTAL.get(0);
        BROWNOUT_TOTAL.inc(0);
        BROWNOUT_TOTAL.add(0, 2);
        assert_eq!(BROWNOUT_TOTAL.get(0), start + 3);
        BROWNOUT_TOTAL.add(999, 5); // out of range: ignored, no panic
        assert_eq!(BROWNOUT_TOTAL.get(999), 0);
        assert!(BROWNOUT_TOTAL.total() >= start + 3);
        crate::set_enabled(before);
    }
}
