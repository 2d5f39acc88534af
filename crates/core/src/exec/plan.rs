//! The query-plan IR: the stage sequence a query will execute, resolved
//! from the configuration up front and rewritten — never branched around —
//! to the brownout rung its budget plans.
//!
//! A plan has a *prelude* (embed → retrieve → rerank, run once) and a
//! *round* template (select → read → feedback, run up to `max_rounds`
//! times), followed by the implicit fuse stage that folds the rounds into
//! one [`crate::QueryResult`]. A brownout rung is [`QueryPlan::apply_rung`]:
//! a pure rewrite of the ops (drop feedback; bypass rerank and flatten
//! selection), applied once, before the first slot runs.

use crate::config::{RetrieverKind, SageConfig};
use sage_admission::BrownoutLevel;

/// How the rerank stage scores the candidate pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RerankMode {
    /// Score every candidate with the cross-encoder.
    Full,
    /// Keep the first-stage retrieval order (no scorer configured, or the
    /// flat top-k brownout rung).
    Bypass,
}

/// How the select stage picks the context from the ranked list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectMode {
    /// Gradient-based chunk selection (Algorithm 2).
    Gradient,
    /// Fixed top-`min_k` prefix (naive RAG, or the flat top-k brownout
    /// rung).
    Flat,
}

/// One operation in a query plan. `Copy` so the executor hands each slot
/// its op by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOp {
    /// Embed the question with the dense encoder.
    Embed,
    /// Exact flat-index search over the embedding.
    RetrieveDense,
    /// Sparse inverted-index retrieval. `fallback` marks the degraded
    /// substitution spliced in when the embedder is exhausted, as opposed
    /// to a BM25-primary system's first stage.
    RetrieveBm25 {
        /// True when this op replaced a failed dense retrieval.
        fallback: bool,
    },
    /// Cross-encoder rerank of the candidate pool.
    Rerank(RerankMode),
    /// Context selection over the ranked list.
    Select(SelectMode),
    /// One generation call over the selected context.
    Read,
    /// Self-feedback judgement of the round's answer.
    Feedback,
    /// Fold the executed rounds into the final [`crate::QueryResult`].
    Fuse,
}

impl StageOp {
    /// Short lowercase name for traces and `sage explain`.
    pub fn name(&self) -> &'static str {
        match self {
            StageOp::Embed => "embed",
            StageOp::RetrieveDense => "retrieve-dense",
            StageOp::RetrieveBm25 { .. } => "retrieve-bm25",
            StageOp::Rerank(_) => "rerank",
            StageOp::Select(_) => "select",
            StageOp::Read => "read",
            StageOp::Feedback => "feedback",
            StageOp::Fuse => "fuse",
        }
    }

    fn describe(&self) -> String {
        match self {
            StageOp::RetrieveBm25 { fallback: true } => "retrieve-bm25 (fallback)".to_string(),
            StageOp::Rerank(RerankMode::Full) => "rerank (full pool)".to_string(),
            StageOp::Rerank(RerankMode::Bypass) => "rerank (bypass: retrieval order)".to_string(),
            StageOp::Select(SelectMode::Gradient) => "select (gradient)".to_string(),
            StageOp::Select(SelectMode::Flat) => "select (flat top-k)".to_string(),
            op => op.name().to_string(),
        }
    }
}

/// A resolved query plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// Run once, before the round loop: retrieval + rerank.
    pub prelude: Vec<StageOp>,
    /// The per-round template: selection, generation, judgement.
    pub round: Vec<StageOp>,
    /// Upper bound on rounds (1 without feedback; `max_feedback_rounds`
    /// with it — the loop also stops on a stable selection, an exhausted
    /// reader, or a feedback score at threshold).
    pub max_rounds: usize,
}

impl QueryPlan {
    /// Resolve the plan for a configuration. `dense` selects the two-op
    /// embed + vector-search prelude over single-op BM25; `scorer` is
    /// whether a cross-encoder is fitted (rerank is bypassed without one).
    pub fn resolve(config: &SageConfig, dense: bool, scorer: bool) -> Self {
        let mut prelude = if dense {
            vec![StageOp::Embed, StageOp::RetrieveDense]
        } else {
            vec![StageOp::RetrieveBm25 { fallback: false }]
        };
        prelude.push(StageOp::Rerank(if scorer { RerankMode::Full } else { RerankMode::Bypass }));
        let mut round = vec![
            StageOp::Select(if config.use_selection {
                SelectMode::Gradient
            } else {
                SelectMode::Flat
            }),
            StageOp::Read,
        ];
        if config.use_feedback {
            round.push(StageOp::Feedback);
        }
        QueryPlan {
            prelude,
            round,
            max_rounds: if config.use_feedback { config.max_feedback_rounds } else { 1 },
        }
    }

    /// [`QueryPlan::resolve`] from a retriever kind instead of a built
    /// system: `dense` is every kind but BM25, and a scorer is fitted
    /// exactly when the config asks for reranking or selection (mirroring
    /// [`crate::RagSystem::build`]). Lets `sage explain` print the plan a
    /// question would run without building an index.
    pub fn for_kind(config: &SageConfig, kind: RetrieverKind) -> Self {
        let dense = !matches!(kind, RetrieverKind::Bm25);
        let scorer = config.use_rerank || config.use_selection;
        Self::resolve(config, dense, scorer)
    }

    /// The degenerate plan for a request that names its chunks
    /// ([`crate::pipeline::Request::chunks`]): one generation call over a
    /// caller-fixed context.
    pub fn fixed() -> Self {
        QueryPlan { prelude: Vec::new(), round: vec![StageOp::Read], max_rounds: 1 }
    }

    /// Whether the (possibly rewritten) round template judges answers.
    /// When it does not, the first completed round is final.
    pub fn has_feedback(&self) -> bool {
        self.round.contains(&StageOp::Feedback)
    }

    /// Apply brownout rung(s) up to `level` as a plan rewrite. Idempotent
    /// and cumulative: each rung implies the shallower ones.
    pub fn apply_rung(&mut self, level: BrownoutLevel) {
        if level >= BrownoutLevel::DropFeedback {
            self.round.retain(|op| *op != StageOp::Feedback);
        }
        if level >= BrownoutLevel::FlatTopK {
            for op in self.prelude.iter_mut() {
                if matches!(op, StageOp::Rerank(_)) {
                    *op = StageOp::Rerank(RerankMode::Bypass);
                }
            }
            for op in self.round.iter_mut() {
                if *op == StageOp::Select(SelectMode::Gradient) {
                    *op = StageOp::Select(SelectMode::Flat);
                }
            }
        }
    }

    /// Splice the BM25 substitution in after the embedder was exhausted:
    /// the op at `next` (the pending vector search) becomes a fallback
    /// BM25 retrieval; the rest of the plan is untouched.
    pub(crate) fn on_bm25_fallback(&mut self, next: usize) {
        if let Some(op) = self.prelude.get_mut(next) {
            if *op == StageOp::RetrieveDense {
                *op = StageOp::RetrieveBm25 { fallback: true };
            }
        }
    }

    /// Human-readable rendering of the plan plus the rewrite each brownout
    /// rung would apply — the body of `sage explain`.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str("prelude:\n");
        for op in &self.prelude {
            out.push_str(&format!("  {}\n", op.describe()));
        }
        out.push_str(&format!("rounds (up to {}):\n", self.max_rounds));
        for op in &self.round {
            out.push_str(&format!("  {}\n", op.describe()));
        }
        out.push_str("  fuse\n");
        out.push_str(
            "middleware (per slot): telemetry span -> stage -> telemetry close \
             (the budget's rung is applied once, before the first slot)\n",
        );
        out.push_str("brownout rewrites:\n");
        for level in [BrownoutLevel::DropFeedback, BrownoutLevel::FlatTopK] {
            let mut rewritten = self.clone();
            rewritten.apply_rung(level);
            let delta = if rewritten == *self {
                "no change".to_string()
            } else {
                let ops: Vec<String> = rewritten
                    .prelude
                    .iter()
                    .chain(rewritten.round.iter())
                    .map(|op| op.describe())
                    .collect();
                ops.join(" -> ")
            };
            out.push_str(&format!("  rung {level:?}: {delta}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sage_plan_has_feedback_and_gradient() {
        let plan = QueryPlan::resolve(&SageConfig::sage(), true, true);
        assert_eq!(
            plan.prelude,
            vec![StageOp::Embed, StageOp::RetrieveDense, StageOp::Rerank(RerankMode::Full)]
        );
        assert_eq!(
            plan.round,
            vec![StageOp::Select(SelectMode::Gradient), StageOp::Read, StageOp::Feedback]
        );
        assert!(plan.has_feedback());
        assert_eq!(plan.max_rounds, SageConfig::sage().max_feedback_rounds);
    }

    #[test]
    fn naive_plan_is_flat_single_round() {
        let cfg = SageConfig::naive_rag();
        let plan = QueryPlan::for_kind(&cfg, RetrieverKind::Bm25);
        assert_eq!(
            plan.prelude,
            vec![StageOp::RetrieveBm25 { fallback: false }, StageOp::Rerank(RerankMode::Bypass)]
        );
        assert_eq!(plan.round, vec![StageOp::Select(SelectMode::Flat), StageOp::Read]);
        assert_eq!(plan.max_rounds, 1);
    }

    #[test]
    fn rungs_rewrite_cumulatively() {
        let mut plan = QueryPlan::resolve(&SageConfig::sage(), true, true);
        plan.apply_rung(BrownoutLevel::DropFeedback);
        assert!(!plan.has_feedback());
        assert_eq!(plan.prelude[2], StageOp::Rerank(RerankMode::Full));
        plan.apply_rung(BrownoutLevel::FlatTopK);
        assert_eq!(plan.prelude[2], StageOp::Rerank(RerankMode::Bypass));
        assert_eq!(plan.round, vec![StageOp::Select(SelectMode::Flat), StageOp::Read]);
        // Idempotent: re-applying changes nothing.
        let snapshot = plan.clone();
        plan.apply_rung(BrownoutLevel::FlatTopK);
        assert_eq!(plan, snapshot);
    }

    #[test]
    fn bm25_fallback_splices_into_dense_prelude() {
        let mut plan = QueryPlan::resolve(&SageConfig::sage(), true, true);
        plan.on_bm25_fallback(1);
        assert_eq!(plan.prelude[1], StageOp::RetrieveBm25 { fallback: true });
        // The rewrite only targets a pending dense search.
        plan.on_bm25_fallback(2);
        assert_eq!(plan.prelude[2], StageOp::Rerank(RerankMode::Full));
    }

    #[test]
    fn explain_lists_stages_and_rungs() {
        let plan = QueryPlan::resolve(&SageConfig::sage(), true, true);
        let text = plan.explain();
        assert!(text.contains("embed"));
        assert!(text.contains("select (gradient)"));
        assert!(text.contains("rung DropFeedback"));
        assert!(text.contains("rung FlatTopK"));
        assert_eq!(text.lines().filter(|l| l.trim_start().starts_with("rung ")).count(), 2);
    }
}
