//! The query plan: which variant of each stage a query runs, resolved from
//! the configuration up front and rewritten — never branched around — to
//! the brownout rung its budget plans. The executor reads these fields and
//! `sage explain` renders them, so what `explain` prints is what runs.

use crate::config::{RetrieverKind, SageConfig};
use sage_admission::BrownoutLevel;

/// A resolved query plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryPlan {
    /// First-stage retrieval embeds the question and searches the vector
    /// index; BM25 otherwise.
    pub dense: bool,
    /// The cross-encoder scores the candidate pool; otherwise the pool keeps
    /// its retrieval order (no scorer fitted, or the flat top-k rung).
    pub rerank: bool,
    /// Gradient-based chunk selection (Algorithm 2); otherwise a fixed
    /// top-`min_k` prefix (naive RAG, or the flat top-k rung).
    pub gradient: bool,
    /// Self-feedback judges each round's answer; otherwise the first round
    /// read is final.
    pub feedback: bool,
    /// Upper bound on rounds (1 without feedback; `max_feedback_rounds`
    /// with it — the loop also stops on a stable selection, an exhausted
    /// reader, or a feedback score at threshold).
    pub max_rounds: usize,
}

impl QueryPlan {
    /// Resolve the plan for a configuration. `dense` selects embed + vector
    /// search over BM25; `scorer` is whether a cross-encoder is fitted
    /// (rerank is bypassed without one).
    pub fn resolve(config: &SageConfig, dense: bool, scorer: bool) -> Self {
        QueryPlan {
            dense,
            rerank: scorer,
            gradient: config.use_selection,
            feedback: config.use_feedback,
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

    /// Apply brownout rung(s) up to `level` as a plan rewrite. Idempotent
    /// and cumulative: each rung implies the shallower ones.
    pub fn apply_rung(&mut self, level: BrownoutLevel) {
        if level >= BrownoutLevel::DropFeedback {
            self.feedback = false;
        }
        if level >= BrownoutLevel::FlatTopK {
            self.rerank = false;
            self.gradient = false;
        }
    }

    /// The stages run once (retrieval, rerank) and the stages of each round
    /// (selection, generation, judgement), as `sage explain` names them.
    fn stages(&self) -> (Vec<&'static str>, Vec<&'static str>) {
        let mut prelude =
            if self.dense { vec!["embed", "retrieve-dense"] } else { vec!["retrieve-bm25"] };
        prelude.push(if self.rerank {
            "rerank (full pool)"
        } else {
            "rerank (bypass: retrieval order)"
        });
        let mut round =
            vec![if self.gradient { "select (gradient)" } else { "select (flat top-k)" }];
        round.push("read");
        if self.feedback {
            round.push("feedback");
        }
        (prelude, round)
    }

    /// Human-readable rendering of the plan plus the rewrite each brownout
    /// rung would apply — the body of `sage explain`.
    pub fn explain(&self) -> String {
        let (prelude, round) = self.stages();
        let mut out = String::from("prelude:\n");
        for stage in prelude {
            out.push_str(&format!("  {stage}\n"));
        }
        out.push_str(&format!("rounds (up to {}):\n", self.max_rounds));
        for stage in round {
            out.push_str(&format!("  {stage}\n"));
        }
        out.push_str("  fuse\n");
        out.push_str(
            "telemetry: each stage opens and closes its own span \
             (the budget's rung is applied once, before retrieval)\n",
        );
        out.push_str("brownout rewrites:\n");
        for level in [BrownoutLevel::DropFeedback, BrownoutLevel::FlatTopK] {
            let mut rewritten = *self;
            rewritten.apply_rung(level);
            let delta = if rewritten == *self {
                "no change".to_string()
            } else {
                let (prelude, round) = rewritten.stages();
                [prelude, round].concat().join(" -> ")
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
        let max_rounds = SageConfig::sage().max_feedback_rounds;
        let want =
            QueryPlan { dense: true, rerank: true, gradient: true, feedback: true, max_rounds };
        assert_eq!(plan, want);
    }

    #[test]
    fn naive_plan_is_flat_single_round() {
        let plan = QueryPlan::for_kind(&SageConfig::naive_rag(), RetrieverKind::Bm25);
        let want = QueryPlan {
            dense: false,
            rerank: false,
            gradient: false,
            feedback: false,
            max_rounds: 1,
        };
        assert_eq!(plan, want);
    }

    #[test]
    fn rungs_rewrite_cumulatively() {
        let mut plan = QueryPlan::resolve(&SageConfig::sage(), true, true);
        plan.apply_rung(BrownoutLevel::DropFeedback);
        assert!(!plan.feedback);
        assert!(plan.rerank && plan.gradient);
        plan.apply_rung(BrownoutLevel::FlatTopK);
        assert!(!plan.rerank && !plan.gradient && !plan.feedback);
        assert!(plan.dense);
        // Idempotent: re-applying changes nothing.
        let snapshot = plan;
        plan.apply_rung(BrownoutLevel::FlatTopK);
        assert_eq!(plan, snapshot);
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
