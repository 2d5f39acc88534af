//! The query-plan IR: the stage sequence a query will execute, resolved
//! from the configuration up front and rewritten — never branched around —
//! when the brownout ladder ratchets.
//!
//! A plan has a *prelude* (embed → retrieve → rerank, run once) and a
//! *round* template (select → read → feedback, run up to `max_rounds`
//! times), followed by the implicit fuse stage that folds the rounds into
//! one [`crate::QueryResult`]. Brownout rung N is [`QueryPlan::apply_rung`]:
//! a pure rewrite of the remaining ops (drop feedback, shrink or bypass
//! rerank, flatten selection). Because [`sage_admission::BudgetMeter`]
//! ratchets monotonically, a rewrite applied at one checkpoint is exactly
//! the decision every later checkpoint would have made inline — which is
//! why the rewrite formulation preserves the old branch-per-call-site
//! behaviour bit for bit.

use crate::config::{RetrieverKind, SageConfig};
use sage_admission::{BrownoutLevel, CostModel};

/// How the rerank stage scores the candidate pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RerankMode {
    /// Score every candidate with the cross-encoder.
    Full,
    /// Score only the top half of the pool (brownout rung 2); the
    /// first-stage order is the quality prior for the rest.
    Shrunk,
    /// Keep the first-stage retrieval order (no scorer configured, or
    /// brownout rung 3).
    Bypass,
}

/// How the select stage picks the context from the ranked list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectMode {
    /// Gradient-based chunk selection (Algorithm 2).
    Gradient,
    /// Fixed top-`min_k` prefix (naive RAG, or brownout rung 4).
    Flat,
}

/// One operation in a query plan. `Copy` so executor slots can re-fetch
/// the (possibly rewritten) op cheaply at every middleware boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOp {
    /// Embed the question with the dense encoder.
    Embed,
    /// Vector search (HNSW tier, then exact flat scan) over the embedding.
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
            StageOp::Rerank(RerankMode::Shrunk) => "rerank (top half)".to_string(),
            StageOp::Rerank(RerankMode::Bypass) => "rerank (bypass: retrieval order)".to_string(),
            StageOp::Select(SelectMode::Gradient) => "select (gradient)".to_string(),
            StageOp::Select(SelectMode::Flat) => "select (flat top-k)".to_string(),
            op => op.name().to_string(),
        }
    }
}

/// Where a slot lives in the plan, so the executor can re-fetch the op
/// after a brownout rewrite touched the very slot it is about to run.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Loc {
    /// Index into [`QueryPlan::prelude`].
    Prelude(usize),
    /// Index into [`QueryPlan::round`].
    Round(usize),
}

/// The scatter-gather fan-out a retrieval slot resolves to when the system
/// is sharded: how many fault domains the lookup spans, the survivor
/// quorum below which the query leaves the shard path for the BM25/flat
/// fallback chain, and the per-shard virtual-clock slice whose overrun
/// triggers a deterministic hedged re-probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fanout {
    /// Shard fault domains the retrieval fans out across.
    pub shards: u32,
    /// Minimum surviving shards to serve from the shard path.
    pub quorum: u32,
    /// Virtual-clock budget slice per shard probe, carved from the query's
    /// search cost; a probe whose injected delay exceeds it is hedged.
    pub slice: std::time::Duration,
}

impl Fanout {
    /// A fan-out over `shards` domains with the default majority quorum.
    /// The per-probe slice is the cost model's search time — the same
    /// deterministic constant the budget meter charges for the stage.
    pub fn new(shards: u32, quorum: Option<u32>) -> Self {
        let shards = shards.max(1);
        let quorum = quorum.unwrap_or(shards / 2 + 1).clamp(1, shards);
        Self { shards, quorum, slice: CostModel::default().search_time }
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
    /// Scatter-gather fan-out for the retrieval slots (`None` = unsharded;
    /// [`Fanout::new`] with `shards == 1` is byte-equivalent to `None`).
    pub fanout: Option<Fanout>,
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
            fanout: None,
        }
    }

    /// Builder: attach a scatter-gather fan-out to the retrieval slots.
    pub fn with_fanout(mut self, fanout: Fanout) -> Self {
        self.fanout = Some(fanout);
        self
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

    /// The degenerate plan for [`crate::RagSystem::answer_with_chunks`]:
    /// one generation call over a caller-fixed context.
    pub fn fixed() -> Self {
        QueryPlan { prelude: Vec::new(), round: vec![StageOp::Read], max_rounds: 1, fanout: None }
    }

    /// Whether the (possibly rewritten) round template still judges
    /// answers. When it does not, the first completed round is final.
    pub fn has_feedback(&self) -> bool {
        self.round.contains(&StageOp::Feedback)
    }

    /// Fetch the op at `loc`. Executed slots are never revisited, so the
    /// only shifting rewrite (dropping feedback, the last round op) cannot
    /// invalidate a live location; a vanished slot reads as `Fuse`, which
    /// every middleware hook ignores.
    pub(crate) fn get(&self, loc: Loc) -> StageOp {
        let op = match loc {
            Loc::Prelude(i) => self.prelude.get(i),
            Loc::Round(i) => self.round.get(i),
        };
        op.copied().unwrap_or(StageOp::Fuse)
    }

    /// Apply brownout rung(s) up to `level` as a plan rewrite. Idempotent
    /// and cumulative: each rung implies the shallower ones.
    pub fn apply_rung(&mut self, level: BrownoutLevel) {
        if level >= BrownoutLevel::DropFeedback {
            self.round.retain(|op| *op != StageOp::Feedback);
        }
        if level >= BrownoutLevel::ShrinkRerank {
            for op in self.prelude.iter_mut() {
                if *op == StageOp::Rerank(RerankMode::Full) {
                    *op = StageOp::Rerank(RerankMode::Shrunk);
                }
            }
        }
        if level >= BrownoutLevel::SkipRerank {
            for op in self.prelude.iter_mut() {
                if matches!(op, StageOp::Rerank(_)) {
                    *op = StageOp::Rerank(RerankMode::Bypass);
                }
            }
        }
        if level >= BrownoutLevel::FlatTopK {
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
        if let Some(f) = self.fanout {
            out.push_str(&format!(
                "fan-out (retrieval slots): scatter-gather over {} shard fault domain(s)\n",
                f.shards
            ));
            out.push_str(
                "  per-shard k: full top-k (exact partition; merge equals unsharded)\n",
            );
            out.push_str(&format!(
                "  budget slice: {:.0?} virtual per shard probe; overrun -> hedged re-probe\n",
                f.slice
            ));
            out.push_str(&format!(
                "  quorum: {}/{} survivors (below -> bm25/flat fallback chain, \
                 shard-partial rung otherwise)\n",
                f.quorum, f.shards
            ));
            out.push_str(
                "  merge: score desc, global-id tie-break (completion-order invariant)\n",
            );
        }
        out.push_str(
            "middleware (per slot): budget checkpoint -> rung rewrite -> telemetry span \
             -> stage -> telemetry close -> budget settle -> rung rewrite\n",
        );
        out.push_str("brownout rewrites:\n");
        for level in [
            BrownoutLevel::DropFeedback,
            BrownoutLevel::ShrinkRerank,
            BrownoutLevel::SkipRerank,
            BrownoutLevel::FlatTopK,
        ] {
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
        plan.apply_rung(BrownoutLevel::SkipRerank);
        assert_eq!(plan.prelude[2], StageOp::Rerank(RerankMode::Bypass));
        plan.apply_rung(BrownoutLevel::FlatTopK);
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
        assert!(!text.contains("fan-out"), "unsharded plan must not render a fan-out");
    }

    #[test]
    fn fanout_resolves_quorum_and_renders() {
        let f = Fanout::new(4, None);
        assert_eq!((f.shards, f.quorum), (4, 3), "default quorum is a majority");
        assert_eq!(Fanout::new(0, None).shards, 1, "clamped to one shard");
        assert_eq!(Fanout::new(4, Some(9)).quorum, 4, "quorum clamped to shards");
        let plan = QueryPlan::resolve(&SageConfig::sage(), true, true).with_fanout(f);
        let text = plan.explain();
        assert!(text.contains("fan-out"), "{text}");
        assert!(text.contains("4 shard fault domain(s)"), "{text}");
        assert!(text.contains("quorum: 3/4"), "{text}");
        assert!(text.contains("hedged re-probe"), "{text}");
    }
}
