//! The SAGE pipeline (paper Figure 2): build (segment → embed → index) and
//! query (retrieve → rerank → gradient-select → generate → self-feedback).
//!
//! This module owns system *construction* and the query entry point;
//! query execution itself lives in [`crate::exec`]: [`RagSystem::answer`]
//! hands a [`Request`] to the one deterministic executor.

use crate::config::{RetrieverKind, SageConfig};
use crate::models::TrainedModels;
pub use crate::result::{BuildPhases, BuildStats, PhaseTime, QueryResult};
pub use crate::retriever::AnyRetriever;
use crate::{indexing, segmentation};
use sage_admission::QueryBudget;
use sage_eval::Cost;
use sage_llm::{LlmProfile, SimLlm};
use sage_rerank::{CrossScorer, RankedChunk};
use sage_resilience::{FallbackCounters, FaultPlan, SageError};
use sage_retrieval::Bm25Retriever;
use sage_telemetry::{BuildRecord, Stage, Telemetry};
use sage_vecdb::FlatIndex;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One query for [`RagSystem::answer`]: the question plus the inputs that
/// shape its plan. Set the ones needed over [`Request::new`], e.g.
/// `Request { budget: Some(b), ..Request::new(q) }`.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    /// The question to answer.
    pub question: &'a str,
    /// Multiple-choice options; `None` answers open-ended.
    pub options: Option<&'a [String]>,
    /// A deadline/token budget. The executor plans one rung of the
    /// brownout ladder (drop feedback → flat top-k) from it before the
    /// first stage ([`QueryBudget::plan`]); each rung
    /// lands in [`QueryResult::degraded`]. The plan compares the budget
    /// with deterministic model costs, never the wall clock.
    pub budget: Option<QueryBudget>,
    /// A caller-chosen context: one read over these chunk ids (no
    /// retrieval, selection or feedback). Ids outside the chunk store are
    /// skipped, so [`QueryResult::selected`] lists what the reader saw.
    pub chunks: Option<&'a [usize]>,
}

impl<'a> Request<'a> {
    /// An open-ended question with no budget, over the retrieved context.
    pub fn new(question: &'a str) -> Self {
        Request { question, options: None, budget: None, chunks: None }
    }
}

/// A built RAG system over one corpus.
pub struct RagSystem {
    pub(crate) config: SageConfig,
    kind: RetrieverKind,
    pub(crate) chunks: Vec<String>,
    pub(crate) retriever: AnyRetriever,
    pub(crate) scorer: Option<CrossScorer>,
    pub(crate) llm: SimLlm,
    stats: BuildStats,
    /// The faults injected at the guarded component boundaries every query
    /// runs behind (runtime-only; [`FaultPlan::none`] unless
    /// [`RagSystem::set_faults`] says otherwise).
    pub(crate) faults: FaultPlan,
    /// The BM25 fallback tier over `chunks`: built on the first
    /// `dense->bm25` fallback rather than beside every dense index, and
    /// dropped by `add_documents`.
    fallback_bm25: OnceLock<Bm25Retriever>,
    /// Fired-fallback totals across every query this system answered.
    pub(crate) counters: FallbackCounters,
    /// Runtime-only telemetry hub (never persisted); `None` means no
    /// spans, histograms, or ledger entries are recorded for this system.
    pub(crate) telemetry: Option<Arc<Telemetry>>,
}

impl RagSystem {
    /// Build a system over `corpus` (one string per document; documents
    /// use `'\n'` between paragraphs). Documents are segmented on every
    /// core, and their chunks kept in document order; the index and the
    /// reranker's IDF table are then built on every core from one analysis
    /// of each chunk.
    pub fn build(
        models: &TrainedModels,
        kind: RetrieverKind,
        config: SageConfig,
        profile: LlmProfile,
        corpus: &[String],
    ) -> Self {
        Self::build_on(models, kind, config, profile, corpus, segmentation::workers())
    }

    /// [`build`](Self::build) on at most `workers` threads.
    pub(crate) fn build_on(
        models: &TrainedModels,
        kind: RetrieverKind,
        config: SageConfig,
        profile: LlmProfile,
        corpus: &[String],
        workers: usize,
    ) -> Self {
        // 1. Segmentation (Figure 2 (A) steps 1-2).
        let segmented = segmentation::segment_corpus(models, &config, corpus, workers);
        let chunks = segmented.chunks;

        // 2. Index construction (steps 3-4), and the corpus IDF table the
        //    reranker needs for reranking or selection.
        let wants_scorer = config.use_rerank || config.use_selection;
        let (retriever, indexed) =
            AnyRetriever::empty(kind, models).index_on(&chunks, workers, wants_scorer);
        let scorer = indexed.idf.map(|idf| {
            let mut scorer = models.scorer.clone();
            scorer.set_idf(idf);
            scorer
        });

        let phases = BuildPhases { segment: segmented.time, ..indexed.phases };
        let stats = BuildStats::new(&chunks, &retriever, segmented.corpus_tokens, phases);
        Self::assemble(config, kind, chunks, retriever, scorer, profile, stats)
    }

    /// The one struct literal: no faults, no fallback tier yet, no
    /// telemetry hub.
    fn assemble(
        config: SageConfig,
        kind: RetrieverKind,
        chunks: Vec<String>,
        retriever: AnyRetriever,
        scorer: Option<CrossScorer>,
        profile: LlmProfile,
        stats: BuildStats,
    ) -> Self {
        Self {
            config,
            kind,
            chunks,
            retriever,
            scorer,
            llm: SimLlm::new(profile),
            stats,
            faults: FaultPlan::none(),
            fallback_bm25: OnceLock::new(),
            counters: FallbackCounters::new(),
            telemetry: None,
        }
    }

    /// Incrementally add documents to a built system: new text is
    /// segmented with the same strategy, appended to the chunk store, and
    /// the enlarged store is re-indexed from scratch on every core (a dense
    /// retriever re-embeds every chunk so ids stay equal to chunk positions;
    /// BM25 rebuilds its postings) with the reranker's IDF table rebuilt
    /// beside it (or, on BM25, shared again). The build stats add the new
    /// documents' segmentation and take the re-index's phases as their own.
    pub fn add_documents(&mut self, models: &TrainedModels, corpus: &[String]) {
        self.add_documents_on(models, corpus, segmentation::workers());
    }

    /// [`add_documents`](Self::add_documents) on at most `workers` threads.
    pub(crate) fn add_documents_on(
        &mut self,
        models: &TrainedModels,
        corpus: &[String],
        workers: usize,
    ) {
        let segmented = segmentation::segment_corpus(models, &self.config, corpus, workers);
        self.chunks.extend(segmented.chunks);
        // The retriever is rebuilt with its own embedder; its old index is
        // freed before the new one is allocated.
        let old = std::mem::replace(&mut self.retriever, AnyRetriever::Bm25(Bm25Retriever::new()));
        let (retriever, indexed) = old.index_on(&self.chunks, workers, self.scorer.is_some());
        self.retriever = retriever;
        if let (Some(scorer), Some(idf)) = (&mut self.scorer, indexed.idf) {
            scorer.set_idf(idf);
        }
        let mut phases = BuildPhases { segment: self.stats.phases.segment, ..indexed.phases };
        phases.segment += segmented.time;
        let corpus_tokens = self.stats.corpus_tokens + segmented.corpus_tokens;
        self.stats = BuildStats::new(&self.chunks, &self.retriever, corpus_tokens, phases);
        // The fallback tier indexed the old chunk store; the next fallback
        // rebuilds it over the enlarged one.
        self.fallback_bm25 = OnceLock::new();
    }

    /// Inject `plan`'s faults from now on. Every query runs behind per-query
    /// guards — validated component boundaries, retries with virtual-time
    /// backoff, a consecutive-failure cap and the documented degradation
    /// chain — under this plan; the default, [`FaultPlan::none`], injects
    /// nothing.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Degraded-mode report: `(fallback label, fire count)` pairs, nonzero
    /// entries only, over every query this system has answered.
    pub fn fallback_counters(&self) -> Vec<(&'static str, u64)> {
        self.counters.snapshot()
    }

    /// The BM25 fallback tier over the chunk store, built on first use.
    pub(crate) fn fallback_bm25(&self) -> &Bm25Retriever {
        self.fallback_bm25.get_or_init(|| indexing::bm25_on_every_core(&self.chunks))
    }

    /// Attach a fresh telemetry hub to this system and return it. From now
    /// on every query records a span trace, per-stage latency histograms,
    /// and a token-cost ledger on the hub; the process-global substrate
    /// counters (`sage_telemetry::metrics`) are switched on as well.
    pub fn enable_telemetry(&mut self) -> Arc<Telemetry> {
        let hub = Arc::new(Telemetry::new());
        self.attach_telemetry(Arc::clone(&hub));
        hub
    }

    /// Attach an existing (possibly shared) telemetry hub. Registers this
    /// system's build statistics with the hub — the segmentation and index
    /// wall-clock measured during [`RagSystem::build`] become the hub's
    /// `segment`/`index` stage observations — and enables the global
    /// substrate counters.
    pub fn attach_telemetry(&mut self, hub: Arc<Telemetry>) {
        sage_telemetry::set_enabled(true);
        hub.record_build(BuildRecord {
            chunk_count: self.stats.chunk_count as u64,
            corpus_tokens: self.stats.corpus_tokens as u64,
            memory_bytes: self.stats.memory_bytes as u64,
            segmentation_ns: self.stats.segmentation_time.as_nanos() as u64,
            index_ns: self.stats.index_time.as_nanos() as u64,
        });
        hub.record_stage(Stage::Segment, self.stats.segmentation_time);
        hub.record_stage(Stage::Index, self.stats.index_time);
        self.telemetry = Some(hub);
    }

    /// Detach the telemetry hub. The process-global counter flag stays on
    /// (another system may share it); flip it explicitly with
    /// `sage_telemetry::set_enabled(false)` when the whole process is done
    /// measuring.
    pub fn disable_telemetry(&mut self) {
        self.telemetry = None;
    }

    /// The attached telemetry hub, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Record a stage observation on the attached hub, if any.
    #[inline]
    pub(crate) fn tel_stage(&self, stage: Stage, d: Duration) {
        if let Some(hub) = &self.telemetry {
            hub.record_stage(stage, d);
        }
    }

    /// Attribute one call's cost to a stage on the attached hub, if any.
    #[inline]
    pub(crate) fn tel_cost(&self, stage: Stage, cost: &Cost) {
        if let Some(hub) = &self.telemetry {
            hub.record_cost(stage, cost.input_tokens, cost.output_tokens);
        }
    }

    /// Answer one request: the one query entry point. A panic anywhere in
    /// the pipeline becomes `Err(SageError::Panicked)`.
    pub fn answer(&self, req: &Request<'_>) -> Result<QueryResult, SageError> {
        crate::exec::caught(self, || crate::exec::execute(self, req))
    }

    /// Answer one open-ended question: [`RagSystem::answer`] on a bare
    /// [`Request`].
    pub fn try_answer_open(&self, question: &str) -> Result<QueryResult, SageError> {
        self.answer(&Request::new(question))
    }

    /// The retriever kind this system was built with.
    pub fn retriever_kind(&self) -> RetrieverKind {
        self.kind
    }

    /// Persistence hook for `persist.rs`.
    pub(crate) fn dense_state(&self) -> Option<(Vec<u8>, &FlatIndex)> {
        self.retriever.dense_state()
    }

    /// The fitted reranker, if any (persistence hook).
    pub(crate) fn scorer_ref(&self) -> Option<&CrossScorer> {
        self.scorer.as_ref()
    }

    /// Reassemble a system from persisted parts (no re-segmentation, no
    /// re-indexing). Build stats report zero offline time and current
    /// memory.
    pub(crate) fn from_parts(
        config: SageConfig,
        kind: RetrieverKind,
        chunks: Vec<String>,
        retriever: AnyRetriever,
        scorer: Option<CrossScorer>,
        profile: LlmProfile,
    ) -> Self {
        let corpus_tokens = chunks.iter().map(|c| sage_text::count_tokens(c)).sum();
        let stats = BuildStats::new(&chunks, &retriever, corpus_tokens, BuildPhases::default());
        Self::assemble(config, kind, chunks, retriever, scorer, profile, stats)
    }

    /// The chunk store.
    pub fn chunks(&self) -> &[String] {
        &self.chunks
    }

    /// Offline build statistics.
    pub fn build_stats(&self) -> &BuildStats {
        &self.stats
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SageConfig {
        &self.config
    }

    /// The underlying reader.
    pub fn llm(&self) -> &SimLlm {
        &self.llm
    }

    /// First-stage + rerank for a question: `(candidate chunk ids, ranked
    /// list over candidate positions)`. Lets callers grade the ranking
    /// against gold evidence, or pick chunks themselves and answer with
    /// [`Request::chunks`]. The scores in rank order
    /// are the Figure-5 curve: the reranker's when present, otherwise the
    /// retriever's. The prelude runs behind the same guards a query does,
    /// so under [`RagSystem::set_faults`] its fallbacks fire as a query's
    /// would; they are neither returned nor counted.
    pub fn candidates(&self, question: &str) -> (Vec<usize>, Vec<RankedChunk>) {
        crate::exec::run_prelude(self, question)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::tiny_models as models;
    use sage_retrieval::Retriever;

    fn build(kind: RetrieverKind, config: SageConfig, profile: LlmProfile) -> RagSystem {
        RagSystem::build(models(), kind, config, profile, &corpus())
    }

    fn corpus() -> Vec<String> {
        vec![
            "Whiskers is a playful tabby cat. He has bright green eyes. His fur is mostly gray.\n\
             The morning fog settled over the valley, as it had for many years.\n\
             Patchy is a ferret with a stubborn streak. Patchy has bright orange eyes.\n\
             Dorinwick was well known in the region. He lives in Ashford. He works as a baker."
                .to_string(),
        ]
    }

    #[test]
    fn sage_answers_open_question() {
        let sys = build(RetrieverKind::OpenAiSim, SageConfig::sage(), LlmProfile::gpt4o_mini());
        assert!(sys.build_stats().chunk_count > 1);
        let r = sys.answer(&Request::new("What is the color of Whiskers's eyes?")).unwrap();
        assert!(r.answer.text.contains("green"), "got {:?}", r.answer.text);
        assert!(!r.selected.is_empty());
        assert!(r.cost.input_tokens > 0);
        assert!(r.feedback_rounds >= 1);
        assert!(r.feedback_score.is_some());
    }

    #[test]
    fn naive_rag_answers_without_feedback() {
        let sys = build(RetrieverKind::Bm25, SageConfig::naive_rag(), LlmProfile::gpt4o_mini());
        let r = sys.answer(&Request::new("Where does Dorinwick live?")).unwrap();
        assert_eq!(r.feedback_rounds, 0);
        assert!(r.feedback_score.is_none());
        assert!(r.answer.text.contains("ashford"), "got {:?}", r.answer.text);
    }

    #[test]
    fn multiple_choice_path() {
        let sys = build(RetrieverKind::OpenAiSim, SageConfig::sage(), LlmProfile::gpt4());
        let options: Vec<String> =
            ["orange", "green", "violet", "gray"].iter().map(|s| s.to_string()).collect();
        let q = "What is the color of Whiskers's eyes?";
        let r = sys.answer(&Request { options: Some(&options), ..Request::new(q) }).unwrap();
        assert_eq!(r.picked_option, Some(1), "answer {:?}", r.answer.text);
    }

    #[test]
    fn sage_uses_fewer_context_tokens_than_naive() {
        // Table XI's mechanism: semantic chunks + selection shrink the
        // generation input. Needs a realistically sized document — on a
        // tiny corpus both methods retrieve everything.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use sage_corpus::document::{generate_document, DocSpec};
        let mut rng = StdRng::seed_from_u64(404);
        let spec = DocSpec {
            num_entities: 16,
            facts_per_entity: 4,
            multi_fact_count: 5,
            filler_paragraphs: 16,
            pronoun_prob: 0.6,
        };
        let doc = generate_document(0, &spec, &mut rng).document;
        let big_corpus = vec![doc.text()];
        let sage = RagSystem::build(
            models(),
            RetrieverKind::OpenAiSim,
            SageConfig { use_feedback: false, ..SageConfig::sage() },
            LlmProfile::gpt4o_mini(),
            &big_corpus,
        );
        let naive = RagSystem::build(
            models(),
            RetrieverKind::OpenAiSim,
            SageConfig::naive_rag(),
            LlmProfile::gpt4o_mini(),
            &big_corpus,
        );
        let q = "What is the color of Whiskers's eyes?";
        let rs = sage.answer(&Request::new(q)).unwrap();
        let rn = naive.answer(&Request::new(q)).unwrap();
        assert!(
            rs.answer.cost.input_tokens < rn.answer.cost.input_tokens,
            "sage {} vs naive {}",
            rs.answer.cost.input_tokens,
            rn.answer.cost.input_tokens
        );
    }

    #[test]
    fn build_stats_populated() {
        let sys = build(RetrieverKind::Sbert, SageConfig::sage(), LlmProfile::unifiedqa_3b());
        let s = sys.build_stats();
        assert!(s.corpus_tokens > 0);
        assert!(s.memory_bytes > 0);
        assert!(s.chunk_count > 0);
        assert_eq!(
            s.chunk_count,
            sys.chunks().len(),
        );
    }

    #[test]
    fn each_phase_that_runs_reports_a_time_and_no_other_does() {
        for config in [SageConfig::sage(), SageConfig::naive_rag()] {
            for kind in RetrieverKind::all() {
                let sys = build(kind, config, LlmProfile::gpt4o_mini());
                let (stats, phases) = (sys.build_stats(), sys.build_stats().phases);
                let dense = kind != RetrieverKind::Bm25;
                let reranks = config.use_rerank || config.use_selection;
                let ran = [
                    (phases.segment, true),
                    (phases.embed, dense),
                    (phases.idf, dense && reranks),
                    (phases.bm25, !dense),
                ];
                for (i, (phase, runs)) in ran.into_iter().enumerate() {
                    let what = format!("phase {i} of {kind:?} under {config:?}");
                    assert_eq!(phase.wall > Duration::ZERO, runs, "{what}: {phase:?}");
                    assert_eq!(phase.busy > Duration::ZERO, runs, "{what}: {phase:?}");
                }
                assert_eq!(stats.segmentation_time, phases.segment.wall);
                let index_walls = phases.embed.wall + phases.idf.wall + phases.bm25.wall;
                assert_eq!(stats.index_time, index_walls);
            }
        }
    }

    #[test]
    fn add_documents_times_its_segmentation_and_reindex() {
        let mut sys = build(RetrieverKind::Bm25, SageConfig::sage(), LlmProfile::gpt4o_mini());
        let built = sys.build_stats().segmentation_time;
        sys.add_documents(models(), &corpus());
        let stats = sys.build_stats();
        assert!(stats.segmentation_time > built, "{:?} after {built:?}", stats.segmentation_time);
        assert!(stats.index_time > Duration::ZERO);
    }

    #[test]
    fn zero_feedback_rounds_degrades_to_unanswerable() {
        // Regression: `use_feedback` with `max_feedback_rounds == 0` used
        // to panic on `best.expect("at least one round ran")`.
        let config = SageConfig { max_feedback_rounds: 0, ..SageConfig::sage() };
        let sys = build(RetrieverKind::OpenAiSim, config, LlmProfile::gpt4o_mini());
        let r = sys.answer(&Request::new("What is the color of Whiskers's eyes?")).unwrap();
        assert_eq!(r.answer.text, "unanswerable");
        assert_eq!(r.feedback_rounds, 0);
        assert!(r.feedback_score.is_none());
        assert!(r.selected.is_empty());
    }

    #[test]
    fn resilience_without_faults_is_transparent() {
        // The guards only validate: a plan with no rates, whatever its
        // seed, serves every question on the primary path, exactly as the
        // default plan does.
        let questions = [
            "What is the color of Whiskers's eyes?",
            "Where does Dorinwick live?",
            "What animal is Patchy?",
        ];
        let build = || {
            build(RetrieverKind::OpenAiSim, SageConfig::sage(), LlmProfile::gpt4o_mini())
        };
        let plain = build();
        let mut reseeded = build();
        reseeded.set_faults(FaultPlan::seeded(99));
        for q in questions {
            let a = plain.answer(&Request::new(q)).unwrap();
            let b = reseeded.answer(&Request::new(q)).unwrap();
            assert_eq!(a.answer.text, b.answer.text, "{q}");
            assert_eq!(a.selected, b.selected, "{q}");
            assert_eq!(a.cost.input_tokens, b.cost.input_tokens, "{q}");
            assert!(a.degraded.is_clean(), "{q}: {:?}", a.degraded);
            assert!(b.degraded.is_clean(), "{q}: {:?}", b.degraded);
        }
        assert_eq!(plain.fallback_counters(), Vec::new());
        assert_eq!(reseeded.fallback_counters(), Vec::new());
        assert!(plain.fallback_bm25.get().is_none(), "no fallback, no tier");
    }

    #[test]
    fn the_fallback_tier_is_built_on_the_first_dense_fallback() {
        use sage_resilience::{Component, FaultKind};
        let q = "What is the color of Whiskers's eyes?";
        let mut dense =
            build(RetrieverKind::OpenAiSim, SageConfig::sage(), LlmProfile::gpt4o_mini());
        dense.set_faults(FaultPlan::failing(Component::Embedder, FaultKind::Transient));
        assert!(dense.fallback_bm25.get().is_none(), "nothing has fallen back yet");
        let r = dense.answer(&Request::new(q)).unwrap();
        assert!(r.answer.text.contains("green"), "got {:?}", r.answer.text);
        let tier = dense.fallback_bm25.get().expect("dense->bm25 built the tier");
        assert_eq!(tier.len(), dense.chunks().len());
        assert_eq!(dense.fallback_counters(), vec![("dense->bm25", 1)]);
        // A BM25 primary has no dense stage to fall back from.
        let mut bm25 = build(RetrieverKind::Bm25, SageConfig::sage(), LlmProfile::gpt4o_mini());
        bm25.set_faults(FaultPlan::failing(Component::Embedder, FaultKind::Transient));
        bm25.answer(&Request::new(q)).unwrap();
        assert!(bm25.fallback_bm25.get().is_none());
    }

    #[test]
    fn try_answer_batch_matches_serial_answers() {
        let sys = build(RetrieverKind::Bm25, SageConfig::sage(), LlmProfile::gpt4o_mini());
        let questions: Vec<String> = [
            "What is the color of Whiskers's eyes?",
            "Where does Dorinwick live?",
            "What animal is Patchy?",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let batch = sys.try_answer_batch(&questions, 2);
        assert_eq!(batch.len(), questions.len());
        for (q, r) in questions.iter().zip(&batch) {
            let serial = sys.answer(&Request::new(q)).unwrap();
            let r = r.as_ref().expect("no faults, no panics");
            assert_eq!(r.answer.text, serial.answer.text);
        }
    }

    #[test]
    fn answer_with_chunks_skips_ids_outside_the_chunk_store() {
        let sys = build(RetrieverKind::Bm25, SageConfig::sage(), LlmProfile::gpt4o_mini());
        let q = "What is the color of Whiskers's eyes?";
        let over = |ids: &[usize]| {
            sys.answer(&Request { chunks: Some(ids), ..Request::new(q) }).unwrap()
        };
        let r = over(&[0, usize::MAX]);
        assert_eq!(r.selected, vec![0], "only the id actually read is reported");
        assert_eq!(r.answer.text, over(&[0]).answer.text);
        // All ids unknown: the reader sees the empty context.
        let none = over(&[usize::MAX]);
        assert!(none.selected.is_empty());
        assert_eq!(none.answer.text, over(&[]).answer.text);
    }

    #[test]
    fn all_retriever_kinds_build() {
        for kind in RetrieverKind::all() {
            let sys = build(kind, SageConfig::sage(), LlmProfile::gpt4o_mini());
            let r = sys.answer(&Request::new("Where does Dorinwick live?")).unwrap();
            assert!(!r.selected.is_empty(), "{kind:?} selected nothing");
        }
    }
}
