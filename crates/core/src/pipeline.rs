//! The SAGE pipeline (paper Figure 2): build (segment → embed → index) and
//! query (retrieve → rerank → gradient-select → generate → self-feedback).
//!
//! This module owns system *construction* and the public entry points;
//! query execution itself lives in [`crate::exec`] — every entry point
//! here resolves a [`crate::exec::QueryPlan`] and hands it to the one
//! deterministic executor.

#![expect(
    clippy::disallowed_methods,
    reason = "this file IS the build-time latency measurement layer: segment/index stage timings feed BuildStats and the telemetry build record; no control flow branches on the readings"
)]

use crate::config::{RetrieverKind, SageConfig};
use crate::models::TrainedModels;
use crate::resilience::{ResilienceConfig, ResilienceState};
pub use crate::result::{BuildStats, QueryResult};
pub use crate::retriever::AnyRetriever;
use sage_admission::{AdmissionConfig, AdmissionQueue, QueryBudget};
use sage_embed::HashedEmbedder;
use sage_eval::Cost;
use sage_llm::{LlmProfile, SimLlm};
use sage_rerank::{CrossScorer, RankedChunk};
use sage_resilience::SageError;
use sage_retrieval::{Bm25Retriever, DenseRetriever};
use sage_segment::{Segmenter, SemanticSegmenter, SentenceSegmenter};
use sage_telemetry::{BuildRecord, Stage, Telemetry};
use sage_vecdb::FlatIndex;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A built RAG system over one corpus.
pub struct RagSystem {
    pub(crate) config: SageConfig,
    kind: RetrieverKind,
    pub(crate) chunks: Vec<String>,
    pub(crate) retriever: AnyRetriever,
    pub(crate) scorer: Option<CrossScorer>,
    pub(crate) llm: SimLlm,
    stats: BuildStats,
    /// Runtime-only serving-path resilience (never persisted); `None`
    /// means guards are off and every query runs the bare primary path.
    pub(crate) resilience: Option<ResilienceState>,
    /// Runtime-only telemetry hub (never persisted); `None` means no
    /// spans, histograms, or ledger entries are recorded for this system.
    pub(crate) telemetry: Option<Arc<Telemetry>>,
    /// Runtime-only admission queue (never persisted); `None` means every
    /// submission is accepted. A `std::sync::Mutex` rather than an atomic
    /// design: admit decisions must see a consistent (depth, seq) pair to
    /// stay deterministic, and the critical section is a few arithmetic
    /// ops.
    pub(crate) admission: Option<Mutex<AdmissionQueue>>,
    /// Runtime-only sharded-serving state (see `crate::exec::scatter`);
    /// `None` serves from the monolithic index.
    pub(crate) shards: Option<crate::exec::scatter::ShardState>,
}

impl RagSystem {
    /// Build a system over `corpus` (one string per document; documents
    /// use `'\n'` between paragraphs).
    pub fn build(
        models: &TrainedModels,
        kind: RetrieverKind,
        config: SageConfig,
        profile: LlmProfile,
        corpus: &[String],
    ) -> Self {
        // 1. Segmentation (Figure 2 (A) steps 1-2).
        let seg_start = Instant::now();
        let chunks = Self::segment_corpus(models, &config, corpus);
        let segmentation_time = seg_start.elapsed();

        // 2. Index construction (steps 3-4).
        let index_start = Instant::now();
        let mut retriever = match kind {
            RetrieverKind::Bm25 => AnyRetriever::Bm25(Bm25Retriever::new()),
            RetrieverKind::OpenAiSim => AnyRetriever::Hashed(DenseRetriever::new(
                HashedEmbedder::default_model(),
                FlatIndex::cosine(),
            )),
            RetrieverKind::Sbert => AnyRetriever::Sbert(DenseRetriever::new(
                models.siamese.clone(),
                FlatIndex::cosine(),
            )),
            RetrieverKind::Dpr => AnyRetriever::Dpr(DenseRetriever::new(
                models.dual.clone(),
                FlatIndex::cosine(),
            )),
        };
        retriever.index_chunks(&chunks);
        let index_time = index_start.elapsed();

        // 3. Reranker with corpus IDF (needed for reranking or selection).
        let scorer = if config.use_rerank || config.use_selection {
            let mut s = models.scorer.clone();
            s.fit_idf(&chunks);
            Some(s)
        } else {
            None
        };

        let corpus_tokens = corpus.iter().map(|d| sage_text::count_tokens(d)).sum();
        let memory_bytes = retriever.memory_bytes()
            + chunks.iter().map(|c| c.capacity()).sum::<usize>();
        let stats = BuildStats {
            chunk_count: chunks.len(),
            segmentation_time,
            index_time,
            corpus_tokens,
            memory_bytes,
        };
        Self::assemble(config, kind, chunks, retriever, scorer, profile, stats)
    }

    /// Segment `corpus` with the strategy `config` selects: the semantic
    /// model, or sentence-aligned chunks up to the naive token budget.
    fn segment_corpus(
        models: &TrainedModels,
        config: &SageConfig,
        corpus: &[String],
    ) -> Vec<String> {
        if config.use_segmentation {
            let segmenter = SemanticSegmenter::with_params(
                models.segmentation.clone(),
                config.segmentation_threshold,
                config.coarse_tokens,
            );
            corpus.iter().flat_map(|doc| segmenter.segment(doc)).collect()
        } else {
            let segmenter = SentenceSegmenter { max_tokens: config.naive_chunk_tokens };
            corpus.iter().flat_map(|doc| segmenter.segment(doc)).collect()
        }
    }

    /// The one struct literal: every runtime-only layer starts detached.
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
            resilience: None,
            telemetry: None,
            admission: None,
            shards: None,
        }
    }

    /// Incrementally add documents to a built system: new text is
    /// segmented with the same strategy, appended to the chunk store, and
    /// the enlarged store is re-indexed from scratch (a dense retriever
    /// clears its index and re-embeds every chunk so ids stay equal to
    /// chunk positions; BM25 rebuilds its postings) before the reranker's
    /// IDF is refitted.
    pub fn add_documents(&mut self, models: &TrainedModels, corpus: &[String]) {
        let new_chunks = Self::segment_corpus(models, &self.config, corpus);
        self.chunks.extend(new_chunks);
        self.retriever.index_chunks(&self.chunks);
        if let Some(scorer) = &mut self.scorer {
            scorer.fit_idf(&self.chunks);
        }
        self.stats.chunk_count = self.chunks.len();
        self.stats.corpus_tokens += corpus.iter().map(|d| sage_text::count_tokens(d)).sum::<usize>();
        self.stats.memory_bytes = self.retriever.memory_bytes()
            + self.chunks.iter().map(|c| c.capacity()).sum::<usize>();
        // Fallback tiers index the same chunk store; keep them in sync.
        if let Some(state) = &mut self.resilience {
            state.reindex(&self.chunks, self.retriever.flat_ref());
        }
        // The shard partition covers the chunk store exactly; re-partition.
        if let Some(ss) = &self.shards {
            self.shards = Some(ss.rebuild(&self.retriever, self.chunks.len()));
        }
    }

    /// Turn on the serving-path resilience layer: guarded component
    /// boundaries, retries with virtual-time backoff, per-query circuit
    /// breakers, and the documented degradation chain. Builds the fallback
    /// tiers (BM25 postings; optionally an HNSW tier over the dense index).
    ///
    /// With `config.plan` empty and `config.use_hnsw == false`, answers are
    /// identical to the unguarded path — the guards only add validation.
    pub fn enable_resilience(&mut self, config: ResilienceConfig) {
        self.resilience =
            Some(ResilienceState::build(config, &self.chunks, self.retriever.flat_ref()));
    }

    /// Whether the resilience layer is active.
    pub fn resilience_enabled(&self) -> bool {
        self.resilience.is_some()
    }

    /// Degraded-mode report: `(fallback label, fire count)` pairs, nonzero
    /// entries only, since resilience was enabled. `None` when disabled.
    pub fn fallback_counters(&self) -> Option<Vec<(&'static str, u64)>> {
        self.resilience.as_ref().map(|s| s.counters.snapshot())
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

    /// Turn on admission control. Batch submissions
    /// ([`RagSystem::try_answer_batch`]) are routed through the bounded
    /// queue as [`sage_admission::Priority::Batch`] work from then on; shed
    /// slots surface as [`SageError::Shed`]. Shed decisions are a pure
    /// function of the queue state and the configured seed — replaying the
    /// same submission sequence sheds the same slots.
    pub fn enable_admission(&mut self, config: AdmissionConfig) {
        self.admission = Some(Mutex::new(AdmissionQueue::new(config)));
    }

    /// Admission report since [`RagSystem::enable_admission`]: admitted
    /// total plus `(class label, shed count)` pairs (nonzero entries
    /// only). `None` when disabled.
    pub fn admission_report(&self) -> Option<(u64, Vec<(&'static str, u64)>)> {
        self.admission.as_ref().map(|m| {
            let q = Self::lock_queue(m);
            (q.admitted_total(), q.shed_snapshot())
        })
    }

    /// Lock the admission queue, recovering from a poisoned lock (a
    /// panicked batch worker must not wedge the serving path — the queue's
    /// own state is a few integers and stays internally consistent).
    pub(crate) fn lock_queue(
        m: &Mutex<AdmissionQueue>,
    ) -> std::sync::MutexGuard<'_, AdmissionQueue> {
        match m.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
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

    /// Answer one open-ended question with panic isolation: a panic
    /// anywhere in the pipeline becomes `Err(SageError::Panicked)`.
    pub fn try_answer_open(&self, question: &str) -> Result<QueryResult, SageError> {
        crate::exec::execute_caught(self, question, None, None)
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
        let memory_bytes =
            retriever.memory_bytes() + chunks.iter().map(|c| c.capacity()).sum::<usize>();
        let stats = BuildStats {
            chunk_count: chunks.len(),
            segmentation_time: Duration::ZERO,
            index_time: Duration::ZERO,
            corpus_tokens,
            memory_bytes,
        };
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

    /// The sorted relevance scores of the question's candidates — the
    /// Figure-5 curve. Uses the reranker when present, otherwise the
    /// retriever's own scores.
    pub fn rerank_scores(&self, question: &str) -> Vec<f32> {
        let (_, ranked) = crate::exec::run_prelude(self, question);
        ranked.iter().map(|r| r.score).collect()
    }

    /// First-stage + rerank for a question: `(candidate chunk ids, ranked
    /// list over candidate positions)`. Lets callers plug in custom chunk
    /// selection (e.g. the flexible selector of the paper's future work)
    /// and then answer via [`RagSystem::answer_with_chunks`].
    pub fn candidates(&self, question: &str) -> (Vec<usize>, Vec<RankedChunk>) {
        crate::exec::run_prelude(self, question)
    }

    /// One generation call over an explicit set of chunk ids (no selection,
    /// no feedback loop). `options` switches to multiple-choice mode.
    pub fn answer_with_chunks(
        &self,
        question: &str,
        chunk_ids: &[usize],
        options: Option<&[String]>,
    ) -> QueryResult {
        crate::exec::execute_fixed(self, question, chunk_ids, options)
    }

    /// Answer an open-ended question.
    pub fn answer_open(&self, question: &str) -> QueryResult {
        crate::exec::execute(self, question, None, None)
    }

    /// Answer a multiple-choice question.
    pub fn answer_multiple_choice(&self, question: &str, options: &[String]) -> QueryResult {
        crate::exec::execute(self, question, Some(options), None)
    }

    /// Answer an open-ended question under a deadline/token budget. The
    /// executor replans at every stage boundary and walks the brownout
    /// ladder (drop feedback → shrink rerank → skip rerank → flat top-k)
    /// as the remaining budget shrinks — each rung is applied as a rewrite
    /// of the remaining plan, and lands in [`QueryResult::degraded`] and
    /// the query's telemetry trace. Budget accounting charges the
    /// deterministic [`sage_admission::CostModel`], never the wall clock,
    /// so the same question with the same budget replays the same
    /// decisions bit-for-bit.
    pub fn answer_open_budgeted(&self, question: &str, budget: QueryBudget) -> QueryResult {
        crate::exec::execute(self, question, None, Some(budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::tiny_models as models;

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
        let sys = RagSystem::build(
            models(),
            RetrieverKind::OpenAiSim,
            SageConfig::sage(),
            LlmProfile::gpt4o_mini(),
            &corpus(),
        );
        assert!(sys.build_stats().chunk_count > 1);
        let r = sys.answer_open("What is the color of Whiskers's eyes?");
        assert!(r.answer.text.contains("green"), "got {:?}", r.answer.text);
        assert!(!r.selected.is_empty());
        assert!(r.cost.input_tokens > 0);
        assert!(r.feedback_rounds >= 1);
        assert!(r.feedback_score.is_some());
    }

    #[test]
    fn naive_rag_answers_without_feedback() {
        let sys = RagSystem::build(
            models(),
            RetrieverKind::Bm25,
            SageConfig::naive_rag(),
            LlmProfile::gpt4o_mini(),
            &corpus(),
        );
        let r = sys.answer_open("Where does Dorinwick live?");
        assert_eq!(r.feedback_rounds, 0);
        assert!(r.feedback_score.is_none());
        assert!(r.answer.text.contains("ashford"), "got {:?}", r.answer.text);
    }

    #[test]
    fn multiple_choice_path() {
        let sys = RagSystem::build(
            models(),
            RetrieverKind::OpenAiSim,
            SageConfig::sage(),
            LlmProfile::gpt4(),
            &corpus(),
        );
        let options: Vec<String> =
            ["orange", "green", "violet", "gray"].iter().map(|s| s.to_string()).collect();
        let r = sys.answer_multiple_choice("What is the color of Whiskers's eyes?", &options);
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
        let rs = sage.answer_open(q);
        let rn = naive.answer_open(q);
        assert!(
            rs.answer.cost.input_tokens < rn.answer.cost.input_tokens,
            "sage {} vs naive {}",
            rs.answer.cost.input_tokens,
            rn.answer.cost.input_tokens
        );
    }

    #[test]
    fn build_stats_populated() {
        let sys = RagSystem::build(
            models(),
            RetrieverKind::Sbert,
            SageConfig::sage(),
            LlmProfile::unifiedqa_3b(),
            &corpus(),
        );
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
    fn zero_feedback_rounds_degrades_to_unanswerable() {
        // Regression: `use_feedback` with `max_feedback_rounds == 0` used
        // to panic on `best.expect("at least one round ran")`.
        let sys = RagSystem::build(
            models(),
            RetrieverKind::OpenAiSim,
            SageConfig { max_feedback_rounds: 0, ..SageConfig::sage() },
            LlmProfile::gpt4o_mini(),
            &corpus(),
        );
        let r = sys.answer_open("What is the color of Whiskers's eyes?");
        assert_eq!(r.answer.text, "unanswerable");
        assert_eq!(r.feedback_rounds, 0);
        assert!(r.feedback_score.is_none());
        assert!(r.selected.is_empty());
    }

    #[test]
    fn resilience_without_faults_is_transparent() {
        let questions = [
            "What is the color of Whiskers's eyes?",
            "Where does Dorinwick live?",
            "What animal is Patchy?",
        ];
        let plain = RagSystem::build(
            models(),
            RetrieverKind::OpenAiSim,
            SageConfig::sage(),
            LlmProfile::gpt4o_mini(),
            &corpus(),
        );
        let mut guarded = RagSystem::build(
            models(),
            RetrieverKind::OpenAiSim,
            SageConfig::sage(),
            LlmProfile::gpt4o_mini(),
            &corpus(),
        );
        guarded.enable_resilience(crate::resilience::ResilienceConfig::default());
        assert!(guarded.resilience_enabled());
        for q in questions {
            let a = plain.answer_open(q);
            let b = guarded.answer_open(q);
            assert_eq!(a.answer.text, b.answer.text, "{q}");
            assert_eq!(a.selected, b.selected, "{q}");
            assert_eq!(a.cost.input_tokens, b.cost.input_tokens, "{q}");
            assert!(b.degraded.is_clean(), "{q}: {:?}", b.degraded);
        }
        assert_eq!(guarded.fallback_counters(), Some(Vec::new()));
    }

    #[test]
    fn try_answer_batch_matches_serial_answers() {
        let sys = RagSystem::build(
            models(),
            RetrieverKind::Bm25,
            SageConfig::sage(),
            LlmProfile::gpt4o_mini(),
            &corpus(),
        );
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
            let serial = sys.answer_open(q);
            let r = r.as_ref().expect("no faults, no panics");
            assert_eq!(r.answer.text, serial.answer.text);
        }
    }

    #[test]
    fn answer_with_chunks_skips_ids_outside_the_chunk_store() {
        let sys = RagSystem::build(
            models(),
            RetrieverKind::Bm25,
            SageConfig::sage(),
            LlmProfile::gpt4o_mini(),
            &corpus(),
        );
        let q = "What is the color of Whiskers's eyes?";
        let r = sys.answer_with_chunks(q, &[0, usize::MAX], None);
        assert_eq!(r.selected, vec![0], "only the id actually read is reported");
        assert_eq!(r.answer.text, sys.answer_with_chunks(q, &[0], None).answer.text);
        // All ids unknown: the reader sees the empty context.
        let none = sys.answer_with_chunks(q, &[usize::MAX], None);
        assert!(none.selected.is_empty());
        assert_eq!(none.answer.text, sys.answer_with_chunks(q, &[], None).answer.text);
    }

    #[test]
    fn all_retriever_kinds_build() {
        for kind in RetrieverKind::all() {
            let sys = RagSystem::build(
                models(),
                kind,
                SageConfig::sage(),
                LlmProfile::gpt4o_mini(),
                &corpus(),
            );
            let r = sys.answer_open("Where does Dorinwick live?");
            assert!(!r.selected.is_empty(), "{kind:?} selected nothing");
        }
    }
}
