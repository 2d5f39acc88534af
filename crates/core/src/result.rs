//! The observable outcomes of the pipeline: offline build statistics and
//! the per-question [`QueryResult`].

use crate::retriever::AnyRetriever;
use sage_admission::BrownoutLevel;
use sage_eval::Cost;
use sage_llm::Answer;
use sage_resilience::DegradeTrace;
use std::time::Duration;

/// Offline build statistics (the left half of Tables VIII/IX).
#[derive(Debug, Clone, Copy)]
pub struct BuildStats {
    /// Number of chunks produced by segmentation.
    pub chunk_count: usize,
    /// Wall-clock time spent segmenting the corpus (`phases.segment.wall`).
    pub segmentation_time: Duration,
    /// Wall-clock time spent after segmentation: the retrieval index and
    /// the reranker's IDF table (the other three `phases`' walls, summed).
    pub index_time: Duration,
    /// Corpus size in (estimated) LLM tokens.
    pub corpus_tokens: usize,
    /// Approximate resident memory: index structures + chunk text.
    pub memory_bytes: usize,
    /// The time of each phase the build ran.
    pub phases: BuildPhases,
}

impl BuildStats {
    /// The stats of a system over `chunks` served by `retriever`, built in
    /// `phases`.
    pub(crate) fn new(
        chunks: &[String],
        retriever: &AnyRetriever,
        corpus_tokens: usize,
        phases: BuildPhases,
    ) -> Self {
        BuildStats {
            chunk_count: chunks.len(),
            segmentation_time: phases.segment.wall,
            index_time: phases.embed.wall + phases.idf.wall + phases.bm25.wall,
            corpus_tokens,
            memory_bytes: retriever.memory_bytes()
                + chunks.iter().map(String::capacity).sum::<usize>(),
            phases,
        }
    }
}

/// The wall and busy time of each build phase; a phase the build did not
/// run is zero. Each phase runs on the build's ranges, one worker per
/// range. A dense build takes its rows and its IDF stems in one pass over
/// each chunk, so that pass's wall time is split between `embed` and `idf`
/// in proportion to their busy time; the range tables' merge is `idf`'s
/// alone. `add_documents` adds its segmentation to `segment` and replaces
/// the other three with the re-index's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildPhases {
    /// Segmentation, on contiguous document ranges.
    pub segment: PhaseTime,
    /// Analysis, dense embedding and `FlatIndex` rows (a dense retriever).
    pub embed: PhaseTime,
    /// The reranker's IDF table (a dense retriever with a reranker; a BM25
    /// system's reranker shares the BM25 term table).
    pub idf: PhaseTime,
    /// BM25 postings and term table (a BM25 retriever).
    pub bm25: PhaseTime,
}

/// How long one build phase took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTime {
    /// Wall-clock time of the phase.
    pub wall: Duration,
    /// Time its workers spent in it, summed over the workers.
    pub busy: Duration,
}

impl std::ops::AddAssign for PhaseTime {
    fn add_assign(&mut self, other: Self) {
        self.wall += other.wall;
        self.busy += other.busy;
    }
}

/// Everything a single question produced.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The final answer (text, confidence, per-call cost of the *final*
    /// generation call).
    pub answer: Answer,
    /// Chosen option index for multiple-choice questions.
    pub picked_option: Option<usize>,
    /// Chunk ids (into [`crate::pipeline::RagSystem::chunks`]) used as the
    /// final context.
    pub selected: Vec<usize>,
    /// Total token cost across all generation + feedback calls.
    pub cost: Cost,
    /// Number of feedback rounds executed (0 when feedback is off).
    pub feedback_rounds: usize,
    /// Measured retrieval + rerank wall-clock latency.
    pub retrieval_latency: Duration,
    /// Simulated LLM generation latency (summed over rounds).
    pub answer_latency: Duration,
    /// Simulated feedback-call latency (summed over rounds).
    pub feedback_latency: Duration,
    /// Feedback score of the returned answer, when feedback ran.
    pub feedback_score: Option<u8>,
    /// Fallbacks fired while serving this question. Empty (`is_clean`)
    /// when the whole pipeline ran on its primary path — always the case
    /// when resilience is disabled. Budget-driven brownout steps land here
    /// too, one event per ladder rung applied.
    pub degraded: DegradeTrace,
    /// Deepest brownout ladder level this query ratcheted to.
    /// [`BrownoutLevel::None`] on every unbudgeted path.
    pub brownout: BrownoutLevel,
}

impl QueryResult {
    /// The result of a single generation call over a fixed context: no
    /// selection, no feedback loop, no degradation. Shared by the
    /// executor's fixed-context plan and the non-RAG baselines, so the
    /// bookkeeping (cost merge, honest zero feedback latency) cannot
    /// drift between them.
    pub(crate) fn single_read(
        answer: Answer,
        picked_option: Option<usize>,
        selected: Vec<usize>,
        retrieval_latency: Duration,
    ) -> Self {
        let mut cost = Cost::zero();
        cost.merge(answer.cost);
        QueryResult {
            answer_latency: answer.latency,
            answer,
            picked_option,
            selected,
            cost,
            feedback_rounds: 0,
            retrieval_latency,
            // Honest zero: no feedback round runs on this path.
            feedback_latency: Duration::ZERO,
            feedback_score: None,
            degraded: DegradeTrace::new(),
            brownout: BrownoutLevel::None,
        }
    }
}
