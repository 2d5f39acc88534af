//! The mutable state a query plan executes over: the typed blackboard
//! every stage function reads its input from and writes its output to.

use sage_admission::BrownoutLevel;
use sage_eval::Cost;
use sage_llm::{Answer, FeedbackOutcome};
use sage_rerank::RankedChunk;
use sage_resilience::{DegradeTrace, Guards};
use sage_retrieval::ScoredChunk;
use sage_telemetry::Trace;
use std::time::{Duration, Instant};

/// One round's generation output: what the reader answered and over which
/// chunks (the second-best set when the reader degraded).
pub(crate) struct RoundAnswer {
    /// Chosen option index in multiple-choice mode.
    pub picked: Option<usize>,
    /// The generated answer.
    pub answer: Answer,
    /// Chunk ids the reader actually saw.
    pub selected: Vec<usize>,
}

/// Everything a query accumulates while its plan runs. Stages communicate
/// exclusively through these fields; the middleware hooks observe them.
pub(crate) struct QueryCtx<'a> {
    /// The question being answered.
    pub question: &'a str,
    /// Multiple-choice options, when in that mode.
    pub options: Option<&'a [String]>,
    /// This query's guards: per-component failure counts under the
    /// system's fault plan.
    pub guards: Guards<'a>,
    /// Degradation events accumulated so far.
    pub trace: DegradeTrace,
    /// The query's telemetry span trace, when a hub is attached.
    pub qt: Option<Trace>,
    /// The brownout rung the query's budget planned at admission
    /// ([`BrownoutLevel::None`] without a budget).
    pub brownout: BrownoutLevel,

    // --- prelude outputs ---
    /// The embedded question (dense systems; `None` before embed or on
    /// BM25 paths).
    pub query_vec: Option<Vec<f32>>,
    /// First-stage hits, in retrieval order.
    pub hits: Vec<ScoredChunk>,
    /// Candidate chunk ids (hit indices into the chunk store).
    pub cand_ids: Vec<usize>,
    /// Ranked list over candidate *positions*.
    pub ranked: Vec<RankedChunk>,

    // --- round state ---
    /// Current selection floor (feedback adjusts it between rounds).
    pub min_k: usize,
    /// Current round number (0-based).
    pub round: usize,
    /// Previous round's selected positions; a repeat stops the loop.
    pub last_selection: Option<Vec<usize>>,
    /// This round's selected chunk ids.
    pub selected: Vec<usize>,
    /// This round's assembled context text.
    pub context: Vec<String>,
    /// This round's generation output (`None` after a fully exhausted
    /// reader).
    pub current: Option<RoundAnswer>,
    /// Best judged round so far, by feedback score.
    pub best: Option<(u8, RoundAnswer)>,
    /// A final round that was never judged (feedback off or browned out);
    /// it wins over `best` at fuse time with no score.
    pub unjudged: Option<RoundAnswer>,
    /// The latest self-feedback outcome, for the telemetry middleware.
    pub last_feedback: Option<FeedbackOutcome>,
    /// Feedback rounds actually executed.
    pub executed_feedback: usize,

    // --- accumulators ---
    /// Token cost across all generation + feedback calls.
    pub total_cost: Cost,
    /// Simulated generation latency, summed over rounds.
    pub answer_latency: Duration,
    /// Simulated feedback latency, summed over rounds.
    pub feedback_latency: Duration,
    /// Measured retrieval + rerank (or context assembly) wall-clock.
    pub retrieval_latency: Duration,

    // --- plan shape flags ---
    /// Fixed-context mode (a request with `chunks`): context
    /// preassembled, fuse emits a bare single-read result.
    pub fixed: bool,

    // --- telemetry anchors (owned by the middleware) ---
    /// Open retrieve span id.
    pub retrieve_sid: Option<usize>,
    /// Open embed span id.
    pub embed_sid: Option<usize>,
    /// Open span id of the current non-retrieval stage.
    pub stage_sid: Option<usize>,
    /// Start of the first-stage retrieval window.
    pub retrieve_start: Option<Instant>,
    /// Start of the current stage's timing window.
    pub stage_start: Option<Instant>,

    /// The fused result, set by the terminal stage.
    pub result: Option<crate::QueryResult>,
}

impl<'a> QueryCtx<'a> {
    /// A fresh context. `min_k` seeds the selection floor from the
    /// configuration.
    pub(crate) fn new(
        question: &'a str,
        options: Option<&'a [String]>,
        guards: Guards<'a>,
        qt: Option<Trace>,
        min_k: usize,
    ) -> Self {
        QueryCtx {
            question,
            options,
            guards,
            trace: DegradeTrace::new(),
            qt,
            brownout: BrownoutLevel::None,
            query_vec: None,
            hits: Vec::new(),
            cand_ids: Vec::new(),
            ranked: Vec::new(),
            min_k,
            round: 0,
            last_selection: None,
            selected: Vec::new(),
            context: Vec::new(),
            current: None,
            best: None,
            unjudged: None,
            last_feedback: None,
            executed_feedback: 0,
            total_cost: Cost::zero(),
            answer_latency: Duration::ZERO,
            feedback_latency: Duration::ZERO,
            retrieval_latency: Duration::ZERO,
            fixed: false,
            retrieve_sid: None,
            embed_sid: None,
            stage_sid: None,
            retrieve_start: None,
            stage_start: None,
            result: None,
        }
    }
}
